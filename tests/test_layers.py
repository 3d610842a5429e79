"""The layers share no logic: each module imports only the modules its row allows.

Every ``import`` and ``from ... import`` anywhere in a module counts,
function-local ones included, in relative and absolute form.  A new
module fails the test until it is given a row here.
"""

import ast
from pathlib import Path

import pytest

import cyclicnum

PACKAGE = Path(cyclicnum.__file__).parent
ANYTHING = None

ALLOWED = {
    "errors": set(),
    "numtheory": set(),
    "perm": set(),
    "groups": {"perm", "errors"},
    "cayley": {"errors"},
    "witness": {"groups", "numtheory", "perm", "errors"},
    "crosscheck": {"cayley", "groups", "perm", "numtheory"},
    "cli": ANYTHING,
    "__init__": ANYTHING,
}

MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


def package_imports(source: str) -> set[str]:
    """The package modules that source imports; the package itself counts as __init__."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level == 0 and base.split(".")[0] != "cyclicnum":
                continue
            if node.level:
                base = "cyclicnum." + base if base else "cyclicnum"
            # from cyclicnum import groups names a module; any other name
            # is read from the package's __init__.
            targets = [base + "." + alias.name if alias.name in MODULES else base for alias in node.names]
        else:
            continue
        for target in targets:
            parts = target.split(".")
            if parts[0] == "cyclicnum":
                out.add(parts[1] if len(parts) > 1 else "__init__")
    return out


def test_every_module_has_a_row():
    assert set(MODULES) == set(ALLOWED)


@pytest.mark.parametrize("module", MODULES)
def test_imports_stay_within_the_allowed_layers(module):
    allowed = ALLOWED[module]
    if allowed is ANYTHING:
        return
    imported = package_imports((PACKAGE / f"{module}.py").read_text())
    assert imported <= allowed, f"{module} imports {sorted(imported - allowed)}"


def private_names_from_groups(source: str) -> set[str]:
    """The names starting with an underscore that source imports from groups."""
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.module == "cyclicnum.groups" or (node.level and node.module == "groups"))
        for alias in node.names
        if alias.name.startswith("_")
    }


def test_cli_imports_no_private_name_from_groups():
    # The CLI formats what the layers compute; group theory stays in groups.
    assert private_names_from_groups((PACKAGE / "cli.py").read_text()) == set()


def test_private_name_reader_sees_both_forms():
    source = """
from .groups import closure, _orbit
from cyclicnum.groups import _normalizer
from .perm import _gather
"""
    assert private_names_from_groups(source) == {"_orbit", "_normalizer"}


def test_import_reader_sees_every_form():
    source = """
import math
import cyclicnum.perm as p
from cyclicnum.groups import closure
from . import witness
from .errors import CapacityError

def search():
    from .numtheory import is_prime
    import cyclicnum
    from cyclicnum import is_cyclic_number
"""
    assert package_imports(source) == {"perm", "groups", "witness", "errors", "numtheory", "__init__"}


def test_public_names_resolve():
    assert len(cyclicnum.__all__) == len(set(cyclicnum.__all__))
    missing = [name for name in cyclicnum.__all__ if not hasattr(cyclicnum, name)]
    assert missing == []


def test_star_import():
    namespace: dict = {}
    exec("from cyclicnum import *", namespace)
    assert set(cyclicnum.__all__) <= namespace.keys()
