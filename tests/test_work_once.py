"""Each computation runs once: counted through monkeypatched wrappers.

The outputs of these paths are pinned elsewhere (tests/test_cli_golden.py);
these tests pin the amount of work behind them, so a second factorization,
element-order pass or conjugacy-class pass creeping back in fails here.
"""

import json

import pytest

import cyclicnum.cayley as cayley
import cyclicnum.cli as cli
import cyclicnum.groups as groups
import cyclicnum.numtheory as numtheory
import cyclicnum.perm as perm
import cyclicnum.witness as witness
from cyclicnum import build_witness, closure, enumerate_groups, generated_subgroup, verify_certificate


def count_calls(monkeypatch, name, *modules):
    """Wrap the function ``name`` in each module; return the shared call list."""
    calls = []
    for module in modules:
        real = getattr(module, name)

        def wrapper(*args, _real=real, **kwargs):
            calls.append(args)
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.mark.parametrize("n", ["1", "20", "21", "999985999949"])
@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_check_factorizes_once(monkeypatch, capsys, n, flags):
    calls = count_calls(monkeypatch, "factorize", numtheory, cli)
    rc = cli.main(["check", n, *flags])
    capsys.readouterr()
    assert rc in (0, 1)
    assert len(calls) == 1


@pytest.mark.parametrize("n", [4, 6, 18, 100])
def test_verify_computes_each_element_order_once(monkeypatch, n):
    cert = build_witness(n)
    passes = count_calls(monkeypatch, "all_element_orders", witness, groups)
    singles = count_calls(monkeypatch, "perm_order", perm, groups)
    report = verify_certificate(cert)
    assert report.passed and report.group_size == n
    assert len(passes) == 1
    assert singles == []


@pytest.mark.parametrize("n", [12, 54, 100, 128])
def test_order_pass_walks_only_elements_no_earlier_walk_reached(monkeypatch, n):
    G = closure(build_witness(n).generators)
    # The identity's order is known, so walking starts at elements[1].
    reached = {G.elements[0]}
    expected = 0
    for g in G.elements:
        if g not in reached:
            expected += 1
            reached |= generated_subgroup(G, g)._elem_set
    walks = count_calls(monkeypatch, "_gather", groups)
    groups.all_element_orders(G)
    assert len(walks) == expected < n - 1


def write_witness(tmp_path, n):
    path = tmp_path / f"w{n}.json"
    assert cli.main(["witness", str(n), "--out", str(path)]) == 0
    return path


@pytest.mark.parametrize("n", [6, 54, 128])
def test_analyze_computes_each_element_order_once(monkeypatch, capsys, tmp_path, n):
    path = write_witness(tmp_path, n)
    passes = count_calls(monkeypatch, "all_element_orders", cli, groups)
    singles = count_calls(monkeypatch, "perm_order", perm, groups)
    assert cli.main(["analyze", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["order"] == n
    assert len(passes) == 1
    assert singles == []


@pytest.mark.parametrize("n", [6, 54])
def test_analyze_builds_each_conjugacy_class_once(monkeypatch, capsys, tmp_path, n):
    path = write_witness(tmp_path, n)
    calls = count_calls(monkeypatch, "conjugacy_class", cli, groups)
    assert cli.main(["analyze", str(path), "--json"]) == 0
    sizes = json.loads(capsys.readouterr().out)["conjugacy_class_sizes"]
    assert sum(sizes) == n
    assert len(calls) == len(sizes)


def test_table_is_cyclic_reads_element_orders(monkeypatch):
    tables = enumerate_groups(4)
    calls = count_calls(monkeypatch, "element_orders", cayley)
    assert [cayley.table_is_cyclic(t) for t in tables] == [False, True]
    assert len(calls) == len(tables)


def test_enumerate_takes_one_order_pass_per_class(monkeypatch, capsys):
    # Every order pass over a table starts by reading its rows.
    calls = count_calls(monkeypatch, "_group_rows", cayley)
    assert cli.main(["enumerate", "8", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["classes"] == len(calls) == 5
