"""Mutation gate: small faults in src/ that named tests must catch.

Each mutant replaces one exact piece of text in one file of ``src/`` and
names the few tests that must fail on it.  For each mutant the runner
copies ``src/`` to a temporary directory, applies the edit there and runs
only that mutant's tests, with the copy first on ``PYTHONPATH``.  The
gate fails when a mutant survives (its tests pass), when its old text is
not found exactly once (the code it guarded has changed, so the mutant
must be updated with it), or when its tests do not all pass on the
unmutated source, since a kill would then prove nothing.

Run from the repository root:

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named mutants only

The file has no ``test_`` prefix, so the test suite does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/cyclicnum
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = [
    # verify's support blocks.  A generator's cycles taken as separate
    # direct factors, as a split by orbits would: (0 1)(2 3) gives 4, not 2.
    Mutant(
        "blocks split by orbits",
        "groups.py",
        "k = lcm(*map(len, _cycles(block[0].images)))",
        "k = __import__('math').prod(map(len, _cycles(block[0].images)))",
        ("tests/test_groups.py::TestDirectFactorOrders::test_a_generator_moving_two_orbits_is_one_block",),
    ),
    Mutant(
        "largest order as the product of the block orders, not their lcm",
        "groups.py",
        "largest = {lcm(a, b) for a in largest for b in orders}",
        "largest = {a * b for a in largest for b in orders}",
        ("tests/test_cli.py::TestVerify::test_witnesses_past_the_default_closure_cap",),
    ),
    # The kept table of odd cyclic numbers below 2^20.
    Mutant(
        "no cache on the flag builder",
        "numtheory.py",
        "@functools.cache\ndef _odd_cyclic_flags",
        "@functools.lru_cache(maxsize=0)\ndef _odd_cyclic_flags",
        ("tests/test_work_once.py::test_sieve_blocks_build_one_flag_table_per_power_of_two",),
    ),
    Mutant(
        "no single store",
        "numtheory.py",
        "            flags[q // 2] = 0\n",
        "            pass\n",
        ("tests/test_numtheory.py::TestCyclicNumbers::test_odd_cyclic_flags",),
    ),
    Mutant(
        "the r range one short",
        "numtheory.py",
        "end = limit // t + 1",
        "end = limit // t",
        ("tests/test_numtheory.py::TestCyclicNumbers::test_odd_cyclic_flags",),
    ),
    Mutant(
        "an even first n",
        "numtheory.py",
        "start = max(lo, 3) | 1",
        "start = max(lo, 3)",
        ("tests/test_numtheory.py::TestCyclicNumbers::test_table_matches_window_sieve",),
    ),
    Mutant(
        "no mark for 9",
        "numtheory.py",
        "moduli = [p * p for p in odd_primes]",
        "moduli = [p * p for p in odd_primes if p > 3]",
        ("tests/test_numtheory.py::TestCyclicNumbers::test_odd_cyclic_flags",),
    ),
]


def _copy_src(tmp: str) -> Path:
    src = Path(tmp) / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def _pytest(src: Path, tests: tuple[str, ...]) -> int:
    """Exit status of pytest on the tests, importing cyclicnum from src."""
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
    where = subprocess.run(
        [sys.executable, "-c", "import cyclicnum; print(cyclicnum.__file__)"],
        env=env, cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.strip()
    if not Path(where).is_relative_to(src):
        raise RuntimeError(f"cyclicnum was imported from {where}, not from {src}")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def check(mutant: Mutant) -> str | None:
    """None when the mutant is killed, else why the gate fails on it."""
    with tempfile.TemporaryDirectory() as tmp:
        src = _copy_src(tmp)
        path = src / "cyclicnum" / mutant.file
        text = path.read_text(encoding="utf-8")
        found = text.count(mutant.old)
        if found != 1:
            return f"its old text occurs {found} times in {mutant.file}, not once"
        path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        status = _pytest(src, mutant.tests)
    if status == 0:
        return "survived: its tests pass"
    if status != 1:  # 1 is "tests failed"; the others are usage or collection errors
        return f"its tests did not run (pytest exit status {status})"
    return None


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    with tempfile.TemporaryDirectory() as tmp:
        if _pytest(_copy_src(tmp), tuple(dict.fromkeys(t for m in chosen for t in m.tests))) != 0:
            print("the mutants' tests do not all pass on the unmutated source", file=sys.stderr)
            return 1
    failures = 0
    for m in chosen:
        problem = check(m)
        print(f"killed: {m.name}" if problem is None else f"FAILED: {m.name}: {problem}", flush=True)
        failures += problem is not None
    print(f"{len(chosen) - failures} of {len(chosen)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
