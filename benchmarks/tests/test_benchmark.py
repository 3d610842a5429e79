"""Tests of the benchmark itself: python3 -m pytest benchmarks/tests"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

CLI = run.load_cli()
SPF = oracle.spf_table()

# OEIS A003277 up to 100: n with gcd(n, phi(n)) = 1.
CYCLIC_NUMBERS_TO_100 = (
    1, 2, 3, 5, 7, 11, 13, 15, 17, 19, 23, 29, 31, 33, 35, 37, 41, 43, 47,
    51, 53, 59, 61, 65, 67, 69, 71, 73, 77, 79, 83, 85, 87, 89, 91, 95, 97,
)
# OEIS A000001 for n = 1..8: groups of order n up to isomorphism.
GROUP_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 1, 8: 5}


def _call(argv):
    return run.call_cli(CLI, argv)


def _argvs(name, seed, cycles=3):
    wl = workloads.BUILDERS[name](seed)
    return [r.argv for c in itertools.islice(wl.cycles, cycles) for r in c]


def _module_attrs():
    return {
        (name, attr): val
        for name, mod in sys.modules.items()
        if name == "cyclicnum" or name.startswith("cyclicnum.")
        for attr, val in vars(mod).items()
    }


@pytest.mark.parametrize("name", list(workloads.BUILDERS))
def test_generator_is_deterministic_per_seed(name):
    first = _argvs(name, 11)
    assert first == _argvs(name, 11)
    assert len(set(first)) == len(first), "a request repeats within a run"
    if name != "enumerate":  # enumerate's traffic is fixed by design
        assert first != _argvs(name, 12)


def test_oracle_reproduces_cyclic_numbers_and_group_counts():
    got = [n for n in range(1, 101) if oracle.is_cyclic_number(oracle.factor_with_spf(n, SPF))]
    assert tuple(got) == CYCLIC_NUMBERS_TO_100
    counts = {n: oracle.group_count(oracle.factor_with_spf(n, SPF)) for n in range(1, 9)}
    assert counts == GROUP_COUNTS


def test_injected_wrong_answers_count_as_failures(tmp_path):
    requests = next(workloads.decide(3, SPF).cycles)[:3]  # three sieve blocks
    state = itertools.count()

    def faulty(argv):
        i = next(state)
        if i == 1:
            raise RuntimeError("injected crash")
        rc, out = _call(argv)
        return (rc, out + "4\n") if i == 0 else (rc, out)

    latencies, _, failures, _, _ = run.run_requests([requests], str(tmp_path), faulty)
    assert len(latencies) == 3, "the run must carry on past failures"
    assert len(failures) == 2
    assert "injected crash" in failures[1]
    assert run.run_requests([requests], str(tmp_path), _call)[2] == []


def test_traced_counts_see_the_real_call_paths(tmp_path):
    before = _module_attrs()
    decide_cycle = next(workloads.decide(5, SPF).cycles)
    orders = [workloads.Order(n, r, 0) for n, r in ((12, "square"), (20, "square"), (21, "arrow"), (30, "arrow"))]
    certify = [r for o in orders for r in workloads.certify_requests(o)]
    enumerate_ = [workloads.enumerate_request(n) for n in range(1, 6)]
    tracer = Tracer()
    with tracer:
        assert any(getattr(v, "benchmark_tracer", False) for v in _module_attrs().values())
        _, _, failures, kinds, _ = run.run_requests([decide_cycle, certify, enumerate_], str(tmp_path), _call, tracer=tracer)
    assert failures == []
    metrics = {k: v for k, (v, unit) in tracer.metrics(kinds, 0.0).items()}
    # The duplicate work the program does today: three factorizations per
    # check and two element-order passes per verified element.
    assert metrics["numtheory.factorize_per_check"] == 3
    assert metrics["perm.order_calls_per_element"] == 2
    assert metrics["cli.requests"] == len(kinds)
    assert metrics["groups.closure.elements"] >= sum(o.n for o in orders)
    assert 0 < metrics["groups.closure.kept_per_product"] <= 1
    assert metrics["cayley.classes_per_table"] > 0
    # Spans mark layer crossings only: each child lies in another module
    # than its parent, and perm calls are aggregated, never spans.
    spans = {s[0]: s for s in tracer.spans}
    names = {s[1] for s in spans.values()}
    assert {"cli.main", "numtheory.cyclic_numbers", "witness.verify_certificate", "groups.closure"} <= names
    assert not any(n.startswith("perm.") for n in names)
    for sid, name, t0, t1, parent, req in spans.values():
        if name == "cli.main":
            assert parent is None
        else:
            assert spans[parent][1].split(".")[0] != name.split(".")[0]
            assert spans[parent][5] == req and spans[parent][2] <= t0 <= t1 <= spans[parent][3]
    after = _module_attrs()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before), "a patched attribute was not restored"


def test_untraced_runs_install_no_wrappers(tmp_path):
    requests = next(workloads.decide(4, SPF).cycles)[:2]
    before = _module_attrs()
    run.run_requests([requests], str(tmp_path), _call)
    after = _module_attrs()
    assert all(after[k] is before[k] for k in before)
    assert not any(getattr(v, "benchmark_tracer", False) for v in after.values())


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "decide", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_reported_metrics_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    e2e = run.end_to_end([0.01, 0.02, 0.03], 0, [0.1, 0.2])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: u for k, (v, u) in e2e.items()}
    layers = Tracer().metrics({}, 0.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (v, u) in layers.items()}
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: build(1).why for name, build in workloads.BUILDERS.items()
    }
