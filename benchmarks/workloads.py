"""Seeded request streams for the three benchmark workloads.

Each workload is an endless (or, for enumerate, single) stream of cycles;
a cycle is a fixed mix of CLI requests whose inputs are drawn from the
seed.  The mix is identical for every seed, so a time-bounded run covers
the same kind of work whatever the seed, and only the concrete numbers
change.  No argv repeats within one stream.

Requests carry their own answer check (built from ``oracle``), and argv
entries may contain ``WORK``, the per-run scratch directory for
certificate files, so the same seed always yields the same argv text.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import partial

import oracle

WORK = "{work}"


@dataclass(frozen=True)
class Request:
    """One CLI invocation and the check of its answer.

    ``judge(rc, stdout, workdir)`` returns None for a right answer and a
    short reason otherwise.
    """

    kind: str
    argv: tuple[str, ...]
    judge: Callable[[int, str, str], str | None]


@dataclass
class Workload:
    name: str
    why: str
    setup: Request  # the smallest request, answered by fresh processes for setup_s
    cycles: Iterator[list[Request]]
    trace_cycles: int  # cycles in each phase (untraced, then traced) of a traced run

    def trace_phases(self) -> tuple[list[Request], list[Request]]:
        """The untraced baseline and the traced request lists of a traced run."""
        baseline = [r for c in itertools.islice(self.cycles, self.trace_cycles) for r in c]
        traced = [r for c in itertools.islice(self.cycles, self.trace_cycles) for r in c]
        return baseline, traced


def digest(requests) -> str:
    h = hashlib.sha256()
    for r in requests:
        h.update("\x1f".join(r.argv).encode())
        h.update(b"\x1e")
    return h.hexdigest()


def _loguniform(rng: random.Random, lo: float, hi: float) -> int:
    return int(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _with_json(argv: list[str], as_json: bool) -> tuple[str, ...]:
    return tuple(argv + ["--json"]) if as_json else tuple(argv)


# ---------------------------------------------------------------------------
# decide: dense small-n sieving and sparse large-n factorization

DECIDE_WHY = (
    "numtheory only: many dense sieve blocks set lat_p50_ms, sparse trial-division "
    "checks near 10^12 set lat_p90_ms and most of the time"
)
BLOCK = 3000
SIEVE_STRATA = 8  # sieve offsets cycle through eighths of [1, 10^6]
SIEVES_PER_CHECK = 4
# Every check's trial division must run to a bound in this range, so all
# checks cost about the same and every one is slower than any sieve block.
CHECK_BOUND = (9 * 10**5, 10**6)
CHECK_CLASSES = ("prime", "semiprime", "square", "smooth")
_SPF100 = oracle.spf_table(100)
SMOOTH = tuple(n for n in range(2, 100) if max(oracle.factor_with_spf(n, _SPF100)) <= 7)


def _check_factors(rng: random.Random, cls: str) -> dict[int, int]:
    lo, hi = CHECK_BOUND
    if cls == "prime":
        return {oracle.next_prime(_loguniform(rng, lo * lo, hi * hi)): 1}
    if cls == "semiprime":
        # balanced: trial division must reach p before anything divides
        p = oracle.next_prime(_loguniform(rng, lo, hi))
        return {p: 1, oracle.next_prime(int(p * rng.uniform(1.01, 1.2))): 1}
    if cls == "square":
        return {oracle.next_prime(_loguniform(rng, lo, hi)): 2}
    fs = oracle.factor_with_spf(rng.choice(SMOOTH), _SPF100)
    fs[oracle.next_prime(_loguniform(rng, lo * lo, hi * hi))] = 1
    return fs


def _judge_check(n, fs, as_json, rc, out, workdir):
    return oracle.judge_check(n, fs, as_json, rc, out)


def _judge_sieve(lo, hi, spf, as_json, rc, out, workdir):
    return oracle.judge_sieve(oracle.cyclic_numbers(lo, hi, spf), as_json, rc, out)


def _sieve_request(lo: int, spf, as_json: bool) -> Request:
    hi = lo + BLOCK - 1
    return Request(
        "sieve",
        _with_json(["sieve", str(lo), str(hi)], as_json),
        partial(_judge_sieve, lo, hi, spf, as_json),
    )


def _sieve_offset(rng: random.Random, stratum: int) -> int:
    width = oracle.SIEVE_LIMIT // SIEVE_STRATA
    return rng.randrange(stratum * width + 1, (stratum + 1) * width - BLOCK + 2)


def _decide_cycles(seed: int, spf) -> Iterator[list[Request]]:
    rng = random.Random(f"decide/{seed}")
    seen: set[tuple[str, ...]] = set()
    flip = itertools.cycle((False, True))  # every other request asks for --json
    for i in itertools.count():
        cycle = []
        for j in range(SIEVES_PER_CHECK):
            stratum = (i * SIEVES_PER_CHECK + j) % SIEVE_STRATA
            while True:
                req = _sieve_request(_sieve_offset(rng, stratum), spf, next(flip))
                if req.argv[:3] not in seen:
                    break
            seen.add(req.argv[:3])
            cycle.append(req)
        while True:
            fs = _check_factors(rng, CHECK_CLASSES[i % len(CHECK_CLASSES)])
            n = oracle.value(fs)
            if ("check", str(n)) not in seen:
                break
        seen.add(("check", str(n)))
        as_json = next(flip)
        cycle.append(
            Request("check", _with_json(["check", str(n)], as_json), partial(_judge_check, n, fs, as_json))
        )
        yield cycle


def decide(seed: int, spf=None) -> Workload:
    spf = oracle.spf_table() if spf is None else spf
    # The setup request is a sieve block at the bottom of the range, drawn
    # from its own stream so it never repeats a measured request.
    setup = _sieve_request(_sieve_offset(random.Random(f"decide-setup/{seed}"), 0), spf, False)
    return Workload("decide", DECIDE_WHY, setup, _decide_cycles(seed, spf), trace_cycles=10)


# ---------------------------------------------------------------------------
# certify: build, verify and analyze non-cyclic witnesses

CERTIFY_WHY = (
    "perm and groups: closure and element orders on large witnesses set lat_p90_ms, "
    "small analyze requests exercise the subgroup lattice and conjugacy classes"
)
MAX_ORDER = 4000
ANALYZE_MAX = 150
DEGREE_CAP = 10000  # cyclicnum's default witness degree cap
CLOSURE_CAP = 20000  # cyclicnum's default closure element cap
# Costs are in permutation entries touched.  A large order is witnessed and
# verified, which costs about n * degree per closure product and per
# element-order pass; large orders are limited to two-generator witnesses
# so that cost and memory grow together.  A small order is also analyzed,
# which costs about n^2 * (degree + 50).
#
# Each cycle holds HEAVY_PER_CYCLE large orders near HEAVY_COST (verifies of
# about 0.35 s, one request in seven, so lat_p90_ms falls inside that group
# rather than on the edge between two sizes), plus one order per rung of
# two cost ladders for breadth.  The heavy orders and the top small
# rungs take most of a run's time, so they follow one sequence for every
# seed; the seed draws the orders on all other rungs.
HEAVY_COST = 1.25e6
HEAVY_PER_CYCLE = 6
HEAVY_BAND = 1.25
LARGE_LADDER = tuple(int(1.1e4 * 2.2**k) for k in range(4))  # verifies of 5-50 ms
SMALL_LADDER = tuple(int(900 * 3.1**k) for k in range(7))  # analyzes up to ~0.2 s
SMALL_FIXED = 2
BAND = 1.1


@dataclass(frozen=True)
class Order:
    n: int
    reason: str
    cost: float


def certify_pool() -> tuple[list[Order], list[Order]]:
    """Non-cyclic orders whose witness fits cyclicnum's default caps, split small/large."""
    spf = oracle.spf_table(MAX_ORDER)
    small, large = [], []
    for n in range(4, MAX_ORDER + 1):
        shape = oracle.witness_shape(oracle.factor_with_spf(n, spf))
        if shape is None:
            continue
        reason, degree, gens = shape
        if degree > DEGREE_CAP or n > CLOSURE_CAP:
            continue
        if n <= ANALYZE_MAX:
            small.append(Order(n, reason, n * n * (degree + 50)))
        elif gens == 2:
            large.append(Order(n, reason, n * degree))
    return small, large


def _pick(rng: random.Random, pool: list[Order], used: set[int], target: float, band: float) -> Order | None:
    fresh = [o for o in pool if o.n not in used]
    if not fresh:
        return None
    near = [o for o in fresh if target / band <= o.cost <= target * band]
    if near:
        return rng.choice(near)
    return min(fresh, key=lambda o: abs(math.log(o.cost / target)))


def _judge_witness(n, reason, path, rc, out, workdir):
    return oracle.judge_witness(n, reason, rc, path.replace(WORK, workdir))


def _judge_verify(n, reason, rc, out, workdir):
    return oracle.judge_verify(n, reason, rc, out)


def _judge_analyze(n, reason, rc, out, workdir):
    return oracle.judge_analyze(n, reason, rc, out)


def certify_requests(order: Order) -> list[Request]:
    """witness n --out F, verify F --json, and analyze F --json for small n."""
    n, reason = order.n, order.reason
    path = f"{WORK}/w{n}.json"
    reqs = [
        Request("witness", ("witness", str(n), "--out", path), partial(_judge_witness, n, reason, path)),
        Request("verify", ("verify", path, "--json"), partial(_judge_verify, n, reason)),
    ]
    if n <= ANALYZE_MAX:
        reqs.append(Request("analyze", ("analyze", path, "--json"), partial(_judge_analyze, n, reason)))
    return reqs


def _certify_cycles(seed: int) -> Iterator[list[Request]]:
    small, large = certify_pool()
    seeded = random.Random(f"certify/{seed}")
    fixed = random.Random("certify/heavy")
    heavy = [(large, HEAVY_COST, fixed, HEAVY_BAND)] * HEAVY_PER_CYCLE
    light = [(large, t, seeded, BAND) for t in LARGE_LADDER] + [
        (small, t, fixed if k >= len(SMALL_LADDER) - SMALL_FIXED else seeded, BAND)
        for k, t in enumerate(SMALL_LADDER)
    ]
    # Spread the heavy verifies through the cycle.
    rungs = [r for pair in itertools.zip_longest(heavy, light[::2], light[1::2]) for r in pair if r is not None]
    used: set[int] = set()
    while True:
        cycle = []
        for pool, target, rng, band in rungs:
            order = _pick(rng, pool, used, target, band)
            if order is None:
                return
            used.add(order.n)
            cycle.extend(certify_requests(order))
        yield cycle


def certify(seed: int) -> Workload:
    setup = Request("witness", ("witness", "4", "--out", f"{WORK}/setup.json"),
                    partial(_judge_witness, 4, "square", f"{WORK}/setup.json"))
    return Workload("certify", CERTIFY_WHY, setup, _certify_cycles(seed), trace_cycles=1)


# ---------------------------------------------------------------------------
# enumerate: exhaustive Cayley tables, the only path into cayley

ENUMERATE_WHY = (
    "cayley only: enumerate N for N = 1..8 (6 and 7 in four output forms), the acceptance oracle's traffic, "
    "dominated by order 8; the seed has no effect"
)
ENUMERATE_MAX = 8


def _judge_enumerate(n, as_json, path, rc, out, workdir):
    if path is not None and rc == 0:
        with open(path.replace(WORK, workdir), encoding="utf-8") as fh:
            out = fh.read()
    return oracle.judge_enumerate(n, oracle.factor_with_spf(n, _SPF100), as_json, rc, out)


def enumerate_request(n: int, as_json: bool = True, to_file: bool = False) -> Request:
    path = f"{WORK}/e{n}{'j' if as_json else 't'}.out" if to_file else None
    argv = ["enumerate", str(n)] + (["--out", path] if to_file else [])
    return Request("enumerate", _with_json(argv, as_json), partial(_judge_enumerate, n, as_json, path))


class _EnumerateWorkload(Workload):
    def trace_phases(self) -> tuple[list[Request], list[Request]]:
        # One pass takes over a minute, so the untraced baseline is the pass
        # without its order-8 request, and the traced pass sends order 8
        # last: the overhead is measured on N <= 7.
        one_pass = next(self.cycles)
        return one_pass[1:], one_pass[1:] + one_pass[:1]


def enumerate_(seed: int) -> Workload:
    del seed  # the traffic is fixed
    # Order 8 once; orders 7 and 6 as JSON and text, to stdout and to a
    # file; orders 5..1 once.  That puts lat_p50_ms in the middle of the
    # order-6 group, tens of milliseconds of cayley work, instead of on
    # millisecond requests whose latency swings with the host.  Largest
    # first, so the small requests run warm, as in a long-lived caller.
    variants = [(as_json, to_file) for to_file in (False, True) for as_json in (True, False)]
    one_pass = (
        [enumerate_request(ENUMERATE_MAX)]
        + [enumerate_request(n, *v) for n in (7, 6) for v in variants]
        + [enumerate_request(n) for n in range(5, 0, -1)]
    )
    return _EnumerateWorkload("enumerate", ENUMERATE_WHY, enumerate_request(1), iter([one_pass]), trace_cycles=1)


BUILDERS = {"decide": decide, "certify": certify, "enumerate": enumerate_}
