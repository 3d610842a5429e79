"""cyclicnum benchmark: seeded CLI traffic from one closed-loop caller.

    python3 benchmarks/run.py --workload decide --seed 1 --seconds 10 --trace 0

One caller in one thread sends each request only after the previous one
returned.  A request is ``cyclicnum.cli.main(argv)`` called in-process
with stdout captured, and every answer is checked against ``oracle``,
which shares no code with cyclicnum.  A wrong answer, an unexpected exit
code or an exception counts as a failure and the run carries on.

With ``--trace 0`` the last stdout line holds the end-to-end metrics:
setup_s (median wall time of fresh ``python -m cyclicnum.cli`` processes
answering the workload's smallest request), req_per_s, lat_p50_ms,
lat_p90_ms and peak_rss_mb.  Times are taken at the reference speed of
``SpeedProbe``, which cancels a shared host's swings in speed; the
unscaled figures are kept in the line before, which also records the
seed, a digest of the request list, the workload's rationale, fail_frac,
sample counts and the machine.  With ``--trace 1`` the run sends a fixed
number of requests untraced and then as many traced, and reports the
per-layer metrics of ``tracer``; spans go to benchmarks/out/.

Run from the root of a checkout: the program is imported from its src/
directory.  ``baseline.py`` runs every workload over several seeds.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import io
import itertools
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_RUNS = 7
DIGEST_CYCLES = 2  # the digest covers the first cycles, which every run reaches
PROBE_EVERY_S = 0.02
PROBE_ITERATIONS = 1000
PROBE_REF_S = 1e-4  # the probe's median time on the host of benchmarks/results/7bdb1c1.json
PROBE_WINDOW_S = 0.25


def load_cli():
    """Import cyclicnum.cli from this checkout's src/, or exit with an error if it is not there."""
    if not (SRC / "cyclicnum" / "cli.py").is_file():
        sys.exit(f"error: {SRC / 'cyclicnum'} not found; run from a cyclicnum checkout")
    sys.path.insert(0, str(SRC))
    import cyclicnum.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: imported cyclicnum from {cli.__file__}, not from {SRC}")
    return cli


def call_cli(cli, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)  # looked up per call, so a traced run sees the wrapper
    return rc, out.getvalue()


class SpeedProbe:
    """The host's speed during a run, sampled from a timer signal.

    Every PROBE_EVERY_S of wall time a SIGALRM handler times a short fixed
    loop in the measuring thread itself, in the middle of a request too.
    ``scale`` turns a measured interval into seconds at the reference speed
    (the loop taking PROBE_REF_S), leaving out the probes' own time.  This
    cancels the swings of a shared host's speed, which last seconds.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.lengths: list[float] = []

    def _probe(self, signum, frame):
        t0 = time.perf_counter()
        acc = 0
        for i in range(PROBE_ITERATIONS):
            acc += i * i % 7
        self.starts.append(t0)
        self.lengths.append(time.perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, t0: float, t1: float) -> float:
        """Seconds at the reference speed for the wall interval [t0, t1].

        The speed is the median probe within PROBE_WINDOW_S of the interval.
        """
        lo = bisect.bisect_left(self.starts, t0 - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.starts, t1 + PROBE_WINDOW_S)
        inside = sum(self.lengths[bisect.bisect_left(self.starts, t0) : bisect.bisect_right(self.starts, t1)])
        window = self.lengths[lo:hi]
        speed = PROBE_REF_S / statistics.median(window) if window else 1.0
        return (t1 - t0 - inside) * speed

    def median_speed(self) -> float:
        return PROBE_REF_S / statistics.median(self.lengths) if self.lengths else 1.0


def run_requests(cycles, workdir: str, call, seconds: float | None = None, tracer: Tracer | None = None):
    """Send the requests of each cycle in order, until the cycles run out or
    ``seconds`` have passed at a cycle boundary, so every run covers whole
    cycles and the same mix of work.

    Returns (latencies in seconds as measured, latencies at the reference
    speed, failure reasons, request kinds by id, host speed).
    """
    spans: list[tuple[float, float]] = []
    failures: list[str] = []
    kinds: dict[int, str] = {}
    with SpeedProbe() as probe:
        begin = time.perf_counter()
        for cycle in cycles:
            if seconds is not None and spans and time.perf_counter() - begin >= seconds:
                break
            for req in cycle:
                rid = len(spans)
                argv = [a.replace(workloads.WORK, workdir) for a in req.argv]
                kinds[rid] = req.kind
                if tracer is not None:
                    tracer.kind, tracer.request_id = req.kind, rid
                t0 = time.perf_counter()
                try:
                    rc, out = call(argv)
                except Exception as exc:  # a crash is a failed request, not the end of the run
                    spans.append((t0, time.perf_counter()))
                    failures.append(f"{' '.join(argv)}: raised {exc!r}")
                    continue
                spans.append((t0, time.perf_counter()))
                try:
                    reason = req.judge(rc, out, workdir)
                except Exception as exc:  # unparsable output is a wrong answer
                    reason = f"unreadable output: {exc!r}"
                if reason is not None:
                    failures.append(f"{' '.join(argv)}: {reason}")
    raw = [t1 - t0 for t0, t1 in spans]
    return raw, [probe.scale(t0, t1) for t0, t1 in spans], failures, kinds, probe.median_speed()


def measure_setup(req, workdir: str) -> tuple[list[float], list[str]]:
    """Wall times of fresh CLI processes answering ``req``, at the reference
    speed like request latencies, and their failures."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    argv = [a.replace(workloads.WORK, workdir) for a in req.argv]
    spans, failures = [], []
    with SpeedProbe() as probe:
        for _ in range(SETUP_RUNS):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "cyclicnum.cli", *argv],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
            )
            spans.append((t0, time.perf_counter()))
            reason = req.judge(proc.returncode, proc.stdout, workdir)
            if reason is not None:
                failures.append(f"setup {' '.join(argv)}: {reason}")
    return [probe.scale(t0, t1) for t0, t1 in spans], failures


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q of the samples at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(latencies: list[float], failed: int, setup_times: list[float]) -> dict[str, tuple[float, str]]:
    """End-to-end metrics as name -> (value, unit); failed requests do not count as completed."""
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "req_per_s": ((len(latencies) - failed) / sum(latencies), "1/s"),
        "lat_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "lat_p90_ms": (percentile(latencies, 0.9) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def environment() -> dict:
    cpu = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = None
    head = ROOT / ".git" / "HEAD"
    with contextlib.suppress(OSError):
        ref = head.read_text().strip()
        commit = (ROOT / ".git" / ref[5:]).read_text().strip() if ref.startswith("ref: ") else ref
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor() or None,
        "commit": commit,
    }


def run_workload(cli, name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One run: (detail record, contract result)."""
    wl = workloads.BUILDERS[name](seed)
    first = list(itertools.islice(wl.cycles, DIGEST_CYCLES))
    digest = workloads.digest(r for c in first for r in c)
    wl.cycles = itertools.chain(first, wl.cycles)
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    call = lambda argv: call_cli(cli, argv)  # noqa: E731
    try:
        if trace:
            baseline, traced = wl.trace_phases()
            _, base_lat, failures, _, _ = run_requests([baseline], workdir, call)
            tracer = Tracer()
            with tracer:
                _, lat, more, kinds, _ = run_requests([traced], workdir, call, tracer=tracer)
            failures += more
            overhead = sum(lat[: len(base_lat)]) / sum(base_lat) - 1
            attempted = len(base_lat) + len(lat)
            metrics = tracer.metrics(kinds, overhead)
            tracer.write_spans(OUT / f"spans-{name}-seed{seed}.jsonl")
            extra = {"baseline_requests": len(base_lat), "traced_requests": len(lat), "spans": len(tracer.spans)}
        else:
            setup_times, failures = measure_setup(wl.setup, workdir)
            raw, lat, more, _, speed = run_requests(wl.cycles, workdir, call, seconds)
            failures += more
            attempted = len(raw) + len(setup_times)
            metrics = end_to_end(lat, len(more), setup_times)
            extra = {
                "requests": len(raw),
                "lat_p90_tail": sum(1 for x in lat if x * 1e3 > metrics["lat_p90_ms"][0]),
                "setup_runs": len(setup_times),
                "host_speed": speed,
                "unscaled": {k: v for k, (v, _) in end_to_end(raw, len(more), setup_times).items() if k != "setup_s"},
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = {
        "workload": name,
        "why": wl.why,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "requests_digest": digest,
        "fail_frac": len(failures) / attempted,
        **extra,
        "failures": failures[:20],
        "env": environment(),
    }
    (OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps({"detail": detail, "result": result}, indent=1) + "\n"
    )
    return detail, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    detail, result = run_workload(load_cli(), args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
