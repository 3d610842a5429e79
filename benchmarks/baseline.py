"""Run every workload over several seeds and record medians and spreads.

    python3 benchmarks/baseline.py --seeds 1-10 [--out FILE]

Each run is a separate ``run.py`` process with --trace 0.  For every
end-to-end metric of BENCHMARK.json the summary gives the median, the
quartiles (``statistics.quantiles(values, n=4)``) and their distance as a
share of the median, next to the metric's bound.  The summary is printed
and, with --out, written as JSON together with the machine record.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    summary, env = {}, None
    for name in (w["name"] for w in bench["workloads"]):
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
            *_, detail, result = proc.stdout.splitlines()
            detail, result = json.loads(detail), json.loads(result)
            env = detail["env"]
            if not result["correct"]:
                print(f"{name} seed {seed}: wrong answers {detail['failures']}", file=sys.stderr)
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
        rows = {}
        for m in bench["end_to_end"]:
            vals = values[m["name"]]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            rows[m["name"]] = {
                "unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med, "bound": m["bound"], "values": vals,
            }
            print(f"{name:10s} {m['name']:12s} median {med:10.4g} {m['unit']:4s} "
                  f"spread {(q3 - q1) / med:6.3f} (bound {m['bound']})", flush=True)
        summary[name] = rows
    if args.out:
        record = {"seeds": args.seeds, "run_seconds": bench["run_seconds"], "env": env, "workloads": summary}
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
