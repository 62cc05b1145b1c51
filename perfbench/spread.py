"""Run the benchmark on several seeds and report how much each metric spreads.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --workloads mc-real matmul-deep --seeds 1 2 3 4 5 \
        [--trace 0|1] [--seconds S]

Runs are made one after another.  For each workload and metric it prints the
median, the quartiles from statistics.quantiles(values, n=4), and the
distance between them as a share of the median, beside the metric's bound
from BENCHMARK.json: "ok" when the spread is under a third of the bound,
"WIDE" when it exceeds the bound.  Giving one seed several times
(--seeds 7 7 --trace 1) shows whether the count metrics repeat exactly.
Every raw result is printed as one JSON line as well.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _verdict(spread: float, bound) -> str:
    if bound is None:
        return ""
    if spread > bound:
        return "WIDE"
    return "ok" if spread < bound / 3 else "over a third of the bound"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in listed}
    seconds = args.seconds or spec["run_seconds"]
    for workload in args.workloads:
        results = []
        for seed in args.seeds:
            res = _run(workload, seed, seconds, args.trace)
            print(json.dumps({"workload": workload, "seed": seed, **res}), flush=True)
            results.append(res)
        names = list(results[0]["metrics"])
        if set(names) != set(bounds):
            print(f"{workload}: metrics {sorted(set(names) ^ set(bounds))} differ from BENCHMARK.json")
        print(f"\n{workload}: {len(results)} runs, correct={all(r['correct'] for r in results)}, "
              f"failed={[r['failed'] for r in results]}")
        for name in names:
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            same = "same in every run" if len(set(values)) == 1 else ""
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = values[0]
            spread = (q3 - q1) / med if med else 0.0
            print(f"  {name:<32} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:7.2%}  bound {bounds.get(name)}  "
                  f"{_verdict(spread, bounds.get(name))} {same}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
