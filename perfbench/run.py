"""The irscollab benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: matmul-deep, mc-gf257, mc-real (see workloads.py and README.md).
The run sets up the workload, then repeats timed rounds until --seconds have
passed; a round runs the workload once with cpda_decode and once with
mssr_decode, and checks every output.  Blocks of fixed reference work run
between the set-ups and between the rounds, and the end-to-end times are
reported at the host speed on which a block takes reference.NOMINAL_S
seconds (see reference.py).  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}, where the
metrics are the end-to-end ones with --trace 0 and the per-layer ones, from
spans wrapped around the library's public functions, with --trace 1.  The
lines before it give the run environment and each metric in words.  A
broken check prints the result with "correct": false and exits with 1.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import library

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 15
# At least this share of the rounds' seconds goes to reference blocks, run at
# every round boundary, so that long rounds are bracketed by enough blocks.
REFERENCE_SHARE = 0.05
RESULTS_DIR = library.ROOT / ".perfbench"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("matmul-deep", "mc-gf257", "mc-real"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _setup_seconds(workload: str, seed: int, ref) -> list[float]:
    """Time SETUP_SAMPLES fresh set-ups, each in its own interpreter and
    each preceded by a reference block."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        ref.block()
        proc = subprocess.run([sys.executable, str(HERE / "probe_setup.py"), workload, str(seed)],
                              capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    ref.block()
    return samples


def _run_rounds(wl, seconds: float, tracer, ref):
    """Timed rounds until `seconds` have passed, with reference blocks
    before, between and after them."""
    rounds = []
    busy = 0.0
    start = perf_counter()
    while True:
        ref.block()
        while sum(ref.seconds) < REFERENCE_SHARE * busy:
            ref.block()
        if rounds and perf_counter() - start >= seconds:
            return rounds
        began = perf_counter()
        rounds.append(wl.run_round(tracer))
        busy += perf_counter() - began


def _end_to_end(rounds, setups, setup_scale: float, run_scale: float) -> dict:
    """The end-to-end metrics, every time taken at the nominal host speed.

    Throughputs are whole-run ratios, all trials over all decoding seconds,
    so every second of the run weighs the same."""
    decodes = 2 * sum(r.trials for r in rounds)
    trials = sum(r.trials for r in rounds)
    return {
        "setup_s": (statistics.median(setups) * setup_scale, "s"),
        "trials_per_s": (trials / (sum(r.cpda_s for r in rounds) * run_scale), "1/s"),
        "mssr_trials_per_s": (trials / (sum(r.mssr_s for r in rounds) * run_scale), "1/s"),
        "success_rate": (1.0 - sum(r.wrong for r in rounds) / decodes, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _describe(name: str, rounds, setups, e2e: dict, setup_ref, run_ref) -> list[str]:
    lines = [f"{key:<20} {value:.6g} {unit}" for key, (value, unit) in e2e.items()]
    lines.append(f"{'':<20} setup_s is the median of {len(setups)} set-ups, as measured: "
                 + ", ".join(f"{s:.4f}" for s in setups))
    for label, ref in (("set-up", setup_ref), ("rounds", run_ref)):
        lines.append(f"{'':<20} {label}: {len(ref.seconds)} reference blocks of mean "
                     f"{statistics.mean(ref.seconds):.4f} s, so measured times x {ref.scale():.4f}")
    trials = sum(r.trials for r in rounds)
    lines.append(f"{'':<20} as measured: {trials / sum(r.cpda_s for r in rounds):.6g} "
                 f"cpda and {trials / sum(r.mssr_s for r in rounds):.6g} mssr trials/s")
    lines.append(f"{'error_rate':<20} {1.0 - e2e['success_rate'][0]:.6g} ratio "
                 "(1 - success_rate: detected failures and undetected errors)")
    cpda = [r.cpda_s for r in rounds]
    mssr = [r.mssr_s for r in rounds]
    if name == "matmul-deep":
        lines.append(f"{'matmul_s':<20} {statistics.median(cpda):.6g} s "
                     f"(median of {len(rounds)} repetitions, min {min(cpda):.4g}, max {max(cpda):.4g})")
        lines.append(f"{'matmul_mssr_s':<20} {statistics.median(mssr):.6g} s "
                     f"(median of {len(rounds)} repetitions, min {min(mssr):.4g}, max {max(mssr):.4g})")
    else:
        lines.append(f"{'':<20} throughputs are over {len(rounds)} passes per decoder "
                     f"of {rounds[0].trials} trials each")
    lines.append(f"{'':<20} cpda seconds per round: " + ", ".join(f"{s:.4f}" for s in cpda))
    lines.append(f"{'':<20} mssr seconds per round: " + ", ".join(f"{s:.4f}" for s in mssr))
    return lines


def main(argv=None) -> int:
    args = _parse(argv)
    ic = library.load()
    import reference
    import spans
    import workloads

    env = library.environment()
    print("env " + json.dumps(env, sort_keys=True))
    setup_ref = reference.Reference()
    setups = _setup_seconds(args.workload, args.seed, setup_ref)
    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.warm_up()
    run_ref = reference.Reference()
    if args.trace:
        tracer = spans.Tracer()
        with tracer.install(ic):
            rounds = _run_rounds(wl, args.seconds, tracer, run_ref)
    else:
        tracer = None
        rounds = _run_rounds(wl, args.seconds, None, run_ref)

    e2e = _end_to_end(rounds, setups, setup_ref.scale(), run_ref.scale())
    mode = "traced (per-layer metrics below)" if args.trace else "untraced"
    print(f"{args.workload} seed={args.seed} seconds={args.seconds:g} rounds={len(rounds)} {mode}")
    for line in _describe(args.workload, rounds, setups, e2e, setup_ref, run_ref):
        print("  " + line)
    metrics = e2e
    if tracer is not None:
        metrics = spans.layer_metrics(tracer, len(rounds))
        for key, (value, unit) in metrics.items():
            print(f"  {key:<30} {value:.6g} {unit}")
        RESULTS_DIR.mkdir(exist_ok=True)
        record = RESULTS_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        record.write_text(json.dumps({"env": env, "args": vars(args), "rounds": len(rounds),
                                      "end_to_end_traced": e2e, "per_layer": metrics,
                                      "trace": tracer.report()}, indent=1) + "\n")
        print(f"  spans written to {os.path.relpath(record)}")

    problems = [p for r in rounds for p in r.problems]
    for problem in dict.fromkeys(problems):
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": 2 * sum(r.trials for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
