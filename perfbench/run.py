"""The repository's benchmark: wall-clock MR G-means fits, checked, with a
traced per-layer ledger.

Run from the repository root::

    python3 perfbench/run.py --workload table1-parallel --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload reducer-shuffle --repeat 10 --seconds 30

``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` is the separate traced run that yields the per-layer
metrics and writes a Chrome trace under ``perfbench/out/``. ``--repeat
N`` is the steadiness mode: N runs, each a fresh process with seeds
``seed .. seed+N-1``, summarised per metric. ``--workload all`` runs
each workload in a fresh process too. The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is 1 when any output check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("table1-parallel", "reducer-shuffle", "journalled-serial")

#: BLAS threads of a workload's process, set before numpy is imported;
#: the others keep the thread variables as found. ``journalled-serial``
#: runs every task in the driver, where a second BLAS thread on a 2-CPU
#: box bought no speed (0.97 s against 0.98 s per fit) and widened the
#: run-to-run spread of ``fit_s`` (IQR over median, sets of 8-10 runs)
#: from 0.02-0.05 to 0.15-0.24, because each small BLAS call waits on
#: whichever of its two threads the host stalls.
BLAS_THREADS = {"journalled-serial": 1}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="steadiness mode: this many runs, one process each")
    return parser.parse_args(argv)


def _print_metrics(metrics: dict) -> None:
    for name, metric in metrics.items():
        print(f"  {name:<36} {metric['value']:>16.6g} {metric['unit']}")


def run_one(name: str, seed: int, seconds: float, traced: bool) -> dict:
    import measure
    import workloads

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    run = measure.Run(workloads.BY_NAME[name], seed, seconds, out_dir)
    print(f"{name}: {'traced' if traced else 'untraced'} run, seed {seed}")
    try:
        if traced:
            metrics, in_task_label = measure.trace(run)
            print(f"  in-task layers from the {in_task_label}")
        else:
            metrics = measure.measure(run)
    finally:
        measure.stop_helper_processes()
    print(f"  fits attempted {run.attempted}, failed {run.failed}")
    for problem in run.problems:
        print(f"  CHECK FAILED: {problem}")
    _print_metrics(metrics)
    return run.summary(metrics)


def _child(name: str, seed: int, seconds: float, trace: int):
    """One workload in a fresh process: (exit code, output, result or None)."""
    command = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return done.returncode, done.stdout + done.stderr, result


def run_all(args) -> int:
    """Every workload, each in its own process, merged into one result."""
    results = {}
    for name in WORKLOAD_NAMES:
        code, output, result = _child(name, args.seed, args.seconds, args.trace)
        lines = output.rstrip().splitlines()
        print("\n".join(lines[:-1] if result else lines))
        results[name] = result or {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        if code != 0:
            results[name]["correct"] = False
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}.{metric}": value
            for name, r in results.items()
            for metric, value in r["metrics"].items()
        },
    }))
    return 0 if all(r["correct"] for r in results.values()) else 1


def repeat(args) -> int:
    """Steadiness mode: one process per run, then median, quartiles, range."""
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    summary, ok = {}, True
    for name in names:
        runs = []
        for i in range(args.repeat):
            code, output, result = _child(name, args.seed + i, args.seconds, args.trace)
            if code != 0 or result is None:
                ok = False
                print(f"{name} seed {args.seed + i}: exit {code}\n{output[-4000:]}")
            if result is not None:
                runs.append(result)
                ok = ok and result["correct"]
                print(f"{name} seed {args.seed + i}: " + " ".join(
                    f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                ), flush=True)
        print(f"{name}: {len(runs)} runs")
        print(f"  {'metric':<36} {'median':>12} {'q1':>12} {'q3':>12} {'min':>12} {'max':>12} {'iqr/med':>8}")
        for metric in runs[0]["metrics"] if runs else ():
            values = [r["metrics"][metric]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            spread = (q3 - q1) / median if median else 0.0
            summary[f"{name}.{metric}"] = {
                "median": median, "q1": q1, "q3": q3, "min": min(values),
                "max": max(values), "spread": spread,
            }
            print(f"  {metric:<36} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{min(values):>12.6g} {max(values):>12.6g} {spread:>8.4f}")
    print(json.dumps({"correct": ok, "runs": args.repeat, "summary": summary}))
    return 0 if ok else 1


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.repeat:
        return repeat(args)
    if args.workload == "all":
        return run_all(args)

    import envinfo

    found = envinfo.thread_vars(os.environ)
    cap = BLAS_THREADS.get(args.workload)
    if cap is not None:
        envinfo.cap_blas_threads(os.environ, cap)
    removed = envinfo.scrub_repro_env(os.environ)
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    print("environment: " + json.dumps(envinfo.environment(removed, found, cap), sort_keys=True))
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
