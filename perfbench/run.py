"""Partition-request benchmark: one command, three workloads.

    python3 perfbench/run.py --workload fig6_sweep --seed 1 --seconds 20 \\
        --trace 0

Run from the root of a checkout (the program is imported from ``src/``).
``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` runs the same requests twice, untraced and then with every
layer wrapped in spans, and reports the per-layer metrics plus the
tracing overhead.  Every answer is verified; a rejected answer counts as
a failed op.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it is the run's report (environment, sample counts, failures),
also written under ``.perfbench/results/``.
"""

from __future__ import annotations

import time

START = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
#: Kept here, not imported: the argument check runs before the program's
#: sources are on the path.
WORKLOADS = ("fig6_sweep", "cold_start", "served_mixed")


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Partition-request benchmark (see perfbench/README.md)"
    )
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment(details: dict) -> dict:
    import numpy
    import scipy

    from repro.workbench import PartitionRequest

    request = PartitionRequest()
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "solver_backend": f"{request.solver.value} "
                          f"(lp_engine={request.lp_engine})",
        "samples": {"ops": details["ops"], "requests": details["requests"]},
        "op_tail_percentile": details["op_tail_percentile"],
        "op_tail_samples_beyond": details["op_tail_samples_beyond"],
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}; run from a "
              "full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import repro.workbench  # noqa: F401  (timed as part of set-up)

    from perfbench import workloads

    import_s = time.monotonic() - START
    work = ROOT / ".perfbench"
    work.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=work))
    ctx = workloads.Context(
        root=ROOT, scratch=scratch, seed=args.seed, seconds=args.seconds
    )
    try:
        if args.trace:
            result, report = traced(args.workload, ctx, import_s)
        else:
            result, report = untraced(args.workload, ctx, import_s)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    results = work / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(report, indent=1) + "\n")
    for metric, entry in result["metrics"].items():
        print(f"{args.workload}  {metric:<28} {entry['value']:.6g} "
              f"{entry['unit']}")
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process; the last line merges their
    results, with metrics named ``<workload>.<metric>``."""
    import subprocess

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        command = [
            sys.executable, __file__, "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode != 0 or not lines:
            print(done.stderr, file=sys.stderr)
            return done.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{workload}.{metric}"] = entry
    print(json.dumps(merged))
    return 0


def _counts(details: dict, failures: int) -> dict:
    return {
        "correct": failures == 0,
        "attempted": details["ops"],
        "failed": failures,
    }


def untraced(name, ctx, import_s):
    from perfbench import workloads

    _, summary = workloads.run_untraced(name, ctx, import_s)
    details = summary["details"]
    report = {
        "workload": name,
        "seed": ctx.seed,
        "seconds": ctx.seconds,
        "trace": 0,
        "environment": environment(details),
        "details": details,
    }
    result = _counts(details, details["failed_ops"])
    result["metrics"] = {
        metric: {"value": value, "unit": unit}
        for metric, (value, unit) in summary["metrics"].items()
    }
    return result, report


def traced(name, ctx, import_s):
    from perfbench import workloads

    loop, summary = workloads.run_untraced(name, ctx, import_s, repeats=1)
    traced_loop, metrics, gaps = workloads.run_traced(
        name, ctx, loop.executed
    )
    untraced_p50 = summary["metrics"]["op_p50_s"][0]
    traced_p50 = statistics.median(r.latency for r in traced_loop.records)
    gap_p50 = statistics.median(gaps)
    metrics["trace.op_p50_s"] = traced_p50
    metrics["trace.overhead_s"] = traced_p50 - untraced_p50
    metrics["trace.overhead_frac"] = traced_p50 / untraced_p50 - 1.0
    metrics["trace.unattributed_s"] = gap_p50
    metrics["trace.unattributed_frac"] = gap_p50 / traced_p50
    details = summary["details"]
    failures = details["failed_ops"] + sum(
        r.failed for r in traced_loop.records
    )
    details["traced_ops"] = len(traced_loop.records)
    details["traced_failures"] = [
        {"op": r.op_id, "reason": r.reason}
        for r in traced_loop.records if r.failed
    ][:20]
    report = {
        "workload": name,
        "seed": ctx.seed,
        "seconds": ctx.seconds,
        "trace": 1,
        "environment": environment(details),
        "details": details,
        "untraced_metrics": {
            metric: value for metric, (value, _) in summary["metrics"].items()
        },
    }
    result = _counts(details, failures)
    result["attempted"] += len(traced_loop.records)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result["metrics"] = {
        entry["name"]: {"value": metrics[entry["name"]], "unit": entry["unit"]}
        for entry in spec["per_layer"]
    }
    return result, report


if __name__ == "__main__":
    sys.exit(main())
