"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload fig6_sweep --seeds 1-10 \\
        [--seconds 20] [--out spread.json]

Runs ``perfbench/run.py`` once per seed (one after another, never in
parallel), then prints, per metric, the median, the quartile spread
``(Q3 - Q1) / median`` as ``statistics.quantiles(values, n=4)`` gives
it, and the metric's bound from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = map(int, text.split("-"))
        return list(range(low, high + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        command = [
            sys.executable, str(ROOT / "perfbench" / "run.py"),
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ]
        done = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, check=True
        )
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} failed ops",
                  file=sys.stderr)
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
        ), flush=True)

    print(f"{'metric':<20} {'median':>10} {'spread':>8} {'bound':>6}")
    for name, series in values.items():
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        print(f"{name:<20} {median:>10.4g} {spread:>8.3f} "
              f"{bounds.get(name, float('nan')):>6}")
    if args.out:
        Path(args.out).write_text(json.dumps(values, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
