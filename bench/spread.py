#!/usr/bin/env python3
"""Run one workload on several seeds and report each metric's spread.

    python3 bench/spread.py --workload multicopy --seeds 1-10

For every metric it prints the median over the runs and the distance between
the first and third quartiles (``statistics.quantiles(values, n=4)``) as a share
of the median, the figure the benchmark's bounds are set against.  The table is
also written to ``bench/out/spread-<workload>-trace<t>.json``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"), help="first-last, e.g. 1-10")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args(argv)
    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--trace", args.trace],
            stdout=subprocess.PIPE, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", file=sys.stderr)
    table = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        if any(v is None for v in values):
            continue
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        table[name] = {"unit": first["unit"], "median": med, "q1": q1, "q3": q3,
                       "spread": (q3 - q1) / med if med else None, "values": values}
        spread = "n/a" if not med else f"{(q3 - q1) / med:.3f}"
        print(f"{name:40s} {med:14.6g} {first['unit']:9s} spread {spread}")
    failed = {r["failed"] / r["attempted"] for r in runs}
    print(f"correct in all runs: {all(r['correct'] for r in runs)}; failed shares: {sorted(failed)}")
    out = BENCH / "out" / f"spread-{args.workload}-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"workload": args.workload, "seeds": args.seeds, "metrics": table}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
