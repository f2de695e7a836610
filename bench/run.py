#!/usr/bin/env python3
"""Benchmark of metrocorr: one workload, measured in fresh interpreters.

    python3 bench/run.py --workload optimizer --seed 1 --seconds 10 --trace 0

``--workload`` is ``optimizer``, ``closed_form``, ``multicopy`` or ``all``.
A run is one fixed round of the workload's operations, so every run attempts
the same operations; ``--seconds`` is accepted for the benchmark interface and
does not change the round.  With ``--trace 0`` the last line of standard
output is a JSON object with the end-to-end metrics; with ``--trace 1`` it
holds the per-layer metrics of a traced run instead.  The line before it records the numpy, scipy and BLAS
versions, the BLAS thread count and the core count.  Results and traces are
also written under ``bench/out/``.  See ``bench/README.md``.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("optimizer", "closed_form", "multicopy")
# set-up-only workers before and after the measuring worker; set-up time and
# phase-estimation speed are medians over all of the run's processes
SETUP_BEFORE, SETUP_AFTER = 3, 2
SETUP_TIMEOUT_S = 20.0
RUN_LIMIT_S = 170.0
# BLAS threads per worker: on a loaded two-core machine two OpenBLAS threads
# made one 1024-side eigensolve 20x slower
BLAS_THREADS = 1
# glibc's default mmap threshold moves up as large blocks are freed, so whether
# a 16 MB operand was mapped or kept on the heap, and with it peak RSS, varied
# by 8 % with the seed; a fixed threshold maps every large array
MALLOC_MMAP_THRESHOLD = 128 * 1024
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "lqu_general_s": "s",
    "ip_general_s": "s",
    "ds_general_s": "s",
    "closed_states_per_s": "states/s",
    "estimation_trials_per_s": "trials/s",
    "cli_call_s": "s",
    "helstrom_s": "s",
    "chernoff_pairs_per_s": "pairs/s",
}


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["MALLOC_MMAP_THRESHOLD_"] = str(MALLOC_MMAP_THRESHOLD)
    return env


def worker(args: list, env: dict, timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), *args],
        env=env, stdout=subprocess.PIPE, text=True, timeout=timeout,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    started = time.perf_counter()
    env = child_env()
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{name}-seed{seed}-trace{trace}"
    before, after = (0, 0) if trace else (SETUP_BEFORE, SETUP_AFTER)
    with tempfile.TemporaryDirectory(dir=out_dir, prefix=f"work-{tag}-") as workdir:
        common = ["--workload", name, "--seed", str(seed), "--workdir", workdir]
        samples = [worker(common + ["--setup-only"], env, SETUP_TIMEOUT_S) for _ in range(before)]
        remaining = RUN_LIMIT_S - (time.perf_counter() - started) - after * SETUP_TIMEOUT_S
        args = common + ["--trace", str(trace), "--trace-file", str(out_dir / f"trace-{tag}.jsonl.gz")]
        res = worker(args, env, max(remaining, 1.0))
        samples += [worker(common + ["--setup-only"], env, SETUP_TIMEOUT_S) for _ in range(after)]
    raw = res["metrics"]
    problems = res["problems"]
    for sample in samples:
        if sample["estimation_variances"] != res["estimation_variances"]:
            problems.append("phase estimation with the same seeds gave other variances in a set-up process: "
                            f"{sample['estimation_variances']} vs {res['estimation_variances']}")
    samples.append({"setup_s": raw["setup_s"], "estimation_trials_per_s": raw["estimation_trials_per_s"],
                    "attempted": res["attempted"], "failed": res["failed"]})
    # set-up and phase-estimation speed are medians over the run's processes
    for key in ("setup_s", "estimation_trials_per_s"):
        raw[key] = statistics.median(s[key] for s in samples)
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    if trace:
        metrics = {k: {"value": v, "unit": unit} for k, (v, unit) in res["layers"].items()}
    else:
        metrics = {k: {"value": raw[k], "unit": unit} for k, unit in END_TO_END.items()}
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "process_samples": samples, "wall_s": raw["wall_s"],
        "unconverged": res["unconverged"], "problems": problems, "env": res["env"],
        "result": {"correct": res["correct"] and not problems, "attempted": attempted,
                   "failed": failed, "metrics": metrics},
    }
    (out_dir / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def _terminate(signum, frame):
    # unwinding through subprocess.run kills and reaps the running worker
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="accepted for the benchmark interface; a run is always one round")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "metrocorr" / "__init__.py").is_file():
        print(f"error: no metrocorr sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        try:
            records.append(run_workload(name, args.seed, args.seconds, args.trace))
        except (RuntimeError, subprocess.TimeoutExpired, KeyError, ValueError) as exc:
            print(f"error: workload {name}: {exc}", file=sys.stderr)
            return 1
        for line in records[-1]["problems"]:
            print(f"{name}: CHECK FAILED: {line}", file=sys.stderr)
    if len(records) == 1:
        rec = records[0]
        print(json.dumps({"env": rec["env"], "unconverged": rec["unconverged"]}))
        print(json.dumps(rec["result"]))
        return 0
    merged = {"correct": all(r["result"]["correct"] for r in records),
              "attempted": sum(r["result"]["attempted"] for r in records),
              "failed": sum(r["result"]["failed"] for r in records), "metrics": {}}
    for rec in records:
        print(json.dumps({"workload": rec["workload"], "env": rec["env"], **rec["result"]}))
        for key, val in rec["result"]["metrics"].items():
            merged["metrics"][f"{rec['workload']}.{key}"] = val
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
