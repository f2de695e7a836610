"""One workload in a fresh interpreter: set-up, one timed round, checks, result.

Started by ``run.py``, which sets PYTHONPATH and the BLAS thread count.  The
last line of standard output is one JSON object with the raw figures.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

IMPORT_RUNS = 3
# phase-estimation repeats per configuration in a set-up-only process; how fast
# run_phase_estimation runs differs by up to 40 % between processes (a third of
# its time is page faults on fresh temporaries), so every process samples it
SAMPLE_REPEATS = 2


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
    }


def fresh_import_seconds() -> float:
    """Median time of ``import metrocorr.cli`` in fresh interpreters."""
    code = "import time; t = time.perf_counter(); import metrocorr.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(IMPORT_RUNS):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60, check=True)
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace-file")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import metrocorr  # noqa: F401  (a fresh import is part of set-up)
    import workloads as wl

    workdir = Path(args.workdir)
    inputs = wl.make_inputs(args.workload, args.seed)
    wl.warm_up(workdir)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        runner = wl.Runner()
        out = wl.sample_estimations(runner, SAMPLE_REPEATS)
        print(json.dumps({"setup_s": setup_s, "estimation_trials_per_s": wl.estimation_rate(out),
                          "estimation_variances": wl.estimation_variances(out),
                          "attempted": runner.attempted, "failed": runner.failed}))
        return 0

    import oracles
    import tracer as tr

    tracer = None
    if args.trace:
        tracer = tr.Tracer()
        tr.install(tracer)
    runner = wl.Runner(tracer)
    problems = oracles.self_test()
    out = wl.run_round(runner, inputs, workdir)
    metrics = wl.round_seconds(out, inputs.headline)
    ck = wl.check(inputs, out, workdir)
    problems += ck.problems
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    layers = None
    if tracer is not None:
        layers = tr.layer_metrics(tracer)
        layers["cli.import_s"] = (fresh_import_seconds(), "s")
        if args.trace_file:
            tracer.write(args.trace_file)
    for line in problems:
        print("CHECK FAILED: " + line, file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "unconverged": ck.unconverged,
        "metrics": metrics,
        "estimation_variances": wl.estimation_variances(out),
        "layers": layers,
        "problems": problems[:50],
        "env": environment(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
