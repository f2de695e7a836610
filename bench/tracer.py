"""In-memory span tracer installed around metrocorr's public functions.

``install`` replaces each function the package exports (``metrocorr.__all__``),
plus ``cli.main`` and ``manifold.minimize_over_unitaries``, with a timing
wrapper in every namespace of the package that holds it, so calls between
modules are recorded as well as calls from the benchmark.  Internal helpers
stay unwrapped, which keeps the tracer out of the optimizer's per-evaluation
path except for the cost callback itself.  The cost callbacks handed to
``minimize_over_unitaries`` are wrapped per call, and the optimizer's restart
values are kept for the restart-ratio metrics.  Spans stay in memory until
``write`` dumps them at the end of the run.
"""
from __future__ import annotations

import collections
import functools
import gzip
import importlib
import inspect
import json
import statistics
import time

LAYERS = ("linalg", "states", "uncertainty", "fisher", "discrimination", "manifold", "sim", "cli")
COST_SPANS = {
    "lqu_general": "uncertainty.lqu_cost",
    "ip_general": "fisher.ip_cost",
    "ds_general": "discrimination.ds_cost",
}


class Tracer:
    """Spans in parallel lists: name, parent index, start, end, and an extra
    dict for optimizer and Helstrom spans.  Flat lists of numbers and strings
    keep the garbage collector from walking every span."""

    def __init__(self):
        self.names = []
        self.parents = []
        self.starts = []
        self.ends = []
        self.extras = {}
        self.stack = []

    def _enter(self, name, extra=None):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        if extra is not None:
            self.extras[idx] = extra
        self.stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _exit(self, idx):
        self.ends[idx] = time.perf_counter()
        self.stack.pop()

    def call(self, name, fn, *args, **kwargs):
        idx = self._enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(idx)

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def wrap_helstrom(self, fn):
        @functools.wraps(fn)
        def traced(rho1, rho2, n=1):
            idx = self._enter(f"discrimination.helstrom.n{n}", {"dim": rho1.dim, "n": n})
            try:
                return fn(rho1, rho2, n)
            finally:
                self._exit(idx)

        return traced

    def wrap_minimize(self, fn, default_config):
        @functools.wraps(fn)
        def traced(cost, d, config=None):
            owner = cost.__qualname__.split(".")[0]
            cost_name = COST_SPANS.get(owner, f"manifold.cost.{owner}")
            extra = {"cost": cost_name}
            idx = self._enter("manifold.minimize_over_unitaries", extra)
            try:
                out = fn(self.wrap(cost_name, cost), d, config)
            finally:
                self._exit(idx)
            # restart statistics need the (best, unitary, restarts, converged,
            # values) tuple; another return shape leaves them out
            if isinstance(out, tuple) and len(out) == 5:
                best, _, used, converged, values = out
                tol = (config or default_config()).reproduce_tol
                extra.update(
                    restarts=int(used),
                    useful=int(sum(1 for v in values if v <= best + tol)),
                    converged=bool(converged),
                )
            return out

        return traced

    def write(self, path):
        """Gzipped lines, one JSON array per span: [id, parent, name, start_us, duration_us]."""
        t0 = self.starts[0] if self.starts else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for i, (name, parent, start, end) in enumerate(zip(self.names, self.parents, self.starts, self.ends)):
                row = [i, parent, name, round((start - t0) * 1e6, 1), round((end - start) * 1e6, 1)]
                fh.write(json.dumps(row) + "\n")


def install(tracer: Tracer) -> None:
    """Route the package's public functions through the tracer."""
    import metrocorr

    modules = [importlib.import_module(f"metrocorr.{name}") for name in LAYERS]
    manifold = modules[LAYERS.index("manifold")]
    linalg = modules[LAYERS.index("linalg")]
    public = set(metrocorr.__all__) | {"main", "minimize_over_unitaries"}
    wrapped = {}
    for layer, mod in zip(LAYERS, modules):
        for name, obj in vars(mod).items():
            if name not in public or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            if obj.__name__ == "helstrom_error":
                wrapped[obj] = tracer.wrap_helstrom(obj)
            elif obj.__name__ == "minimize_over_unitaries":
                wrapped[obj] = tracer.wrap_minimize(obj, manifold.OptimizerConfig)
            else:
                wrapped[obj] = tracer.wrap(f"{layer}.{name}", obj)
    for mod in [metrocorr, *modules]:
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, name, wrapped[obj])
    # the cached matrix square root of a state is the package's sqrtm
    cls = linalg.DensityMatrix
    sqrtm = cls.__dict__.get("sqrtm")
    if isinstance(sqrtm, functools.cached_property):
        prop = functools.cached_property(tracer.wrap("linalg.sqrtm", sqrtm.func))
        prop.__set_name__(cls, "sqrtm")
        cls.sqrtm = prop


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics from the spans of a traced run, as (value, unit)."""
    names, parents, extras = tracer.names, tracer.parents, tracer.extras
    by_name = collections.defaultdict(list)
    for i, name in enumerate(names):
        by_name[name].append(i)

    def duration(i):
        return tracer.ends[i] - tracer.starts[i]

    def timed(name, scale):
        ids = by_name.get(name)
        return statistics.median(duration(i) for i in ids) * scale if ids else None

    mins = by_name.get("manifold.minimize_over_unitaries", [])
    cost_time = 0.0
    nfev = 0
    for i, (name, parent) in enumerate(zip(names, parents)):
        if parent >= 0 and names[parent] == "manifold.minimize_over_unitaries" and name == extras[parent]["cost"]:
            cost_time += duration(i)
            nfev += 1
    stats = [extras[i] for i in mins if "restarts" in extras[i]]
    restarts = sum(e["restarts"] for e in stats)
    busy = sum(duration(i) for i in mins)
    useful = sum(e["useful"] for e in stats)
    out = {
        "manifold.calls": (len(mins), "count"),
        "manifold.nfev": (nfev / len(mins) if mins else None, "count"),
        "manifold.ms_per_restart": (busy / restarts * 1e3 if restarts else None, "ms"),
        "manifold.self_us_per_eval": ((busy - cost_time) / nfev * 1e6 if nfev else None, "us"),
        "manifold.useful_restart_ratio": (useful / restarts if restarts else None, "ratio"),
        "manifold.unconverged": (sum(1 for e in stats if not e["converged"]) if stats else None, "count"),
    }
    for cost_name in COST_SPANS.values():
        out[cost_name + "_us"] = (timed(cost_name, 1e6), "us")
    out["linalg.eig_hermitian.calls"] = (len(by_name.get("linalg.eig_hermitian", [])), "count")
    for name in (
        "linalg.eig_hermitian",
        "linalg.validate_density",
        "linalg.sqrtm",
        "uncertainty.lqu_qubit_qudit",
        "fisher.ip_qubit_qudit",
        "discrimination.ds_qubit_qudit",
        "uncertainty.skew_information",
        "fisher.qfi",
        "fisher.sld",
        "states.load_state",
        "states.save_state",
        "discrimination.chernoff",
    ):
        out[name + ".us"] = (timed(name, 1e6), "us")
    for name in ("sim.run_phase_estimation", "cli.main", "linalg.trace_norm", "sim.run_discrimination"):
        out[name + ".ms"] = (timed(name, 1e3), "ms")
    for n in range(1, 6):
        out[f"discrimination.helstrom.n{n}.ms"] = (timed(f"discrimination.helstrom.n{n}", 1e3), "ms")
    side = max((extras[i]["dim"] ** 5 for i in by_name.get("discrimination.helstrom.n5", [])), default=None)
    # complex128 entries of one dense side x side operand, in MiB
    out["discrimination.helstrom.n5.dense_mb"] = (side * side * 16 / 2**20 if side else None, "MB")
    return out
