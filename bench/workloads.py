"""Inputs, operations and checks of the benchmark's three workloads.

Every workload runs the same three sections, so that every run reports every
end-to-end metric:

- ``general``: ``lqu_general``, ``ip_general`` and ``ds_general`` (the
  unitary optimizer with its default 16 restarts);
- ``closed``: the qubit-probe closed forms, skew information and QFI on many
  states, phase estimation, and CLI calls in fresh interpreters and in-process;
- ``multicopy``: exact n-copy ``helstrom_error``, ``run_discrimination`` and
  ``chernoff`` pairs.

The section a workload is named after (its headline section) gets large
inputs drawn from ``--seed``; the two others get the least input that still
yields their metrics, from a fixed seed, the same in every run.  ``wall_s`` is
the time of the headline section's operations only.  Phase-estimation
configurations and CLI argument lists are fixed lists.

A run is one round, which calls every operation once (the small optimizer
state ``SIDE_GENERAL_REPEATS`` times).  ``check`` compares the round's outputs
with the oracles in ``oracles.py``.
"""
from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import re
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import metrocorr as mc
import metrocorr.cli  # noqa: F401  (in-process CLI calls go through mc.cli.main)
import oracles as orc

WORKLOADS = {"optimizer": "general", "closed_form": "closed", "multicopy": "multicopy"}
FIXED_SEED = 20160907
DS_LAMBDA = math.pi / 4
HAAR_GENERATORS = 24
VALUE_TOL = 1e-9
# times per round that each phase-estimation configuration runs
ESTIMATION_REPEATS = 8
# times per round that the one small optimizer state of the other workloads
# runs through each measure; its metrics are the median of these calls
SIDE_GENERAL_REPEATS = 3

# the phase-estimation configurations, the same in every workload:
# (label, state, generator direction or None for worst case, theta0, n, trials, seed)
ESTIMATIONS = [
    ("werner-z", ("werner", 0.9), (0.0, 0.0, 1.0), 0.3, 1000, 2000, 101),
    ("werner-worst", ("werner", 0.6), None, 0.2, 1000, 2000, 102),
    ("qubit-qutrit-x", ("fixed23", 0), (1.0, 0.0, 0.0), 0.5, 500, 2000, 103),
    ("qubit-qutrit-worst", ("fixed23", 0), None, 0.1, 500, 2000, 104),
]
CLI_ESTIMATION = ["simulate", "estimation", "--state", "bell.json", "--worst-case", "--theta0", "0.3",
                  "--n", "1000", "--trials", "200", "--seed", "7"]
# (label, argv with {o} for the output prefix, artifact name or None)
CLI_CALLS = [
    ("validate", ["validate", "state.json"], None),
    ("measure", ["measure", "--lqu", "state.json", "--json", "{o}lqu.json"], "lqu.json"),
    ("sweep", ["sweep", "--family", "werner", "--grid", "0:1:21", "--measures", "lqu,ip,ds",
               "--out", "{o}sweep.tsv"], "sweep.tsv"),
    ("estimation", CLI_ESTIMATION + ["--out", "{o}est.json"], "est.json"),
    ("estimation-repeat", CLI_ESTIMATION + ["--out", "{o}est2.json"], "est2.json"),
]
# cli_call_s is the median over these lists: ten calls on closed_form, six on
# the other workloads
HEADLINE_CLI_CALLS = CLI_CALLS * 2
SMALL_CLI_CALLS = CLI_CALLS[:2] * 3


@dataclass
class Inputs:
    headline: str
    general: list
    general_repeats: int
    closed: list
    cli_calls: list
    cli_state: tuple
    pairs: list
    discriminations: list
    chernoff_pairs: list


@dataclass
class Round:
    """Outputs of one round plus the timings the metrics are made from."""

    general: dict = field(default_factory=dict)
    closed: dict = field(default_factory=dict)
    estimations: list = field(default_factory=list)
    cli: dict = field(default_factory=dict)
    helstrom: dict = field(default_factory=dict)
    discriminations: dict = field(default_factory=dict)
    chernoff: dict = field(default_factory=dict)
    seconds: dict = field(default_factory=lambda: dict.fromkeys(
        ("closed", "helstrom", "chernoff"), 0.0))
    # per measure and state, the call times of its repeats
    general_seconds: dict = field(default_factory=lambda: {"lqu": {}, "ip": {}, "ds": {}})
    section_seconds: dict = field(default_factory=lambda: dict.fromkeys(
        ("general", "closed", "multicopy"), 0.0))
    cli_seconds: list = field(default_factory=list)
    estimation_seconds: dict = field(default_factory=dict)
    counts: dict = field(default_factory=lambda: dict.fromkeys(("states", "pairs"), 0))


class Runner:
    """Calls operations, counting attempts and failures; under tracing each
    operation is a root span."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0

    def call(self, label, fn, *args, **kwargs):
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if self.tracer is not None:
                out = self.tracer.call("bench." + label, fn, *args, **kwargs)
            else:
                out = fn(*args, **kwargs)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            out = None
        return out, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# inputs


def _unit_vector(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def _qubit_generator(direction, lam=1.0):
    return lam * np.einsum("i,ijk->jk", np.asarray(direction, dtype=float), orc.PAULIS)


def _general_inputs(rng, large):
    specs = [("full", (2, 2))]
    if large:
        specs = [("full", (2, 2)), ("full", (2, 3)), ("full", (3, 3)), ("cq", (3, 3)), ("pure", (3, 3))]
    out = []
    for kind, dims in specs:
        d = dims[0] * dims[1]
        if kind == "cq":
            mat = orc.cq_state(dims, rng)
        else:
            mat = orc.ginibre_state(d, 1 if kind == "pure" else d, rng)
        haar = [orc.haar(dims[0], rng) for _ in range(HAAR_GENERATORS)]
        out.append({"kind": kind, "dims": dims, "mat": mat, "haar": haar})
    return out


def _closed_inputs(rng, large):
    per_db, cq_per_db = (600, 150) if large else (150, 50)
    out = []
    for d_b in (2, 3, 4):
        d = 2 * d_b
        mats = [orc.ginibre_state(d, int(rng.integers(1, d + 1)), rng) for _ in range(per_db)]
        mats += [orc.cq_state((2, d_b), rng) for _ in range(cq_per_db)]
        for mat in mats:
            out.append({
                "dims": (2, d_b),
                "mat": mat,
                "op": orc.local(_qubit_generator(_unit_vector(rng)), d_b),
                "lam": float(rng.uniform(0.2, math.pi / 2)),
                "probe": _unit_vector(rng),
            })
    return out


def _multicopy_inputs(rng, large):
    kinds = [("pure", (2, 2)), ("mixed", (2, 2))]
    if large:
        kinds = kinds * 3 + [("mixed", (2, 3))] * 2
    pairs = []
    for kind, dims in kinds:
        d = dims[0] * dims[1]
        rank = 1 if kind == "pure" else int(rng.integers(2, d + 1))
        m1 = orc.ginibre_state(d, rank, rng)
        k = _qubit_generator(_unit_vector(rng), rng.uniform(0.2, 1.2))
        m2 = orc.rotate(m1, k, dims[1])
        pairs.append({"kind": kind, "dims": dims, "m1": m1, "m2": 0.5 * (m2 + m2.conj().T),
                      "n_max": 5 if d <= 4 else 4})
    discriminations = []
    for n_max in ((5,) if large else (3,)):
        lam = float(rng.uniform(0.3, 1.2))
        discriminations.append({"dims": (2, 2), "mat": orc.ginibre_state(4, 4, rng),
                                "spectrum": np.array([-lam, lam]), "basis": orc.haar(2, rng),
                                "n_max": n_max})
    chernoff_pairs = []
    for i in range(3000 if large else 500):
        dims = (2, 2) if i % 2 else (2, 3)
        d = dims[0] * dims[1]
        first = orc.ginibre_state(d, 1 if i % 4 < 2 else d, rng)
        chernoff_pairs.append({"dims": dims, "m1": first, "m2": orc.ginibre_state(d, d, rng),
                               "pure": i % 4 < 2})
    return pairs, discriminations, chernoff_pairs


def _estimation_state(spec):
    name, arg = spec
    if name == "werner":
        return (2, 2), orc.werner(arg)
    return (2, 3), orc.ginibre_state(6, 6, np.random.default_rng(FIXED_SEED + arg))


def make_inputs(workload: str, seed: int) -> Inputs:
    """Inputs of one workload: its own section from ``seed``, the others fixed."""
    large = WORKLOADS[workload]
    rngs = {
        section: np.random.default_rng([seed, i] if section == large else [FIXED_SEED, i])
        for i, section in enumerate(("general", "closed", "multicopy"))
    }
    pairs, discriminations, chernoff_pairs = _multicopy_inputs(rngs["multicopy"], large == "multicopy")
    closed = _closed_inputs(rngs["closed"], large == "closed")
    cli_state = next((c["dims"], c["mat"]) for c in closed if c["dims"] == (2, 3))
    return Inputs(
        headline=large,
        general=_general_inputs(rngs["general"], large == "general"),
        general_repeats=1 if large == "general" else SIDE_GENERAL_REPEATS,
        closed=closed,
        cli_calls=HEADLINE_CLI_CALLS if large == "closed" else SMALL_CLI_CALLS,
        cli_state=cli_state,
        pairs=pairs,
        discriminations=discriminations,
        chernoff_pairs=chernoff_pairs,
    )


# ---------------------------------------------------------------------------
# one round: every section is a list of tasks, and the lists are interleaved so
# that each section's timings sample the whole round rather than one stretch of
# it; on a shared machine, stretches of a few tenths of a second differ in speed
# by up to 2x


def _spectrum(d):
    return np.linspace(-1.0, 1.0, d)


def _general_task(runner, out, i, st, name, fn, scale):
    rho = mc.validate_density(st["mat"], st["dims"])
    res, dt = runner.call(f"{name}_general", fn, rho, _spectrum(st["dims"][0]) * scale)
    out.general_seconds[name].setdefault(i, []).append(dt)
    out.general.setdefault(i, {}).setdefault(name, []).append(res)


def _general_tasks(runner, inputs, out):
    return [
        functools.partial(_general_task, runner, out, i, st, name, fn, scale)
        for _ in range(inputs.general_repeats)
        for i, st in enumerate(inputs.general)
        for name, fn, scale in (("lqu", mc.lqu_general, 1.0), ("ip", mc.ip_general, 1.0),
                                ("ds", mc.ds_general, DS_LAMBDA))
    ]


def _closed_task(runner, out, i, st):
    t0 = time.perf_counter()
    rho, _ = runner.call("validate_density", mc.validate_density, st["mat"], st["dims"])
    res = None
    if rho is not None:
        res = {
            "lqu": runner.call("lqu_qubit_qudit", mc.lqu_qubit_qudit, rho)[0],
            "ip": runner.call("ip_qubit_qudit", mc.ip_qubit_qudit, rho)[0],
            "ds": runner.call("ds_qubit_qudit", mc.ds_qubit_qudit, rho, st["lam"])[0],
            "skew": runner.call("skew_information", mc.skew_information, rho, st["op"])[0],
            "qfi": runner.call("qfi", mc.qfi, rho, st["op"])[0],
        }
    out.seconds["closed"] += time.perf_counter() - t0
    out.closed[i] = res


def _estimation_task(runner, out, cfg):
    label, state, direction, theta0, n, trials, seed = cfg
    dims, mat = _estimation_state(state)
    config = mc.EstimationConfig(
        state=mc.validate_density(mat, dims),
        generator=None if direction is None else mc.Observable.pauli(direction),
        theta0=theta0, n_per_trial=n, trials=trials, seed=seed, worst_case=direction is None,
    )
    record, dt = runner.call("run_phase_estimation", mc.run_phase_estimation, config)
    out.estimation_seconds.setdefault(label, []).append(dt)
    out.estimations.append((cfg, record))


def _cli_task(runner, out, workdir, label, argv):
    sub = [a.format(o="sub-") for a in argv]
    t0 = time.perf_counter()
    proc, _ = runner.call(
        "cli_subprocess", subprocess.run, [sys.executable, "-m", "metrocorr", *sub],
        cwd=workdir, capture_output=True, text=True, timeout=120,
    )
    out.cli_seconds.append(time.perf_counter() - t0)
    if proc is not None and proc.returncode != 0:
        sys.stderr.write(f"metrocorr {' '.join(sub)} exited {proc.returncode}: {proc.stderr}")
        runner.failed += 1
        proc = None
    inp = [str(workdir / a) if a.endswith((".json", ".tsv")) else a for a in (x.format(o="inp-") for x in argv)]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code, _ = runner.call("cli_main", mc.cli.main, inp)
    if code not in (0, None):
        runner.failed += 1
    runs = out.cli.setdefault(label, [])
    runs.append({"sub": None if proc is None else proc.stdout, "inp": buf.getvalue() if code == 0 else None})


def _helstrom_task(runner, out, i, p, n):
    r1 = mc.DensityMatrix(p["dims"], p["m1"])
    r2 = mc.DensityMatrix(p["dims"], p["m2"])
    err, dt = runner.call("helstrom_error", mc.helstrom_error, r1, r2, n)
    out.seconds["helstrom"] += dt
    out.helstrom[(i, n)] = err


def _discrimination_task(runner, out, i, c):
    rho = mc.DensityMatrix(c["dims"], c["mat"])
    gen = mc.Observable(c["spectrum"], c["basis"])
    record, _ = runner.call("run_discrimination", mc.run_discrimination, rho, c["spectrum"],
                            generator=gen, n_max=c["n_max"])
    out.discriminations[i] = record


def _chernoff_task(runner, out, i, c):
    r1 = mc.DensityMatrix(c["dims"], c["m1"])
    r2 = mc.DensityMatrix(c["dims"], c["m2"])
    res, dt = runner.call("chernoff", mc.chernoff, r1, r2)
    out.seconds["chernoff"] += dt
    out.chernoff[i] = res


def _interleave(*task_lists):
    """Merge lists of (section, task), spreading each list evenly over the result."""
    keyed = [((j + 0.5) / len(tasks), k, j, task)
             for k, tasks in enumerate(task_lists) for j, task in enumerate(tasks)]
    return [item[3] for item in sorted(keyed, key=lambda item: item[:3])]


def _in(section, tasks):
    return [(section, task) for task in tasks]


def run_round(runner: Runner, inputs: Inputs, workdir: Path) -> Round:
    out = Round()
    out.counts["states"] = len(inputs.closed)
    out.counts["pairs"] = len(inputs.chernoff_pairs)
    dims, mat = inputs.cli_state
    runner.call("save_state", mc.save_state, mc.validate_density(mat, dims), workdir / "state.json")
    runner.call("save_state", mc.save_state, mc.validate_density(orc.bell(), (2, 2)), workdir / "bell.json")
    p = functools.partial
    tasks = _interleave(
        _in("general", _general_tasks(runner, inputs, out)),
        _in("closed", [p(_closed_task, runner, out, i, st) for i, st in enumerate(inputs.closed)]),
        _in("closed", [p(_estimation_task, runner, out, cfg) for _ in range(ESTIMATION_REPEATS) for cfg in ESTIMATIONS]),
        _in("closed", [p(_cli_task, runner, out, workdir, label, argv) for label, argv, _ in inputs.cli_calls]),
        _in("multicopy", [p(_helstrom_task, runner, out, i, pair, n)
                          for i, pair in enumerate(inputs.pairs) for n in range(1, pair["n_max"] + 1)]),
        _in("multicopy", [p(_discrimination_task, runner, out, i, c)
                          for i, c in enumerate(inputs.discriminations)]),
        _in("multicopy", [p(_chernoff_task, runner, out, i, c) for i, c in enumerate(inputs.chernoff_pairs)]),
    )
    for section, task in tasks:
        t0 = time.perf_counter()
        task()
        out.section_seconds[section] += time.perf_counter() - t0
    return out


def warm_up(workdir: Path) -> None:
    """One small untimed pass: every kind of call once, on inputs of its own,
    so that lazy set-up (BLAS threads, first LAPACK calls) is paid here."""
    rho = mc.validate_density(orc.werner(0.6), (2, 2))
    cfg = mc.OptimizerConfig(restarts=2)
    for fn, lam in ((mc.lqu_general, 1.0), (mc.ip_general, 1.0), (mc.ds_general, DS_LAMBDA)):
        fn(rho, [-lam, lam], config=cfg)
    op = orc.local(orc.PAULIS[2], 2)
    mc.lqu_qubit_qudit(rho), mc.ip_qubit_qudit(rho), mc.ds_qubit_qudit(rho, DS_LAMBDA)
    mc.skew_information(rho, op), mc.qfi(rho, op)
    mc.run_phase_estimation(mc.EstimationConfig(state=rho, worst_case=True, theta0=0.1, trials=20))
    mc.save_state(rho, workdir / "warm.json")
    with contextlib.redirect_stdout(io.StringIO()):
        mc.cli.main(["validate", str(workdir / "warm.json")])
    other = mc.DensityMatrix((2, 2), orc.werner(0.3))
    mc.helstrom_error(rho, other, 4)
    mc.chernoff(rho, other)


def estimation_rate(r: Round) -> float:
    """Trials per second of the phase-estimation configurations, each with the
    median time of its repeats."""
    return sum(cfg[5] for cfg in ESTIMATIONS) / sum(
        statistics.median(r.estimation_seconds[cfg[0]]) for cfg in ESTIMATIONS)


def sample_estimations(runner: Runner, repeats: int) -> Round:
    """Only the phase-estimation configurations, each run ``repeats`` times."""
    out = Round()
    for _ in range(repeats):
        for cfg in ESTIMATIONS:
            _estimation_task(runner, out, cfg)
    return out


def estimation_variances(r: Round) -> dict:
    """The variance each phase-estimation configuration gave, by label."""
    return {cfg[0]: record.summary["variance"] for cfg, record in r.estimations if record is not None}


def _general_seconds(r: Round, name: str) -> float:
    # summed over the states, each state with the median of its repeats
    return sum(statistics.median(times) for times in r.general_seconds[name].values())


def round_seconds(r: Round, headline: str) -> dict:
    """The end-to-end figures of the round, tracing off."""
    s = r.seconds
    return {
        "wall_s": r.section_seconds[headline],
        "lqu_general_s": _general_seconds(r, "lqu"),
        "ip_general_s": _general_seconds(r, "ip"),
        "ds_general_s": _general_seconds(r, "ds"),
        "closed_states_per_s": r.counts["states"] / s["closed"],
        "estimation_trials_per_s": estimation_rate(r),
        "cli_call_s": statistics.median(r.cli_seconds),
        "helstrom_s": s["helstrom"],
        "chernoff_pairs_per_s": r.counts["pairs"] / s["chernoff"],
    }


# ---------------------------------------------------------------------------
# checks against the oracles


class Checker:
    def __init__(self):
        self.problems = []
        self.unconverged = 0

    def close(self, label, got, want, tol):
        if not abs(got - want) <= tol:
            self.problems.append(f"{label}: {got!r} vs oracle {want!r} (tol {tol:g})")

    def holds(self, label, ok):
        if not ok:
            self.problems.append(label)


def _cert_generator(res):
    cert = res.certificate
    return orc.generator(cert.spectrum, np.asarray(cert.basis_unitary))


def _check_general(ck, inputs, out):
    for i, st in enumerate(inputs.general):
        runs = out.general.get(i, {})
        if any(r is None for k in ("lqu", "ip", "ds") for r in runs.get(k, [None])):
            continue
        mat, dims = st["mat"], st["dims"]
        d_a, d_b = dims
        lam = _spectrum(d_a)
        tag = f"general[{i}] {st['kind']}{dims}"
        for name, results in runs.items():
            ck.holds(f"{tag} {name} repeats of the seeded optimizer differ: {[r.value for r in results]}",
                     all(r.value == results[0].value for r in results))
        lqu, ip, ds = runs["lqu"][0], runs["ip"][0], runs["ds"][0]
        ck.unconverged += sum(1 for r in (lqu, ip, ds) if not r.converged)
        k_lqu = orc.local(_cert_generator(lqu), d_b)
        f_lqu = orc.qfi_quarter(mat, k_lqu)
        ck.close(f"{tag} LQU at certificate", lqu.value, orc.skew(mat, k_lqu), 1e-8)
        ck.close(f"{tag} IP at certificate", ip.value, orc.qfi_quarter(mat, orc.local(_cert_generator(ip), d_b)), 1e-8)
        q_cert = orc.chernoff_q(mat, orc.rotate(mat, _cert_generator(ds), d_b))
        ck.close(f"{tag} DS at certificate", ds.value, 1.0 - q_cert, 1e-8)
        chain = (lqu.value, ip.value, f_lqu, 2.0 * lqu.value)
        ck.holds(f"{tag} LQU <= IP <= F(K*_LQU)/4 <= 2 LQU fails: {chain}",
                 all(a <= b + 1e-8 for a, b in zip(chain, chain[1:])))
        skews, fishers, dss = [], [], []
        for u in st["haar"]:
            k = orc.local(orc.generator(lam, u), d_b)
            skews.append(orc.skew(mat, k))
            fishers.append(orc.qfi_quarter(mat, k))
            dss.append(1.0 - orc.chernoff_q(mat, orc.rotate(mat, orc.generator(lam * DS_LAMBDA, u), d_b)))
        for name, value, sampled in (("LQU", lqu.value, skews), ("IP", ip.value, fishers), ("DS", ds.value, dss)):
            ck.holds(f"{tag} {name} {value!r} exceeds the best Haar generator {min(sampled)!r}",
                     value <= min(sampled) + VALUE_TOL)
        if d_a == 2:
            unit = orc.lqu_qubit(mat, dims)
            ck.close(f"{tag} LQU closed form", lqu.value, unit, 1e-6)
            ck.close(f"{tag} IP closed form", ip.value, orc.ip_qubit(mat, dims), 1e-6)
            ck.close(f"{tag} DS closed form", ds.value, unit * math.sin(DS_LAMBDA) ** 2, 1e-6)
        if st["kind"] == "cq":
            for name, r in (("LQU", lqu), ("IP", ip), ("DS", ds)):
                ck.holds(f"{tag} {name} of a classical-quantum state is {r.value!r}", r.value <= 1e-7)
        if st["kind"] == "pure":
            ck.close(f"{tag} DS permutation oracle", ds.value,
                     orc.ds_pure_permutation(mat, dims, lam * DS_LAMBDA), 1e-6)


def _check_closed(ck, inputs, out):
    for i, st in enumerate(inputs.closed):
        res = out.closed.get(i)
        if res is None or any(v is None for v in res.values()):
            continue
        mat, dims = st["mat"], st["dims"]
        d_b = dims[1]
        tag = f"closed[{i}]{dims}"
        lqu, ip, ds = res["lqu"].value, res["ip"].value, res["ds"].value
        ck.close(f"{tag} LQU vs W", lqu, orc.lqu_qubit(mat, dims), VALUE_TOL)
        ck.close(f"{tag} IP vs M", ip, orc.ip_qubit(mat, dims), VALUE_TOL)
        ck.close(f"{tag} skew", res["skew"], orc.skew(mat, st["op"]), VALUE_TOL)
        ck.close(f"{tag} QFI", res["qfi"], 4.0 * orc.qfi_quarter(mat, st["op"]), 4 * VALUE_TOL)
        ck.holds(f"{tag} LQU <= IP <= 2 LQU fails: {lqu!r}, {ip!r}",
                 lqu <= ip + VALUE_TOL and ip <= 2.0 * lqu + VALUE_TOL)
        q_cert = orc.chernoff_q(mat, orc.rotate(mat, _cert_generator(res["ds"]), d_b))
        ck.close(f"{tag} DS vs 1 - Q at certificate", ds, 1.0 - q_cert, VALUE_TOL)
        probe = _qubit_generator(st["probe"], st["lam"])
        q_probe = orc.chernoff_q(mat, orc.rotate(mat, probe, d_b))
        ck.holds(f"{tag} DS {ds!r} exceeds 1 - Q {1.0 - q_probe!r} of a random direction",
                 ds <= 1.0 - q_probe + VALUE_TOL)


def _check_estimations(ck, inputs, out):
    first = estimation_variances(out)
    for cfg, record in out.estimations:
        if record is None:
            continue
        label, state, direction, _, _, trials, _ = cfg
        dims, mat = _estimation_state(state)
        s = record.summary
        ck.holds(f"estimation {label}: a repeat with the same seed gave variance {s['variance']!r}, "
                 f"not {first[label]!r}", s["variance"] == first[label])
        lo = 1.0 - 3.0 / math.sqrt(trials)
        ck.holds(f"estimation {label}: ratio {s['ratio']!r} outside [{lo:.4f}, 1.3]", lo <= s["ratio"] <= 1.3)
        if direction is None:
            want = 4.0 * orc.ip_qubit(mat, dims)
            ck.close(f"estimation {label}: IP", s["interferometric_power"], want / 4.0, VALUE_TOL)
        else:
            want = 4.0 * orc.qfi_quarter(mat, orc.local(_qubit_generator(direction), dims[1]))
        ck.close(f"estimation {label}: QFI", s["fisher_information"], want, 4 * VALUE_TOL)


def _value_line(text, key):
    for line in text.splitlines():
        if line.startswith(key + " "):
            return float(line.split()[1])
    return math.nan


def _check_cli(ck, inputs, out, workdir: Path):
    dims, mat = inputs.cli_state
    lqu = orc.lqu_qubit(mat, dims)
    bell_qfi = 4.0 * orc.ip_qubit(orc.bell(), (2, 2))
    low = 1.0 - 3.0 / math.sqrt(200)
    for label, artifact in dict((label, artifact) for label, _, artifact in inputs.cli_calls).items():
        for res in out.cli.get(label, []):
            for mode in ("sub", "inp"):
                text = res[mode]
                tag = f"cli {label} ({mode})"
                if text is None:
                    continue
                if label == "validate":
                    fields = dict(re.findall(r"(purity|rank)=(\S+)", text))
                    if len(fields) != 2:
                        ck.holds(f"{tag} prints no purity and rank: {text!r}", False)
                        continue
                    ck.close(f"{tag} purity", float(fields["purity"]), float(np.trace(mat @ mat).real), 1e-6)
                    rank = int(np.sum(np.linalg.eigvalsh(mat) > 1e-9))
                    ck.holds(f"{tag} rank {fields['rank']} != {rank}", int(fields["rank"]) == rank)
                elif label == "measure":
                    ck.close(f"{tag} printed value", _value_line(text, "value"), lqu, 1e-6)
        if artifact is None or not out.cli.get(label):
            continue
        paths = {mode: workdir / f"{mode}-{artifact}" for mode in ("sub", "inp")}
        for mode, path in paths.items():
            tag = f"cli {label} ({mode}) {artifact}"
            if not path.exists():
                # a call that exited 0 must have written its artifact
                ck.holds(f"{tag}: the call exited 0 but wrote no file",
                         all(res[mode] is None for res in out.cli[label]))
                continue
            if label == "measure":
                ck.close(f"{tag} value", json.loads(path.read_text())["value"], lqu, VALUE_TOL)
            elif label == "sweep":
                for q, lqu_q, ip_q, ds_q in np.loadtxt(path, comments="#"):
                    w = orc.werner(q)
                    unit = orc.lqu_qubit(w, (2, 2))
                    ck.close(f"{tag} LQU at q={q}", lqu_q, unit, VALUE_TOL)
                    ck.close(f"{tag} IP at q={q}", ip_q, orc.ip_qubit(w, (2, 2)), VALUE_TOL)
                    ck.close(f"{tag} DS at q={q}", ds_q, unit * math.sin(DS_LAMBDA) ** 2, VALUE_TOL)
            else:
                summary = json.loads(path.read_text())["summary"]
                ck.close(f"{tag} QFI", summary["fisher_information"], bell_qfi, 4 * VALUE_TOL)
                ck.holds(f"{tag} ratio {summary['ratio']!r} outside [{low:.4f}, 1.3]", low <= summary["ratio"] <= 1.3)
        if all(path.exists() for path in paths.values()):
            ck.holds(f"cli {label}: in-process and subprocess artifacts differ",
                     paths["sub"].read_bytes() == paths["inp"].read_bytes())
    for mode in ("sub", "inp"):
        a, b = workdir / f"{mode}-est.json", workdir / f"{mode}-est2.json"
        if a.exists() and b.exists():
            ck.holds(f"cli estimation ({mode}): a repeated seeded call changed its artifact",
                     a.read_bytes() == b.read_bytes())


def _check_multicopy(ck, inputs, out):
    for i, p in enumerate(inputs.pairs):
        errs = [out.helstrom.get((i, n)) for n in range(1, p["n_max"] + 1)]
        m1, m2 = p["m1"], p["m2"]
        fid = orc.uhlmann_fidelity(m1, m2)
        q = orc.chernoff_q(m1, m2)
        tag = f"pair[{i}] {p['kind']}{p['dims']}"
        _check_errors(ck, tag, errs, fid, q, pure=p["kind"] == "pure")
    for i, c in enumerate(inputs.discriminations):
        record = out.discriminations.get(i)
        if record is None:
            continue
        m2 = orc.rotate(c["mat"], orc.generator(c["spectrum"], c["basis"]), c["dims"][1])
        q = orc.chernoff_q(c["mat"], m2)
        ck.close(f"discrimination[{i}] Q", record.summary["q_value"], q, 1e-8)
        _check_errors(ck, f"discrimination[{i}]", list(record.columns["error"]),
                      orc.uhlmann_fidelity(c["mat"], m2), q, pure=False)
    for i, c in enumerate(inputs.chernoff_pairs):
        res = out.chernoff.get(i)
        if res is None:
            continue
        if c["pure"]:
            ck.close(f"chernoff[{i}] vs Uhlmann fidelity", res.q_value, orc.uhlmann_fidelity(c["m1"], c["m2"]), VALUE_TOL)
        else:
            ck.close(f"chernoff[{i}] vs s-search", res.q_value, orc.chernoff_q(c["m1"], c["m2"]), VALUE_TOL)


def _check_errors(ck, tag, errs, fid, q, pure):
    for n, err in enumerate(errs, start=1):
        if err is None:
            continue
        lower = orc.helstrom_pure(fid, n)
        if pure:
            ck.close(f"{tag} n={n} pure-pair Helstrom", err, lower, 1e-10)
        else:
            ck.holds(f"{tag} n={n} error {err!r} outside [{lower!r}, {q**n / 2!r}]",
                     lower - 1e-10 <= err <= q**n / 2 + 1e-10)
        if n > 1 and errs[n - 2] is not None:
            ck.holds(f"{tag} error grows from n={n - 1} to n={n}", err <= errs[n - 2] + 1e-12)


def check(inputs: Inputs, out: Round, workdir: Path) -> Checker:
    ck = Checker()
    _check_general(ck, inputs, out)
    _check_closed(ck, inputs, out)
    _check_estimations(ck, inputs, out)
    _check_cli(ck, inputs, out, workdir)
    _check_multicopy(ck, inputs, out)
    return ck
