"""Monte-Carlo phase estimation against the Cramér-Rao bound and exact
multi-copy discrimination against the Chernoff decay law.

Estimation protocol: the input state evolves under a local phase generator,
outcomes are sampled from the projective measurement in the eigenbasis of the
symmetric logarithmic derivative at the true phase, and the phase is recovered
per trial by a grid maximum-likelihood estimate (ties resolved toward the grid
midpoint).  Everything is driven by one seeded generator, so identical
configurations produce bit-identical records.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .discrimination import (
    check_copies,
    chernoff,
    ds_general,
    ds_qubit_qudit,
    helstrom_errors,
    max_copies,
)
from .errors import DegenerateGrid, OutOfRange, ZeroInformation
from .fisher import PhaseChannel, cramer_rao, ip_general, ip_qubit_qudit, qfi, sld
from .linalg import (
    PAULI_Z,
    DensityMatrix,
    Observable,
    check_integer,
    check_spectrum,
    linear_spectrum,
)
from .manifold import MeasureResult, OptimizerConfig
from .states import make_fig1_state, make_werner
from .uncertainty import (
    classical_uncertainty,
    lqu_general,
    lqu_qubit_qudit,
    skew_information,
    variance,
)

DEFAULT_GRID_POINTS = 2001
GRID_HALF_WIDTH_SIGMAS = 5.0
CORRELATIONS = ("lqu", "ip", "ds")
_MAX_COUNT = int(np.iinfo(np.int64).max)  # the largest count the multinomial sampler takes
# the grid MLE takes the log-likelihood in row blocks of about this many bytes,
# so one block buffer stays in cache and its pages fault in once per call
_MLE_BLOCK_BYTES = 1 << 20


def _pyfloat(x):
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, (np.ndarray, list, tuple)):
        return [_pyfloat(v) for v in x]
    if isinstance(x, dict):
        return {k: _pyfloat(v) for k, v in x.items()}
    return x


@dataclass(eq=False)
class ExperimentRecord:
    """Configuration echo, per-row outcomes, and summary statistics of one run."""

    kind: str
    config: dict
    columns: dict
    summary: dict

    def to_json(self) -> str:
        payload = {
            "kind": self.kind,
            "config": _pyfloat(self.config),
            "columns": _pyfloat(self.columns),
            "summary": _pyfloat(self.summary),
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def to_tsv(self) -> str:
        return _tsv(self.columns, zip(*self.columns.values()))


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".12g")


def _tsv(names, rows) -> str:
    lines = ["# " + "\t".join(names)] + ["\t".join(_fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


@dataclass(eq=False)
class EstimationConfig:
    """Inputs of one phase-estimation experiment."""

    state: DensityMatrix
    generator: Observable | None = None
    theta0: float = 0.0
    n_per_trial: int = 1000
    trials: int = 100
    theta_grid: tuple | None = None
    seed: int = 0
    worst_case: bool = False


def correlation(
    name: str,
    rho: DensityMatrix,
    spectrum=None,
    lam: float = np.pi / 4,
    config: OptimizerConfig | None = None,
    general: bool = False,
) -> MeasureResult:
    """LQU, IP or DS of a bipartite state, by closed form or by the optimizer.

    The spectrum defaults to the linear one on d_A values (times lam for DS).
    A qubit probe with ``general`` unset takes the closed form at half-width
    (b - a)/2 of its spectrum {a, b}, with a given spectrum as the
    certificate's; every other case runs the ``*_general`` search.
    """
    if name not in CORRELATIONS:
        raise OutOfRange(f"unknown measure {name!r}; known: {', '.join(CORRELATIONS)}")
    given = spectrum is not None
    if not given:
        spectrum = linear_spectrum(rho.dims[0]) * (lam if name == "ds" else 1.0)
    if general or len(rho.dims) != 2 or rho.dims[0] != 2:
        # looked up at call time, so that rebinding a measure's name takes effect
        search = {"lqu": lqu_general, "ip": ip_general, "ds": ds_general}[name]
        return search(rho, spectrum, config)
    a, b = check_spectrum(spectrum, 2)
    half = 0.5 * (b - a)
    if name == "ds":
        res = ds_qubit_qudit(rho, half)
    else:  # LQU and IP are quadratic in the observable
        res = (lqu_qubit_qudit if name == "lqu" else ip_qubit_qudit)(rho)
        res = replace(res, value=res.value * half**2)
    if given:
        res = replace(res, certificate=Observable([a, b], res.certificate.basis_unitary))
    return res


def _resolve_generator(cfg: EstimationConfig):
    if not cfg.worst_case and cfg.generator is not None:
        return cfg.generator, None
    ip = correlation("ip", cfg.state, config=OptimizerConfig(seed=cfg.seed))
    return ip.certificate, ip.value


def _grid_mle(counts: np.ndarray, log_p: np.ndarray) -> np.ndarray:
    """Grid index of each trial's maximum-likelihood estimate: the argmax over
    the grid of counts @ log_p.T (counts (trials, K), log_p (points, K)), ties
    resolved toward the grid midpoint and, at equal distance, to the lower index.

    The grid columns are taken in order of distance from the midpoint (a stable
    sort, so the lower index first), and ``argmax`` returns the first maximum
    in that order.  The log-likelihood is formed a block of trials at a time
    in one reused buffer of about ``_MLE_BLOCK_BYTES``, so no trials x points
    array is allocated.  The blocks split the trials evenly, so none has a
    single row unless ``trials`` is 1: numpy hands a one-row product to a
    matrix-vector kernel, which rounds differently from a matrix product.
    """
    trials, points = len(counts), len(log_p)
    order = np.argsort(np.abs(np.arange(points) - 0.5 * (points - 1)), kind="stable")
    log_p_t = log_p[order].T  # (K, points), nearest the midpoint first
    counts = counts.astype(float)
    blocks = -(-trials // max(4, _MLE_BLOCK_BYTES // (8 * points)))
    bounds = [trials * i // blocks for i in range(blocks + 1)]
    buf = np.empty((-(-trials // blocks), points))
    best = np.empty(trials, dtype=np.intp)
    for start, stop in zip(bounds[:-1], bounds[1:]):
        loglik = np.matmul(counts[start:stop], log_p_t, out=buf[: stop - start])
        best[start:stop] = loglik.argmax(axis=1)
    return order[best]


def run_phase_estimation(cfg: EstimationConfig) -> ExperimentRecord:
    """Sample SLD-basis measurements at the true phase and grid-MLE the phase.

    Each trial's estimate is the grid point of largest log-likelihood, taken
    block-wise by ``_grid_mle``: among equal maxima the one nearest the grid
    midpoint, and at equal distance the lower grid index.  Its memory does not
    grow with trials x grid points.  ``trials``, ``n_per_trial`` and the grid
    points must be integers (``OutOfRange`` otherwise, as for n_per_trial
    above the int64 maximum), and the grid ends finite (``DegenerateGrid``).

    Records the empirical estimator variance about the true value, the bias,
    the Cramér-Rao bound 1/(n F), and their ratio.
    """
    trials = check_integer(cfg.trials, "trials")
    n_per_trial = check_integer(cfg.n_per_trial, "n_per_trial")
    if trials < 1 or n_per_trial < 1:
        raise OutOfRange("n_per_trial and trials must both be >= 1")
    if n_per_trial > _MAX_COUNT:
        raise OutOfRange(f"n_per_trial {n_per_trial} exceeds the int64 maximum {_MAX_COUNT}")
    rho0 = cfg.state
    generator, ip_value = _resolve_generator(cfg)
    channel = PhaseChannel(generator, cfg.theta0)
    h_full = channel.full_generator(rho0)
    fisher_value = qfi(rho0, h_full)
    if fisher_value <= 1e-9:
        raise ZeroInformation(
            f"quantum Fisher information {fisher_value:.3e} is numerically zero"
        )
    bound = cramer_rao(fisher_value, n_per_trial)
    sigma = math.sqrt(bound)
    if cfg.theta_grid is None:
        lo = cfg.theta0 - GRID_HALF_WIDTH_SIGMAS * sigma
        hi = cfg.theta0 + GRID_HALF_WIDTH_SIGMAS * sigma
        points = DEFAULT_GRID_POINTS
    else:
        lo, hi, points = cfg.theta_grid
        points = check_integer(points, "grid points")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DegenerateGrid(f"grid ends ({lo}, {hi}) must be finite")
    if points < 2 or not lo < hi:
        raise DegenerateGrid(f"grid ({lo}, {hi}, {points}) is degenerate")
    if not lo < cfg.theta0 < hi:
        raise DegenerateGrid(f"true phase {cfg.theta0} outside the grid interior")
    thetas = np.linspace(lo, hi, points)

    rho_t0 = channel.apply(rho0)
    l_op = sld(rho_t0, h_full)
    _, basis = np.linalg.eigh(l_op)

    # outcome probabilities p(k|theta) on the grid, via the generator eigenbasis
    hvals, hvecs = np.linalg.eigh(h_full)
    rho_h = hvecs.conj().T @ rho0.mat @ hvecs
    b_h = hvecs.conj().T @ basis
    coeff = np.einsum("ak,ab,bk->kab", b_h.conj(), rho_h, b_h)
    delta = (hvals[:, None] - hvals[None, :]).reshape(-1)
    coeff_flat = coeff.reshape(coeff.shape[0], -1).T  # (D^2, K)
    # a local generator repeats few gaps among the D^2: exp each one once
    gaps, gap_of = np.unique(delta, return_inverse=True)

    def outcome_probs(theta_values: np.ndarray) -> np.ndarray:
        phases = np.exp(-1j * np.outer(theta_values, gaps))[:, gap_of]
        return np.real(phases @ coeff_flat)

    p_grid = np.clip(outcome_probs(thetas), 0.0, None)
    p0 = np.clip(outcome_probs(np.array([cfg.theta0]))[0], 0.0, None)
    p0 = p0 / p0.sum()

    rng = np.random.default_rng(cfg.seed)
    counts = rng.multinomial(n_per_trial, p0, size=trials)
    with np.errstate(divide="ignore"):
        log_p = np.where(p_grid > 0.0, np.log(np.where(p_grid > 0.0, p_grid, 1.0)), -1e12)
    estimates = thetas[_grid_mle(counts, log_p)]

    errors = estimates - cfg.theta0
    mse = float(np.mean(errors**2))
    bias = float(np.mean(errors))
    config_echo = {
        "kind": "phase_estimation",
        "theta0": cfg.theta0,
        "n_per_trial": n_per_trial,
        "trials": trials,
        "grid": [lo, hi, points],
        "seed": cfg.seed,
        "worst_case": ip_value is not None,
        "generator_spectrum": generator.spectrum,
        "dims": list(rho0.dims),
    }
    summary = {
        "fisher_information": fisher_value,
        "bound": bound,
        "variance": mse,
        "bias": bias,
        "ratio": mse / bound,
    }
    if ip_value is not None:
        summary["interferometric_power"] = ip_value
    return ExperimentRecord(
        kind="phase_estimation",
        config=config_echo,
        columns={"trial": list(range(trials)), "estimate": estimates},
        summary=summary,
    )


def run_discrimination(
    rho: DensityMatrix,
    spectrum,
    generator="worst-case",
    n_max: int | None = None,
    config: OptimizerConfig | None = None,
) -> ExperimentRecord:
    """Exact minimum-error discrimination of a state from its rotated copy for
    n = 1..n_max copies, against the Chernoff exponent.

    The errors P(1..n_max) come from one walk up the Schur-Weyl levels
    (``helstrom_errors``).  The per-copy exponent estimate is the log decrement
    -ln(P(n)/P(n-1)) with P(0) = 1/2; its value at n_max is compared with the
    asymptotic exponent.  By default n_max is the largest n <= 5 whose joint
    side rho.dim^n stays within ``MAX_JOINT_DIM``.  The worst-case generator
    is the DS certificate of ``correlation``: the closed form on a qubit probe,
    where ``config`` goes unused, and the ``ds_general`` search otherwise.
    """
    lam = check_spectrum(spectrum, rho.dims[0])
    if n_max is None:
        n_max = max(min(5, max_copies(rho.dim)), 1)
    n_max = check_copies(n_max, rho.dim)
    ds_value = None
    if isinstance(generator, str):
        if generator != "worst-case":
            raise OutOfRange(f"unknown generator selector {generator!r}")
        ds = correlation("ds", rho, lam, config=config)
        gen = ds.certificate
        ds_value = ds.value
    else:
        gen = generator
    rho2 = PhaseChannel(gen).apply(rho, -1.0)  # the rotated copy e^{iH} rho e^{-iH}

    ns = list(range(1, n_max + 1))
    errors = helstrom_errors(rho, rho2, n_max)
    with np.errstate(divide="ignore"):
        rates = [-math.log(p) / n if p > 0 else math.inf for n, p in zip(ns, errors)]
    prev = [0.5] + errors[:-1]
    # P(n) = 0 gives +inf; rounding can also leave P(n - 1) at 0 below P(n) > 0
    decrements = [
        math.inf if p == 0 else -math.inf if q == 0 else -math.log(p / q)
        for p, q in zip(errors, prev)
    ]
    ch = chernoff(rho, rho2)
    summary = {
        "q_value": ch.q_value,
        "s_star": ch.s_star,
        "exponent": ch.exponent,
        "exponent_estimate": decrements[-1],
        "gap_at_n_max": decrements[-1] - ch.exponent,
    }
    if ds_value is not None:
        summary["discriminating_strength"] = ds_value
        summary["one_minus_q"] = 1.0 - ch.q_value
    config_echo = {
        "kind": "discrimination",
        "spectrum": lam,
        "n_max": n_max,
        "worst_case": ds_value is not None,
        "dims": list(rho.dims),
    }
    return ExperimentRecord(
        kind="discrimination",
        config=config_echo,
        columns={"n": ns, "error": errors, "rate": rates, "decrement": decrements},
        summary=summary,
    )


SWEEP_PARAM = {"fig1": ("p", make_fig1_state), "werner": ("q", make_werner)}


@dataclass(eq=False)
class SweepTable:
    columns: list
    rows: np.ndarray

    def to_tsv(self) -> str:
        return _tsv(self.columns, self.rows)

    def column(self, name: str) -> np.ndarray:
        return self.rows[:, self.columns.index(name)]


def sweep_states(family: str, grid, measures, ds_lambda: float = np.pi / 4) -> SweepTable:
    """Evaluate measures over a one-parameter state family.

    Single-qubit families support variance/skew/classical (measured along z);
    bipartite families support lqu/ip/ds (see ``correlation``).
    """
    if family not in SWEEP_PARAM:
        raise OutOfRange(f"sweepable families: {sorted(SWEEP_PARAM)}; got {family!r}")
    param, factory = SWEEP_PARAM[family]
    grid = np.asarray(grid, dtype=float).reshape(-1)
    measures = list(measures)
    rows = np.empty((grid.size, 1 + len(measures)))
    for i, x in enumerate(grid):
        rho = factory(float(x))
        rows[i, 0] = x
        for j, m in enumerate(measures, start=1):
            if m == "variance":
                rows[i, j] = variance(rho, PAULI_Z)
            elif m == "skew":
                rows[i, j] = skew_information(rho, PAULI_Z)
            elif m == "classical":
                rows[i, j] = classical_uncertainty(rho, PAULI_Z)
            elif m in CORRELATIONS:
                rows[i, j] = correlation(m, rho, lam=ds_lambda).value
            else:
                raise OutOfRange(f"unknown measure {m!r}")
    return SweepTable([param] + measures, rows)
