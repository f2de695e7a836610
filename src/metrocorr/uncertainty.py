"""Quantum-uncertainty quantifiers and the local quantum uncertainty (LQU).

The skew information I(rho, O) = tr[rho O^2] - tr[sqrt(rho) O sqrt(rho) O]
isolates the genuinely quantum part of the measurement variance: it vanishes
exactly when the state and the observable commute and equals the variance on
pure states.  The LQU is its minimum over local observables with a fixed
non-degenerate spectrum, a discord-like correlation measure.  In the
eigenbasis of rho the skew information is a pair-weighted form
(``pair_form``).  For a qubit probe that form compressed onto the Paulis
(``linalg.qubit_form``, shared with the IP) is 3x3 and its smallest eigenvalue
is the LQU with unit spectrum; other cases run the manifold optimizer.
"""
from __future__ import annotations

import numpy as np

from .errors import DimMismatch
from .linalg import DensityMatrix, Observable, check_operator, check_spectrum, pair_form
from .manifold import MeasureResult, OptimizerConfig, minimize_over_unitaries, quadratic_cost


def _trace_prod(a: np.ndarray, b: np.ndarray) -> float:
    # tr[a b] for Hermitian products that are real in exact arithmetic
    return float(np.real(np.sum(a * b.T)))


def variance(rho: DensityMatrix, o) -> float:
    """V(rho, O) = tr[rho O^2] - tr[rho O]^2."""
    op = check_operator(rho, o)
    mean = _trace_prod(rho.mat, op)
    second = _trace_prod(rho.mat, op @ op)
    return max(second - mean * mean, 0.0)


def skew_information(rho: DensityMatrix, o) -> float:
    """Wigner-Yanase skew information tr[rho O^2] - tr[sqrt(rho) O sqrt(rho) O]."""
    op = check_operator(rho, o)
    r = rho.sqrtm
    second = _trace_prod(rho.mat, op @ op)
    cross = _trace_prod(r @ op, r @ op)
    return max(second - cross, 0.0)


def classical_uncertainty(rho: DensityMatrix, o) -> float:
    """Variance minus skew information: the mixedness-driven part of the spread."""
    return max(variance(rho, o) - skew_information(rho, o), 0.0)


def hellinger_sq(rho1: DensityMatrix, rho2: DensityMatrix) -> float:
    """Squared Hellinger distance 1 - tr[sqrt(rho1) sqrt(rho2)], in [0, 1]."""
    if rho1.dim != rho2.dim:
        raise DimMismatch(f"state sides differ: {rho1.dim} vs {rho2.dim}")
    overlap = _trace_prod(rho1.sqrtm, rho2.sqrtm)
    return float(np.clip(1.0 - overlap, 0.0, 1.0))


def lqu_qubit_qudit(rho: DensityMatrix) -> MeasureResult:
    """LQU of a qubit-qudit state with unit spectrum: the bottom of the skew
    ``qubit_form``, n.B.n = I(rho, (n.sigma) x I), from the state's cached
    ``pauli_axis``."""
    return MeasureResult.from_axis(rho.pauli_axis)


def lqu_general(
    rho: DensityMatrix,
    spectrum,
    config: OptimizerConfig | None = None,
    *,
    side: str = "A",
) -> MeasureResult:
    """LQU for an arbitrary finite spectrum via multi-start descent over unitaries.

    The observable is K = U diag(spectrum) U^dag embedded on the measured side;
    the minimum of the skew information over U is located by the shared
    manifold optimizer (closed forms exist only for a qubit probe).  In the
    eigenbasis of rho the skew information is the pair-weighted form
    1/2 sum_kl (sqrt(p_k) - sqrt(p_l))^2 |<k|K'|l>|^2 (``pair_form``).
    """
    if len(rho.dims) != 2:
        raise DimMismatch(f"bipartite state expected, got dims {rho.dims}")
    site = {"A": 0, "B": 1}.get(side.upper())
    if site is None:
        raise DimMismatch(f"side must be 'A' or 'B', got {side!r}")
    d = rho.dims[site]
    lam = check_spectrum(spectrum, d)

    form = pair_form(rho, rho.skew_weights, site)

    def cost(u: np.ndarray):
        return quadratic_cost(form, u, lam)

    best, u_best, used, converged, values = minimize_over_unitaries(cost, d, config)
    return MeasureResult(
        value=max(best, 0.0),
        certificate=Observable(lam, u_best),
        restarts_used=used,
        converged=converged,
        info={"restart_values": values, "side": side.upper()},
    )
