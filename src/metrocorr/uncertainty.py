"""Quantum-uncertainty quantifiers and the local quantum uncertainty (LQU).

The skew information I(rho, O) = tr[rho O^2] - tr[sqrt(rho) O sqrt(rho) O]
isolates the genuinely quantum part of the measurement variance: it vanishes
exactly when the state and the observable commute and equals the variance on
pure states.  The LQU is its minimum over local observables with a fixed
non-degenerate spectrum, a discord-like correlation measure.  For a qubit
probe with unit spectrum it is 1 - lambda_max(W), W the 3x3 Pauli correlation
matrix of sqrt(rho), read off the cross tensor the optimizer cost also uses;
other cases run the manifold optimizer.
"""
from __future__ import annotations

import numpy as np

from .errors import DimMismatch
from .linalg import (
    PAULIS,
    DensityMatrix,
    Observable,
    canonical_sign,
    check_operator,
    check_spectrum,
    partial_trace,
)
from .manifold import (
    MeasureResult,
    OptimizerConfig,
    dagger,
    minimize_over_unitaries,
    unitary_gradient,
)


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


def _cross_tensor(rho: DensityMatrix, site: int) -> np.ndarray:
    """T with tr[sqrt(rho) K' sqrt(rho) K'] = sum K_ab K_cd T_abcd, where K' is
    K on subsystem ``site`` and the identity on the other, as a (d^2, d^2)
    matrix over the index pairs (ab), (cd).

    T is symmetric under (ab) <-> (cd), so the term changes by 2 tr[C dK] with
    C the partial trace of sqrt(rho) K' sqrt(rho) onto ``site``,
    C_ba = sum_cd T_abcd K_cd.
    """
    d = rho.dims[site]
    r4 = rho.sqrtm.reshape(rho.dims + rho.dims)
    if site == 0:
        t_cross = np.einsum("djai,bicj->abcd", r4, r4)
    else:
        t_cross = np.einsum("idja,jbic->abcd", r4, r4)
    return t_cross.reshape(d * d, d * d)


def pauli_correlation_matrix(rho: DensityMatrix) -> np.ndarray:
    """3x3 symmetric matrix tr[sqrt(rho) (sigma_i x I) sqrt(rho) (sigma_j x I)]:
    the cross tensor contracted with the flattened Paulis, Re(P T P^T)."""
    if len(rho.dims) != 2 or rho.dims[0] != 2:
        raise DimMismatch(f"closed form needs dims (2, d), got {rho.dims}")
    p = PAULIS.reshape(3, 4)
    return np.real(p @ _cross_tensor(rho, 0) @ p.T)


def lqu_qubit_qudit(rho: DensityMatrix) -> MeasureResult:
    """LQU of a qubit-qudit state with unit spectrum: 1 - lambda_max of the
    Pauli correlation matrix; the certificate is the optimal spin direction."""
    pauli_w = pauli_correlation_matrix(rho)
    evals, evecs = np.linalg.eigh(pauli_w)
    direction = canonical_sign(evecs[:, -1])
    value = 1.0 - float(evals[-1])
    return MeasureResult(
        value=value,
        certificate=Observable.pauli(direction),
        restarts_used=0,
        converged=True,
        info={"direction": direction, "w_eigenvalues": evals},
    )


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
    manifold optimizer (closed forms exist only for a qubit probe), with the
    gradient Gamma = rho_A K + K rho_A - 2 Tr_B[sqrt(rho) (K x I) sqrt(rho)].
    """
    if len(rho.dims) != 2:
        raise DimMismatch(f"bipartite state expected, got dims {rho.dims}")
    site = {"A": 0, "B": 1}.get(side.upper())
    if site is None:
        raise DimMismatch(f"side must be 'A' or 'B', got {side!r}")
    d = rho.dims[site]
    lam = check_spectrum(spectrum, d)

    t_cross = _cross_tensor(rho, site)
    rho_local = partial_trace(rho, site).mat

    def cost(u: np.ndarray):
        k_local = (u * lam) @ dagger(u)
        ct = (k_local.reshape(-1, d * d) @ t_cross).reshape(k_local.shape)
        second = np.real(np.sum(rho_local.T * (k_local @ k_local), axis=(1, 2)))
        cross = np.real(np.sum(k_local * ct, axis=(1, 2)))
        rk = rho_local @ k_local
        gamma = rk + dagger(rk) - 2.0 * ct.swapaxes(1, 2)
        return second - cross, unitary_gradient(gamma, u, lam)

    best, u_best, used, converged, values = minimize_over_unitaries(cost, d, config)
    return MeasureResult(
        value=max(best, 0.0),
        certificate=Observable(lam, u_best),
        restarts_used=used,
        converged=converged,
        info={"restart_values": values, "side": side.upper()},
    )
