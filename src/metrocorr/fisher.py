"""Classical and quantum Fisher information, SLD, Cramér-Rao bound, and the
interferometric power (worst-case phase sensitivity over local generators).

The quantum Fisher information is computed from the state eigendecomposition,

    F(rho, H) = 4 sum_{k<l} (w_k - w_l)^2 / (w_k + w_l) |<k|H|l>|^2,

skipping eigenvalue pairs whose sum is numerically zero.  The interferometric
power is min over local generators of F/4, a pair-weighted form over the
state eigenbasis (``pair_form``).  For a qubit probe that form compressed onto
the Paulis (``linalg.qubit_form``, shared with the LQU) is 3x3 and its smallest
eigenvalue is the value; for a general generator the optimizer minimizes F/4.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimMismatch,
    OutOfRange,
    SingularOutcome,
    ValidationError,
    ZeroInformation,
)
from .linalg import (
    DensityMatrix,
    Observable,
    as_matrix,
    check_operator,
    check_spectrum,
    embed,
    hermitian_part,
    pair_form,
    qubit_axis,
    qubit_form,
)
from .manifold import MeasureResult, OptimizerConfig, minimize_over_unitaries, quadratic_cost

PAIR_CUTOFF = 1e-12
PROB_CUTOFF = 1e-12


@dataclass(eq=False)
class Povm:
    """Positive operators summing to the identity."""

    elements: list

    def __post_init__(self):
        mats = [as_matrix(e) for e in self.elements]
        d = mats[0].shape[0]
        total = np.zeros((d, d), dtype=complex)
        for m in mats:
            if m.shape[0] != d:
                raise DimMismatch("POVM elements must share one dimension")
            if np.min(np.linalg.eigvalsh(hermitian_part(m))) < -1e-10:
                raise ValidationError("POVM element is not positive semidefinite")
            total += m
        if np.max(np.abs(total - np.eye(d))) > 1e-9:
            raise ValidationError("POVM elements do not sum to the identity")
        self.elements = mats

    @classmethod
    def projective(cls, basis: np.ndarray) -> "Povm":
        """Rank-one projectors onto the columns of an orthonormal basis."""
        cols = np.asarray(basis, dtype=complex)
        return cls([np.outer(c, c.conj()) for c in cols.T])


@dataclass(eq=False)
class PhaseChannel:
    """Local unitary phase imprint rho -> e^{-iH theta} rho e^{iH theta}.

    The generator acts on subsystem A of a bipartite state (or on the whole
    state when it has a single subsystem).
    """

    generator: Observable
    theta: float = 0.0

    def full_generator(self, rho: DensityMatrix) -> np.ndarray:
        if self.generator.dim != rho.dims[0]:
            raise DimMismatch(
                f"generator side {self.generator.dim} != subsystem A side {rho.dims[0]}"
            )
        return embed(self.generator.matrix, rho.dims, 0)

    def apply(self, rho: DensityMatrix, theta: float | None = None) -> DensityMatrix:
        t = self.theta if theta is None else theta
        u = self.generator.basis_unitary
        u_local = (u * np.exp(-1j * self.generator.spectrum * t)) @ u.conj().T
        u_full = embed(u_local, rho.dims, 0)
        return DensityMatrix(rho.dims, hermitian_part(u_full @ rho.mat @ u_full.conj().T))


def classical_fisher(rho0: DensityMatrix, channel: PhaseChannel, povm: Povm) -> float:
    """Fisher information of the POVM outcome distribution at the channel's phase.

    The derivative of the evolved state is taken analytically as -i[H, rho].
    Outcomes with probability and sensitivity both below 1e-12 are skipped;
    vanishing probability with non-vanishing sensitivity raises SingularOutcome.
    """
    h = channel.full_generator(rho0)
    rho_t = channel.apply(rho0).mat
    if povm.elements[0].shape[0] != rho_t.shape[0]:
        raise DimMismatch("POVM dimension does not match the state")
    drho = -1j * (h @ rho_t - rho_t @ h)
    total = 0.0
    for pi in povm.elements:
        p = float(np.real(np.sum(rho_t * pi.T)))
        dp = float(np.real(np.sum(drho * pi.T)))
        if p <= PROB_CUTOFF:
            if abs(dp) <= PROB_CUTOFF:
                continue
            raise SingularOutcome(
                f"outcome probability {p:.3e} with derivative {dp:.3e}"
            )
        total += dp * dp / p
    return total


def sld(rho: DensityMatrix, h) -> np.ndarray:
    """Symmetric logarithmic derivative for the generator h.

    In the state eigenbasis L_kl = 2 (drho)_kl / (w_k + w_l) with
    drho = -i[h, rho]; entries on numerically null eigenvalue pairs are zero.
    """
    op = check_operator(rho, h)
    e = rho.eig
    v, w = e.eigenvectors, e.eigenvalues
    drho = -1j * (op @ rho.mat - rho.mat @ op)
    d_tilde = v.conj().T @ drho @ v
    denom = w[:, None] + w[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        l_tilde = np.where(denom > PAIR_CUTOFF, 2.0 * d_tilde / denom, 0.0)
    return hermitian_part(v @ l_tilde @ v.conj().T)


def _qfi_weights(w: np.ndarray) -> np.ndarray:
    """Pair weights (w_k - w_l)^2 / (w_k + w_l), zero where the pair sum is
    numerically zero."""
    s = w[:, None] + w[None, :]
    diff = w[:, None] - w[None, :]
    kept = s > PAIR_CUTOFF
    return np.where(kept, diff * diff / np.where(kept, s, 1.0), 0.0)


def qfi(rho: DensityMatrix, h) -> float:
    """Quantum Fisher information of rho under the generator h (SLD form)."""
    op = check_operator(rho, h)
    e = rho.eig
    h_tilde = e.eigenvectors.conj().T @ op @ e.eigenvectors
    val = 2.0 * float(np.real(np.sum(_qfi_weights(e.eigenvalues) * np.abs(h_tilde) ** 2)))
    return max(val, 0.0)


def cramer_rao(fisher_value: float, n: int = 1) -> float:
    """Lower bound 1/(n F) on the variance of any unbiased estimator."""
    if n < 1:
        raise OutOfRange(f"repetition count must be >= 1, got {n}")
    if fisher_value <= 0.0:
        raise ZeroInformation("Fisher information must be positive")
    return 1.0 / (n * fisher_value)


def ip_qubit_qudit(rho: DensityMatrix) -> MeasureResult:
    """Interferometric power of a qubit-qudit state with unit spectrum: the
    bottom of the Fisher ``qubit_form``, n.B.n = F(rho, (n.sigma) x I)/4."""
    return MeasureResult.from_axis(qubit_axis(qubit_form(rho, _qfi_weights(rho.eig.eigenvalues))))


def ip_general(
    rho: DensityMatrix,
    spectrum,
    config: OptimizerConfig | None = None,
) -> MeasureResult:
    """Worst-case quantum Fisher information (over generators with the given
    spectrum on subsystem A) divided by four."""
    if len(rho.dims) != 2:
        raise DimMismatch(f"bipartite state expected, got dims {rho.dims}")
    d = rho.dims[0]
    lam = check_spectrum(spectrum, d)
    # F/4 = 1/2 sum_kl coeff_kl |<k|H x I|l>|^2 over the eigenbasis of rho
    form = pair_form(rho, _qfi_weights(rho.eig.eigenvalues))

    def cost(u: np.ndarray):
        return quadratic_cost(form, u, lam)

    best, u_best, used, converged, values = minimize_over_unitaries(cost, d, config)
    return MeasureResult(
        value=max(best, 0.0),
        certificate=Observable(lam, u_best),
        restarts_used=used,
        converged=converged,
        info={"restart_values": values},
    )
