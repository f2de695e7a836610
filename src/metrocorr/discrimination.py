"""Quantum state discrimination: Helstrom minimum-error probability, the
Chernoff overlap Q = min_s tr[rho1^s rho2^(1-s)], and the discriminating
strength (worst-case multi-copy distinguishability of a state from its
locally rotated copy).

Fractional powers follow the support convention: zero eigenvalues contribute
nothing for every s in [0, 1], and x^0 = 1 only for x > 0, so the endpoints
use support projectors.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionTooLarge,
    DimMismatch,
    NotPure,
    OutOfRange,
    TooManyCopies,
)
from .linalg import DensityMatrix, Observable, check_spectrum, partial_trace, trace_norm
from .manifold import MeasureResult, OptimizerConfig, minimize_over_unitaries
from .uncertainty import lqu_qubit_qudit

SUPPORT_CUTOFF = 1e-14
MAX_JOINT_DIM = 16384
GOLDEN_TOL = 1e-8
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass
class ChernoffResult:
    """Chernoff overlap q = exp(-exponent) and the optimizing power s_star."""

    q_value: float
    s_star: float
    exponent: float


def helstrom_error(rho1: DensityMatrix, rho2: DensityMatrix, n: int = 1) -> float:
    """Minimum error probability for discriminating n copies of two equiprobable
    states: (1 - ||rho1^(x)n - rho2^(x)n||_1 / 2) / 2, computed exactly."""
    if rho1.dim != rho2.dim:
        raise DimMismatch(f"state sides differ: {rho1.dim} vs {rho2.dim}")
    if n < 1:
        raise OutOfRange(f"copy count must be >= 1, got {n}")
    if rho1.dim**n > MAX_JOINT_DIM:
        raise TooManyCopies(f"{rho1.dim}^{n} exceeds the exact-computation guard")
    a, b = rho1.mat, rho2.mat
    an, bn = a, b
    for _ in range(n - 1):
        an = np.kron(an, a)
        bn = np.kron(bn, b)
    err = 0.5 * (1.0 - 0.5 * trace_norm(an - bn))
    return float(np.clip(err, 0.0, 0.5))


def _golden_min(f, tol: float = GOLDEN_TOL):
    """Golden-section minimum of a scalar function on [0, 1] (convex input)."""
    a, b = 0.0, 1.0
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def _overlap_data(rho1: DensityMatrix, rho2: DensityMatrix):
    """Support eigenvalue logs of both states and |<i|j>|^2 cross-overlaps."""
    e1, e2 = rho1.eig, rho2.eig
    m1 = e1.eigenvalues > SUPPORT_CUTOFF
    m2 = e2.eigenvalues > SUPPORT_CUTOFF
    w = np.abs(e1.eigenvectors[:, m1].conj().T @ e2.eigenvectors[:, m2]) ** 2
    return np.log(e1.eigenvalues[m1]), np.log(e2.eigenvalues[m2]), w


def _s_overlap_minimum(log1, log2, w, tol: float = GOLDEN_TOL):
    """Minimize g(s) = sum_ij exp(s log1_i + (1-s) log2_j) w_ij over s in [0, 1].

    Flattened as g(s) = c . exp(s d) with d_ij = log1_i - log2_j and
    c_ij = w_ij exp(log2_j), one vector exponential per evaluation.
    """
    d = (log1[:, None] - log2[None, :]).ravel()
    c = (w * np.exp(log2)[None, :]).ravel()

    def g(s: float) -> float:
        return float(c @ np.exp(s * d))

    s_in, g_in = _golden_min(g, tol)
    candidates = [(0.0, g(0.0)), (s_in, g_in), (1.0, g(1.0))]
    s_star, val = min(candidates, key=lambda t: t[1])
    return s_star, val


def chernoff(rho1: DensityMatrix, rho2: DensityMatrix) -> ChernoffResult:
    """Chernoff overlap Q = min_{0<=s<=1} tr[rho1^s rho2^(1-s)] by golden-section
    search (the integrand is convex in s); endpoints use support projectors."""
    if rho1.dim != rho2.dim:
        raise DimMismatch(f"state sides differ: {rho1.dim} vs {rho2.dim}")
    log1, log2, w = _overlap_data(rho1, rho2)
    s_star, q = _s_overlap_minimum(log1, log2, w)
    q = float(np.clip(q, 0.0, 1.0))
    exponent = math.inf if q == 0.0 else -math.log(q)
    return ChernoffResult(q_value=q, s_star=float(s_star), exponent=exponent)


def ds_general(
    rho: DensityMatrix,
    spectrum,
    config: OptimizerConfig | None = None,
) -> MeasureResult:
    """Discriminating strength 1 - max over local rotations of the Chernoff
    overlap between the state and its rotated copy.

    Nested optimization: for each candidate generator H = U diag(spectrum) U^dag
    on subsystem A, the overlap is minimized over s by golden section; the
    outer maximization runs on the unitary manifold.  The spectrum is centered
    (a constant shift only changes a global phase, so the measure is shift
    invariant by construction).
    """
    if len(rho.dims) != 2:
        raise DimMismatch(f"bipartite state expected, got dims {rho.dims}")
    d_a = rho.dims[0]
    lam = check_spectrum(spectrum, d_a)
    lam_c = lam - np.mean(lam)
    phases = np.exp(1j * lam_c)
    e = rho.eig
    mask = e.eigenvalues > SUPPORT_CUTOFF
    v3 = e.eigenvectors[:, mask].reshape(rho.dims[0], rho.dims[1], -1)
    logw = np.log(e.eigenvalues[mask])

    def neg_q(u: np.ndarray) -> float:
        rot_local = (u * phases) @ u.conj().T
        cross = np.einsum("ab,aik,bil->kl", rot_local, v3.conj(), v3)
        overlap = np.abs(cross) ** 2
        _, q = _s_overlap_minimum(logw, logw, overlap)
        return -q

    best, u_best, used, converged, values = minimize_over_unitaries(neg_q, d_a, config)
    q_max = float(np.clip(-best, 0.0, 1.0))
    return MeasureResult(
        value=1.0 - q_max,
        certificate=Observable(lam, u_best),
        restarts_used=used,
        converged=converged,
        info={"q_max": q_max, "restart_values": -values},
    )


def _schmidt_probs(psi: DensityMatrix) -> np.ndarray:
    """Descending Schmidt probabilities of a bipartite pure state, padded with
    zeros up to the A-side dimension."""
    if len(psi.dims) != 2:
        raise DimMismatch(f"bipartite state expected, got dims {psi.dims}")
    if not psi.is_pure():
        raise NotPure(f"purity {psi.purity():.6f} differs from 1 beyond 1e-9")
    red = partial_trace(psi, 0)
    probs = np.sort(np.maximum(red.eig.eigenvalues, 0.0))[::-1]
    return probs / probs.sum()


def ds_pure(psi: DensityMatrix, spectrum) -> MeasureResult:
    """Discriminating strength of a pure state by exhaustive assignment of
    spectrum phases to Schmidt probabilities (feasible for d_A <= 8)."""
    d_a = psi.dims[0]
    if d_a > 8:
        raise DimensionTooLarge(f"permutation search limited to d_A <= 8, got {d_a}")
    lam = check_spectrum(spectrum, d_a)
    probs = _schmidt_probs(psi)
    phases = np.exp(1j * lam)
    perms = np.array(list(itertools.permutations(range(d_a))))
    amplitudes = probs[perms] @ phases
    best_idx = int(np.argmax(np.abs(amplitudes) ** 2))
    best = float(np.abs(amplitudes[best_idx]) ** 2)
    return MeasureResult(
        value=max(1.0 - best, 0.0),
        certificate=tuple(int(i) for i in perms[best_idx]),
        restarts_used=0,
        converged=True,
        info={"schmidt_probs": probs, "overlap": best},
    )


def ds_pure_harmonic(psi: DensityMatrix, omega: float) -> MeasureResult:
    """Discriminating strength of a pure state for an equally spaced spectrum.

    Evaluates the alternating assignment (largest Schmidt weight at phase 0,
    then +omega, -omega, +2 omega, ...): for an equally spaced spectrum it
    attains the optimum of the exhaustive search in ``ds_pure``, with no
    limit on d_A.
    """
    d_a = psi.dims[0]
    if not 0.0 < omega <= 2.0 * np.pi / d_a:
        raise OutOfRange(f"frequency must lie in (0, 2 pi / d_A], got {omega}")
    probs = _schmidt_probs(psi)
    slots = np.arange(d_a)
    alt = np.where(slots % 2 == 0, -(slots // 2), (slots + 1) // 2).astype(float)
    amplitude = probs @ np.exp(1j * alt * omega)
    return MeasureResult(
        value=max(1.0 - float(np.abs(amplitude) ** 2), 0.0),
        certificate=alt * omega,
        restarts_used=0,
        converged=True,
    )


def ds_qubit_qudit(rho: DensityMatrix, lam: float) -> MeasureResult:
    """Discriminating strength of a qubit-qudit state for spectrum {-lam, lam}:
    the unit-spectrum LQU times sin^2(lam), along the same direction."""
    if not 0.0 < lam <= np.pi / 2.0:
        raise OutOfRange(f"spectral half-width must lie in (0, pi/2], got {lam}")
    lqu = lqu_qubit_qudit(rho)
    unit_lqu = max(lqu.value, 0.0)
    return MeasureResult(
        value=unit_lqu * math.sin(lam) ** 2,
        certificate=Observable(np.array([-lam, lam]), lqu.certificate.basis_unitary),
        restarts_used=0,
        converged=True,
        info={"unit_lqu": unit_lqu, "direction": lqu.info["direction"]},
    )
