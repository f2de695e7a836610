"""Quantum state discrimination: Helstrom minimum-error probability, the
Chernoff overlap Q = min_s tr[rho1^s rho2^(1-s)], and the discriminating
strength (worst-case multi-copy distinguishability of a state from its
locally rotated copy).

Fractional powers follow the support convention: zero eigenvalues contribute
nothing for every s in [0, 1], and x^0 = 1 only for x > 0, so the endpoints
use support projectors.
"""
from __future__ import annotations

import functools
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
from .linalg import (
    DensityMatrix,
    Observable,
    apply_local,
    canonical_sign,
    check_integer,
    check_spectrum,
    partial_trace,
    spin_eig,
    trace_norm,
)
from .manifold import (
    MeasureResult,
    OptimizerConfig,
    dagger,
    minimize_over_unitaries,
    unitary_gradient,
)
from .uncertainty import pauli_correlation_matrix

MAX_JOINT_DIM = 4096
S_TOL = 1e-12
# a call's Young bases are kept in the cache only while they fit in this many bytes
_BASIS_CACHE_BYTES = 32 << 20


@dataclass
class ChernoffResult:
    """Chernoff overlap q = exp(-exponent) and the optimizing power s_star."""

    q_value: float
    s_star: float
    exponent: float


def max_copies(d: int) -> int:
    """Largest copy count n with joint side d^n within ``MAX_JOINT_DIM``, found
    without forming the power; a one-dimensional state counts as a qubit."""
    side, n = max(d, 2), 0
    while side ** (n + 1) <= MAX_JOINT_DIM:
        n += 1
    return n


def check_copies(n, d: int) -> int:
    """The copy count n as an int: ``OutOfRange`` for a bool, a non-integer or
    n < 1, ``TooManyCopies`` when d^n exceeds ``MAX_JOINT_DIM``."""
    n = check_integer(n, "copy count")
    if n < 1:
        raise OutOfRange(f"copy count must be >= 1, got {n}")
    if n > max_copies(d):
        raise TooManyCopies(f"{d}^{n} exceeds the exact-computation guard")
    return n


def _partitions(n: int, rows: int, largest: int):
    """Partitions of n into at most ``rows`` parts, none above ``largest``."""
    if n == 0:
        yield ()
        return
    if rows == 0:
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, rows - 1, first):
            yield (first, *rest)


def _hook_lengths(lam) -> list:
    """Hook length of every cell of the Young diagram lam, row by row."""
    cols = [sum(1 for r in lam if r > j) for j in range(lam[0])]
    return [lam[i] - j + cols[j] - i - 1 for i in range(len(lam)) for j in range(lam[i])]


def _weyl_dim(lam, d: int) -> int:
    """Dimension of the GL(d) irrep pi_lam, by the hook-content formula."""
    contents = math.prod(d + j - i for i, r in enumerate(lam) for j in range(r))
    return contents // math.prod(_hook_lengths(lam))


def _semistandard_words(lam, d: int) -> list:
    """Entries of the semistandard tableaux of shape lam over 0..d-1 in
    row-reading order: rows weakly increase, columns strictly increase."""
    cells = [(i, j) for i, r in enumerate(lam) for j in range(r)]
    above = {cell: k for k, cell in enumerate(cells)}
    words, word = [], [0] * len(cells)

    def fill(k):
        if k == len(cells):
            words.append(tuple(word))
            return
        i, j = cells[k]
        lo = max(word[k - 1] if j else 0, word[above[i - 1, j]] + 1 if i else 0)
        for v in range(lo, d):
            word[k] = v
            fill(k + 1)

    fill(0)
    return words


def _signed_sum(x: np.ndarray, axes, sign: float) -> np.ndarray:
    """Sum of sign(p) p(x) over the permutations p of the tensor axes ``axes``,
    grown one axis at a time: S_k = (1 + sign sum_{a<b} (a b)) S_{k-1}."""
    for k, b in enumerate(axes[1:], start=1):
        x = x + sign * sum(np.swapaxes(x, a, b) for a in axes[:k])
    return x


@functools.lru_cache(maxsize=64)
def _young_basis(d: int, n: int, lam: tuple) -> np.ndarray:
    """Real orthonormal basis, d^n x m_lam, of one copy of the GL(d) irrep
    pi_lam inside (C^d)^(x)n: the Young symmetrizer c_T = b_T a_T of the
    row-reading standard tableau T applied to the tensor-basis words of the
    semistandard tableaux of shape lam, then orthonormalized by QR."""
    words = _semistandard_words(lam, d)
    m = len(words)
    weyl = _weyl_dim(lam, d)
    assert m == weyl, f"{m} semistandard tableaux of shape {lam}, Weyl dimension {weyl}"
    x = np.zeros((d**n, m))
    x[np.ravel_multi_index(np.array(words).T, (d,) * n), np.arange(m)] = 1.0
    x = x.reshape((d,) * n + (m,))
    starts = np.cumsum((0, *lam))
    for s, r in zip(starts, lam):  # a_T: symmetrize each row
        x = _signed_sum(x, list(range(s, s + r)), 1.0)
    for j in range(lam[0]):  # b_T: antisymmetrize each column
        x = _signed_sum(x, [s + j for s, r in zip(starts, lam) if r > j], -1.0)
    q, r = np.linalg.qr(x.reshape(d**n, m))
    diag = np.abs(np.diag(r))
    assert diag.min() > 1e-8 * diag.max(), f"Young symmetrizer of shape {lam} lost rank"
    q.setflags(write=False)  # shared by every caller through the cache
    return q


@functools.lru_cache(maxsize=64)
def _basis_columns(d: int, n: int) -> int:
    """Sum of m_lam over the partitions of n into at most d rows: the columns
    of the d^n-row Young bases one n-copy call uses."""
    return sum(_weyl_dim(lam, d) for lam in _partitions(n, d, n))


def _power_times(mats: np.ndarray, basis: np.ndarray, n: int, work: np.ndarray) -> np.ndarray:
    """mat^(x)n @ basis for each mat in ``mats`` (shape (k, 1, d, d)), applying
    it to one tensor factor of the d^n-row basis at a time: n products of cost
    d^(n+1) m each.  The two rows of ``work`` take the products in turn."""
    k, d = len(mats), mats.shape[-1]
    y, spare = (w[: k * basis.size].reshape(k, d**n, -1) for w in work)
    y[...] = basis
    for i in range(n):
        np.matmul(mats, y.reshape(k, d**i, d, -1), out=spare.reshape(k, d**i, d, -1))
        y, spare = spare, y
    return y


def helstrom_error(rho1: DensityMatrix, rho2: DensityMatrix, n: int = 1) -> float:
    """Minimum error probability for discriminating n copies of two equiprobable
    states: (1 - ||rho1^(x)n - rho2^(x)n||_1 / 2) / 2, computed exactly.

    The n-fold tensor powers commute with permutations of the copies, so by
    Schur-Weyl duality the trace norm splits over partitions lam of n into at
    most d rows: ||rho1^(x)n - rho2^(x)n||_1 = sum_lam f_lam ||pi_lam(rho1) -
    pi_lam(rho2)||_1, with f_lam the hook-length dimension of the
    symmetric-group irrep.  Each pi_lam(rho) is taken as B^T rho^(x)n B on a
    Young-symmetrizer basis B of one copy of the irrep, so no d^n x d^n matrix
    is formed.  The bases are cached while a call's bases fit in
    ``_BASIS_CACHE_BYTES``; at n = 1 the norm is that of rho1 - rho2 itself.
    """
    if rho1.dim != rho2.dim:
        raise DimMismatch(f"state sides differ: {rho1.dim} vs {rho2.dim}")
    n = check_copies(n, rho1.dim)
    # at n = 1 the one block, lam = (1), has the identity for its basis
    norm = trace_norm(rho1.mat - rho2.mat) if n == 1 else _block_norm(rho1.mat, rho2.mat, n)
    err = 0.5 * (1.0 - 0.5 * norm)
    return float(np.clip(err, 0.0, 0.5))


def _block_norm(m1: np.ndarray, m2: np.ndarray, n: int) -> float:
    """||m1^(x)n - m2^(x)n||_1 as the sum over the Schur-Weyl blocks of
    ``helstrom_error``."""
    d = len(m1)
    # bases too large to keep are built for this call only
    fits = d**n * _basis_columns(d, n) * 8 <= _BASIS_CACHE_BYTES
    build = _young_basis if fits else _young_basis.__wrapped__
    bases = {lam: build(d, n, lam) for lam in _partitions(n, d, n)}
    mats = np.stack([m1, m2])[:, None]
    # one pair of work arrays for every block: fresh pages cost as much as
    # the products that fill them
    work = np.empty((2, 2 * max(basis.size for basis in bases.values())), dtype=complex)
    norm = 0.0
    for lam, basis in bases.items():
        y = _power_times(mats, basis, n, work)
        y[0] -= y[1]
        # B^T (rho1^(x)n - rho2^(x)n) B with the complex entries viewed as
        # real pairs: one real product
        block = (basis.T @ y[0].view(np.float64)).view(complex)
        f_lam = math.factorial(n) // math.prod(_hook_lengths(lam))
        norm += f_lam * trace_norm(block)
    return norm


def _overlap_data(rho1: DensityMatrix, rho2: DensityMatrix):
    """Support eigenvalue logs of both states and |<i|j>|^2 cross-overlaps."""
    e1, e2 = rho1.eig, rho2.eig
    m1 = e1.eigenvalues > 0.0
    m2 = e2.eigenvalues > 0.0
    w = np.abs(e1.eigenvectors[:, m1].conj().T @ e2.eigenvectors[:, m2]) ** 2
    return np.log(e1.eigenvalues[m1]), np.log(e2.eigenvalues[m2]), w


def _s_overlap_minimum(log1, log2, w):
    """Minimize g_r(s) = sum_ij exp(s log1_i + (1-s) log2_j) w_rij over s in
    [0, 1] for every row r of the stack w[N, a, b]; returns the arrays (s, q).

    Flattened as g_r(s) = c_r . exp(s d) with d_ij = log1_i - log2_j and
    c_rij = w_rij exp(log2_j).  g_r is convex, so its minimum sits at s = 0
    when g_r'(0) = c_r . d >= 0, at s = 1 when g_r'(1) <= 0, and otherwise at
    the root of g_r'.  The endpoint slopes of all rows come from batched
    products (g_r'(1) only where g_r'(0) < 0), so endpoint rows need no
    iteration; only the rows whose slope changes sign run ``_newton_minimum``.
    """
    d = (log1[:, None] - log2).ravel()
    c = (w * np.exp(log2)).reshape(len(w), -1)
    cd = c * d
    slope_lo = cd.sum(axis=1)
    s = np.zeros(len(c))
    q = c.sum(axis=1)
    down = np.flatnonzero(slope_lo < 0.0)
    if down.size:
        e = np.exp(d)
        # a row-wise sum, not a matrix product, so that each row's Newton
        # start, and so its result, does not depend on the rows beside it
        slope_hi = (cd[down] * e).sum(axis=1)
        at_one = down[slope_hi <= 0.0]
        s[at_one] = 1.0
        q[at_one] = c[at_one] @ e
        inside = slope_hi > 0.0
        for r, lo, hi in zip(down[inside], slope_lo[down[inside]].tolist(), slope_hi[inside].tolist()):
            s[r], q[r] = _newton_minimum(c[r], cd[r], d, lo, hi)
    return s, q


def _slopes(s: float, d: np.ndarray, coef: np.ndarray) -> list:
    """[g(s), g'(s), g''(s)] for g(s) = c . exp(s d), with coef the rows
    (c, c d, c d^2)."""
    return (coef @ np.exp(s * d)).tolist()


def _newton_minimum(c, cd, d, slope_lo: float, slope_hi: float):
    """(s, g(s)) at the root of g' in (0, 1), given g'(0) < 0 < g'(1).

    Newton steps from the secant guess, kept inside the bracket where g'
    changes sign (bisection when a step would leave it).  The search stops
    once a Newton step is at most ``S_TOL``, before the bracket test, and
    returns the point it last evaluated.
    """
    coef = np.stack((c, cd, cd * d))
    lo, hi = 0.0, 1.0
    s = slope_lo / (slope_lo - slope_hi)
    for _ in range(100):
        q, slope, curv = _slopes(s, d, coef)
        if slope < 0.0:
            lo = s
        else:
            hi = s
        step = slope / curv if curv > 0.0 else math.inf
        if abs(step) <= S_TOL or hi - lo <= S_TOL:
            break
        nxt = s - step
        s = nxt if lo < nxt < hi else 0.5 * (lo + hi)
    return s, q


def chernoff(rho1: DensityMatrix, rho2: DensityMatrix) -> ChernoffResult:
    """Chernoff overlap Q = min_{0<=s<=1} tr[rho1^s rho2^(1-s)]: the one-row
    call of ``_s_overlap_minimum`` (the integrand is convex in s); endpoints
    use support projectors."""
    if rho1.dim != rho2.dim:
        raise DimMismatch(f"state sides differ: {rho1.dim} vs {rho2.dim}")
    log1, log2, w = _overlap_data(rho1, rho2)
    s_star, q = _s_overlap_minimum(log1, log2, w[None])
    q = min(max(float(q[0]), 0.0), 1.0)
    exponent = math.inf if q == 0.0 else -math.log(q)
    return ChernoffResult(q_value=q, s_star=float(s_star[0]), exponent=exponent)


def ds_general(
    rho: DensityMatrix,
    spectrum,
    config: OptimizerConfig | None = None,
) -> MeasureResult:
    """Discriminating strength 1 - max over local rotations of the Chernoff
    overlap between the state and its rotated copy.

    Nested optimization: for each candidate generator H = U diag(spectrum) U^dag
    on subsystem A, the overlap is minimized over s by ``_s_overlap_minimum``,
    one call per cost evaluation for the whole batch of restarts; the outer
    maximization runs on the unitary manifold.  By the envelope
    theorem its gradient is that of g(s*, R) in the local rotation
    R = U exp(i diag(spectrum)) U^dag at the inner optimum s*.  The spectrum is
    centered (a constant shift only changes a global phase, so the measure is
    shift invariant by construction).
    """
    if len(rho.dims) != 2:
        raise DimMismatch(f"bipartite state expected, got dims {rho.dims}")
    d_a = rho.dims[0]
    lam = check_spectrum(spectrum, d_a)
    lam_c = lam - np.mean(lam)
    phases = np.exp(1j * lam_c)
    e = rho.eig
    mask = e.eigenvalues > 0.0
    v = e.eigenvectors[:, mask]
    # support eigenvectors with rows split by the A index: (d_A, d_B * rank)
    v_a = v.reshape(d_a, -1)
    logw = np.log(e.eigenvalues[mask])

    def neg_q(u: np.ndarray):
        # X = V^dag (R x I) V on the support; g(s) = sum_kl w_k^s w_l^(1-s) |X_kl|^2
        rot_local = (u * phases) @ dagger(u)
        cross = v.conj().T @ apply_local(rot_local, v)
        s_star, q = _s_overlap_minimum(logw, logw, np.abs(cross) ** 2)
        s_col = s_star[:, None, None]
        weights = np.exp(s_col * logw[:, None] + (1.0 - s_col) * logw)
        # dg = Re tr(Gamma dR), Gamma = 2 Tr_B[V (weights^T o X^dag) V^dag]
        y = (weights * cross.conj()).swapaxes(1, 2)
        gamma = 2.0 * (v @ y).reshape(-1, d_a, v_a.shape[1]) @ v_a.conj().T
        return -q, unitary_gradient(-gamma, u, phases)

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
    probs = np.sort(red.eig.eigenvalues)[::-1]
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
    the unit-spectrum LQU 1 - lambda_max(W) times sin^2(lam), along the LQU
    direction (the top eigenvector of the Pauli correlation matrix W)."""
    if not 0.0 < lam <= np.pi / 2.0:
        raise OutOfRange(f"spectral half-width must lie in (0, pi/2], got {lam}")
    evals, evecs = np.linalg.eigh(pauli_correlation_matrix(rho))
    direction = canonical_sign(evecs[:, -1])
    unit_lqu = max(1.0 - float(evals[-1]), 0.0)
    return MeasureResult(
        value=unit_lqu * math.sin(lam) ** 2,
        certificate=Observable(np.array([-lam, lam]), spin_eig(direction).eigenvectors),
        restarts_used=0,
        converged=True,
        info={"unit_lqu": unit_lqu, "direction": direction},
    )
