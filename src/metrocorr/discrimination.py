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
from .linalg import (
    DensityMatrix,
    Observable,
    apply_local,
    check_integer,
    check_spectrum,
    partial_trace,
    trace_norm,
)
from .manifold import (
    MeasureResult,
    OptimizerConfig,
    dagger,
    minimize_over_unitaries,
    unitary_gradient,
)

MAX_JOINT_DIM = 4096
S_TOL = 1e-12
# the cached levels of the latest calls hold at most this many bytes of bases
_BASIS_CACHE_BYTES = 32 << 20
_LEVELS: dict = {}  # (d, n) -> levels, least recently used first


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


def _children(mu: tuple, d: int) -> dict:
    """The partitions mu + one box with at most d rows, keyed by the content
    (column - row) of the added box."""
    rows = (*mu, 0)
    return {rows[i] - i: tuple(r + (j == i) for j, r in enumerate(rows) if r + (j == i))
            for i in range(min(len(rows), d)) if i == 0 or rows[i - 1] > rows[i]}


def _with_copy(j_mu: np.ndarray, basis: np.ndarray, d: int) -> np.ndarray:
    """J of pi_lam with one more copy, (m_lam d) x (m_lam d), from the J of its
    parent mu and B = B_lam viewed as B[c, r, a] (c a row of pi_mu, r a letter):
    J_lam[(a, p), (l, q)] = sum B[c, r, a] J_mu[(c, p), (c', q)] B[c', r, l]
    + sum_c B[c, q, a] B[c, p, l].  The new copy swaps with the copies of mu
    through J_mu, and with the copy that carries lam's last box directly."""
    m_mu, m = basis.shape[0] // d, basis.shape[1]
    b = basis.reshape(m_mu, d, m)
    x = np.tensordot(j_mu.reshape(m_mu, d, m_mu, d), b, axes=(2, 0))  # [c, p, q, r, l]
    t = np.tensordot(b, x, axes=([0, 1], [0, 3]))  # [a, p, q, l]
    t += np.tensordot(b, b, axes=(0, 0)).transpose(1, 2, 0, 3)
    return t.transpose(0, 1, 3, 2).reshape(m * d, m * d)


def _build_levels(d: int, n: int) -> list:
    """Levels 1..n of the one-copy recursion: level k lists, for each partition
    lam of k into at most d rows, (lam, index of its parent mu in level k - 1,
    f_lam, B_lam).  Level 1 is the state itself and has no basis.

    pi_mu (x) C^d splits without multiplicity into the pi_lam with lam = mu +
    one box, and the real symmetric J = sum_ij pi_mu(E_ij) (x) E_ji acts on
    the pi_lam copy as the content of that box (the Jucys-Murphy element of
    the new copy).  J keeps the weight (the letters of the copies), so it is
    diagonalised one weight space at a time: every column of B_lam is a weight
    vector.  f_lam sums f_mu over all parents; B_lam comes from the first."""
    levels = [[((1,), 0, 1, None)]]
    letters = [[(a,) for a in range(d)]]  # each column's letters, sorted: its weight
    for k in range(2, n + 1):
        if k == 2:  # at level 1, J is the swap of the two copies
            js = [np.eye(d * d).reshape(d, d, d, d).transpose(0, 1, 3, 2).reshape(d * d, -1)]
        else:
            js = [_with_copy(js[i], basis, d) for _, i, _, basis in levels[-1]]
        f, parts = {}, {}
        for i, ((mu, _, f_mu, _), j_mu, lets) in enumerate(zip(levels[-1], js, letters)):
            kids = _children(mu, d)
            for lam in kids.values():
                f[lam] = f.get(lam, 0) + f_mu
            if all(lam in parts for lam in kids.values()):
                continue
            groups = {}  # the rows (a, p) of pi_mu (x) C^d by weight
            for r, (w, p) in enumerate(itertools.product(lets, range(d))):
                groups.setdefault(tuple(sorted((*w, p))), []).append(r)
            found = {}
            for w, idx in groups.items():
                vals, vecs = np.linalg.eigh(j_mu[np.ix_(idx, idx)])
                contents = np.rint(vals)
                for c, lam in kids.items():
                    if (keep := contents == c).any():
                        found.setdefault(lam, []).append((idx, vecs[:, keep], w))
            for lam, pieces in found.items():
                parts.setdefault(lam, (i, len(j_mu), pieces))
        level, letters = [], []
        for lam, (i, side, pieces) in parts.items():
            basis = np.zeros((side, sum(v.shape[1] for _, v, _ in pieces)))
            col = 0
            for idx, v, _ in pieces:
                basis[idx, col : col + v.shape[1]] = v
                col += v.shape[1]
            basis.setflags(write=False)  # shared by every caller through the cache
            level.append((lam, i, f[lam], basis))
            letters.append([w for _, v, w in pieces for _ in range(v.shape[1])])
        levels.append(level)
    return levels


def _levels(d: int, n: int) -> list:
    """``_build_levels`` through a cache of the levels of the latest calls:
    newly built levels join it when their bases fit in ``_BASIS_CACHE_BYTES``,
    and the least recently used leave until all fit together."""
    levels = _LEVELS.pop((d, n), None)
    if levels is None:
        levels = _build_levels(d, n)
        if _nbytes(levels) > _BASIS_CACHE_BYTES:
            return levels
        while sum(map(_nbytes, [levels, *_LEVELS.values()])) > _BASIS_CACHE_BYTES:
            del _LEVELS[next(iter(_LEVELS))]
    _LEVELS[d, n] = levels
    return levels


def _nbytes(levels: list) -> int:
    """Bytes of the bases B_lam in ``levels``."""
    return sum(basis.nbytes for level in levels[1:] for *_, basis in level)


def helstrom_error(rho1: DensityMatrix, rho2: DensityMatrix, n: int = 1) -> float:
    """Minimum error probability for discriminating n copies of two equiprobable
    states: (1 - ||rho1^(x)n - rho2^(x)n||_1 / 2) / 2, computed exactly.

    The n-fold tensor powers commute with permutations of the copies, so by
    Schur-Weyl duality the trace norm splits over partitions lam of n into at
    most d rows: ||rho1^(x)n - rho2^(x)n||_1 = sum_lam f_lam ||pi_lam(rho1) -
    pi_lam(rho2)||_1, with f_lam the dimension of the symmetric-group irrep.
    The blocks are built one copy at a time (``_build_levels``):
    pi_lam(rho) = B_lam^T (pi_mu(rho) (x) rho) B_lam from the block of its
    parent mu, so no d^n-row array is formed.
    """
    if rho1.dim != rho2.dim:
        raise DimMismatch(f"state sides differ: {rho1.dim} vs {rho2.dim}")
    n = check_copies(n, rho1.dim)
    levels = _levels(rho1.dim, n)
    mats = np.stack((rho1.mat, rho2.mat))
    # every level holds the pairs (pi_lam(rho1), -pi_lam(rho2)), whose sum is
    # the block of the difference; the last level sums before its projection
    blocks = [mats * [[[1.0]], [[-1.0]]]]
    for level in levels[1:]:
        last = level is levels[-1]
        blocks = [_lift(blocks[i], mats, basis, last) for _, i, _, basis in level]
    norm = sum(f * trace_norm(b.sum(axis=0)) for (_, _, f, _), b in zip(levels[-1], blocks))
    err = 0.5 * (1.0 - 0.5 * norm)
    return float(np.clip(err, 0.0, 0.5))


def _lift(parent: np.ndarray, mats: np.ndarray, basis: np.ndarray, last: bool) -> np.ndarray:
    """B^T (pi_mu (x) rho) B for each pair of the stacks ``parent`` (the blocks
    of mu) and ``mats`` (the states), summed over the stack when ``last``: two
    products on the reshaped basis, then one real product with the complex
    entries viewed as real pairs."""
    k, m_mu = parent.shape[:2]
    y = parent @ basis.reshape(m_mu, -1)
    y = (mats[:, None] @ y.reshape(k, m_mu, mats.shape[-1], -1)).reshape(k, len(basis), -1)
    if last:
        y = y.sum(axis=0, keepdims=True)
    return (basis.T @ y.view(np.float64)).view(complex)


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
    direction (the top eigenvector of the Pauli correlation matrix W, shared
    with ``lqu_qubit_qudit`` through the state's cached ``pauli_axis``)."""
    if not 0.0 < lam <= np.pi / 2.0:
        raise OutOfRange(f"spectral half-width must lie in (0, pi/2], got {lam}")
    evals, direction, spin = rho.pauli_axis
    unit_lqu = max(1.0 - float(evals[-1]), 0.0)
    return MeasureResult(
        value=unit_lqu * math.sin(lam) ** 2,
        certificate=Observable(np.array([-lam, lam]), spin.basis_unitary),
        restarts_used=0,
        converged=True,
        info={"unit_lqu": unit_lqu, "direction": direction},
    )
