"""Shared test oracles, all independent of the library code paths they check."""
from __future__ import annotations

import math

import numpy as np
from scipy.optimize import minimize_scalar

from metrocorr.linalg import (
    PAULIS,
    DensityMatrix,
    EigDecomposition,
    eig_hermitian,
    embed,
    haar_unitary,
    hermitian_part,
    trace_norm,
)


def reconstruct(e: EigDecomposition) -> np.ndarray:
    """The matrix V diag(w) V^dag of a spectral decomposition."""
    v = e.eigenvectors
    return (v * e.eigenvalues) @ v.conj().T


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Square root of a PSD Hermitian matrix; negative rounding noise clamps to 0."""
    e = eig_hermitian(m)
    w = np.sqrt(np.maximum(e.eigenvalues, 0.0))
    return hermitian_part((e.eigenvectors * w) @ e.eigenvectors.conj().T)


def random_hermitian(d: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """Random Hermitian matrix with Gaussian entries (GUE-like), O(1) norm."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return hermitian_part(g) * (scale / np.sqrt(d))


def fibonacci_sphere(n: int) -> np.ndarray:
    """n quasi-uniform unit vectors on the sphere (Fibonacci lattice)."""
    k = np.arange(n)
    z = 1.0 - (2.0 * k + 1.0) / n
    phi = k * np.pi * (3.0 - np.sqrt(5.0))
    r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def _directions_to_ops(directions: np.ndarray, dims) -> np.ndarray:
    sig = np.stack([embed(p, dims, 0) for p in PAULIS])
    return (directions @ sig.reshape(3, -1)).reshape(len(directions), *sig.shape[1:])


def _trace_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re tr[a_g b_g] for every g of two stacks of matrices."""
    return np.real(np.sum(a * b.swapaxes(1, 2), axis=(1, 2)))


def skew_on_directions(rho: DensityMatrix, directions: np.ndarray) -> np.ndarray:
    """Skew information of (n.sigma) x I for every direction, from the raw
    definition tr[rho K^2] - tr[sqrt(rho) K sqrt(rho) K].

    Eigenvalues at solver-noise level are dropped before the square root: a
    rank-deficient state's null eigenvalues come out of the solver as +-1e-17,
    whose square roots would shift the skew information by 1e-8.
    """
    k = _directions_to_ops(directions, rho.dims)
    w, v = np.linalg.eigh(rho.mat)
    w = np.where(w > 1e-13, w, 0.0)
    r = (v * np.sqrt(w)) @ v.conj().T
    rk = r @ k
    return _trace_products(rho.mat @ k, k) - _trace_products(rk, rk)


def qfi_quarter_on_directions(rho: DensityMatrix, directions: np.ndarray) -> np.ndarray:
    """F(rho, (n.sigma) x I)/4 for every direction, from the spectral formula."""
    w, v = np.linalg.eigh(rho.mat)
    w = np.maximum(w, 0.0)
    kt = v.conj().T @ _directions_to_ops(directions, rho.dims) @ v
    s = w[:, None] + w[None, :]
    diff = w[:, None] - w[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        coeff = np.where(s > 1e-12, diff * diff / np.where(s > 1e-12, s, 1.0), 0.0)
    return 0.5 * (np.abs(kt.reshape(len(kt), -1)) ** 2 @ coeff.ravel())


def grid_minimum(values_fn, rho: DensityMatrix, n_points: int = 10_000) -> float:
    """Two-stage direction grid search: a global Fibonacci sweep followed by a
    local cap refinement around the best coarse direction, n_points total."""
    n_coarse = n_points // 2
    coarse = fibonacci_sphere(n_coarse)
    vals = values_fn(rho, coarse)
    best = coarse[int(np.argmin(vals))]
    # local tangent-plane grid within ~2x the coarse covering radius
    radius = 2.5 * np.sqrt(4.0 * np.pi / n_coarse)
    basis = np.linalg.svd(np.eye(3) - np.outer(best, best))[0][:, :2]
    m = int(np.sqrt(n_points - n_coarse))
    u = np.linspace(-radius, radius, m)
    xx, yy = np.meshgrid(u, u)
    local = best[None, :] + xx.reshape(-1, 1) * basis[:, 0] + yy.reshape(-1, 1) * basis[:, 1]
    local /= np.linalg.norm(local, axis=1, keepdims=True)
    vals_local = values_fn(rho, local)
    return float(min(vals.min(), vals_local.min()))


def random_kraus_set(d: int, n_kraus: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Random CPTP channel in Kraus form from a Haar isometry (Stinespring)."""
    big = haar_unitary(d * n_kraus, rng)
    isometry = big[:, :d]
    return [isometry[k * d : (k + 1) * d, :] for k in range(n_kraus)]


def apply_channel(rho: DensityMatrix, kraus: list[np.ndarray], site: int) -> DensityMatrix:
    out = np.zeros_like(rho.mat)
    for k in kraus:
        full = embed(k, rho.dims, site)
        out = out + full @ rho.mat @ full.conj().T
    return DensityMatrix(rho.dims, hermitian_part(out))


def random_povm(d: int, n_outcomes: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Random POVM: normalize random PSD operators by the inverse root of their sum."""
    raw = []
    for _ in range(n_outcomes):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        raw.append(g @ g.conj().T)
    total = hermitian_part(sum(raw))
    w, v = np.linalg.eigh(total)
    inv_root = (v / np.sqrt(w)) @ v.conj().T
    return [hermitian_part(inv_root @ e @ inv_root) for e in raw]


def uhlmann_fidelity(rho1: DensityMatrix, rho2: DensityMatrix) -> float:
    """(tr sqrt(sqrt(rho1) rho2 sqrt(rho1)))^2 via eigenvalues.

    Eigenvalues at solver-noise level are dropped: sqrt would lift 1e-16
    noise to 1e-8 and swamp the comparison tolerance.
    """
    r = psd_sqrt(rho1.mat)
    inner = hermitian_part(r @ rho2.mat @ r)
    w = np.linalg.eigvalsh(inner)
    w = np.where(w > 1e-13, w, 0.0)
    return float(np.sum(np.sqrt(w)) ** 2)


def finite_difference_drho(channel_apply, theta: float, step: float = 1e-5) -> np.ndarray:
    """Central finite-difference derivative of theta -> rho_theta (matrix-valued)."""
    plus = channel_apply(theta + step)
    minus = channel_apply(theta - step)
    return (plus - minus) / (2.0 * step)


def s_half_lemma_check(rho: DensityMatrix, o) -> tuple[float, float]:
    """(min over s in [0, 1] of tr[rho^s O rho^(1-s) O], the value at s = 1/2),
    on the support of rho, by bounded Brent search plus both endpoints."""
    e = rho.eig
    keep = e.eigenvalues > 1e-14
    v = e.eigenvectors[:, keep]
    logw = np.log(e.eigenvalues[keep])
    w = np.abs(v.conj().T @ np.asarray(o) @ v) ** 2

    def f(s: float) -> float:
        return float(np.exp(s * logw) @ w @ np.exp((1.0 - s) * logw))

    res = minimize_scalar(f, bounds=(0.0, 1.0), method="bounded", options={"xatol": 1e-10})
    return min(res.fun, f(0.0), f(1.0)), f(0.5)


def brent_overlap_minimum(log1, log2, w) -> tuple[float, float]:
    """(s, value) minimizing g(s) = sum_ij exp(s log1_i + (1-s) log2_j) w_ij
    over [0, 1] by bounded Brent search plus both endpoints."""

    def g(s: float) -> float:
        return float(np.exp(s * log1) @ w @ np.exp((1.0 - s) * log2))

    res = minimize_scalar(g, bounds=(0.0, 1.0), method="bounded", options={"xatol": 1e-10})
    candidates = [(0.0, g(0.0)), (float(res.x), float(res.fun)), (1.0, g(1.0))]
    return min(candidates, key=lambda p: p[1])


def dense_helstrom_error(rho1: DensityMatrix, rho2: DensityMatrix, n: int = 1) -> float:
    """Minimum n-copy error probability from the dense d^n x d^n Kronecker
    powers: (1 - ||rho1^(x)n - rho2^(x)n||_1 / 2) / 2."""
    a, b = rho1.mat, rho2.mat
    an, bn = a, b
    for _ in range(n - 1):
        an = np.kron(an, a)
        bn = np.kron(bn, b)
    err = 0.5 * (1.0 - 0.5 * trace_norm(an - bn))
    return float(np.clip(err, 0.0, 0.5))


def hook_lengths(lam) -> list:
    """Hook length of every cell of the Young diagram lam, row by row."""
    cols = [sum(1 for r in lam if r > j) for j in range(lam[0])]
    return [lam[i] - j + cols[j] - i - 1 for i in range(len(lam)) for j in range(lam[i])]


def weyl_dim(lam, d: int) -> int:
    """Dimension of the GL(d) irrep pi_lam, by the hook-content formula."""
    contents = math.prod(d + j - i for i, r in enumerate(lam) for j in range(r))
    return contents // math.prod(hook_lengths(lam))


def standard_tableaux(lam) -> int:
    """Dimension f_lam of the symmetric-group irrep, by the hook-length formula."""
    return math.factorial(sum(lam)) // math.prod(hook_lengths(lam))


def dense_grid_mle(counts: np.ndarray, log_p: np.ndarray) -> np.ndarray:
    """Grid index of each row's maximum of counts @ log_p.T, from the whole
    trials x points log-likelihood: among the maxima, the nearest to the grid
    midpoint, and at equal distance the lower index."""
    points = len(log_p)
    loglik = counts @ log_p.T  # (trials, points)
    mid = 0.5 * (points - 1)
    is_max = loglik == loglik.max(axis=1, keepdims=True)
    distance = np.abs(np.arange(points) - mid)
    return np.where(is_max, distance, np.inf).argmin(axis=1)
