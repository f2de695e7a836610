"""Dense complex-Hermitian kernel: validation, spectra, tensor structure, sampling.

Operators are plain complex ndarrays.  Composite indices are A-major
throughout the package: for dims (dA, dB) the joint index is i = iA*dB + iB,
which is exactly the ordering produced by ``np.kron``.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Sequence

import numpy as np

from .errors import (
    BadRank,
    BadSubsystemIndex,
    ConvergenceFailure,
    DegenerateSpectrum,
    DimMismatch,
    NotHermitian,
    NotPositive,
    NotUnitary,
    NotUnitTrace,
    OutOfRange,
    ValidationError,
)

HERM_ATOL = 1e-10
TRACE_ATOL = 1e-8
EIG_HARD_FLOOR = -1e-8
UNITARY_ATOL = 1e-10
SPECTRUM_GAP = 1e-9
DEGENERATE_TOL = 1e-10

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = np.stack([PAULI_X, PAULI_Y, PAULI_Z])


def as_matrix(m) -> np.ndarray:
    """Coerce input to a square complex matrix."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimMismatch(f"expected a square matrix, got shape {a.shape}")
    return a


def hermitian_part(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().T)


def require_hermitian(m) -> np.ndarray:
    """Validate Hermiticity entrywise and return the symmetrized matrix."""
    a = as_matrix(m)
    dev = np.abs(a - a.conj().T).max()
    if not dev <= HERM_ATOL:  # a NaN deviation fails this test too
        raise NotHermitian(f"max |M - M^dag| = {dev:.3e} exceeds {HERM_ATOL:.0e}")
    return hermitian_part(a)


@dataclass(eq=False)
class EigDecomposition:
    """Eigenvalues (ascending) and column-orthonormal eigenvectors of a Hermitian matrix."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _eigh(a: np.ndarray) -> EigDecomposition:
    """``np.linalg.eigh`` of a matrix already known to be Hermitian."""
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceFailure(str(exc)) from exc
    return EigDecomposition(w, v)


def eig_hermitian(m) -> EigDecomposition:
    """Spectral decomposition of a Hermitian matrix, eigenvalues ascending."""
    return _eigh(require_hermitian(m))


def _state_eig(w: np.ndarray, v: np.ndarray) -> EigDecomposition:
    # eigenvalues below solver noise are exact zeros (sqrt would otherwise
    # amplify 1e-16 noise into 1e-8 errors in every measure)
    return EigDecomposition(np.where(w > 1e-13, w, 0.0), v)


@dataclass(eq=False)
class DensityMatrix:
    """Trace-one PSD Hermitian matrix together with its subsystem dimension split.

    Instances are immutable by convention; the spectral decomposition, the
    matrix square root and the qubit-probe ``pauli_blocks`` and ``pauli_axis``
    are computed once and cached.  ``validate_density`` hands its own decomposition to the state.
    """

    dims: tuple[int, ...]
    mat: np.ndarray

    def __post_init__(self):
        self.dims = tuple(int(d) for d in self.dims)
        self.mat = np.asarray(self.mat, dtype=complex)
        self.mat.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @cached_property
    def eig(self) -> EigDecomposition:
        e = eig_hermitian(self.mat)
        return _state_eig(e.eigenvalues, e.eigenvectors)

    @cached_property
    def sqrtm(self) -> np.ndarray:
        e = self.eig
        w = np.sqrt(e.eigenvalues)
        return hermitian_part((e.eigenvectors * w) @ e.eigenvectors.conj().T)

    @property
    def skew_weights(self) -> np.ndarray:
        """Pair weights (sqrt(p_k) - sqrt(p_l))^2 of the skew information."""
        root = np.sqrt(self.eig.eigenvalues)
        return (root[:, None] - root[None, :]) ** 2

    @cached_property
    def pauli_blocks(self) -> np.ndarray:
        """For dims (2, d): the stack A^m = V^dag (sigma_m x I) V over the
        Paulis, V the eigenvectors, by ``apply_local`` (no Kronecker product)."""
        v = self.eig.eigenvectors
        return np.ascontiguousarray(apply_local(PAULIS, v).conj().swapaxes(1, 2)) @ v

    @cached_property
    def pauli_axis(self) -> tuple[np.ndarray, np.ndarray, Observable]:
        """For dims (2, d): ``qubit_axis`` of the skew-information
        ``qubit_form``, which the LQU and DS closed forms share."""
        return qubit_axis(qubit_form(self, self.skew_weights))

    def purity(self) -> float:
        return float(np.real(np.trace(self.mat @ self.mat)))

    def is_pure(self) -> bool:
        return abs(self.purity() - 1.0) <= 1e-9


def validate_density(m, dims: Sequence[int]) -> DensityMatrix:
    """Check Hermiticity, unit trace and positivity, then clamp and renormalize.

    Eigenvalues below -1e-8 raise NotPositive; negative values above that
    threshold are treated as rounding noise, clamped to zero, and the state is
    renormalized to unit trace.  The returned state carries this
    eigendecomposition, renormalized, as its ``eig``.
    """
    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise DimMismatch(f"subsystem dimensions must be positive, got {dims}")
    a = require_hermitian(m)
    side = math.prod(dims)
    if a.shape[0] != side:
        raise DimMismatch(f"matrix side {a.shape[0]} != product(dims) = {side}")
    tr = float(a.trace().real)
    if abs(tr - 1.0) > TRACE_ATOL:
        raise NotUnitTrace(f"trace = {tr!r} deviates from 1 by more than {TRACE_ATOL:.0e}")
    e = _eigh(a)
    wmin = float(e.eigenvalues[0])
    if wmin < EIG_HARD_FLOOR:
        raise NotPositive(f"eigenvalue {wmin:.3e} below {EIG_HARD_FLOOR:.0e}")
    w = np.maximum(e.eigenvalues, 0.0)
    total = w.sum()
    mat = (e.eigenvectors * w) @ e.eigenvectors.conj().T
    rho = DensityMatrix(dims, hermitian_part(mat / total))
    # the rebuilt matrix has this decomposition up to rounding, so the state
    # starts with it cached instead of solving again
    rho.eig = _state_eig(w / total, e.eigenvectors)
    return rho


def pure_density(vec, dims: Sequence[int]) -> DensityMatrix:
    """Density matrix of a (not necessarily normalized) pure state vector."""
    v = np.asarray(vec, dtype=complex).reshape(-1)
    dims = tuple(int(d) for d in dims)
    if v.size != int(np.prod(dims)):
        raise DimMismatch(f"vector length {v.size} != product(dims)")
    v = v / np.linalg.norm(v)
    return DensityMatrix(dims, np.outer(v, v.conj()))


def check_operator(rho: DensityMatrix, o) -> np.ndarray:
    """Coerce an operator on the full space of ``rho``, checking its side."""
    op = as_matrix(o)
    if op.shape[0] != rho.dim:
        raise DimMismatch(f"operator side {op.shape[0]} != state side {rho.dim}")
    return op


def tensor(a, b) -> np.ndarray:
    """Kronecker product with A-major index convention."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def embed(op, dims: Sequence[int], site: int) -> np.ndarray:
    """Embed a single-subsystem operator into the full space (identity elsewhere)."""
    dims = tuple(int(d) for d in dims)
    if not 0 <= site < len(dims):
        raise BadSubsystemIndex(f"site {site} out of range for dims {dims}")
    op = as_matrix(op)
    if op.shape[0] != dims[site]:
        raise DimMismatch(f"operator side {op.shape[0]} != dims[{site}] = {dims[site]}")
    factors = [np.eye(d, dtype=complex) for d in dims]
    factors[site] = op
    return reduce(np.kron, factors)


def apply_local(ops, m: np.ndarray) -> np.ndarray:
    """(O x I) M for a stack of subsystem-A operators O[k, d_A, d_A] and a
    matrix M whose rows carry the A-major joint index; shape (k, *M.shape).

    No Kronecker product is formed: O acts on M with its rows split by the A
    index.  For a Pauli O each entry is one exact product, so the result is
    bit-for-bit the one a dense (O x I) @ M gives.
    """
    ops = np.asarray(ops)
    return (ops @ m.reshape(ops.shape[-1], -1)).reshape(-1, *m.shape)


def pair_form(rho: DensityMatrix, weights: np.ndarray, site: int = 0) -> np.ndarray:
    """Symmetric (d^2, d^2) matrix A with
    vec(K)^T A vec(K) = 1/2 sum_kl weights_kl |<k|K'|l>|^2 for Hermitian K,
    where |k> are the eigenvectors of the bipartite ``rho`` and K' is K on
    subsystem ``site`` and the identity on the other.

    With <k|K'|l> = sum_ab K_ab B_ab,kl and conj(B_cd,kl) = B_dc,lk, the entry
    A_ab,cd = 1/2 sum_kl weights_kl B_ab,kl B_cd,lk for symmetric weights.
    """
    d = rho.dims[site]
    v = rho.eig.eigenvectors.reshape(rho.dims + (rho.dim,))
    if site == 1:
        v = v.swapaxes(0, 1)
    b = np.einsum("ajk,bjl->abkl", v.conj(), v)
    left = (b * weights).reshape(d * d, -1)
    return 0.5 * left @ b.swapaxes(2, 3).reshape(d * d, -1).T


def qubit_form(rho: DensityMatrix, weights: np.ndarray) -> np.ndarray:
    """``pair_form`` of a (2, d) state compressed onto the Paulis: the 3x3
    symmetric B with n.B.n = 1/2 sum_kl weights_kl |<k|(n.sigma) x I|l>|^2,
    from the state's cached ``pauli_blocks`` A^m, so forms of one state with
    other weights cost one contraction each.
    """
    if len(rho.dims) != 2 or rho.dims[0] != 2:
        raise DimMismatch(f"closed form needs dims (2, d), got {rho.dims}")
    a = rho.pauli_blocks
    b = 0.5 * np.einsum("ij,mij,nij->mn", weights, a, a.conj())
    return np.real(hermitian_part(b))


def qubit_axis(form: np.ndarray) -> tuple[np.ndarray, np.ndarray, Observable]:
    """The ascending eigenvalues of a 3x3 ``qubit_form`` B, a unit n
    minimising n.B.n, and the spin observable n . sigma (arrays read-only).

    Bottom eigenvalues within ``DEGENERATE_TOL`` * max(1, |lowest|) form one
    eigenspace.  A simple one gives its eigenvector with ``canonical_sign``, a
    threefold one e_z, a pair the first of e_z, e_x, e_y whose projection onto
    it has squared norm >= 1/3 (the three sum to 2), normalised: projections,
    unlike eigenvectors, are continuous in B, so rounding cannot move n.
    """
    evals, evecs = np.linalg.eigh(form)
    lowest = float(evals[0])
    tol = DEGENERATE_TOL * max(1.0, abs(lowest))
    if evals[1] - lowest > tol:
        direction = canonical_sign(evecs[:, 0])
    elif evals[2] - lowest <= tol:
        direction = np.array([0.0, 0.0, 1.0])
    else:
        pair = evecs[:, :2]
        axis = next(i for i in (2, 0, 1) if pair[i] @ pair[i] >= 1.0 / 3.0)
        direction = pair @ pair[axis]
        direction /= np.linalg.norm(direction)
    evals.setflags(write=False)
    direction.setflags(write=False)
    return evals, direction, Observable.pauli(direction)


def _ptrace_mat(mat: np.ndarray, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    dims = list(dims)
    n = len(dims)
    keep = sorted(keep)
    traced = [i for i in range(n) if i not in keep]
    resh = mat.reshape(dims + dims)
    for idx in sorted(traced, reverse=True):
        resh = np.trace(resh, axis1=idx, axis2=idx + len(dims))
        dims.pop(idx)
    d = int(np.prod(dims))
    return resh.reshape(d, d)


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduced state over the kept subsystem(s); trace is preserved."""
    if len(rho.dims) < 2:
        raise BadSubsystemIndex("state has a single subsystem; nothing to trace out")
    keep_list = [keep] if np.ndim(keep) == 0 else list(keep)
    for k in keep_list:
        if not 0 <= int(k) < len(rho.dims):
            raise BadSubsystemIndex(f"subsystem {k} out of range for dims {rho.dims}")
    keep_list = [int(k) for k in keep_list]
    red = _ptrace_mat(rho.mat, rho.dims, keep_list)
    return DensityMatrix(tuple(rho.dims[k] for k in sorted(keep_list)), hermitian_part(red))


def trace_norm(m) -> float:
    """Trace norm of a Hermitian matrix: sum of absolute eigenvalues."""
    a = require_hermitian(m)
    return float(np.sum(np.abs(np.linalg.eigvalsh(a))))


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix with phase fixing."""
    if d < 1:
        raise DimMismatch(f"dimension must be >= 1, got {d}")
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def random_density(dims: Sequence[int], rank: int, rng: np.random.Generator) -> DensityMatrix:
    """Random density matrix of the given rank (Ginibre-induced measure)."""
    dims = tuple(int(d) for d in dims)
    d = int(np.prod(dims))
    if not 1 <= rank <= d:
        raise BadRank(f"rank must lie in [1, {d}], got {rank}")
    g = (rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))) / np.sqrt(2.0)
    m = g @ g.conj().T
    return DensityMatrix(dims, hermitian_part(m / np.real(np.trace(m))))


def pauli_vector(n) -> np.ndarray:
    """The qubit operator n . sigma for a 3-component real direction n."""
    n = np.asarray(n, dtype=float).reshape(3)
    return n[0] * PAULI_X + n[1] * PAULI_Y + n[2] * PAULI_Z


def linear_spectrum(d: int) -> np.ndarray:
    """Default non-degenerate spectrum: d values linearly spaced over [-1, 1]."""
    if d == 1:
        return np.array([1.0])
    return np.linspace(-1.0, 1.0, d)


def check_integer(value, what: str) -> int:
    """The value as a plain int: ``OutOfRange`` for a bool or a non-integer
    (a float, even a whole one, or a string)."""
    if isinstance(value, bool):
        raise OutOfRange(f"{what} must be an integer, got {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise OutOfRange(f"{what} must be an integer, got {value!r}") from None


def check_spectrum(spectrum, d: int) -> np.ndarray:
    """Sort a finite spectrum of length d, rejecting gaps below SPECTRUM_GAP."""
    lam = np.sort(np.asarray(spectrum, dtype=float).reshape(-1))
    if lam.size != d:
        raise DimMismatch(f"spectrum length {lam.size} != measured-subsystem dimension {d}")
    if not np.isfinite(lam).all():
        raise ValidationError(f"spectrum entries must be finite, got {lam}")
    if lam.size > 1 and (lam[1:] - lam[:-1]).min() < SPECTRUM_GAP:
        raise DegenerateSpectrum("spectrum gaps below 1e-9 are not allowed")
    return lam


@dataclass(eq=False)
class Observable:
    """Hermitian operator K = U diag(spectrum) U^dag with an explicit non-degenerate spectrum.

    Used both for measured observables and for phase generators.  The spectrum
    is stored ascending; the columns of ``basis_unitary`` are the matching
    eigenvectors.
    """

    spectrum: np.ndarray
    basis_unitary: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.spectrum, dtype=float).reshape(-1)
        u = np.asarray(self.basis_unitary, dtype=complex)
        if u.shape != (lam.size, lam.size):
            raise DimMismatch(
                f"basis shape {u.shape} incompatible with spectrum of length {lam.size}"
            )
        u = u[:, np.argsort(lam)]
        lam = check_spectrum(lam, lam.size)
        dev = np.abs(u.conj().T @ u - np.eye(lam.size)).max()
        if not dev <= UNITARY_ATOL:  # a NaN deviation fails this test too
            raise NotUnitary(f"basis deviates from unitarity by {dev:.3e}")
        self.spectrum = lam
        self.basis_unitary = u
        self.spectrum.setflags(write=False)
        self.basis_unitary.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.spectrum.size

    @cached_property
    def matrix(self) -> np.ndarray:
        u = self.basis_unitary
        return hermitian_part((u * self.spectrum) @ u.conj().T)

    @classmethod
    def from_matrix(cls, k) -> "Observable":
        e = eig_hermitian(k)
        return cls(e.eigenvalues, e.eigenvectors)

    @classmethod
    def pauli(cls, direction) -> "Observable":
        """Spin observable n . sigma with unit spectrum {-1, +1}, for n the
        normalized 3-vector ``direction``."""
        n = np.asarray(direction, dtype=float).reshape(3)
        norm = np.linalg.norm(n)
        if not (np.isfinite(norm) and norm > 0):
            raise OutOfRange(f"direction must be a finite nonzero 3-vector, got {n}")
        # n . sigma for a finite unit n is Hermitian by construction
        e = _eigh(pauli_vector(n / norm))
        return cls(e.eigenvalues, e.eigenvectors)


def canonical_sign(v: np.ndarray) -> np.ndarray:
    """The vector v or -v, whichever has its largest-magnitude component
    positive: eigh leaves an eigenvector's sign to rounding noise."""
    return -v if v[abs(v).argmax()] < 0 else v
