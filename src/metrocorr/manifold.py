"""Multi-start Riemannian gradient descent over the unitary group U(d).

Every optimized measure is an optimum over local operators M = U D U^dag with
a fixed diagonal D.  A cost callback takes a batch of unitaries U[R, d, d]
and returns the values f[R] together with the Euclidean gradients G[R, d, d],
defined by df = Re tr(G^dag dU).  With df = Re tr(Gamma dM) the chain rule
gives G = Gamma^dag U conj(D) + Gamma U D (``unitary_gradient``).

The Riemannian gradient in the Lie algebra is the skew-Hermitian
Omega = G U^dag - U G^dag, and a step follows the geodesic U <- exp(-t Omega) U,
along which df/dt = -|Omega|^2 / 2 at t = 0 (Abrudan, Eriksson & Koivunen,
IEEE TSP 56, 1134 (2008); Absil, Mahony & Sepulchre, Optimization Algorithms
on Matrix Manifolds (2008)).  All restarts start from Haar unitaries and run
as one numpy batch: each iteration evaluates the cost once at every active
restart's trial point, accepts the trials that pass a nonmonotone Armijo
test (sufficient decrease below the largest of the restart's last ``MEMORY``
accepted values; Grippo, Lampariello & Lucidi, SIAM J. Numer. Anal. 23, 707
(1986)) and halves the step of the others.  Accepted steps set the next step
length by the Barzilai-Borwein rule (Raydan, SIAM J. Optim. 7, 26 (1997)).
A restart stops when both its last change of value and the decrease the
Barzilai-Borwein model still expects fall below ``value_tol / 1000``, when
its gradient vanishes, or when its step underflows.

The batch stops once its answer is settled (Törn & Žilinskas, Global
Optimization (1989), on stopping multistart methods): when ``QUORUM`` stopped
restarts lie within ``reproduce_tol`` of the lowest stopped value and no
active restart is below that value, or after ``MAXITER`` evaluations.  A
stopped restart's U never changes again, so the exit can only lose a value
that a still-active restart, now above the settled one, would reach later.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceFailure, OutOfRange
from .linalg import check_integer, haar_unitary

MAXITER = 400  # batched cost evaluations per call, backtracking trials included
ARMIJO = 1e-4  # sufficient-decrease fraction of the first-order prediction
MAX_ANGLE = 1.0  # largest rotation |t Omega|_F of one step, in radians
MEMORY = 10  # accepted values the nonmonotone Armijo test compares against
TIE_TOL = 1e-12  # restarts within this fraction of max(1, |f_min|) of the best tie
QUORUM = 3  # stopped restarts within reproduce_tol that settle the batch and its vote


@dataclass
class OptimizerConfig:
    """Settings for the multi-start unitary-manifold search.

    restarts:       independent Haar-seeded local descents (min over all)
    value_tol:      target accuracy of the optimal value
    reproduce_tol:  the batch stops once QUORUM stopped restarts land within
                    this distance of the lowest stopped value (no active one
                    below it), and is flagged converged when QUORUM restarts
                    land within it of the best value
    seed:           seed for the restart sampler (determinism contract)
    """

    restarts: int = 16
    value_tol: float = 1e-9
    reproduce_tol: float = 1e-7
    seed: int = 0


@dataclass
class MeasureResult:
    """Scalar measure value plus the optimizing certificate and diagnostics."""

    value: float
    certificate: object = None
    restarts_used: int = 0
    converged: bool = True
    info: dict = field(default_factory=dict)

    def __post_init__(self):
        if -1e-9 < self.value < 0.0:
            self.value = 0.0

    @classmethod
    def from_axis(cls, axis) -> "MeasureResult":
        """A unit-spectrum qubit closed form from ``linalg.qubit_axis``: the
        bottom eigenvalue, certified by the spin observable along it."""
        evals, direction, spin = axis
        return cls(float(evals[0]), spin, info={"direction": direction, "form_eigenvalues": evals})


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose over the last two axes (batched)."""
    return a.conj().swapaxes(-1, -2)


def unitary_gradient(gamma: np.ndarray, u: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """Euclidean gradient in U of a cost with df = Re tr(gamma dM), M = U diag(D) U^dag."""
    return dagger(gamma) @ (u * diag.conj()) + gamma @ (u * diag)


def quadratic_cost(form: np.ndarray, u: np.ndarray, diag: np.ndarray):
    """Values vec(M)^T A vec(M) of a symmetric form A (``linalg.pair_form``) at
    M = U diag(D) U^dag, and their gradients in U[R, d, d]: Gamma = 2 (A vec M)^T.
    """
    m = (u * diag) @ dagger(u)
    am = (m.reshape(len(m), -1) @ form).reshape(m.shape)
    values = np.real(np.sum(m * am, axis=(1, 2)))
    return values, unitary_gradient(2.0 * am.swapaxes(1, 2), u, diag)


def _inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re tr(a^dag b) per batch entry."""
    return np.real(np.sum(a.conj() * b, axis=(-2, -1)))


def _evaluate(cost, u: np.ndarray):
    """Cost values and Riemannian gradients Omega = G U^dag - U G^dag."""
    values, grad = cost(u)
    values = np.asarray(values, dtype=float)
    if not (np.all(np.isfinite(values)) and np.all(np.isfinite(grad))):
        raise ConvergenceFailure("the cost returned a non-finite value or gradient")
    return values, grad @ dagger(u) - u @ dagger(grad)


def _settled(f: np.ndarray, active: np.ndarray, tol: float) -> bool:
    """Whether ``QUORUM`` stopped restarts lie within ``tol`` of the lowest
    stopped value and no active restart is below it."""
    stopped = f[~active]
    if stopped.size < QUORUM:
        return False
    low = stopped.min()
    return int(np.sum(stopped <= low + tol)) >= QUORUM and not np.any(f[active] < low)


def minimize_over_unitaries(cost, d: int, config: OptimizerConfig | None = None):
    """Multi-start minimization of a batched ``cost(U) -> (values, gradients)``
    over d x d unitaries.

    Returns (best_value, best_unitary, restarts_used, converged, all_values).
    The batch exits once ``QUORUM`` stopped restarts lie within
    ``reproduce_tol`` of the lowest stopped value and no active restart is
    below it; ``all_values`` holds each restart's final value, and for a
    restart still active at exit its current one.  The best is the
    lowest-index restart within ``TIE_TOL`` of the minimum, so exact ties
    (K and -K on a symmetric spectrum) do not follow rounding.
    """
    cfg = config or OptimizerConfig()
    n = check_integer(cfg.restarts, "restart count")
    if n < 1:
        raise OutOfRange(f"restart count must be >= 1, got {n}")
    rng = np.random.default_rng(cfg.seed)
    ftol = cfg.value_tol * 1e-3
    u = np.stack([haar_unitary(d, rng) for _ in range(n)])
    f, omega = _evaluate(cost, u)
    grad_sq = _inner(omega, omega)
    step = MAX_ANGLE / np.sqrt(np.where(grad_sq > 0.0, grad_sq, 1.0))
    active = grad_sq > 0.0
    recent = np.repeat(f[:, None], MEMORY, axis=1)
    for _ in range(MAXITER):
        idx = np.flatnonzero(active)
        if idx.size == 0 or _settled(f, active, cfg.reproduce_tol):
            break
        t = step[idx]
        # exp(-t Omega) from the eigenpairs of the Hermitian i Omega
        w, v = np.linalg.eigh(1j * omega[idx])
        rot = (v * np.exp(1j * t[:, None] * w)[:, None, :]) @ dagger(v)
        u_new = rot @ u[idx]
        f_new, omega_new = _evaluate(cost, u_new)
        decrease = f[idx] - f_new
        ok = recent[idx].max(axis=1) - f_new >= ARMIJO * 0.5 * t * grad_sq[idx]
        bad = idx[~ok]
        step[bad] *= 0.5
        # a rotation below rounding cannot change the cost any more
        active[bad[step[bad] * np.sqrt(grad_sq[bad]) < 1e-15]] = False
        acc = idx[ok]
        if acc.size == 0:
            continue
        # Barzilai-Borwein: for the step s = -t Omega and the change y of
        # Omega, the next step length is <s, s> / <s, y>
        t, decrease = t[ok], decrease[ok]
        y = omega_new[ok] - omega[acc]
        sy = t * -_inner(omega[acc], y)
        ss = t * t * grad_sq[acc]
        u[acc], f[acc], omega[acc] = u_new[ok], f_new[ok], omega_new[ok]
        recent[acc] = np.column_stack([f[acc], recent[acc, :-1]])
        grad_sq[acc] = _inner(omega[acc], omega[acc])
        with np.errstate(divide="ignore", invalid="ignore"):
            cap = MAX_ANGLE / np.sqrt(grad_sq[acc])
            bb = np.where(sy > 0.0, ss / sy, cap)
        step[acc] = np.minimum(bb, cap)
        done = (np.abs(decrease) <= ftol) & (0.5 * step[acc] * grad_sq[acc] <= ftol)
        active[acc[done | (grad_sq[acc] == 0.0)]] = False
    f_min = float(np.min(f))
    best = int(np.argmax(f <= f_min + TIE_TOL * max(1.0, abs(f_min))))
    converged = int(np.sum(f <= f[best] + cfg.reproduce_tol)) >= QUORUM
    return float(f[best]), u[best], n, converged, f
