"""Multi-start derivative-free minimization over the special unitary manifold.

Candidate unitaries are parametrized as U = exp(iH) with H a traceless
Hermitian matrix built from d^2 - 1 real coordinates in a generalized
Gell-Mann basis.  Each restart begins at a Haar-distributed unitary and runs
a Nelder-Mead simplex followed by a Powell polish, both gradient-free.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .linalg import haar_unitary

MAXITER = 2000  # Nelder-Mead iterations per restart


@dataclass
class OptimizerConfig:
    """Settings for the multi-start unitary-manifold search.

    restarts:       independent Haar-seeded local descents (min over all)
    value_tol:      target accuracy of the optimal value
    reproduce_tol:  the run is flagged converged when >= 3 restarts land
                    within this distance of the best value
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


def gell_mann_basis(d: int) -> np.ndarray:
    """Traceless Hermitian generators normalized to tr[G_a G_b] = 2 delta_ab."""
    gens = []
    for j in range(d):
        for k in range(j + 1, d):
            sym = np.zeros((d, d), dtype=complex)
            sym[j, k] = sym[k, j] = 1.0
            gens.append(sym)
            asym = np.zeros((d, d), dtype=complex)
            asym[j, k] = -1.0j
            asym[k, j] = 1.0j
            gens.append(asym)
    for l in range(1, d):
        diag = np.zeros((d, d), dtype=complex)
        for m in range(l):
            diag[m, m] = 1.0
        diag[l, l] = -l
        gens.append(diag * np.sqrt(2.0 / (l * (l + 1))))
    return np.stack(gens)


def hermitian_from_coords(theta: np.ndarray, basis: np.ndarray) -> np.ndarray:
    return np.einsum("a,aij->ij", theta, basis)


def unitary_from_coords(theta: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """exp(i H(theta)); the d = 2 case uses the closed Pauli rotation form."""
    d = basis.shape[1]
    if d == 2:
        r = float(np.linalg.norm(theta))
        if r < 1e-300:
            return np.eye(2, dtype=complex)
        h = hermitian_from_coords(theta / r, basis)
        return np.cos(r) * np.eye(2, dtype=complex) + 1j * np.sin(r) * h
    h = hermitian_from_coords(theta, basis)
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)) @ v.conj().T


def coords_from_unitary(u: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Coordinates of a principal logarithm of U (start-point extraction)."""
    w, v = np.linalg.eig(u)
    phases = np.angle(w)
    h = (v * phases) @ np.linalg.inv(v)
    h = 0.5 * (h + h.conj().T)
    h -= np.trace(h) / u.shape[0] * np.eye(u.shape[0])
    return 0.5 * np.real(np.einsum("aij,ji->a", basis, h))


def minimize_over_unitaries(cost, d: int, config: OptimizerConfig | None = None):
    """Multi-start minimization of ``cost(U)`` over d x d unitaries.

    Returns (best_value, best_unitary, restarts_used, converged, all_values).
    """
    cfg = config or OptimizerConfig()
    basis = gell_mann_basis(d)
    rng = np.random.default_rng(cfg.seed)

    def objective(theta):
        return cost(unitary_from_coords(theta, basis))

    nm_options = {
        "xatol": 1e-8,
        "fatol": max(cfg.value_tol * 1e-3, 1e-14),
        "maxiter": MAXITER,
        "maxfev": 2 * MAXITER,
        "adaptive": d > 2,
    }
    values = []
    best_val = np.inf
    best_x = None
    for _ in range(max(1, cfg.restarts)):
        x0 = coords_from_unitary(haar_unitary(d, rng), basis)
        res = minimize(objective, x0, method="Nelder-Mead", options=nm_options)
        # polish only candidates competitive with the incumbent optimum
        if res.fun <= best_val + 1e-4:
            pol = minimize(
                objective,
                res.x,
                method="Powell",
                options={"xtol": 1e-10, "ftol": 1e-13, "maxiter": 200},
            )
            if pol.fun < res.fun:
                res = pol
        values.append(float(res.fun))
        if res.fun < best_val:
            best_val = float(res.fun)
            best_x = res.x
    values_arr = np.array(values)
    converged = int(np.sum(values_arr <= best_val + cfg.reproduce_tol)) >= 3
    best_u = unitary_from_coords(best_x, basis)
    return best_val, best_u, len(values), converged, values_arr
