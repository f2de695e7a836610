"""Qubit-probe closed forms against dense references.

The Pauli correlation matrix W and the sensitivity form M are checked along
fixed directions n: 1 - n.W.n is the skew information of (n.sigma) x I and
n.M.n a quarter of its quantum Fisher information.  These oracles of
``helpers`` build every (n.sigma) x I densely and share no code with the
closed forms.  W and M are also compared entrywise with the same sums over
dense Kronecker products, which they reproduce up to summation order.
"""
import math

import numpy as np
import pytest

from helpers import fibonacci_sphere, qfi_quarter_on_directions, skew_on_directions

from metrocorr import discrimination, fisher, uncertainty
from metrocorr.discrimination import ds_qubit_qudit
from metrocorr.fisher import ip_qubit_qudit, quadratic_form_matrix
from metrocorr.linalg import PAULIS, embed, random_density
from metrocorr.states import random_cq
from metrocorr.uncertainty import lqu_qubit_qudit, pauli_correlation_matrix

DIRECTIONS = fibonacci_sphere(50)
CASES = [(d_b, rank) for d_b in range(1, 6) for rank in range(1, 2 * d_b + 1)]
CASES += [(d_b, "cq") for d_b in range(1, 6)]


def _states(d_b, rank):
    rng = np.random.default_rng([d_b, 0 if rank == "cq" else rank])
    if rank == "cq":
        return [random_cq((2, d_b), rng) for _ in range(3)]
    return [random_density((2, d_b), rank, rng) for _ in range(3)]


def _dense_w(rho):
    # W_ij = Re tr[(R E_i)(R E_j)], E_i = sigma_i x I formed by np.kron
    rs = [rho.sqrtm @ embed(p, rho.dims, 0) for p in PAULIS]
    return np.array([[np.real(np.sum(a * b.T)) for b in rs] for a in rs])


def _dense_m(rho):
    # M_mn = (1/2) sum_kl c_kl A^m_kl conj(A^n_kl), A^m = V^dag E_m V
    w, v = rho.eig.eigenvalues, rho.eig.eigenvectors
    s = w[:, None] + w[None, :]
    c = np.where(s > 1e-12, (w[:, None] - w[None, :]) ** 2 / np.where(s > 1e-12, s, 1.0), 0.0)
    a = [v.conj().T @ embed(p, rho.dims, 0) @ v for p in PAULIS]
    return np.array([[0.5 * np.real(np.sum(c * x * y.conj())) for y in a] for x in a])


@pytest.mark.parametrize("d_b, rank", CASES)
def test_closed_form_matrices_match_dense_kronecker_sums(d_b, rank):
    for rho in _states(d_b, rank):
        np.testing.assert_allclose(pauli_correlation_matrix(rho), _dense_w(rho), rtol=0, atol=1e-15)
        np.testing.assert_allclose(quadratic_form_matrix(rho), _dense_m(rho), rtol=0, atol=1e-15)


@pytest.mark.parametrize("d_b, rank", CASES)
def test_pauli_correlation_matrix_gives_skew_on_directions(d_b, rank):
    for rho in _states(d_b, rank):
        w = pauli_correlation_matrix(rho)
        got = 1.0 - np.einsum("gi,ij,gj->g", DIRECTIONS, w, DIRECTIONS)
        np.testing.assert_allclose(got, skew_on_directions(rho, DIRECTIONS), rtol=0, atol=1e-13)


@pytest.mark.parametrize("d_b, rank", CASES)
def test_quadratic_form_matrix_gives_qfi_on_directions(d_b, rank):
    for rho in _states(d_b, rank):
        m = quadratic_form_matrix(rho)
        got = np.einsum("gi,ij,gj->g", DIRECTIONS, m, DIRECTIONS)
        np.testing.assert_allclose(
            got, qfi_quarter_on_directions(rho, DIRECTIONS), rtol=0, atol=1e-13
        )


@pytest.mark.parametrize("d_b, rank", CASES)
def test_ds_qubit_qudit_follows_lqu_certificate(d_b, rank):
    for i, rho in enumerate(_states(d_b, rank)):
        lam = (0.3, 1.0, math.pi / 2)[i]
        lqu = lqu_qubit_qudit(rho)
        ds = ds_qubit_qudit(rho, lam)
        np.testing.assert_array_equal(ds.info["direction"], lqu.info["direction"])
        np.testing.assert_array_equal(
            ds.certificate.basis_unitary, lqu.certificate.basis_unitary
        )
        np.testing.assert_array_equal(ds.certificate.spectrum, [-lam, lam])
        assert ds.info["unit_lqu"] == max(lqu.value, 0.0)
        assert abs(ds.value - max(lqu.value, 0.0) * math.sin(lam) ** 2) <= 1e-15


def _noisy(m, rng):
    e = rng.standard_normal((3, 3)) * 1e-16
    return m + 0.5 * (e + e.T)


@pytest.mark.parametrize("d_b", [2, 3, 4, 5])
def test_certificate_direction_ignores_rounding_noise(monkeypatch, d_b):
    # W of a cq state and M of a pure state have a degenerate pair beside the
    # picked eigenvector, so eigh alone leaves its sign to the last bits
    rng = np.random.default_rng([d_b, 1])
    cases = [(random_cq((2, d_b), rng), random_density((2, d_b), 1, rng)) for _ in range(8)]
    for cq, pure in cases:
        w, m = pauli_correlation_matrix(cq), quadratic_form_matrix(pure)
        want = [lqu_qubit_qudit(cq), ds_qubit_qudit(cq, 0.7), ip_qubit_qudit(pure)]
        for _ in range(4):
            noisy_w, noisy_m = _noisy(w, rng), _noisy(m, rng)
            monkeypatch.setattr(uncertainty, "pauli_correlation_matrix", lambda rho: noisy_w)
            monkeypatch.setattr(discrimination, "pauli_correlation_matrix", lambda rho: noisy_w)
            monkeypatch.setattr(fisher, "quadratic_form_matrix", lambda rho: noisy_m)
            got = [lqu_qubit_qudit(cq), ds_qubit_qudit(cq, 0.7), ip_qubit_qudit(pure)]
            for g, r in zip(got, want):
                for x, y in ((g.info["direction"], r.info["direction"]),
                             (g.certificate.matrix, r.certificate.matrix)):
                    np.testing.assert_allclose(x, y, rtol=0, atol=1e-9)
        monkeypatch.undo()
