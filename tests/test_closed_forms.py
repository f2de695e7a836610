"""Qubit-probe closed forms against dense references.

The one kernel, ``qubit_form``, is checked along fixed directions n: with the
skew pair weights n.B.n is the skew information of (n.sigma) x I (B = 1 - W,
W the Pauli correlation matrix of sqrt(rho)), and with the Fisher pair
weights a quarter of its quantum Fisher information.  These oracles of
``helpers`` build every (n.sigma) x I densely and share no code with the
closed forms.  B is also compared entrywise, for both weightings, with the
same sums over dense Kronecker products, which it reproduces up to summation
order.
"""
import math

import numpy as np
import pytest

from helpers import fibonacci_sphere, qfi_quarter_on_directions, skew_on_directions

from metrocorr import fisher, linalg
from metrocorr.discrimination import ds_qubit_qudit
from metrocorr.errors import DegenerateSpectrum
from metrocorr.fisher import _qfi_weights, ip_qubit_qudit
from metrocorr.linalg import (
    PAULIS,
    DensityMatrix,
    embed,
    qubit_form,
    random_density,
    validate_density,
)
from metrocorr.states import make_bell, make_werner, random_cq
from metrocorr.uncertainty import lqu_qubit_qudit

DIRECTIONS = fibonacci_sphere(50)
CASES = [(d_b, rank) for d_b in range(1, 6) for rank in range(1, 2 * d_b + 1)]
CASES += [(d_b, "cq") for d_b in range(1, 6)]


def _states(d_b, rank):
    rng = np.random.default_rng([d_b, 0 if rank == "cq" else rank])
    if rank == "cq":
        return [random_cq((2, d_b), rng) for _ in range(3)]
    return [random_density((2, d_b), rank, rng) for _ in range(3)]


def _skew_c(w):
    root = np.sqrt(w)
    return (root[:, None] - root[None, :]) ** 2


def _qfi_c(w):
    s = w[:, None] + w[None, :]
    return np.where(s > 1e-12, (w[:, None] - w[None, :]) ** 2 / np.where(s > 1e-12, s, 1.0), 0.0)


def _dense_form(rho, c):
    # B_mn = (1/2) sum_kl c_kl A^m_kl conj(A^n_kl), A^m = V^dag E_m V, E_m = sigma_m x I by np.kron
    v = rho.eig.eigenvectors
    a = [v.conj().T @ embed(p, rho.dims, 0) @ v for p in PAULIS]
    return np.array([[0.5 * np.real(np.sum(c * x * y.conj())) for y in a] for x in a])


def _lqu_form(rho):
    return qubit_form(rho, rho.skew_weights)


def _ip_form(rho):
    return qubit_form(rho, _qfi_weights(rho.eig.eigenvalues))


@pytest.mark.parametrize("d_b, rank", CASES)
def test_closed_form_matrices_match_dense_kronecker_sums(d_b, rank):
    for rho in _states(d_b, rank):
        for weights in (_skew_c, _qfi_c):
            c = weights(rho.eig.eigenvalues)
            np.testing.assert_allclose(qubit_form(rho, c), _dense_form(rho, c), rtol=0, atol=1e-15)


@pytest.mark.parametrize("d_b, rank", CASES)
def test_pauli_correlation_matrix_gives_skew_on_directions(d_b, rank):
    for rho in _states(d_b, rank):
        got = np.einsum("gi,ij,gj->g", DIRECTIONS, _lqu_form(rho), DIRECTIONS)
        np.testing.assert_allclose(got, skew_on_directions(rho, DIRECTIONS), rtol=0, atol=1e-13)


@pytest.mark.parametrize("d_b, rank", CASES)
def test_quadratic_form_matrix_gives_qfi_on_directions(d_b, rank):
    for rho in _states(d_b, rank):
        got = np.einsum("gi,ij,gj->g", DIRECTIONS, _ip_form(rho), DIRECTIONS)
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
    # the LQU form of a cq state and the IP form of a pure state have a
    # degenerate pair beside the picked eigenvector, so eigh alone leaves its
    # sign to the last bits
    rng = np.random.default_rng([d_b, 1])
    cases = [(random_cq((2, d_b), rng), random_density((2, d_b), 1, rng)) for _ in range(8)]
    for cq, pure in cases:
        b, m = _lqu_form(cq), _ip_form(pure)
        want = [lqu_qubit_qudit(cq), ds_qubit_qudit(cq, 0.7), ip_qubit_qudit(pure)]
        for _ in range(4):
            noisy_b, noisy_m = _noisy(b, rng), _noisy(m, rng)

            def noisy_form(rho, weights):
                return noisy_m if rho is pure else noisy_b

            monkeypatch.setattr(linalg, "qubit_form", noisy_form)
            monkeypatch.setattr(fisher, "qubit_form", noisy_form)
            # a fresh state each draw: the cached axis of cq holds the noiseless B
            noisy_cq = DensityMatrix(cq.dims, cq.mat)
            got = [lqu_qubit_qudit(noisy_cq), ds_qubit_qudit(noisy_cq, 0.7), ip_qubit_qudit(pure)]
            np.testing.assert_array_equal(
                got[0].info["form_eigenvalues"], np.linalg.eigh(noisy_b)[0]
            )
            for g, r in zip(got, want):
                for x, y in ((g.info["direction"], r.info["direction"]),
                             (g.certificate.matrix, r.certificate.matrix)):
                    np.testing.assert_allclose(x, y, rtol=0, atol=1e-9)
        monkeypatch.undo()


def _bell_diagonal(c):
    mat = np.eye(4, dtype=complex)
    for ci, p in zip(c, PAULIS):
        mat = mat + ci * np.kron(p, p)
    return validate_density(mat / 4, (2, 2))


@pytest.mark.parametrize("base, want", [
    (make_bell(), (0.0, 0.0, 1.0)),
    (make_werner(0.6), (0.0, 0.0, 1.0)),
    (make_werner(0.3), (0.0, 0.0, 1.0)),
    # both forms have a degenerate bottom pair in the x-y plane
    (_bell_diagonal((0.5, 0.5, -0.2)), (1.0, 0.0, 0.0)),
], ids=["bell", "werner-0.6", "werner-0.3", "bell-diagonal-pair"])
def test_degenerate_optimum_has_one_certificate(base, want):
    # every direction of a degenerate optimum is optimal; the certificate must
    # not follow the last bits of the state's decomposition
    rng = np.random.default_rng(17)
    threefold = want == (0.0, 0.0, 1.0)
    first = None
    for _ in range(50):
        e = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = validate_density(base.mat + 0.5e-16 * (e + e.conj().T), base.dims)
        got = [lqu_qubit_qudit(rho), ip_qubit_qudit(rho), ds_qubit_qudit(rho, 0.7)]
        mats = [g.certificate.matrix for g in got]
        first = first or mats
        for g, mat, ref in zip(got, mats, first):
            if threefold:  # exactly e_z, so one operator bit for bit
                np.testing.assert_array_equal(g.info["direction"], want)
                np.testing.assert_array_equal(mat, ref)
            else:
                np.testing.assert_allclose(g.info["direction"], want, rtol=0, atol=1e-12)
                np.testing.assert_allclose(mat, ref, rtol=0, atol=1e-12)


def test_lqu_and_ds_share_one_w_solve(monkeypatch):
    rho = validate_density(random_density((2, 3), 4, np.random.default_rng(5)).mat, (2, 3))
    built = []
    real = linalg.qubit_form

    def counted(state, weights):
        built.append(state)
        return real(state, weights)

    monkeypatch.setattr(linalg, "qubit_form", counted)
    lqu = lqu_qubit_qudit(rho)
    ds = ds_qubit_qudit(rho, 0.9)
    assert built == [rho]
    assert ds.info["direction"] is lqu.info["direction"]
    # the shared arrays are read-only, so no result can alter another's
    assert not lqu.info["direction"].flags.writeable
    assert not lqu.info["form_eigenvalues"].flags.writeable
    # DS still builds its own certificate, with the constructor's gap check
    with pytest.raises(DegenerateSpectrum):
        ds_qubit_qudit(rho, 1e-10)
    assert built == [rho]
