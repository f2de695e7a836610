import numpy as np
import pytest

from helpers import apply_channel, random_kraus_set

from metrocorr.errors import DegenerateSpectrum, DimMismatch
from metrocorr.linalg import (
    PAULI_Z,
    DensityMatrix,
    embed,
    haar_unitary,
    hermitian_part,
    linear_spectrum,
    partial_trace,
    pauli_vector,
    random_density,
    random_hermitian,
    tensor,
)
from metrocorr.manifold import OptimizerConfig
from metrocorr.states import (
    make_bell,
    make_fig1_state,
    make_schmidt_pure,
    random_cq,
)
from metrocorr.uncertainty import (
    classical_uncertainty,
    hellinger_sq,
    lqu_general,
    lqu_qubit_qudit,
    skew_information,
    variance,
)


def fig1_skew(p):
    return 1.0 - np.sqrt(1.0 - p * p)


# ---------------------------------------------------------------------------
# variance


def test_variance_fig1_constant_one():
    for p in np.linspace(0, 1, 11):
        assert abs(variance(make_fig1_state(p), PAULI_Z) - 1.0) < 1e-12


def test_variance_eigenstate_zero():
    rho = DensityMatrix((2,), np.diag([1.0, 0.0]).astype(complex))
    assert variance(rho, PAULI_Z) < 1e-14


def test_variance_maximally_mixed():
    rho = DensityMatrix((2,), np.eye(2, dtype=complex) / 2)
    assert abs(variance(rho, PAULI_Z) - 1.0) < 1e-14


def test_variance_dim_mismatch():
    with pytest.raises(DimMismatch):
        variance(make_bell(), PAULI_Z)


# ---------------------------------------------------------------------------
# skew information


def test_skew_fig1_closed_form_and_matrix_oracle():
    for p in np.linspace(0, 1, 21):
        rho = make_fig1_state(p)
        val = skew_information(rho, PAULI_Z)
        assert abs(val - fig1_skew(p)) < 1e-12
        # independent oracle: -tr([sqrt(rho), O]^2)/2 evaluated literally
        r = rho.sqrtm
        comm = r @ PAULI_Z - PAULI_Z @ r
        lit = -0.5 * np.real(np.trace(comm @ comm))
        assert abs(val - lit) < 1e-12


def test_skew_zero_iff_commuting():
    rng = np.random.default_rng(8)
    w = rng.dirichlet([1, 1, 1, 1])
    rho = DensityMatrix((4,), np.diag(w).astype(complex))
    diag_obs = np.diag(rng.standard_normal(4)).astype(complex)
    assert skew_information(rho, diag_obs) < 1e-12


def test_skew_equals_variance_for_pure():
    rng = np.random.default_rng(10)
    for _ in range(10):
        psi = random_density([3], 1, rng)
        h = random_hermitian(3, rng)
        assert abs(skew_information(psi, h) - variance(psi, h)) < 1e-9


def test_skew_bounded_by_variance():
    rng = np.random.default_rng(12)
    for _ in range(50):
        rho = random_density([4], int(rng.integers(1, 5)), rng)
        h = random_hermitian(4, rng)
        assert skew_information(rho, h) <= variance(rho, h) + 1e-9


def test_skew_convex_under_mixing():
    rng = np.random.default_rng(14)
    for _ in range(25):
        rho1 = random_density([3], 3, rng)
        rho2 = random_density([3], 2, rng)
        h = random_hermitian(3, rng)
        p = rng.uniform()
        mix = DensityMatrix((3,), p * rho1.mat + (1 - p) * rho2.mat)
        lhs = skew_information(mix, h)
        rhs = p * skew_information(rho1, h) + (1 - p) * skew_information(rho2, h)
        assert lhs <= rhs + 1e-9


def test_fig1_skew_strictly_increasing():
    grid = np.linspace(0, 1, 101)
    vals = [skew_information(make_fig1_state(p), PAULI_Z) for p in grid]
    assert np.all(np.diff(vals) > 0)


# ---------------------------------------------------------------------------
# classical part


def test_classical_uncertainty_examples():
    rng = np.random.default_rng(16)
    psi = random_density([3], 1, rng)
    h = random_hermitian(3, rng)
    assert classical_uncertainty(psi, h) < 1e-9
    for p in (0.0, 0.4, 0.8):
        rho = make_fig1_state(p)
        assert abs(classical_uncertainty(rho, PAULI_Z) - np.sqrt(1 - p * p)) < 1e-12
    assert abs(classical_uncertainty(make_fig1_state(0.0), PAULI_Z) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# Hellinger distance


def test_hellinger_self_zero():
    rng = np.random.default_rng(18)
    rho = random_density([2, 2], 4, rng)
    assert hellinger_sq(rho, rho) < 1e-12


def test_hellinger_orthogonal_pure():
    a = DensityMatrix((2,), np.diag([1.0, 0.0]).astype(complex))
    b = DensityMatrix((2,), np.diag([0.0, 1.0]).astype(complex))
    assert abs(hellinger_sq(a, b) - 1.0) < 1e-12


def test_hellinger_equals_skew_for_root_of_unity_conjugation():
    rng = np.random.default_rng(20)
    for _ in range(15):
        d_b = int(rng.integers(2, 4))
        rho = random_density([2, d_b], 2 * d_b, rng)
        n = rng.standard_normal(3)
        n /= np.linalg.norm(n)
        k = embed(pauli_vector(n), rho.dims, 0)
        skew = skew_information(rho, k)
        conj = DensityMatrix(rho.dims, hermitian_part(k @ rho.mat @ k))
        assert abs(skew - hellinger_sq(rho, conj)) < 1e-9


# ---------------------------------------------------------------------------
# LQU closed form


def test_lqu_bell_is_one():
    assert abs(lqu_qubit_qudit(make_bell()).value - 1.0) < 1e-12


def test_lqu_cq_zero():
    rng = np.random.default_rng(22)
    for _ in range(10):
        cq = random_cq((2, 3), rng)
        assert lqu_qubit_qudit(cq).value <= 1e-10


def test_lqu_pure_schmidt_linear_entropy():
    rng = np.random.default_rng(24)
    for _ in range(10):
        s1 = rng.uniform(0, 1)
        psi = make_schmidt_pure([s1, 1 - s1], (2, 3))
        red = partial_trace(psi, 0)
        expect = 2 * (1 - red.purity())
        val = lqu_qubit_qudit(psi).value
        assert abs(val - expect) < 1e-9
        assert abs(val - 4 * s1 * (1 - s1)) < 1e-9


def test_lqu_certificate_attains_value():
    rng = np.random.default_rng(26)
    rho = random_density([2, 2], 4, rng)
    res = lqu_qubit_qudit(rho)
    k = embed(res.certificate.matrix, rho.dims, 0)
    assert abs(skew_information(rho, k) - res.value) < 1e-10


def test_lqu_dim_mismatch():
    rng = np.random.default_rng(1)
    with pytest.raises(DimMismatch):
        lqu_qubit_qudit(random_density([3, 2], 6, rng))


# ---------------------------------------------------------------------------
# LQU general optimizer


def test_lqu_general_matches_closed_form():
    rng = np.random.default_rng(28)
    for i in range(6):
        dims = (2, 2) if i % 2 == 0 else (2, 3)
        rho = random_density(dims, int(np.prod(dims)), rng)
        closed = lqu_qubit_qudit(rho).value
        res = lqu_general(rho, [-1.0, 1.0])
        assert abs(res.value - closed) < 1e-6
        assert res.converged


def test_lqu_general_spectrum_scaling():
    rng = np.random.default_rng(30)
    rho = random_density([2, 2], 4, rng)
    lam1, lam2 = -0.3, 1.1
    scaled = lqu_general(rho, [lam1, lam2])
    unit = lqu_qubit_qudit(rho).value
    assert abs(scaled.value - (lam1 - lam2) ** 2 / 4 * unit) < 1e-6


def test_lqu_general_qutrit_cq_zero():
    rng = np.random.default_rng(32)
    cq = random_cq((3, 2), rng)
    res = lqu_general(cq, linear_spectrum(3))
    assert res.value <= 1e-7


def test_lqu_general_rejects_degenerate_spectrum():
    with pytest.raises(DegenerateSpectrum):
        lqu_general(make_bell(), [1.0, 1.0])


def test_lqu_general_side_b():
    bell = make_bell()
    res = lqu_general(bell, [-1.0, 1.0], side="B")
    assert abs(res.value - 1.0) < 1e-6


def test_lqu_general_config_is_third_positional():
    res = lqu_general(make_bell(), [-1, 1], OptimizerConfig(restarts=3))
    assert res.restarts_used == 3
    assert abs(res.value - 1.0) < 1e-6


# ---------------------------------------------------------------------------
# measure properties on random states


def test_lqu_local_unitary_invariance():
    rng = np.random.default_rng(34)
    for _ in range(10):
        rho = random_density([2, 2], 4, rng)
        ua, ub = haar_unitary(2, rng), haar_unitary(2, rng)
        u = tensor(ua, ub)
        rotated = DensityMatrix(rho.dims, hermitian_part(u @ rho.mat @ u.conj().T))
        assert abs(lqu_qubit_qudit(rho).value - lqu_qubit_qudit(rotated).value) < 1e-6


def test_lqu_contractive_under_channels_on_b():
    rng = np.random.default_rng(36)
    for _ in range(10):
        rho = random_density([2, 2], 4, rng)
        kraus = random_kraus_set(2, 2, rng)
        out = apply_channel(rho, kraus, site=1)
        assert lqu_qubit_qudit(out).value <= lqu_qubit_qudit(rho).value + 1e-6


def test_lqu_pure_average_monotone_under_kraus_on_a():
    rng = np.random.default_rng(38)
    for _ in range(10):
        psi = random_density([2, 3], 1, rng)
        kraus = random_kraus_set(2, 2, rng)
        before = lqu_qubit_qudit(psi).value
        avg = 0.0
        for k in kraus:
            full = embed(k, psi.dims, 0)
            unnorm = full @ psi.mat @ full.conj().T
            p = float(np.real(np.trace(unnorm)))
            if p < 1e-12:
                continue
            branch = DensityMatrix(psi.dims, hermitian_part(unnorm / p))
            avg += p * lqu_qubit_qudit(branch).value
        assert avg <= before + 1e-6
