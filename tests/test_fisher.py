import numpy as np
import pytest

from helpers import (
    apply_channel,
    finite_difference_drho,
    random_hermitian,
    random_kraus_set,
    random_povm,
)

from metrocorr.errors import (
    DimMismatch,
    OutOfRange,
    SingularOutcome,
    ValidationError,
    ZeroInformation,
)
from metrocorr.fisher import (
    PhaseChannel,
    Povm,
    classical_fisher,
    cramer_rao,
    ip_general,
    ip_qubit_qudit,
    qfi,
    sld,
)
from metrocorr.linalg import (
    PAULI_Z,
    DensityMatrix,
    Observable,
    embed,
    haar_unitary,
    hermitian_part,
    linear_spectrum,
    random_density,
    tensor,
)
from metrocorr.states import make_bell, random_cq
from metrocorr.uncertainty import lqu_qubit_qudit, skew_information, variance


def _sz_channel(theta=0.0):
    return PhaseChannel(Observable.pauli([0, 0, 1.0]), theta)


# ---------------------------------------------------------------------------
# SLD


def test_sld_zero_for_stationary_state():
    rng = np.random.default_rng(0)
    w = rng.dirichlet(np.ones(4))
    rho = DensityMatrix((4,), np.diag(w).astype(complex))
    h = np.diag(rng.standard_normal(4)).astype(complex)
    assert np.max(np.abs(sld(rho, h))) < 1e-12


def test_sld_pure_state_defining_equation():
    rng = np.random.default_rng(2)
    for _ in range(10):
        psi = random_density([4], 1, rng)
        h = random_hermitian(4, rng)
        l_op = sld(psi, h)
        drho = -1j * (h @ psi.mat - psi.mat @ h)
        residual = 0.5 * (psi.mat @ l_op + l_op @ psi.mat) - drho
        assert np.max(np.abs(residual)) < 1e-9
        # for pure states L = 2 drho on the support
        np.testing.assert_allclose(l_op, 2 * drho, atol=1e-9)


def test_sld_traceless_against_state():
    rng = np.random.default_rng(4)
    for _ in range(10):
        rho = random_density([2, 2], 4, rng)
        h = random_hermitian(4, rng)
        l_op = sld(rho, h)
        assert abs(np.trace(rho.mat @ l_op)) < 1e-9


# ---------------------------------------------------------------------------
# QFI


def test_qfi_pure_state_equals_four_variances():
    rng = np.random.default_rng(6)
    for _ in range(10):
        psi = random_density([3], 1, rng)
        h = random_hermitian(3, rng)
        assert abs(qfi(psi, h) - 4 * variance(psi, h)) < 1e-8


def test_qfi_bell_sigma_z():
    bell = make_bell()
    h = embed(PAULI_Z, bell.dims, 0)
    assert abs(variance(bell, h) - 1.0) < 1e-12
    assert abs(qfi(bell, h) - 4.0) < 1e-10


def test_qfi_commuting_zero():
    rng = np.random.default_rng(8)
    w = rng.dirichlet(np.ones(4))
    rho = DensityMatrix((4,), np.diag(w).astype(complex))
    h = np.diag(rng.standard_normal(4)).astype(complex)
    assert qfi(rho, h) < 1e-12


def test_qfi_agrees_with_sld_second_moment():
    rng = np.random.default_rng(10)
    for _ in range(15):
        rho = random_density([2, 2], int(rng.integers(2, 5)), rng)
        h = random_hermitian(4, rng)
        l_op = sld(rho, h)
        direct = float(np.real(np.trace(rho.mat @ l_op @ l_op)))
        assert abs(qfi(rho, h) - direct) < 1e-8


def test_qfi_convexity():
    rng = np.random.default_rng(12)
    for _ in range(15):
        rho1 = random_density([4], 4, rng)
        rho2 = random_density([4], 3, rng)
        h = random_hermitian(4, rng)
        p = rng.uniform()
        mix = DensityMatrix((4,), p * rho1.mat + (1 - p) * rho2.mat)
        assert qfi(mix, h) <= p * qfi(rho1, h) + (1 - p) * qfi(rho2, h) + 1e-8


def test_qfi_unitary_covariance():
    rng = np.random.default_rng(14)
    for _ in range(10):
        rho = random_density([4], 3, rng)
        h = random_hermitian(4, rng)
        u = haar_unitary(4, rng)
        rotated = DensityMatrix((4,), hermitian_part(u @ rho.mat @ u.conj().T))
        assert abs(qfi(rotated, h) - qfi(rho, u.conj().T @ h @ u)) < 1e-8


def test_qfi_monotone_under_channels_on_b():
    rng = np.random.default_rng(16)
    for _ in range(10):
        rho = random_density([2, 2], 4, rng)
        h = embed(random_hermitian(2, rng), rho.dims, 0)
        out = apply_channel(rho, random_kraus_set(2, 2, rng), site=1)
        assert qfi(out, h) <= qfi(rho, h) + 1e-8


def test_skew_qfi_inequality_chain():
    rng = np.random.default_rng(18)
    for _ in range(100):
        rho = random_density([4], int(rng.integers(1, 5)), rng)
        h = random_hermitian(4, rng)
        skew = skew_information(rho, h)
        quarter = 0.25 * qfi(rho, h)
        assert skew <= quarter + 1e-9
        assert quarter <= 2 * skew + 1e-9


# ---------------------------------------------------------------------------
# classical Fisher information


def test_classical_fisher_sld_povm_saturates_qfi():
    rng = np.random.default_rng(20)
    for theta0 in (0.0, 0.37):
        rho = random_density([2, 2], 4, rng)
        channel = _sz_channel(theta0)
        h = channel.full_generator(rho)
        rho_t = channel.apply(rho)
        l_op = sld(rho_t, h)
        _, basis = np.linalg.eigh(l_op)
        povm = Povm.projective(basis)
        f_cl = classical_fisher(rho, channel, povm)
        assert abs(f_cl - qfi(rho, h)) < 1e-8


def test_classical_fisher_trivial_povm_zero():
    rho = make_bell()
    povm = Povm([np.eye(4)])
    assert classical_fisher(rho, _sz_channel(0.1), povm) < 1e-12


def test_classical_fisher_bounded_by_qfi():
    rng = np.random.default_rng(22)
    for _ in range(10):
        rho = random_density([2, 2], 4, rng)
        channel = _sz_channel(0.2)
        povm = Povm(random_povm(4, 5, rng))
        f_cl = classical_fisher(rho, channel, povm)
        assert f_cl <= qfi(rho, channel.full_generator(rho)) + 1e-8


def test_classical_fisher_derivative_matches_finite_difference():
    rng = np.random.default_rng(24)
    rho = random_density([2, 2], 4, rng)
    channel = _sz_channel(0.3)
    h = channel.full_generator(rho)
    rho_t = channel.apply(rho).mat
    analytic = -1j * (h @ rho_t - rho_t @ h)
    numeric = finite_difference_drho(lambda t: channel.apply(rho, t).mat, 0.3)
    assert np.max(np.abs(analytic - numeric)) < 1e-8


def test_classical_fisher_singular_outcome():
    # outcome with p ~ eps^2 below the cutoff but derivative ~ eps above it
    psi = make_bell()
    channel = _sz_channel(0.0)
    h = channel.full_generator(psi)
    bell_vec = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    w = h @ bell_vec - (bell_vec.conj() @ h @ bell_vec) * bell_vec
    w /= np.linalg.norm(w)
    v = 3e-7j * bell_vec + w
    v /= np.linalg.norm(v)
    proj = np.outer(v, v.conj())
    povm = Povm([proj, np.eye(4) - proj])
    with pytest.raises(SingularOutcome):
        classical_fisher(psi, channel, povm)


def test_povm_validation():
    with pytest.raises(ValidationError):
        Povm([np.eye(2), np.eye(2)])
    with pytest.raises(ValidationError):
        Povm([np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])])


# ---------------------------------------------------------------------------
# Cramer-Rao


def test_cramer_rao_arithmetic():
    assert cramer_rao(4.0, 1) == 0.25
    assert cramer_rao(4.0, 100) == 0.0025
    with pytest.raises(ZeroInformation):
        cramer_rao(0.0, 1)


def test_cramer_rao_zero_repetitions_is_out_of_range():
    with pytest.raises(OutOfRange):
        cramer_rao(4.0, 0)


# ---------------------------------------------------------------------------
# interferometric power


def test_ip_cq_zero():
    rng = np.random.default_rng(26)
    for _ in range(10):
        cq = random_cq((2, 3), rng)
        assert ip_qubit_qudit(cq).value <= 1e-10


def test_ip_bell_one():
    assert abs(ip_qubit_qudit(make_bell()).value - 1.0) < 1e-10


def test_ip_dominates_lqu():
    rng = np.random.default_rng(28)
    for _ in range(30):
        rho = random_density([2, 2], int(rng.integers(1, 5)), rng)
        assert ip_qubit_qudit(rho).value >= lqu_qubit_qudit(rho).value - 1e-8


def test_ip_certificate_attains_value():
    rng = np.random.default_rng(30)
    rho = random_density([2, 3], 6, rng)
    res = ip_qubit_qudit(rho)
    h = embed(res.certificate.matrix, rho.dims, 0)
    assert abs(0.25 * qfi(rho, h) - res.value) < 1e-9


def test_ip_general_matches_closed_form():
    rng = np.random.default_rng(32)
    for i in range(6):
        dims = (2, 2) if i % 2 == 0 else (2, 3)
        rho = random_density(dims, int(np.prod(dims)), rng)
        closed = ip_qubit_qudit(rho).value
        res = ip_general(rho, [-1.0, 1.0])
        assert abs(res.value - closed) < 1e-6
        assert res.converged


def test_ip_general_affine_spectrum_scaling():
    rng = np.random.default_rng(34)
    rho = random_density([2, 2], 4, rng)
    base = ip_general(rho, [-1.0, 1.0]).value
    a, b = 0.7, 0.3
    scaled = ip_general(rho, [a * -1.0 + b, a * 1.0 + b]).value
    assert abs(scaled - a * a * base) < 1e-6


def test_ip_general_qutrit_cq_zero():
    rng = np.random.default_rng(36)
    cq = random_cq((3, 2), rng)
    assert ip_general(cq, linear_spectrum(3)).value <= 1e-7


def test_ip_local_unitary_invariance():
    rng = np.random.default_rng(38)
    for _ in range(10):
        rho = random_density([2, 2], 4, rng)
        u = tensor(haar_unitary(2, rng), haar_unitary(2, rng))
        rotated = DensityMatrix(rho.dims, hermitian_part(u @ rho.mat @ u.conj().T))
        assert abs(ip_qubit_qudit(rho).value - ip_qubit_qudit(rotated).value) < 1e-6


def test_ip_contractive_under_channels_on_b():
    rng = np.random.default_rng(40)
    for _ in range(10):
        rho = random_density([2, 2], 4, rng)
        out = apply_channel(rho, random_kraus_set(2, 2, rng), site=1)
        assert ip_qubit_qudit(out).value <= ip_qubit_qudit(rho).value + 1e-6


def test_phase_channel_dim_mismatch():
    rng = np.random.default_rng(1)
    rho = random_density([3, 2], 6, rng)
    with pytest.raises(DimMismatch):
        _sz_channel().full_generator(rho)
