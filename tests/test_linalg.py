import numpy as np
import pytest

from helpers import random_hermitian, reconstruct

from metrocorr.errors import (
    BadRank,
    BadSubsystemIndex,
    DimMismatch,
    NotHermitian,
    NotPositive,
    NotUnitTrace,
    ValidationError,
)
from metrocorr.linalg import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    DensityMatrix,
    Observable,
    apply_local,
    check_spectrum,
    eig_hermitian,
    embed,
    haar_unitary,
    linear_spectrum,
    partial_trace,
    pure_density,
    random_density,
    tensor,
    trace_norm,
    validate_density,
)
from metrocorr.states import make_bell, make_cq


def test_validate_density_maximally_mixed():
    rho = validate_density(np.eye(2) / 2, [2])
    assert rho.dims == (2,)
    np.testing.assert_allclose(rho.mat, np.eye(2) / 2, atol=1e-14)


def test_validate_density_rejects_negative_eigenvalue():
    m = np.diag([1.1, -0.1])
    with pytest.raises(NotPositive):
        validate_density(m, [2])


def test_validate_density_bell():
    v = np.array([1, 0, 0, 1]) / np.sqrt(2)
    rho = validate_density(np.outer(v, v), [2, 2])
    assert rho.dims == (2, 2)
    assert abs(rho.purity() - 1.0) < 1e-12


def test_validate_density_rejects_non_hermitian():
    m = np.array([[0.5, 0.1], [0.0, 0.5]])
    with pytest.raises(NotHermitian):
        validate_density(m, [2])


@pytest.mark.filterwarnings("ignore:invalid value encountered in subtract")
@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("entry", [(0, 0), (0, 1)])
def test_validate_density_rejects_non_finite(value, entry):
    # set symmetrically, so that only the non-finite value can fail the check
    m = np.eye(2, dtype=complex) / 2
    m[entry] = m[entry[::-1]] = value
    with pytest.raises(ValidationError):
        validate_density(m, [2])
    with pytest.raises(ValidationError):
        DensityMatrix((2,), m).eig


def test_validate_density_rejects_bad_trace():
    with pytest.raises(NotUnitTrace):
        validate_density(np.eye(2), [2])


def test_validate_density_clamps_rounding_noise():
    m = np.diag([1.0 + 5e-10, -5e-10])
    rho = validate_density(m, [2])
    w = np.linalg.eigvalsh(rho.mat)
    assert w.min() >= 0.0
    assert abs(np.trace(rho.mat).real - 1.0) < 1e-15


def test_eig_hermitian_pauli_z():
    e = eig_hermitian(PAULI_Z)
    np.testing.assert_allclose(e.eigenvalues, [-1.0, 1.0], atol=1e-14)


def test_eig_hermitian_pauli_x_eigenvectors():
    e = eig_hermitian(PAULI_X)
    np.testing.assert_allclose(e.eigenvalues, [-1.0, 1.0], atol=1e-14)
    minus = e.eigenvectors[:, 0]
    np.testing.assert_allclose(abs(minus @ np.array([1, -1]) / np.sqrt(2)), 1.0, atol=1e-12)


def test_eig_hermitian_bell_spectrum():
    bell = make_bell()
    np.testing.assert_allclose(bell.eig.eigenvalues, [0, 0, 0, 1], atol=1e-12)


def test_eig_reconstruction_invariants():
    rng = np.random.default_rng(7)
    for _ in range(20):
        rho = random_density([2, 3], 6, rng)
        e = eig_hermitian(rho.mat)
        np.testing.assert_allclose(reconstruct(e), rho.mat, atol=1e-9)
        v = e.eigenvectors
        np.testing.assert_allclose(v.conj().T @ v, np.eye(6), atol=1e-9)


def test_mat_sqrt_pure_state_is_projector():
    rng = np.random.default_rng(3)
    psi = random_density([4], 1, rng)
    np.testing.assert_allclose(psi.sqrtm, psi.mat, atol=1e-9)


def test_mat_sqrt_scalar_matrix():
    rho = validate_density(np.eye(2) / 2, [2])
    np.testing.assert_allclose(rho.sqrtm, np.eye(2) / np.sqrt(2), atol=1e-12)


def test_mat_sqrt_diagonal():
    rho = validate_density(np.diag([0.64, 0.36]), [2])
    np.testing.assert_allclose(rho.sqrtm, np.diag([0.8, 0.6]), atol=1e-12)


def test_mat_sqrt_squares_back():
    rng = np.random.default_rng(11)
    for _ in range(10):
        rho = random_density([2, 2], 3, rng)
        r = rho.sqrtm
        assert np.max(np.abs(r @ r - rho.mat)) < 1e-8


def test_tensor_pauli_z_identity():
    np.testing.assert_allclose(tensor(PAULI_Z, np.eye(2)), np.diag([1, 1, -1, -1]), atol=0)


def test_tensor_identity_identity():
    np.testing.assert_allclose(tensor(np.eye(2), np.eye(3)), np.eye(6), atol=0)


def test_bell_eigenvector_of_xx():
    bell = make_bell()
    xx = tensor(PAULI_X, PAULI_X)
    v = np.array([1, 0, 0, 1]) / np.sqrt(2)
    np.testing.assert_allclose(xx @ v, v, atol=1e-14)
    np.testing.assert_allclose(xx @ bell.mat @ xx, bell.mat, atol=1e-14)


def test_partial_trace_bell():
    red = partial_trace(make_bell(), 0)
    np.testing.assert_allclose(red.mat, np.eye(2) / 2, atol=1e-12)
    assert red.dims == (2,)


def test_partial_trace_product():
    rng = np.random.default_rng(5)
    a = random_density([2], 2, rng)
    b = random_density([3], 3, rng)
    joint = DensityMatrix((2, 3), tensor(a.mat, b.mat))
    np.testing.assert_allclose(partial_trace(joint, 0).mat, a.mat, atol=1e-10)
    np.testing.assert_allclose(partial_trace(joint, 1).mat, b.mat, atol=1e-10)


def test_partial_trace_cq_block_structure():
    rng = np.random.default_rng(9)
    p = np.array([0.3, 0.7])
    sigmas = [random_density([2], 2, rng) for _ in range(2)]
    cq = make_cq(p, np.eye(2), sigmas)
    np.testing.assert_allclose(partial_trace(cq, 0).mat, np.diag(p), atol=1e-10)


def test_partial_trace_bad_index():
    with pytest.raises(BadSubsystemIndex):
        partial_trace(make_bell(), 2)


def test_trace_norm_examples():
    rng = np.random.default_rng(13)
    rho = random_density([2, 2], 4, rng)
    assert abs(trace_norm(rho.mat) - 1.0) < 1e-12
    assert abs(trace_norm(np.diag([1.0, -1.0])) - 2.0) < 1e-14
    assert trace_norm(rho.mat - rho.mat) == 0.0


def test_trace_norm_difference_bounded():
    rng = np.random.default_rng(17)
    for _ in range(25):
        a = random_density([2, 2], rng.integers(1, 5), rng)
        b = random_density([2, 2], rng.integers(1, 5), rng)
        t = trace_norm(a.mat - b.mat)
        assert -1e-12 <= t <= 2.0 + 1e-12


def test_haar_unitary_scalar():
    u = haar_unitary(1, np.random.default_rng(0))
    assert u.shape == (1, 1)
    assert abs(abs(u[0, 0]) - 1.0) < 1e-12


def test_haar_unitary_column_norms():
    u = haar_unitary(4, np.random.default_rng(1))
    np.testing.assert_allclose(np.linalg.norm(u, axis=0), np.ones(4), atol=1e-12)


def test_haar_unitary_unitarity_many_seeds():
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        d = (2, 3, 4, 8)[seed % 4]
        u = haar_unitary(d, rng)
        assert np.max(np.abs(u.conj().T @ u - np.eye(d))) < 1e-10


def test_haar_unitary_first_entry_moment():
    # E|U_00|^2 = 1/d for Haar measure; Monte-Carlo check at d = 2
    rng = np.random.default_rng(123)
    n = 100_000
    total = sum(abs(haar_unitary(2, rng)[0, 0]) ** 2 for _ in range(n))
    assert abs(total / n - 0.5) < 0.01


def test_random_density_ranks():
    rng = np.random.default_rng(21)
    pure = random_density([2, 2], 1, rng)
    assert abs(pure.purity() - 1.0) < 1e-10
    full = random_density([2, 2], 4, rng)
    assert np.all(full.eig.eigenvalues > 1e-9)
    rank2 = random_density([4], 2, rng)
    assert int(np.sum(rank2.eig.eigenvalues > 1e-9)) == 2


def test_random_density_bad_rank():
    rng = np.random.default_rng(1)
    with pytest.raises(BadRank):
        random_density([2, 2], 5, rng)
    with pytest.raises(BadRank):
        random_density([2, 2], 0, rng)


def test_ptrace_of_tensor_roundtrip():
    rng = np.random.default_rng(31)
    for _ in range(10):
        a = random_density([3], 2, rng)
        b = random_density([2], 2, rng)
        joint = DensityMatrix((3, 2), tensor(a.mat, b.mat))
        np.testing.assert_allclose(partial_trace(joint, 0).mat, a.mat, atol=1e-10)


def test_embed_matches_kron():
    np.testing.assert_allclose(embed(PAULI_Z, (2, 3), 0), tensor(PAULI_Z, np.eye(3)), atol=0)
    np.testing.assert_allclose(embed(PAULI_Z, (3, 2), 1), tensor(np.eye(3), PAULI_Z), atol=0)
    with pytest.raises(DimMismatch):
        embed(PAULI_Z, (3, 2), 0)


def _complex_matrix(rows, cols, rng):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


@pytest.mark.parametrize("d_b", [1, 3])
def test_apply_local_paulis_bit_for_bit(d_b):
    # one exact product per entry: bit for bit the dense (sigma x I) @ M
    dims = (2, d_b)
    m = _complex_matrix(2 * d_b, 2 * d_b, np.random.default_rng(d_b))
    paulis = np.stack([PAULI_X, PAULI_Y, PAULI_Z])
    dense = np.stack([embed(p, dims, 0) @ m for p in paulis])
    np.testing.assert_array_equal(apply_local(paulis, m), dense)


@pytest.mark.parametrize("dims", [(2, 3), (3, 2)])
def test_apply_local_matches_embedded_product(dims):
    rng = np.random.default_rng(sum(dims))
    d = dims[0] * dims[1]
    m = _complex_matrix(d, d - 1, rng)
    ops = np.stack([random_hermitian(dims[0], rng) for _ in range(4)])
    dense = np.stack([embed(o, dims, 0) @ m for o in ops])
    np.testing.assert_allclose(apply_local(ops, m), dense, rtol=0, atol=1e-14)


def test_observable_sorts_and_validates():
    obs = Observable(np.array([1.0, -1.0]), np.eye(2))
    np.testing.assert_allclose(obs.spectrum, [-1.0, 1.0])
    np.testing.assert_allclose(obs.matrix, np.diag([1.0, -1.0]), atol=1e-14)


def test_observable_rejects_degenerate_spectrum():
    from metrocorr.errors import DegenerateSpectrum, NotUnitary

    with pytest.raises(DegenerateSpectrum):
        Observable(np.array([1.0, 1.0 + 5e-10]), np.eye(2))
    skew = np.array([[1.0, 0.1], [0.0, 1.0]])
    with pytest.raises(NotUnitary):
        Observable(np.array([-1.0, 1.0]), skew)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_check_spectrum_rejects_non_finite(bad):
    with pytest.raises(ValidationError):
        check_spectrum([bad, 1.0], 2)
    with pytest.raises(ValidationError):
        Observable(np.array([bad, 1.0]), np.eye(2))


def test_observable_pauli_direction():
    obs = Observable.pauli([0, 0, 1])
    np.testing.assert_allclose(obs.matrix, PAULI_Z, atol=1e-12)
    obs_x = Observable.pauli([2, 0, 0])
    np.testing.assert_allclose(obs_x.matrix, PAULI_X, atol=1e-12)


def test_linear_spectrum():
    np.testing.assert_allclose(linear_spectrum(3), [-1.0, 0.0, 1.0])
    np.testing.assert_allclose(linear_spectrum(2), [-1.0, 1.0])


def test_pure_density_normalizes():
    rho = pure_density([2.0, 0.0], (2,))
    np.testing.assert_allclose(rho.mat, np.diag([1.0, 0.0]), atol=1e-14)
