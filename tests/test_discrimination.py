import numpy as np
import pytest

from helpers import apply_channel, random_kraus_set, s_half_lemma_check, uhlmann_fidelity

from metrocorr.discrimination import (
    chernoff,
    ds_general,
    ds_pure,
    ds_pure_harmonic,
    ds_qubit_qudit,
    helstrom_error,
)
from metrocorr.errors import (
    DimensionTooLarge,
    DimMismatch,
    NotPure,
    OutOfRange,
    TooManyCopies,
)
from metrocorr.linalg import (
    PAULI_X,
    DensityMatrix,
    Observable,
    embed,
    haar_unitary,
    hermitian_part,
    random_density,
    random_hermitian,
    tensor,
)
from metrocorr.states import (
    make_bell,
    make_schmidt_pure,
    random_cq,
)
from metrocorr.uncertainty import lqu_general, lqu_qubit_qudit


def rotate_local(rho, obs: Observable):
    u = obs.basis_unitary
    rot = (u * np.exp(1j * obs.spectrum)) @ u.conj().T
    full = embed(rot, rho.dims, 0)
    return DensityMatrix(rho.dims, hermitian_part(full @ rho.mat @ full.conj().T))


def bell_rotated(lam):
    obs = Observable(np.array([-lam, lam]), Observable.pauli([0, 0, 1.0]).basis_unitary)
    return rotate_local(make_bell(), obs)


# ---------------------------------------------------------------------------
# Helstrom


def test_helstrom_identical_states():
    rng = np.random.default_rng(0)
    rho = random_density([2], 2, rng)
    for n in (1, 2, 3):
        assert abs(helstrom_error(rho, rho, n) - 0.5) < 1e-12


def test_helstrom_orthogonal_pure():
    a = DensityMatrix((2,), np.diag([1.0, 0.0]).astype(complex))
    b = DensityMatrix((2,), np.diag([0.0, 1.0]).astype(complex))
    assert helstrom_error(a, b, 1) < 1e-12


def test_helstrom_zero_vs_plus():
    a = DensityMatrix((2,), np.diag([1.0, 0.0]).astype(complex))
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    b = DensityMatrix((2,), np.outer(plus, plus.conj()))
    expect = 0.5 * (1.0 - 1.0 / np.sqrt(2.0))
    assert abs(helstrom_error(a, b, 1) - expect) < 1e-12


def test_helstrom_copy_guard():
    rng = np.random.default_rng(1)
    rho = random_density([2, 2], 4, rng)
    with pytest.raises(TooManyCopies):
        helstrom_error(rho, rho, 8)


def test_helstrom_dim_mismatch():
    rng = np.random.default_rng(2)
    with pytest.raises(DimMismatch):
        helstrom_error(random_density([2], 2, rng), random_density([3], 3, rng))


# ---------------------------------------------------------------------------
# Chernoff


def test_chernoff_identical_states():
    rng = np.random.default_rng(3)
    for rank in (1, 2, 4):
        rho = random_density([2, 2], rank, rng)
        res = chernoff(rho, rho)
        assert abs(res.q_value - 1.0) < 1e-10
        assert abs(res.exponent) < 1e-10


def test_chernoff_pure_state_gives_fidelity():
    rng = np.random.default_rng(4)
    for _ in range(20):
        psi = random_density([2, 2], 1, rng)
        rho = random_density([2, 2], int(rng.integers(1, 5)), rng)
        res = chernoff(rho, psi)
        assert abs(res.q_value - uhlmann_fidelity(rho, psi)) < 1e-9
        res2 = chernoff(psi, rho)
        assert abs(res2.q_value - uhlmann_fidelity(psi, rho)) < 1e-9


def test_chernoff_bounded_by_sqrt_overlap():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = random_density([2, 2], int(rng.integers(1, 5)), rng)
        b = random_density([2, 2], int(rng.integers(1, 5)), rng)
        res = chernoff(a, b)
        root_overlap = float(np.real(np.trace(a.sqrtm @ b.sqrtm)))
        assert res.q_value <= root_overlap + 1e-9
        assert abs(res.q_value - np.exp(-res.exponent)) < 1e-10


def test_chernoff_orthogonal_states():
    a = DensityMatrix((2,), np.diag([1.0, 0.0]).astype(complex))
    b = DensityMatrix((2,), np.diag([0.0, 1.0]).astype(complex))
    res = chernoff(a, b)
    assert res.q_value == 0.0
    assert res.exponent == np.inf


def test_overlap_function_convex_in_s():
    rng = np.random.default_rng(6)
    from metrocorr.discrimination import _overlap_data

    for _ in range(10):
        a = random_density([2, 2], 4, rng)
        b = random_density([2, 2], 3, rng)
        log1, log2, w = _overlap_data(a, b)
        s = np.linspace(0, 1, 101)
        g = np.array([float(np.exp(si * log1) @ w @ np.exp((1 - si) * log2)) for si in s])
        second = np.diff(g, 2)
        assert np.min(second) > -1e-9


def test_multicopy_error_bounded_by_chernoff_power():
    rng = np.random.default_rng(7)
    for _ in range(10):
        a = random_density([2], int(rng.integers(1, 3)), rng)
        b = random_density([2], int(rng.integers(1, 3)), rng)
        q = chernoff(a, b).q_value
        for n in (1, 2, 3):
            assert helstrom_error(a, b, n) <= 0.5 * q**n + 1e-9


# ---------------------------------------------------------------------------
# s = 1/2 lemma


def test_s_half_lemma_random_qubit():
    rng = np.random.default_rng(8)
    for _ in range(20):
        rho = random_density([2], 2, rng)
        smin, shalf = s_half_lemma_check(rho, PAULI_X)
        assert abs(smin - shalf) < 1e-9


def test_s_half_lemma_grid_oracle():
    rng = np.random.default_rng(9)
    rho = random_density([4], 4, rng)
    o = random_hermitian(4, rng)
    smin, shalf = s_half_lemma_check(rho, o)
    w, v = np.linalg.eigh(rho.mat)
    ot = v.conj().T @ o @ v
    svals = np.linspace(0, 1, 1001)
    grid = [
        float(np.sum(np.outer(w**s, w ** (1 - s)) * np.abs(ot) ** 2)) for s in svals
    ]
    assert abs(min(grid) - smin) < 1e-7
    assert abs(smin - shalf) < 1e-9


def test_s_half_commuting_constant():
    rng = np.random.default_rng(10)
    w = rng.dirichlet(np.ones(3))
    rho = DensityMatrix((3,), np.diag(w).astype(complex))
    o = np.diag(rng.standard_normal(3)).astype(complex)
    smin, shalf = s_half_lemma_check(rho, o)
    expect = float(np.sum(w * np.diag(o).real ** 2))
    assert abs(smin - expect) < 1e-12
    assert abs(shalf - expect) < 1e-12


def test_s_half_pure_state_rank_one():
    rng = np.random.default_rng(11)
    psi = random_density([3], 1, rng)
    o = random_hermitian(3, rng)
    smin, shalf = s_half_lemma_check(psi, o)
    vec = psi.eig.eigenvectors[:, -1]
    expect = float(np.abs(vec.conj() @ o @ vec) ** 2)
    assert abs(smin - expect) < 1e-10
    assert abs(shalf - expect) < 1e-10


# ---------------------------------------------------------------------------
# DS general


def test_ds_general_cq_zero():
    rng = np.random.default_rng(12)
    cq = random_cq((2, 2), rng)
    assert ds_general(cq, [-0.5, 0.5]).value <= 1e-7


def test_ds_general_matches_qubit_closed_form():
    rng = np.random.default_rng(13)
    for i, lam in enumerate((0.1, np.pi / 4, np.pi / 2)):
        rho = random_density([2, 2], 4 - (i % 2), rng)
        closed = ds_qubit_qudit(rho, lam).value
        res = ds_general(rho, [-lam, lam])
        assert abs(res.value - closed) < 1e-6


def test_ds_general_shift_invariance():
    rng = np.random.default_rng(14)
    rho = random_density([2, 2], 4, rng)
    lam = np.array([-0.4, 0.4])
    a = ds_general(rho, lam)
    b = ds_general(rho, lam + 1.3)
    assert abs(a.value - b.value) < 1e-8


def test_ds_small_spectrum_approaches_lqu():
    rng = np.random.default_rng(15)
    lam = 1e-2
    for _ in range(3):
        rho = random_density([2, 2], 4, rng)
        ds = ds_general(rho, [-lam, lam]).value
        lqu = lqu_general(rho, [-lam, lam]).value
        assert abs(ds - lqu) <= 10 * lam**3


# ---------------------------------------------------------------------------
# DS pure-state forms


def test_ds_pure_product_zero():
    psi = make_schmidt_pure([1.0], (2, 2))
    res = ds_pure(psi, [-0.7, 0.7])
    assert res.value < 1e-12


def test_ds_pure_bell_half_pi():
    res = ds_pure(make_bell(), [-np.pi / 2, np.pi / 2])
    assert abs(res.value - 1.0) < 1e-12
    nested = ds_general(make_bell(), [-np.pi / 2, np.pi / 2])
    assert abs(res.value - nested.value) < 1e-6


def test_ds_pure_matches_nested_optimizer():
    rng = np.random.default_rng(16)
    for _ in range(3):
        s1 = rng.uniform(0.1, 0.9)
        psi = make_schmidt_pure([s1, 1 - s1], (2, 2))
        lam = rng.uniform(0.2, np.pi / 2)
        a = ds_pure(psi, [-lam, lam]).value
        b = ds_general(psi, [-lam, lam]).value
        assert abs(a - b) < 1e-6


def test_ds_pure_equal_coefficients_permutation_symmetric():
    psi = make_schmidt_pure([0.5, 0.5], (2, 2))
    spectrum = [-0.9, 0.4]
    res = ds_pure(psi, spectrum)
    probs = np.array([0.5, 0.5])
    phases = np.exp(1j * np.array(spectrum))
    vals = [abs(probs[list(p)] @ phases) ** 2 for p in ([0, 1], [1, 0])]
    assert abs(res.value - (1 - max(vals))) < 1e-12
    assert abs(vals[0] - vals[1]) < 1e-12


def test_ds_pure_padding_matches_nested_optimizer():
    # d_A > d_B: the Schmidt list is shorter than the spectrum and is padded
    # with zeros; cross-check against the qutrit-probe nested optimization
    rng = np.random.default_rng(99)
    s = rng.dirichlet([1, 1])
    vec = np.zeros(6, dtype=complex)
    vec[0] = np.sqrt(s[0])
    vec[3] = np.sqrt(s[1])
    psi = DensityMatrix((3, 2), np.outer(vec, vec.conj()))
    lam = np.array([-0.9, 0.1, 0.8])
    perm = ds_pure(psi, lam)
    nested = ds_general(psi, lam)
    assert abs(perm.value - nested.value) < 1e-6


def test_ds_pure_requires_purity():
    rng = np.random.default_rng(17)
    with pytest.raises(NotPure):
        ds_pure(random_density([2, 2], 4, rng), [-1, 1])


def test_ds_pure_dimension_guard():
    rng = np.random.default_rng(18)
    psi = random_density([9, 9], 1, rng)
    with pytest.raises(DimensionTooLarge):
        ds_pure(psi, np.linspace(-1, 1, 9))


def test_ds_pure_harmonic_bell():
    res = ds_pure_harmonic(make_bell(), np.pi)
    assert abs(res.value - ds_pure(make_bell(), np.pi * np.arange(2) - np.pi / 2).value) < 1e-8
    assert abs(res.value - 1.0) < 1e-12


def test_ds_pure_harmonic_single_coefficient():
    psi = make_schmidt_pure([1.0], (2, 3))
    assert ds_pure_harmonic(psi, 1.0).value < 1e-12


def test_ds_pure_harmonic_matches_search_d4():
    rng = np.random.default_rng(19)
    for _ in range(5):
        raw = rng.dirichlet(np.ones(4))
        psi = make_schmidt_pure(np.sort(raw)[::-1], (4, 4))
        omega = rng.uniform(0.2, 2 * np.pi / 4)
        res = ds_pure_harmonic(psi, omega)
        assert abs(res.value - ds_pure(psi, omega * np.arange(4) - omega * 3 / 2).value) < 1e-8


def test_ds_pure_harmonic_range_guard():
    with pytest.raises(OutOfRange):
        ds_pure_harmonic(make_bell(), 4.0)


# ---------------------------------------------------------------------------
# DS qubit-qudit closed form


def test_ds_qubit_qudit_small_lambda_ratio():
    rng = np.random.default_rng(20)
    rho = random_density([2, 2], 4, rng)
    unit_lqu = lqu_qubit_qudit(rho).value
    for lam in (1e-3, 1e-2):
        ds = ds_qubit_qudit(rho, lam)
        lqu_lam = lam * lam * unit_lqu
        assert abs(ds.value / lqu_lam - 1.0) < 1e-4


def test_ds_qubit_qudit_bell_max_rotation():
    res = ds_qubit_qudit(make_bell(), np.pi / 2)
    assert abs(res.value - 1.0) < 1e-12
    nested = ds_general(make_bell(), [-np.pi / 2, np.pi / 2])
    assert abs(nested.value - 1.0) < 1e-6


def test_ds_qubit_qudit_cq_zero_all_lambda():
    rng = np.random.default_rng(21)
    cq = random_cq((2, 3), rng)
    for lam in (0.1, np.pi / 4, np.pi / 2):
        assert ds_qubit_qudit(cq, lam).value <= 1e-10


def test_ds_qubit_qudit_range_guard():
    with pytest.raises(OutOfRange):
        ds_qubit_qudit(make_bell(), 2.0)
    with pytest.raises(OutOfRange):
        ds_qubit_qudit(make_bell(), 0.0)


# ---------------------------------------------------------------------------
# DS measure properties


def test_ds_local_unitary_invariance():
    rng = np.random.default_rng(22)
    for _ in range(8):
        rho = random_density([2, 2], 4, rng)
        u = tensor(haar_unitary(2, rng), haar_unitary(2, rng))
        rotated = DensityMatrix(rho.dims, hermitian_part(u @ rho.mat @ u.conj().T))
        a = ds_qubit_qudit(rho, np.pi / 4).value
        b = ds_qubit_qudit(rotated, np.pi / 4).value
        assert abs(a - b) < 1e-6


def test_ds_contractive_under_channels_on_b():
    rng = np.random.default_rng(23)
    for _ in range(8):
        rho = random_density([2, 2], 4, rng)
        out = apply_channel(rho, random_kraus_set(2, 2, rng), site=1)
        assert ds_qubit_qudit(out, np.pi / 4).value <= ds_qubit_qudit(rho, np.pi / 4).value + 1e-6


def test_ds_pure_average_monotone_under_locc():
    rng = np.random.default_rng(24)
    for _ in range(8):
        psi = random_density([2, 2], 1, rng)
        kraus = random_kraus_set(2, 2, rng)
        before = ds_qubit_qudit(psi, np.pi / 4).value
        avg = 0.0
        for k in kraus:
            vb = haar_unitary(2, rng)
            op = tensor(k, vb)
            unnorm = op @ psi.mat @ op.conj().T
            p = float(np.real(np.trace(unnorm)))
            if p < 1e-12:
                continue
            branch = DensityMatrix(psi.dims, hermitian_part(unnorm / p))
            avg += p * ds_qubit_qudit(branch, np.pi / 4).value
        assert avg <= before + 1e-6
