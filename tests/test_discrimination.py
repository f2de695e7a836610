import math
import time
import tracemalloc

import numpy as np
import pytest

from helpers import (
    apply_channel,
    dense_helstrom_error,
    random_hermitian,
    random_kraus_set,
    s_half_lemma_check,
    standard_tableaux,
    uhlmann_fidelity,
    weyl_dim,
)

from metrocorr import discrimination, sim
from metrocorr.discrimination import (
    _overlap_data,
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
    tensor,
    trace_norm,
)
from metrocorr.manifold import OptimizerConfig
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


def _no_large_allocation(monkeypatch, call):
    """Run ``call`` expecting TooManyCopies with no Kronecker power formed and
    under 1 MB allocated on the way."""
    def no_kron(*args):
        raise AssertionError("Kronecker product formed before the copy guard")

    monkeypatch.setattr(np, "kron", no_kron)
    tracemalloc.start()
    try:
        with pytest.raises(TooManyCopies):
            call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_helstrom_copy_guard_two_qubits_seven_copies(monkeypatch):
    # side 4^7 = 16384: a 4.3 GB dense matrix; 4^6 = 4096 is the largest side allowed
    rng = np.random.default_rng(3)
    rho = random_density([2, 2], 4, rng)
    sigma = random_density([2, 2], 4, rng)
    _no_large_allocation(monkeypatch, lambda: helstrom_error(rho, sigma, 7))


def test_run_discrimination_copy_guard_two_qutrits(monkeypatch):
    # side 9^4 = 6561; the guard must fire before the DS search runs
    rho = random_density([3, 3], 9, np.random.default_rng(4))

    def no_search(*args, **kwargs):
        raise AssertionError("DS search ran before the copy guard")

    monkeypatch.setattr(sim, "ds_general", no_search)
    _no_large_allocation(
        monkeypatch, lambda: sim.run_discrimination(rho, [-1.0, 0.0, 1.0], n_max=4)
    )


def test_helstrom_dim_mismatch():
    rng = np.random.default_rng(2)
    with pytest.raises(DimMismatch):
        helstrom_error(random_density([2], 2, rng), random_density([3], 3, rng))


@pytest.mark.parametrize("n", [2.0, 3.5, True, False, "3", None])
def test_helstrom_rejects_non_integer_copy_counts(n):
    rho = random_density([2, 2], 4, np.random.default_rng(5))
    with pytest.raises(OutOfRange):
        helstrom_error(rho, rho, n)


def test_helstrom_accepts_numpy_integer_copy_counts():
    rng = np.random.default_rng(6)
    a, b = random_density([2, 2], 4, rng), random_density([2, 2], 3, rng)
    for n in (np.int64(3), np.int32(3), np.uint8(3)):
        assert helstrom_error(a, b, n) == helstrom_error(a, b, 3)


def test_helstrom_huge_copy_count_fails_without_forming_the_power(monkeypatch):
    # 4^(10^8) itself would be a 25 MB integer
    rng = np.random.default_rng(7)
    rho, sigma = random_density([2, 2], 4, rng), random_density([2, 2], 4, rng)
    t0 = time.perf_counter()
    _no_large_allocation(monkeypatch, lambda: helstrom_error(rho, sigma, 10**8))
    assert time.perf_counter() - t0 < 0.1


def test_copy_guard_limits():
    assert [discrimination.max_copies(d) for d in (1, 2, 3, 4, 6, 9, 64, 4096, 4097)] == [
        12, 12, 7, 6, 4, 3, 2, 1, 0]


# ---------------------------------------------------------------------------
# Helstrom by Schur-Weyl blocks


def _pair(dims, kind, rng):
    d = math.prod(dims)
    if kind == "identical":
        rho = random_density(dims, d, rng)
        return rho, rho
    if kind == "orthogonal":
        u = haar_unitary(d, rng)
        p = rng.random(d)
        low = np.arange(d) < d // 2

        def on(w):
            return DensityMatrix(dims, hermitian_part((u * (w / w.sum())) @ u.conj().T))

        return on(np.where(low, p, 0.0)), on(np.where(low, 0.0, p))
    rank = {"full-rank": d, "rank-deficient": 2, "pure": 1}[kind]
    return random_density(dims, rank, rng), random_density(dims, rank, rng)


@pytest.mark.parametrize("dims, n_max", [((2, 2), 5), ((2, 3), 4), ((3, 3), 3)])
@pytest.mark.parametrize("kind", ["full-rank", "rank-deficient", "pure", "identical", "orthogonal"])
def test_helstrom_blocks_match_dense_oracle(dims, n_max, kind):
    rng = np.random.default_rng([math.prod(dims), len(kind)])
    rho1, rho2 = _pair(dims, kind, rng)
    for n in range(1, n_max + 1):
        got = helstrom_error(rho1, rho2, n)
        assert abs(got - dense_helstrom_error(rho1, rho2, n)) <= 1e-12, (n, got)
    if kind == "identical":
        assert abs(got - 0.5) <= 1e-12
    if kind == "orthogonal":
        assert got <= 1e-12


def _dims(d, n):
    """(k, [(lam, f_lam, m_lam, B_lam), ...]) for the levels k = 1..n; level 1 has no basis."""
    for k, level in enumerate(discrimination._levels(d, n)[:n], start=1):
        yield k, [(lam, f, d if basis is None else basis.shape[1], basis) for lam, _, f, basis, _ in level]


@pytest.mark.parametrize("d, n", [(2, 6), (3, 4), (4, 3), (4, 5), (6, 3), (9, 2), (5, 1)])
def test_young_bases_decompose_the_tensor_power(d, n):
    for k, blocks in _dims(d, n):
        assert sum(f * m for _, f, m, _ in blocks) == d**k
        if d >= k:  # every partition of k appears: sum f_lam^2 = k!
            assert sum(f**2 for _, f, _, _ in blocks) == math.factorial(k)
    # each basis is orthonormal, and the bases of one parent's children are orthogonal
    for level in discrimination._levels(d, n)[1:n]:
        for parent in {i for _, i, _, _, _ in level}:
            stacked = np.hstack([basis for _, i, _, basis, _ in level if i == parent])
            np.testing.assert_allclose(stacked.T @ stacked, np.eye(stacked.shape[1]), rtol=0, atol=1e-12)


@pytest.mark.parametrize("d, n", [(2, 5), (3, 3), (4, 3), (6, 2)])
def test_young_bases_are_invariant_under_tensor_powers(d, n):
    # B_lam intertwines: (pi_mu(X) (x) X) B_lam = B_lam pi_lam(X) for a complex X
    rng = np.random.default_rng([d, n])
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    x /= np.linalg.norm(x, 2)
    reps = [x]
    for level in discrimination._levels(d, n)[1:n]:
        parents, reps = reps, []
        for _, i, _, basis, _ in level:
            image = np.kron(parents[i], x) @ basis
            rep = discrimination._lift(parents[i], x, basis)
            np.testing.assert_allclose(image, basis @ rep, rtol=0, atol=1e-12)
            reps.append(rep)


@pytest.mark.parametrize("d, n", [(2, 5), (3, 3), (4, 3)])
def test_lifted_diagonal_states_are_the_weight_monomials(d, n):
    # every basis column is a weight vector, so pi_lam(diag p) = diag(prod_i p_i^(w_i))
    p = np.random.default_rng([d, n]).dirichlet(np.ones(d))
    diag = np.diag(p).astype(complex)
    reps = [diag]
    for level in discrimination._levels(d, n)[1:n]:
        reps = [discrimination._lift(reps[i], diag, basis) for _, i, _, basis, _ in level]
        for rep, (*_, letters) in zip(reps, level):
            np.testing.assert_allclose(rep, np.diag(p[letters].prod(axis=1)), rtol=0, atol=1e-15)


@pytest.mark.parametrize("d, n", [(2, 12), (3, 5), (4, 4), (6, 3), (16, 2)])
def test_level_dimensions_follow_the_hook_formulas(d, n):
    for _, blocks in _dims(d, n):
        for lam, f, m, _ in blocks:
            assert (m, f) == (weyl_dim(lam, d), standard_tableaux(lam)), lam


def _pure_pairs(dims, rng, count):
    return [(random_density(dims, 1, rng), random_density(dims, 1, rng)) for _ in range(count)]


def test_helstrom_six_copies_of_two_qubit_pure_states():
    # pure pairs: P_n = (1 - sqrt(1 - F^n)) / 2 with F = |<psi|phi>|^2
    rng = np.random.default_rng(10)
    pairs = [(make_bell(), bell_rotated(0.6))] + _pure_pairs([2, 2], rng, 3)
    for a, b in pairs:
        fid = float(np.real(np.trace(a.mat @ b.mat)))
        expect = 0.5 * (1.0 - math.sqrt(1.0 - fid**6))
        assert abs(helstrom_error(a, b, 6) - expect) <= 1e-12


def test_helstrom_twelve_copies_of_single_qubit_pure_states():
    # n = 12 is the deepest recursion the copy guard admits
    for a, b in _pure_pairs([2], np.random.default_rng(14), 6):
        fid = float(np.real(np.trace(a.mat @ b.mat)))
        expect = 0.5 * (1.0 - math.sqrt(1.0 - fid**12))
        assert abs(helstrom_error(a, b, 12) - expect) <= 1e-12


def test_helstrom_one_copy_is_the_block_path_without_a_basis():
    rng = np.random.default_rng(12)
    for dims in ([2, 2], [2, 3], [3, 3]):
        for rank in (1, 2, 4):
            a = random_density(dims, rank, rng)
            b = random_density(dims, int(rng.integers(1, 5)), rng)
            expect = 0.5 * (1.0 - 0.5 * trace_norm(a.mat - b.mat))
            assert helstrom_error(a, b, 1) == float(np.clip(expect, 0.0, 0.5))
            assert [[basis for _, _, _, basis, _ in level] for level in discrimination._levels(a.dim, 1)[:1]] == [[None]]
            assert "eig" not in a.__dict__  # a single copy needs no eigenframe


@pytest.mark.parametrize("dims, n_max", [((2, 2), 5), ((2, 3), 4)])
@pytest.mark.parametrize("rank", [1, 3])
def test_one_walk_equals_separate_calls(dims, n_max, rank):
    rng = np.random.default_rng([math.prod(dims), n_max, rank])
    a, b = random_density(dims, rank, rng), random_density(dims, math.prod(dims), rng)
    assert discrimination.helstrom_errors(a, b, n_max) == [helstrom_error(a, b, n) for n in range(1, n_max + 1)]


def test_young_basis_cache_keeps_only_bases_within_its_budget(monkeypatch):
    rng = np.random.default_rng(13)
    a, b = random_density([2, 2], 4, rng), random_density([2, 2], 2, rng)
    q, r = random_density([2], 2, rng), random_density([2], 1, rng)
    t, u = random_density([3], 3, rng), random_density([3], 2, rng)
    discrimination._LEVELS.clear()
    small = helstrom_error(a, b, 4)
    expect = helstrom_error(a, b, 5)
    assert [len(levels) for levels in discrimination._LEVELS.values()] == [5]

    def no_build(*args):
        raise AssertionError("levels built again")

    # a shallower call reads the deeper levels as a prefix, to the same bits
    with monkeypatch.context() as m:
        m.setattr(discrimination, "_build_levels", no_build)
        assert helstrom_error(a, b, 4) == small
        assert helstrom_error(a, b, 5) == expect
    helstrom_error(q, r, 6)
    sizes = {key: discrimination._nbytes(levels) for key, levels in discrimination._LEVELS.items()}
    assert list(sizes) == [4, 2]
    assert sum(sizes.values()) <= discrimination._BASIS_CACHE_BYTES
    # a call moves its levels to the most recently used end
    helstrom_error(a, b, 3)
    assert list(discrimination._LEVELS) == [2, 4]
    # new levels that do not fit beside the others drop the least recently used
    monkeypatch.setattr(discrimination, "_BASIS_CACHE_BYTES", sum(sizes.values()) - 1)
    helstrom_error(t, u, 2)
    assert list(discrimination._LEVELS) == [4, 3]
    # levels above the budget on their own serve their call uncached and leave the rest
    alone = discrimination._nbytes(discrimination._build_levels(3, 4))
    monkeypatch.setattr(discrimination, "_BASIS_CACHE_BYTES", alone - 1)
    deep = helstrom_error(t, u, 4)
    assert list(discrimination._LEVELS) == [4, 3]
    assert len(discrimination._LEVELS[3]) == 2
    discrimination._LEVELS.clear()
    monkeypatch.undo()
    assert helstrom_error(a, b, 5) == expect
    assert helstrom_error(t, u, 4) == deep


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
    for _ in range(10):
        a = random_density([2, 2], 4, rng)
        b = random_density([2, 2], 3, rng)
        log1, log2, w = _overlap_data(a, b)
        s = np.linspace(0, 1, 101)
        g = np.array([float(np.exp(si * log1) @ w @ np.exp((1 - si) * log2)) for si in s])
        second = np.diff(g, 2)
        assert np.min(second) > -1e-9


def test_support_is_the_nonzero_spectrum_of_eig(monkeypatch):
    # 5e-14 lies below the 1e-13 floor of DensityMatrix.eig, 5e-13 above it
    w = np.array([0.0, 5e-14, 5e-13, 0.2, 0.3, 0.5 - 5.5e-13])
    u = haar_unitary(6, np.random.default_rng(12))
    rho = DensityMatrix((2, 3), hermitian_part((u * w) @ u.conj().T))
    eigenvalues = rho.eig.eigenvalues
    log_support = np.log(eigenvalues[eigenvalues != 0.0])
    assert log_support.size == 4
    log1, log2, _ = _overlap_data(rho, rho)
    np.testing.assert_array_equal(log1, log_support)
    np.testing.assert_array_equal(log2, log_support)

    seen = []
    inner = discrimination._s_overlap_minimum

    def spy(log1, log2, w):
        seen.append((log1, log2))
        return inner(log1, log2, w)

    monkeypatch.setattr(discrimination, "_s_overlap_minimum", spy)
    ds_general(rho, [-0.5, 0.5], OptimizerConfig(restarts=1))
    assert seen
    for log1, log2 in seen:
        np.testing.assert_array_equal(log1, log_support)
        np.testing.assert_array_equal(log2, log_support)


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
    # every finite half-width > 0 has a closed form, past pi/2 as well
    bell = make_bell()
    assert abs(ds_qubit_qudit(bell, 2.0).value - ds_general(bell, [-2.0, 2.0]).value) <= 1e-10
    for lam in (0.0, -0.5, math.nan, math.inf, -math.inf):
        with pytest.raises(OutOfRange):
            ds_qubit_qudit(bell, lam)


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
