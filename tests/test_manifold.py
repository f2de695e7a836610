import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import brent_overlap_minimum, random_hermitian

import metrocorr
from metrocorr import discrimination, fisher, manifold, uncertainty
from metrocorr.discrimination import _overlap_data, _s_overlap_minimum
from metrocorr.errors import ConvergenceFailure, OutOfRange
from metrocorr.fisher import qfi
from metrocorr.linalg import apply_local, embed, haar_unitary, random_density
from metrocorr.manifold import OptimizerConfig, minimize_over_unitaries
from metrocorr.states import make_bell, make_werner, random_cq
from metrocorr.uncertainty import skew_information

LAMBDAS = {"pi/4": np.pi / 4, "pi/2": np.pi / 2}
COSTS = ["lqu-A", "lqu-B", "ip", "ds-pi/4", "ds-pi/2"]
SPECTRA = {2: np.array([-1.0, 1.0]), 3: np.array([-1.0, 0.3, 1.0])}


def _capture_cost(monkeypatch, case, rho=None):
    """The batched cost closure that a *_general call hands to the optimizer."""
    captured = {}

    def grab(cost, d, config=None):
        captured["cost"], captured["d"] = cost, d
        return minimize_over_unitaries(cost, d, OptimizerConfig(restarts=1))

    for module in (uncertainty, fisher, discrimination):
        monkeypatch.setattr(module, "minimize_over_unitaries", grab)
    if rho is None:
        rho = random_density((3, 2), 6, np.random.default_rng(21))
    spectrum = SPECTRA[rho.dims[0]]
    if case == "lqu-A":
        uncertainty.lqu_general(rho, spectrum)
    elif case == "lqu-B":
        uncertainty.lqu_general(rho, SPECTRA[rho.dims[1]], side="B")
    elif case == "ip":
        fisher.ip_general(rho, spectrum)
    else:
        discrimination.ds_general(rho, spectrum * LAMBDAS[case.split("-")[1]])
    return captured["cost"], captured["d"]


@pytest.mark.parametrize("case", COSTS)
def test_cost_gradient_matches_finite_difference(monkeypatch, case):
    cost, d = _capture_cost(monkeypatch, case)
    rng = np.random.default_rng(22)
    u = np.stack([haar_unitary(d, rng) for _ in range(4)])
    # a random skew-Hermitian direction Omega = i X; U(t) = exp(t Omega) U
    w, v = np.linalg.eigh(random_hermitian(d, rng))

    def moved(t):
        return (v * np.exp(1j * t * w)) @ v.conj().T @ u

    values, grad = cost(u)
    assert values.shape == (4,) and grad.shape == (4, d, d)
    analytic = np.real(np.sum(grad.conj() * (1j * (v * w) @ v.conj().T @ u), axis=(1, 2)))
    h = 1e-5
    numeric = (cost(moved(h))[0] - cost(moved(-h))[0]) / (2.0 * h)
    np.testing.assert_allclose(analytic, numeric, rtol=0.0, atol=1e-6)


def _shared_form_states():
    rng = np.random.default_rng(23)
    for dims in [(2, 3), (3, 2), (3, 3)]:
        side = dims[0] * dims[1]
        for label, rho in [
            ("full-rank", random_density(dims, side, rng)),
            ("rank-2", random_density(dims, 2, rng)),
            ("cq", random_cq(dims, rng)),
            ("pure", random_density(dims, 1, rng)),
        ]:
            yield pytest.param(rho, id=f"{label}-{dims[0]}x{dims[1]}")


@pytest.mark.parametrize("rho", list(_shared_form_states()))
@pytest.mark.parametrize("case", ["lqu-A", "lqu-B", "ip"])
def test_pair_form_cost_matches_skew_information_and_qfi(monkeypatch, case, rho):
    # LQU and IP share one pair-weighted cost; its values must be the skew
    # information and F/4 of K = U diag(lambda) U^dag on the measured side
    cost, d = _capture_cost(monkeypatch, case, rho)
    site = 1 if case == "lqu-B" else 0
    lam = SPECTRA[d]
    rng = np.random.default_rng(24)
    u = np.stack([haar_unitary(d, rng) for _ in range(3)])
    values, _ = cost(u)
    for value, basis in zip(values, u):
        k_full = embed((basis * lam) @ basis.conj().T, rho.dims, site)
        expect = qfi(rho, k_full) / 4.0 if case == "ip" else skew_information(rho, k_full)
        assert abs(value - expect) < 1e-12


def test_tied_restarts_return_the_lowest_index():
    # restarts 1 and 3 tie at the minimum; the first of them is the certificate,
    # also when rounding puts the later one 1e-15 below
    for nudge in (0.0, -1e-15):
        levels = np.array([0.5, 0.2, 0.7, 0.2 + nudge])

        def cost(u):
            return levels[: len(u)].copy(), np.zeros_like(u)

        config = OptimizerConfig(restarts=4, seed=3)
        best, u, used, converged, values = minimize_over_unitaries(cost, 2, config)
        rng = np.random.default_rng(3)
        starts = [haar_unitary(2, rng) for _ in range(4)]
        assert best == 0.2 and used == 4
        np.testing.assert_array_equal(u, starts[1])


@pytest.mark.parametrize("restarts", [0, -2, 2.5, "3", True, None])
def test_bad_restart_count_raises_out_of_range(restarts):
    def cost(u):
        return np.zeros(len(u)), np.zeros_like(u)

    with pytest.raises(OutOfRange):
        minimize_over_unitaries(cost, 2, OptimizerConfig(restarts=restarts))


@pytest.mark.parametrize("case", ["lqu-A", "ip", "ds-pi/2"])
def test_single_restart_returns_unitary(monkeypatch, case):
    cost, d = _capture_cost(monkeypatch, case)
    best, u, used, converged, values = minimize_over_unitaries(cost, d, OptimizerConfig(restarts=1))
    assert used == 1 and not converged
    assert values.shape == (1,) and values[0] == best
    assert np.max(np.abs(u.conj().T @ u - np.eye(d))) < 1e-12
    assert abs(cost(u[None])[0][0] - best) < 1e-12


def test_restarts_start_from_haar_sequence():
    # a cost with zero gradient leaves every restart at its Haar start
    starts = []

    def flat(u):
        starts.extend(u.copy())
        return np.zeros(len(u)), np.zeros_like(u)

    config = OptimizerConfig(restarts=4, seed=9)
    best, u, used, converged, values = minimize_over_unitaries(flat, 3, config)
    rng = np.random.default_rng(9)
    expect = [haar_unitary(3, rng) for _ in range(4)]
    assert len(starts) == 4 and converged and used == 4 and best == 0.0
    for got, want in zip(starts, expect):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(u, expect[0])


def _two_landscape_cost(level, log):
    """A batched cost on U(2) in x = |U_00|^2.  The restart whose det U is that
    of Haar start 0 sees level + (1 - x)^4, a quartic well it descends slowly;
    every other restart sees (x - 0.3)^2, a quadratic well that settles at 0
    in a few steps.  The gradient's Omega is traceless, so det U, and with it
    each restart's landscape, never changes.  ``log`` gets, per evaluation,
    the batch's mask of that restart and the values."""
    start = haar_unitary(2, np.random.default_rng(0))
    phase = np.angle(np.linalg.det(start))

    def cost(u):
        x = np.abs(u[:, 0, 0]) ** 2
        slow = np.abs(np.angle(np.linalg.det(u)) - phase) < 1e-9
        values = np.where(slow, level + (1.0 - x) ** 4, (x - 0.3) ** 2)
        slope = np.where(slow, -4.0 * (1.0 - x) ** 3, 2.0 * (x - 0.3))
        grad = np.zeros_like(u)
        grad[:, 0, 0] = 2.0 * slope * u[:, 0, 0]
        log.append((slow, values))
        return values, grad

    return cost


def test_exit_waits_for_an_active_restart_below_the_settled_value():
    log = []
    cost = _two_landscape_cost(-1.0, log)
    best, u, used, converged, values = minimize_over_unitaries(cost, 2, OptimizerConfig(restarts=6, seed=0))
    # the slow restart's well, not the quorum's shallow one at 0
    assert abs(best + 1.0) < 1e-9 and values[0] == best
    assert np.all(values[1:] >= 0.0) and np.sum(values[1:] < 1e-9) >= 3
    # once all five shallow restarts had stopped, the slow one ran on alone,
    # below the settled value, until its own stopping test ended the batch
    alone = [vals for slow, vals in log if slow.tolist() == [True]]
    assert len(alone) >= 5 and all(vals[0] < 0.0 for vals in alone)
    assert log[-1][0].tolist() == [True]


def test_exit_leaves_an_active_restart_above_the_settled_value():
    below, above = [], []
    minimize_over_unitaries(_two_landscape_cost(-1.0, below), 2, OptimizerConfig(restarts=6, seed=0))
    best, u, used, converged, values = minimize_over_unitaries(
        _two_landscape_cost(1.0, above), 2, OptimizerConfig(restarts=6, seed=0)
    )
    assert 0.0 <= best < 1e-9 and converged
    # the slow restart was still descending when the quorum settled the batch
    assert above[-1][0].any() and values[0] > 1.0 + 1e-9
    assert len(above) < len(below)


def test_fewer_restarts_than_the_quorum_run_to_the_end():
    log = []
    config = OptimizerConfig(restarts=manifold.QUORUM - 1, seed=0)
    best, u, used, converged, values = minimize_over_unitaries(_two_landscape_cost(1.0, log), 2, config)
    assert not converged and abs(values[0] - 1.0) < 1e-9
    assert log[-1][0].tolist() == [True]


@pytest.mark.parametrize("state", [make_werner(0.7), make_bell()], ids=["werner-0.7", "bell"])
@pytest.mark.parametrize("name", ["lqu", "ip", "ds"])
def test_flat_costs_stop_at_once(monkeypatch, state, name):
    # these states are invariant under U x U*, so every qubit observable is
    # optimal: the first stopped restarts settle the batch
    calls = []
    evaluate = manifold._evaluate

    def counting(cost, u):
        calls.append(len(u))
        return evaluate(cost, u)

    monkeypatch.setattr(manifold, "_evaluate", counting)
    search = {"lqu": uncertainty.lqu_general, "ip": fisher.ip_general, "ds": discrimination.ds_general}
    res = search[name](state, np.array([-1.0, 1.0]) * (np.pi / 4 if name == "ds" else 1.0))
    assert res.converged and 1 <= len(calls) <= 3


@pytest.mark.parametrize(
    "bad_value, bad_gradient",
    [(np.nan, 0.0), (np.inf, 0.0), (-np.inf, 0.0), (0.0, np.nan)],
)
def test_non_finite_cost_raises_convergence_failure(bad_value, bad_gradient):
    def cost(u):
        values = np.real(u[:, 0, 0])
        values[-1] += bad_value
        grad = np.ones_like(u)
        grad[-1, 0, 0] += bad_gradient
        return values, grad

    with pytest.raises(ConvergenceFailure):
        minimize_over_unitaries(cost, 2, OptimizerConfig(restarts=3))


# ---------------------------------------------------------------------------
# Chernoff s-search


def _assert_matches_brent(log1, log2, w, interior_s=True):
    s, value = _s_overlap_minimum(log1, log2, w[None])
    s, value = s[0], value[0]
    s_ref, value_ref = brent_overlap_minimum(log1, log2, w)
    assert 0.0 <= s <= 1.0
    assert abs(value - value_ref) < 1e-12
    assert value <= value_ref + 1e-15
    g_at_s = float(np.exp(s * log1) @ w @ np.exp((1.0 - s) * log2))
    assert abs(g_at_s - value) < 1e-14
    if interior_s:
        assert abs(s - s_ref) < 1e-6
    return s


def test_s_search_matches_brent_on_random_pairs():
    rng = np.random.default_rng(24)
    for _ in range(40):
        dims = (2, int(rng.integers(2, 4)))
        a = random_density(dims, int(rng.integers(2, 2 * dims[1] + 1)), rng)
        b = random_density(dims, int(rng.integers(2, 2 * dims[1] + 1)), rng)
        log1, log2, w = _overlap_data(a, b)
        _assert_matches_brent(log1, log2, w)


def test_s_search_pure_first_state():
    rng = np.random.default_rng(25)
    for _ in range(10):
        psi = random_density((2, 2), 1, rng)
        rho = random_density((2, 2), int(rng.integers(1, 5)), rng)
        log1, log2, w = _overlap_data(psi, rho)
        # g(s) = sum_j b_j^(1-s) |<psi|j>|^2 does not decrease in s: its
        # minimum is <psi|rho|psi>, at s = 0 (anywhere when rho is pure too)
        s, value = _s_overlap_minimum(log1, log2, w[None])
        s, value = s[0], value[0]
        vec = psi.eig.eigenvectors[:, -1]
        assert abs(value - float(np.real(vec.conj() @ rho.mat @ vec))) < 1e-12
        _assert_matches_brent(log1, log2, w, interior_s=False)


def test_s_search_flat_overlap_of_commuting_states():
    rng = np.random.default_rng(26)
    p = rng.dirichlet(np.ones(3))
    logp = np.log(p)
    # identical diagonal states: g(s) = sum_i p_i^s p_i^(1-s) = 1 for every s
    s, value = _s_overlap_minimum(logp, logp, np.eye(3)[None])
    s, value = s[0], value[0]
    assert abs(value - 1.0) < 1e-12
    _assert_matches_brent(logp, logp, np.eye(3), interior_s=False)


def test_s_search_minimum_at_endpoints():
    p = np.array([0.7, 0.3])
    # a pure state inside a mixed support: g(s) = 0.7^(1-s), minimal at s = 0
    s, value = _s_overlap_minimum(np.array([0.0]), np.log(p), np.array([[1.0, 0.0]])[None])
    s, value = s[0], value[0]
    assert s == 0.0 and abs(value - 0.7) < 1e-15
    _assert_matches_brent(np.array([0.0]), np.log(p), np.array([[1.0, 0.0]]), interior_s=False)
    # the mirrored pair: g(s) = 0.7^s, minimal at s = 1
    s, value = _s_overlap_minimum(np.log(p), np.array([0.0]), np.array([[1.0], [0.0]])[None])
    s, value = s[0], value[0]
    assert s == 1.0 and abs(value - 0.7) < 1e-15
    _assert_matches_brent(np.log(p), np.array([0.0]), np.array([[1.0], [0.0]]), interior_s=False)


def _rotated_copy_rows(seed, rows=16):
    """Support logs of a full-rank (3,3) state and the overlaps |X_kl|^2 of its
    eigenvectors with those of its local rotations (R x 1) rho (R x 1)^dag,
    R = U exp(i pi/4 diag(-1, 0, 1)) U^dag for Haar U: one row per rotation,
    each with its minimum near s = 1/2."""
    rng = np.random.default_rng(seed)
    e = random_density((3, 3), 9, rng).eig
    v = e.eigenvectors
    u = np.stack([haar_unitary(3, rng) for _ in range(rows)])
    rot = (u * np.exp(0.25j * np.pi * np.array([-1.0, 0.0, 1.0]))) @ u.conj().swapaxes(1, 2)
    return np.log(e.eigenvalues), np.abs(v.conj().T @ apply_local(rot, v)) ** 2


def test_s_search_matches_brent_on_rotated_copies():
    for seed in (27, 28):
        logw, w = _rotated_copy_rows(seed)
        for row in w:
            s = _assert_matches_brent(logw, logw, row)
            assert 0.4 < s < 0.6


def test_s_search_stack_matches_single_rows():
    logw, rotated = _rotated_copy_rows(29, rows=4)
    # one overlap entry (i, j) gives g(s) = w_i^s w_j^(1-s): increasing when
    # w_i > w_j (minimum at s = 0), decreasing when w_i < w_j (at s = 1)
    single = np.zeros((2, 9, 9))
    single[0, 8, 0] = single[1, 0, 8] = 1.0
    stack = np.concatenate([rotated[:2], single, np.eye(9)[None], rotated[2:]])
    s, q = _s_overlap_minimum(logw, logw, stack)
    assert s.shape == q.shape == (len(stack),)
    assert s[2] == 0.0 and s[3] == 1.0 and s[4] == 0.0
    assert np.all((0.0 < s[[0, 1, 5, 6]]) & (s[[0, 1, 5, 6]] < 1.0))
    for r, row in enumerate(stack):
        s_one, q_one = _s_overlap_minimum(logw, logw, row[None])
        assert abs(s[r] - s_one[0]) <= 1e-15
        assert abs(q[r] - q_one[0]) <= 1e-15


def test_s_search_stops_on_a_converged_newton_step(monkeypatch):
    # a Newton step that lands on the root to rounding must end the search,
    # not fall through to bisection down to S_TOL
    calls = []
    slopes = discrimination._slopes

    def spy(s, d, coef):
        calls.append(s)
        return slopes(s, d, coef)

    monkeypatch.setattr(discrimination, "_slopes", spy)
    for seed in (30, 31):
        logw, w = _rotated_copy_rows(seed)
        for row in w:
            calls.clear()
            s, _ = _s_overlap_minimum(logw, logw, row[None])
            assert 0.0 < s[0] < 1.0
            assert 1 <= len(calls) <= 8


# ---------------------------------------------------------------------------
# packaging


def test_cli_import_does_not_load_scipy():
    src = Path(metrocorr.__file__).resolve().parents[1]
    code = "import sys, metrocorr.cli; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"
