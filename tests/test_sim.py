import json
import tracemalloc

import numpy as np
import pytest
from helpers import dense_grid_mle

from metrocorr import discrimination, fisher, sim, uncertainty

from metrocorr.discrimination import ds_qubit_qudit
from metrocorr.errors import DegenerateGrid, OutOfRange, TooManyCopies, ZeroInformation
from metrocorr.fisher import ip_general
from metrocorr.linalg import Observable, embed, haar_unitary, linear_spectrum, random_density
from metrocorr.manifold import OptimizerConfig
from metrocorr.sim import (
    EstimationConfig,
    run_discrimination,
    run_phase_estimation,
    sweep_states,
)
from metrocorr.states import load_state, make_bell, make_cq, make_werner, random_cq, save_state
from metrocorr.uncertainty import skew_information


SZ = Observable.pauli([0, 0, 1.0])


def bell_config(**kw):
    base = dict(
        state=make_bell(), generator=SZ, theta0=0.3, n_per_trial=2000, trials=100, seed=0
    )
    base.update(kw)
    return EstimationConfig(**base)


# ---------------------------------------------------------------------------
# phase estimation


def test_phase_estimation_near_cramer_rao():
    rec = run_phase_estimation(bell_config())
    s = rec.summary
    assert abs(s["fisher_information"] - 4.0) < 1e-9
    assert s["bound"] == pytest.approx(1.0 / (4 * 2000))
    slack = 1.0 - 3.0 / np.sqrt(100)
    assert s["variance"] >= s["bound"] * slack
    assert s["variance"] <= 1.4 * s["bound"]
    assert abs(s["bias"]) < 5 * np.sqrt(s["bound"] / 100)


def test_phase_estimation_zero_information_for_cq():
    # CQ state with the generator diagonal in its classical basis
    sig0 = np.diag([1.0, 0.0]).astype(complex)
    sig1 = np.diag([0.3, 0.7]).astype(complex)
    cq = make_cq([0.4, 0.6], np.eye(2), [sig0, sig1])
    cfg = EstimationConfig(state=cq, generator=SZ, theta0=0.1, n_per_trial=100, trials=10)
    with pytest.raises(ZeroInformation):
        run_phase_estimation(cfg)


def test_phase_estimation_worst_case_uses_ip_certificate():
    rec = run_phase_estimation(bell_config(generator=None, worst_case=True, trials=20))
    s = rec.summary
    assert abs(s["interferometric_power"] - 1.0) < 1e-9
    assert s["bound"] == pytest.approx(1.0 / (2000 * 4.0))
    assert abs(s["fisher_information"] - 4.0 * s["interferometric_power"]) < 1e-9


def test_phase_estimation_records_the_path_taken():
    # without a generator the IP worst case runs even if worst_case is unset
    rec = run_phase_estimation(bell_config(generator=None, trials=20))
    assert rec.config["worst_case"] is True
    assert abs(rec.summary["interferometric_power"] - 1.0) < 1e-9
    rec = run_phase_estimation(bell_config(trials=20))
    assert rec.config["worst_case"] is False
    assert "interferometric_power" not in rec.summary


def test_worst_case_record_on_a_degenerate_optimum_is_the_sigma_z_record(tmp_path):
    # every direction is IP-optimal on Werner 0.6; the certificate is sigma_z
    # whether the state is built here or loaded from a file, so the worst-case
    # record is the one a fixed sigma_z generator gives on the same state
    werner = make_werner(0.6)
    save_state(werner, tmp_path / "w.json")
    kw = dict(theta0=0.25, n_per_trial=300, trials=40, seed=11)
    for state in (werner, load_state(tmp_path / "w.json")):
        worst = run_phase_estimation(EstimationConfig(state=state, worst_case=True, **kw))
        fixed = run_phase_estimation(EstimationConfig(state=state, generator=SZ, **kw))
        np.testing.assert_array_equal(worst.columns["estimate"], fixed.columns["estimate"])
        assert worst.summary["fisher_information"] == fixed.summary["fisher_information"]


def test_phase_estimation_worst_case_qutrit_probe_uses_ip_general():
    rho = random_density((3, 2), 3, np.random.default_rng(22))
    cfg = EstimationConfig(state=rho, worst_case=True, theta0=0.1, trials=10, seed=5)
    s = run_phase_estimation(cfg).summary
    expect = ip_general(rho, linear_spectrum(3), OptimizerConfig(seed=5))
    assert s["interferometric_power"] == expect.value


def test_phase_estimation_grid_validation():
    with pytest.raises(DegenerateGrid):
        run_phase_estimation(bell_config(theta_grid=(0.4, 0.5, 100)))
    with pytest.raises(DegenerateGrid):
        run_phase_estimation(bell_config(theta_grid=(0.0, 1.0, 1)))
    with pytest.raises(OutOfRange):
        run_phase_estimation(bell_config(trials=0))


def test_phase_estimation_deterministic_record():
    a = run_phase_estimation(bell_config(trials=25)).to_json()
    b = run_phase_estimation(bell_config(trials=25)).to_json()
    assert a == b
    c = run_phase_estimation(bell_config(trials=25, seed=1)).to_json()
    assert a != c


def test_phase_estimation_estimates_in_grid():
    rec = run_phase_estimation(bell_config(trials=50))
    lo, hi, _ = rec.config["grid"]
    est = np.asarray(rec.columns["estimate"])
    assert np.all(est >= lo) and np.all(est <= hi)
    payload = json.loads(rec.to_json())
    assert payload["summary"]["variance"] == rec.summary["variance"]


@pytest.mark.parametrize(
    "change",
    [
        {"trials": 2.5},
        {"trials": "3"},
        {"trials": True},
        {"n_per_trial": 2.5},
        {"n_per_trial": 10**19},
        {"theta_grid": (0.0, 1.0, 2.7)},
    ],
    ids=["trials-float", "trials-str", "trials-bool", "n-float", "n-above-int64", "points-float"],
)
def test_phase_estimation_rejects_non_integer_or_oversized_counts(change):
    with pytest.raises(OutOfRange):
        run_phase_estimation(bell_config(**change))


@pytest.mark.parametrize(
    "grid", [(-np.inf, 1.0, 5), (0.0, np.inf, 5), (np.nan, 1.0, 5)], ids=["-inf", "inf", "nan"]
)
def test_phase_estimation_rejects_non_finite_grid_ends(grid):
    with pytest.raises(DegenerateGrid):
        run_phase_estimation(bell_config(theta_grid=grid))


def test_phase_estimation_echoes_plain_integers():
    rec = run_phase_estimation(bell_config(trials=np.int64(5), n_per_trial=np.int32(7)))
    config = json.loads(rec.to_json())["config"]
    assert config["trials"] == 5 and type(config["trials"]) is int
    assert config["n_per_trial"] == 7 and type(config["n_per_trial"]) is int


def _block_rows(points):
    return max(4, sim._MLE_BLOCK_BYTES // (8 * points))


def _exact_mle_inputs(trials, points, k, rng):
    """Counts and log-probabilities whose products and sums are exact in
    floating point, so every evaluation order gives the same log-likelihood
    and ties are exact: small integer counts, log-probabilities in eighths."""
    counts = rng.integers(0, 4, size=(trials, k))
    log_p = -rng.integers(0, 6, size=(points, k)) / 8.0
    mid = (points - 1) // 2
    for j in range(1, min(mid, 6)):  # duplicated columns at mid - j and mid + j
        log_p[points - 1 - mid + j] = log_p[mid - j]
    log_p[rng.random(points) < 0.1, 0] = -1e12
    counts[::5] = 0  # constant rows: every grid point ties
    return counts, log_p


@pytest.mark.parametrize("points", [2, 3, 10, 11, 2000, 2001])
def test_grid_mle_matches_the_dense_tie_break(points):
    rng = np.random.default_rng(points)
    rows = _block_rows(points)
    for trials in (1, rows - 1, rows, rows + 1, 3 * rows + 2):
        counts, log_p = _exact_mle_inputs(trials, points, 4, rng)
        np.testing.assert_array_equal(sim._grid_mle(counts, log_p), dense_grid_mle(counts, log_p))


def test_grid_mle_ties_go_to_the_midpoint_then_the_lower_index():
    log_p = np.zeros((5, 2))
    counts = np.ones((1, 2), dtype=np.int64)
    assert sim._grid_mle(counts, log_p)[0] == 2  # a constant likelihood picks the midpoint
    log_p[2] = -1.0
    assert sim._grid_mle(counts, log_p)[0] == 1  # mid - 1 and mid + 1 tie: the lower index
    log_p = np.zeros((4, 2))
    assert sim._grid_mle(counts, log_p)[0] == 1  # even points: indices 1 and 2 tie at distance 1/2
    log_p[:, 0] = [-1e12, -1e12, -1e12, -3.0]
    assert sim._grid_mle(counts, log_p)[0] == 3


def test_grid_mle_matches_the_dense_oracle_on_sampled_counts():
    rng = np.random.default_rng(7)
    points = 2001
    p = rng.dirichlet(np.ones(6), size=points)
    counts = rng.multinomial(500, p[points // 2], size=2 * _block_rows(points) + 3)
    log_p = np.log(p)
    np.testing.assert_array_equal(sim._grid_mle(counts, log_p), dense_grid_mle(counts, log_p))


def test_phase_estimation_memory_does_not_grow_with_trials_times_grid():
    rho = random_density((2, 3), 6, np.random.default_rng(5))
    cfg = EstimationConfig(state=rho, generator=Observable.pauli([1.0, 0.0, 0.0]), theta0=0.5,
                           n_per_trial=500, trials=2000, seed=3)
    run_phase_estimation(cfg)  # first-call set-up is not the estimate's memory
    tracemalloc.start()
    try:
        rec = run_phase_estimation(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rec.config["grid"][2] == 2001
    # the dense log-likelihood alone would be 2000 x 2001 x 8 bytes = 32 MB
    assert peak < 4 * 2**20, peak


# ---------------------------------------------------------------------------
# discrimination runner


def test_discrimination_identical_states_flat():
    rng = np.random.default_rng(0)
    cq = random_cq((2, 2), rng)
    # rotation generated in the CQ basis leaves the state unchanged
    res = run_discrimination(cq, [-0.5, 0.5], generator="worst-case", n_max=3)
    assert res.summary["exponent"] <= 1e-7
    assert all(abs(e - 0.5) < 1e-7 for e in res.columns["error"])
    assert abs(res.summary["exponent_estimate"]) < 1e-6


def test_discrimination_bell_quarter_pi():
    obs = Observable(np.array([-np.pi / 4, np.pi / 4]), SZ.basis_unitary)
    rec = run_discrimination(make_bell(), obs.spectrum, generator=obs, n_max=5)
    rates = rec.columns["rate"]
    assert all(rates[i] >= rates[i + 1] - 1e-12 for i in range(4))
    assert abs(rec.summary["exponent"] - np.log(2.0)) < 1e-9
    assert abs(rec.summary["gap_at_n_max"]) < 0.05
    q = rec.summary["q_value"]
    for n, err in zip(rec.columns["n"], rec.columns["error"]):
        assert err <= 0.5 * q**n + 1e-9


def test_discrimination_worst_case_matches_ds():
    from metrocorr.linalg import random_density

    rng = np.random.default_rng(5)
    rho = random_density([2, 2], 4, rng)
    rec = run_discrimination(rho, [-0.6, 0.6], generator="worst-case", n_max=2)
    ds = rec.summary["discriminating_strength"]
    assert abs(ds - rec.summary["one_minus_q"]) < 1e-6
    closed = ds_qubit_qudit(rho, 0.6).value
    assert abs(ds - closed) < 1e-6


def test_discrimination_worst_case_takes_the_qubit_closed_form(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("optimizer ran on a qubit probe")

    monkeypatch.setattr(discrimination, "minimize_over_unitaries", no_search)
    rho = random_density([2, 2], 4, np.random.default_rng(5))
    rec = run_discrimination(rho, [-0.6, 0.6], generator="worst-case", n_max=2)
    assert rec.summary["discriminating_strength"] == ds_qubit_qudit(rho, 0.6).value


def test_discrimination_copy_guard():
    with pytest.raises(TooManyCopies):
        run_discrimination(make_bell(), [-0.5, 0.5], generator="worst-case", n_max=10)


def test_discrimination_default_copies_fit_the_guard():
    # largest n <= 5 with side^n <= 4096: 4^5 = 1024 and 9^3 = 729 < 4096 < 9^4
    obs = Observable(np.array([-0.5, 0.5]), SZ.basis_unitary)
    assert run_discrimination(make_bell(), obs.spectrum, generator=obs).config["n_max"] == 5
    rho = random_density((3, 3), 9, np.random.default_rng(8))
    gen = Observable(linear_spectrum(3), np.eye(3))
    rec = run_discrimination(rho, gen.spectrum, generator=gen)
    assert rec.config["n_max"] == 3
    assert rec.columns["n"] == [1, 2, 3]


def test_discrimination_rejects_zero_copies():
    obs = Observable(np.array([-0.5, 0.5]), SZ.basis_unitary)
    with pytest.raises(OutOfRange):
        run_discrimination(make_bell(), obs.spectrum, generator=obs, n_max=0)


@pytest.mark.parametrize("n_max", [2.0, True, "3"])
def test_discrimination_rejects_non_integer_copies(n_max):
    obs = Observable(np.array([-0.5, 0.5]), SZ.basis_unitary)
    with pytest.raises(OutOfRange):
        run_discrimination(make_bell(), obs.spectrum, generator=obs, n_max=n_max)


def test_discrimination_huge_copy_count_hits_the_guard():
    obs = Observable(np.array([-0.5, 0.5]), SZ.basis_unitary)
    with pytest.raises(TooManyCopies):
        run_discrimination(make_bell(), obs.spectrum, generator=obs, n_max=10**8)


def test_discrimination_numpy_copy_count_gives_a_plain_record():
    obs = Observable(np.array([-0.5, 0.5]), SZ.basis_unitary)
    rec = run_discrimination(make_bell(), obs.spectrum, generator=obs, n_max=np.int64(3))
    plain = run_discrimination(make_bell(), obs.spectrum, generator=obs, n_max=3)
    assert type(rec.config["n_max"]) is int
    assert rec.to_json() == plain.to_json()


def _expected_decrements(errors):
    prev = [0.5] + errors[:-1]
    return [
        np.inf if p == 0 else -np.inf if q == 0 else -np.log(p / q)
        for p, q in zip(errors, prev)
    ]


def test_discrimination_orthogonal_pair_writes_infinite_decrements():
    # Bell against a copy rotated by pi/2 about a Haar axis (draw 38 of one
    # default_rng(0) stream) is orthogonal: the errors are rounding noise, and
    # a zero P(n - 1) below a nonzero P(n) once raised ZeroDivisionError
    rng = np.random.default_rng(0)
    basis = [haar_unitary(2, rng) for _ in range(39)][38]
    obs = Observable([-np.pi / 2, np.pi / 2], basis)
    rec = run_discrimination(make_bell(), obs.spectrum, generator=obs, n_max=5)
    errors = rec.columns["error"]
    assert all(0.0 <= e < 1e-15 for e in errors)
    assert rec.columns["decrement"] == _expected_decrements(errors)
    assert rec.to_tsv().count("\n") == 6


def test_discrimination_zero_error_before_a_nonzero_one(monkeypatch):
    monkeypatch.setattr(sim, "helstrom_errors", lambda rho1, rho2, n_max: [0.0, 1e-16, 0.0, 5e-17])
    rec = run_discrimination(make_bell(), SZ.spectrum, generator=SZ, n_max=4)
    assert rec.columns["decrement"] == [np.inf, -np.inf, np.inf, -np.inf]
    assert rec.summary["exponent_estimate"] == -np.inf
    assert "-inf" in rec.to_tsv() and "-Infinity" in rec.to_json()


def test_discrimination_record_roundtrip():
    obs = Observable(np.array([-0.5, 0.5]), SZ.basis_unitary)
    rec = run_discrimination(make_bell(), obs.spectrum, generator=obs, n_max=3)
    payload = json.loads(rec.to_json())
    assert payload["columns"]["n"] == [1, 2, 3]
    tsv = rec.to_tsv()
    assert tsv.startswith("# n\terror\trate\tdecrement")
    assert len(tsv.strip().split("\n")) == 4


# ---------------------------------------------------------------------------
# sweeps


def test_sweep_fig1_reproduces_closed_forms():
    grid = np.linspace(0, 1, 51)
    table = sweep_states("fig1", grid, ["variance", "skew", "classical"])
    assert table.columns == ["p", "variance", "skew", "classical"]
    np.testing.assert_allclose(table.column("variance"), 1.0, atol=1e-9)
    np.testing.assert_allclose(
        table.column("skew"), 1 - np.sqrt(1 - grid**2), atol=1e-9
    )
    assert np.all(np.diff(table.column("skew")) > 0)
    assert np.all(np.diff(table.column("classical")) < 0)


def test_sweep_werner_orders_measures():
    grid = np.linspace(0, 1, 11)
    table = sweep_states("werner", grid, ["lqu", "ip", "ds"])
    lqu, ip = table.column("lqu"), table.column("ip")
    assert np.all(lqu <= ip + 1e-8)
    ds = table.column("ds")
    assert np.all(ds >= -1e-12)


@pytest.mark.parametrize("spectrum", [(0.3, 2.0), (-0.5, 0.5)])
@pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
def test_correlation_takes_closed_form_for_any_two_point_spectrum(monkeypatch, dims, spectrum):
    rho = random_density(dims, 4, np.random.default_rng([dims[1], 7]))
    general = {m: sim.correlation(m, rho, spectrum, general=True) for m in sim.CORRELATIONS}

    def no_optimizer(*args, **kwargs):
        raise AssertionError("the optimizer ran on a qubit probe")

    for module in (uncertainty, fisher, discrimination):
        monkeypatch.setattr(module, "minimize_over_unitaries", no_optimizer)
    for name in sim.CORRELATIONS:
        res = sim.correlation(name, rho, spectrum)
        assert res.restarts_used == 0
        assert abs(res.value - general[name].value) <= 1e-10
        np.testing.assert_array_equal(res.certificate.spectrum, spectrum)
    # the certificate attains the LQU value
    lqu = sim.correlation("lqu", rho, spectrum)
    k = embed(lqu.certificate.matrix, rho.dims, 0)
    assert abs(skew_information(rho, k) - lqu.value) <= 1e-12


def test_sweep_empty_grid():
    table = sweep_states("werner", [], ["lqu"])
    assert table.rows.shape == (0, 2)
    assert table.to_tsv() == "# q\tlqu\n"


def test_sweep_unknown_measure():
    with pytest.raises(OutOfRange):
        sweep_states("fig1", [0.5], ["entropy"])
    with pytest.raises(OutOfRange):
        sweep_states("ghz", [0.5], ["lqu"])
