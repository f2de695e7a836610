import json

import numpy as np
import pytest

from metrocorr.discrimination import ds_qubit_qudit
from metrocorr.errors import DegenerateGrid, OutOfRange, TooManyCopies, ZeroInformation
from metrocorr.fisher import ip_general
from metrocorr.linalg import Observable, linear_spectrum, random_density
from metrocorr.manifold import OptimizerConfig
from metrocorr.sim import (
    EstimationConfig,
    run_discrimination,
    run_phase_estimation,
    sweep_states,
)
from metrocorr.states import make_bell, make_cq, random_cq


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


def test_discrimination_copy_guard():
    with pytest.raises(TooManyCopies):
        run_discrimination(make_bell(), [-0.5, 0.5], generator="worst-case", n_max=10)


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


def test_sweep_empty_grid():
    table = sweep_states("werner", [], ["lqu"])
    assert table.rows.shape == (0, 2)
    assert table.to_tsv() == "# q\tlqu\n"


def test_sweep_unknown_measure():
    with pytest.raises(OutOfRange):
        sweep_states("fig1", [0.5], ["entropy"])
    with pytest.raises(OutOfRange):
        sweep_states("ghz", [0.5], ["lqu"])
