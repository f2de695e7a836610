"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL
line with its runtime (run with ``pytest tests/test_acceptance.py -v -s``).
"""
import json
import time

import numpy as np

from helpers import (
    apply_channel,
    grid_minimum,
    qfi_quarter_on_directions,
    random_kraus_set,
    s_half_lemma_check,
    skew_on_directions,
    uhlmann_fidelity,
)

from metrocorr.cli import main as cli_main
from metrocorr.discrimination import chernoff, ds_general, ds_qubit_qudit
from metrocorr.fisher import ip_general, ip_qubit_qudit, qfi
from metrocorr.linalg import (
    DensityMatrix,
    Observable,
    embed,
    haar_unitary,
    hermitian_part,
    random_density,
    random_hermitian,
    tensor,
)
from metrocorr.sim import EstimationConfig, run_discrimination, run_phase_estimation, sweep_states
from metrocorr.states import make_bell, random_cq, save_state
from metrocorr.uncertainty import lqu_general, lqu_qubit_qudit, skew_information, variance

SZ = Observable.pauli([0.0, 0.0, 1.0])


def _report(criterion: int, ok: bool, detail: str, started: float, limit: float):
    elapsed = time.time() - started
    ok = ok and elapsed < limit
    line = (
        f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail} "
        f"[{elapsed:.1f}s / limit {limit:.0f}s]"
    )
    print(line)
    assert ok, line


def test_criterion_1_extremal_states():
    t0 = time.time()
    bell = make_bell()
    devs = [
        abs(lqu_qubit_qudit(bell).value - 1.0),
        abs(ip_qubit_qudit(bell).value - 1.0),
        abs(lqu_general(bell, [-1, 1]).value - 1.0),
        abs(ip_general(bell, [-1, 1]).value - 1.0),
    ]
    rng = np.random.default_rng(101)
    cq = random_cq((2, 2), rng)
    zeros = [
        lqu_qubit_qudit(cq).value,
        ip_qubit_qudit(cq).value,
        ds_qubit_qudit(cq, np.pi / 4).value,
        lqu_general(cq, [-1, 1]).value,
        ip_general(cq, [-1, 1]).value,
        ds_general(cq, [-np.pi / 4, np.pi / 4]).value,
    ]
    ok = max(devs) <= 1e-8 and max(zeros) <= 1e-7
    _report(
        1,
        ok,
        f"Bell dev {max(devs):.2e} (<=1e-8), CQ max {max(zeros):.2e} (<=1e-7)",
        t0,
        10.0,
    )


def test_criterion_2_uncertainty_split_curve():
    t0 = time.time()
    grid = np.linspace(0.0, 1.0, 101)
    table = sweep_states("fig1", grid, ["variance", "skew", "classical"])
    var_dev = np.max(np.abs(table.column("variance") - 1.0))
    skew_dev = np.max(np.abs(table.column("skew") - (1.0 - np.sqrt(1.0 - grid**2))))
    increasing = bool(np.all(np.diff(table.column("skew")) > 0))
    decreasing = bool(np.all(np.diff(table.column("classical")) < 0))
    ok = var_dev <= 1e-9 and skew_dev <= 1e-9 and increasing and decreasing
    _report(
        2,
        ok,
        f"variance dev {var_dev:.1e}, skew dev {skew_dev:.1e}, "
        f"monotone {increasing and decreasing}",
        t0,
        1.0,
    )


def test_criterion_3_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(303)
    worst_opt = 0.0
    worst_grid = 0.0
    for i in range(200):
        dims = (2, 2) if i < 100 else (2, 3)
        rho = random_density(dims, int(np.prod(dims)), rng)
        lqu_c = lqu_qubit_qudit(rho).value
        ip_c = ip_qubit_qudit(rho).value
        worst_opt = max(worst_opt, abs(lqu_general(rho, [-1, 1]).value - lqu_c))
        worst_opt = max(worst_opt, abs(ip_general(rho, [-1, 1]).value - ip_c))
        worst_grid = max(worst_grid, abs(grid_minimum(skew_on_directions, rho) - lqu_c))
        worst_grid = max(
            worst_grid, abs(grid_minimum(qfi_quarter_on_directions, rho) - ip_c)
        )
    ok = worst_opt <= 1e-6 and worst_grid <= 1e-4
    _report(
        3,
        ok,
        f"optimizer dev {worst_opt:.2e} (<=1e-6), grid dev {worst_grid:.2e} (<=1e-4), "
        f"200 states",
        t0,
        300.0,
    )


def test_criterion_4_inequality_chain():
    t0 = time.time()
    rng = np.random.default_rng(404)
    worst_lower = worst_upper = 0.0
    for _ in range(1000):
        rho = random_density([2, 2], int(rng.integers(1, 5)), rng)
        h = random_hermitian(4, rng)
        skew = skew_information(rho, h)
        quarter = 0.25 * qfi(rho, h)
        worst_lower = max(worst_lower, skew - quarter)
        worst_upper = max(worst_upper, quarter - 2 * skew)
    grid = np.linspace(0.0, 1.0, 21)
    table = sweep_states("werner", grid, ["lqu", "ip"])
    rowwise = bool(np.all(table.column("lqu") <= table.column("ip") + 1e-8))
    ok = worst_lower <= 1e-9 and worst_upper <= 1e-9 and rowwise
    _report(
        4,
        ok,
        f"chain slack {max(worst_lower, worst_upper):.2e} (<=1e-9) on 1000 pairs, "
        f"Werner LQU<=IP {rowwise}",
        t0,
        60.0,
    )


def test_criterion_5_bona_fide_properties():
    t0 = time.time()
    rng = np.random.default_rng(505)
    lam = np.pi / 4
    measures = {
        "lqu": lambda r: lqu_qubit_qudit(r).value,
        "ip": lambda r: ip_qubit_qudit(r).value,
        "ds": lambda r: ds_qubit_qudit(r, lam).value,
    }
    states = [
        random_density((2, 2) if i % 2 == 0 else (2, 3), 4 if i % 2 == 0 else 6, rng)
        for i in range(100)
    ]
    worst_drift = 0.0
    for rho in states:
        u = tensor(haar_unitary(2, rng), haar_unitary(rho.dims[1], rng))
        rotated = DensityMatrix(rho.dims, hermitian_part(u @ rho.mat @ u.conj().T))
        for fn in measures.values():
            worst_drift = max(worst_drift, abs(fn(rho) - fn(rotated)))
    worst_contract = -np.inf
    for i in range(50):
        rho = states[i]
        kraus = random_kraus_set(rho.dims[1], 2, rng)
        out = apply_channel(rho, kraus, site=1)
        for fn in measures.values():
            worst_contract = max(worst_contract, fn(out) - fn(rho))
    worst_mono = -np.inf
    for i in range(20):
        d_b = 2 if i % 2 == 0 else 3
        psi = random_density((2, d_b), 1, rng)
        kraus = random_kraus_set(2, 2, rng)
        for name, fn in measures.items():
            before = fn(psi)
            avg = 0.0
            for k in kraus:
                op = tensor(k, haar_unitary(d_b, rng)) if name == "ds" else embed(k, psi.dims, 0)
                unnorm = op @ psi.mat @ op.conj().T
                p = float(np.real(np.trace(unnorm)))
                if p < 1e-12:
                    continue
                branch = DensityMatrix(psi.dims, hermitian_part(unnorm / p))
                avg += p * fn(branch)
            worst_mono = max(worst_mono, avg - before)
    ok = worst_drift <= 1e-6 and worst_contract <= 1e-6 and worst_mono <= 1e-6
    _report(
        5,
        ok,
        f"LU drift {worst_drift:.2e}, contractivity violation {worst_contract:.2e}, "
        f"pure monotonicity violation {worst_mono:.2e} (all <=1e-6)",
        t0,
        600.0,
    )


def test_criterion_6_ds_relations():
    t0 = time.time()
    rng = np.random.default_rng(606)
    worst_closed = 0.0
    lams = (0.1, np.pi / 4, np.pi / 2)
    for i in range(50):
        rho = random_density([2, 2], int(rng.integers(2, 5)), rng)
        lam = lams[i % 3]
        closed = ds_qubit_qudit(rho, lam).value
        worst_closed = max(worst_closed, abs(ds_general(rho, [-lam, lam]).value - closed))
    lam_small = 1e-2
    worst_small = 0.0
    for _ in range(5):
        rho = random_density([2, 2], 4, rng)
        ds = ds_general(rho, [-lam_small, lam_small]).value
        lqu = lqu_general(rho, [-lam_small, lam_small]).value
        worst_small = max(worst_small, abs(ds - lqu))
    worst_lemma = 0.0
    for _ in range(200):
        d = int(rng.integers(2, 5))
        rho = random_density([d], int(rng.integers(1, d + 1)), rng)
        o = random_hermitian(d, rng)
        smin, shalf = s_half_lemma_check(rho, o)
        worst_lemma = max(worst_lemma, abs(smin - shalf))
    ok = (
        worst_closed <= 1e-6
        and worst_small <= 10 * lam_small**3
        and worst_lemma <= 1e-9
    )
    _report(
        6,
        ok,
        f"closed-form dev {worst_closed:.2e} (<=1e-6), small-spectrum dev "
        f"{worst_small:.2e} (<={10 * lam_small**3:.0e}), midpoint dev {worst_lemma:.2e}",
        t0,
        300.0,
    )


def test_criterion_7_chernoff_fidelity():
    t0 = time.time()
    rng = np.random.default_rng(707)
    worst_fid = 0.0
    worst_bound = -np.inf
    for i in range(100):
        dims = (2, 2) if i % 2 == 0 else (3,)
        d = int(np.prod(dims))
        pure = random_density(dims, 1, rng)
        other = random_density(dims, int(rng.integers(1, d + 1)), rng)
        pair = (other, pure) if i % 2 == 0 else (pure, other)
        res = chernoff(*pair)
        worst_fid = max(worst_fid, abs(res.q_value - uhlmann_fidelity(*pair)))
        root_overlap = float(np.real(np.trace(pair[0].sqrtm @ pair[1].sqrtm)))
        worst_bound = max(worst_bound, res.q_value - root_overlap)
    ok = worst_fid <= 1e-9 and worst_bound <= 1e-9
    _report(
        7,
        ok,
        f"|Q - fidelity| {worst_fid:.2e} (<=1e-9), Q - sqrt-overlap {worst_bound:.2e}",
        t0,
        30.0,
    )


def test_criterion_8_cramer_rao_simulation():
    t0 = time.time()
    bell = make_bell()
    cfg = EstimationConfig(
        state=bell, generator=SZ, theta0=0.3, n_per_trial=10_000, trials=200, seed=0
    )
    rec = run_phase_estimation(cfg)
    ratio = rec.summary["ratio"]
    floor = 1.0 - 3.0 / np.sqrt(200)
    window_ok = floor <= ratio <= 1.3
    ratios = []
    for n in (100, 1000, 10_000):
        cfg_n = EstimationConfig(
            state=bell, generator=SZ, theta0=0.3, n_per_trial=n, trials=2000, seed=0
        )
        ratios.append(run_phase_estimation(cfg_n).summary["ratio"])
    trend_ok = ratios[0] > ratios[1] > ratios[2]
    ok = window_ok and trend_ok
    _report(
        8,
        ok,
        f"ratio {ratio:.4f} in [{floor:.4f}, 1.3], trend "
        + " > ".join(f"{r:.4f}" for r in ratios),
        t0,
        300.0,
    )


def test_criterion_9_chernoff_decay():
    t0 = time.time()
    bell = make_bell()
    obs = Observable(np.array([-np.pi / 4, np.pi / 4]), SZ.basis_unitary)
    rec = run_discrimination(bell, obs.spectrum, generator=obs, n_max=5)
    rates = rec.columns["rate"]
    errors = rec.columns["error"]
    q = rec.summary["q_value"]
    xi = rec.summary["exponent"]
    nonincreasing = all(rates[i] >= rates[i + 1] - 1e-12 for i in range(4))
    achievable_side = all(r >= xi - 0.05 for r in rates)
    exponent_close = abs(rec.summary["exponent_estimate"] - xi) <= 0.05
    bound_ok = all(e <= 0.5 * q**n + 1e-9 for n, e in zip(rec.columns["n"], errors))
    ok = nonincreasing and achievable_side and exponent_close and bound_ok
    _report(
        9,
        ok,
        f"exponent estimate {rec.summary['exponent_estimate']:.4f} vs {xi:.4f} "
        f"(gap {rec.summary['gap_at_n_max']:.4f} <=0.05), rates nonincreasing "
        f"{nonincreasing}, error <= q^n/2 {bound_ok}",
        t0,
        60.0,
    )


def test_criterion_10_cli_determinism(tmp_path):
    t0 = time.time()
    bell_path = tmp_path / "bell.json"
    save_state(make_bell(), bell_path)
    identical = True
    runs = {}
    for tag in ("a", "b"):
        m_out = tmp_path / f"measure_{tag}.json"
        cli_main(
            ["measure", "--lqu", "--general", str(bell_path), "--seed", "3",
             "--json", str(m_out)]
        )
        s_out = tmp_path / f"sweep_{tag}.tsv"
        cli_main(
            ["sweep", "--family", "werner", "--grid", "0:1:11",
             "--measures", "lqu,ip,ds", "--out", str(s_out)]
        )
        r_out = tmp_path / f"sim_{tag}.json"
        cli_main(
            ["simulate", "estimation", "--state", str(bell_path), "--worst-case",
             "--theta0", "0.25", "--n", "300", "--trials", "40", "--seed", "11",
             "--out", str(r_out)]
        )
        runs[tag] = (m_out.read_bytes(), s_out.read_bytes(), r_out.read_bytes())
    identical = runs["a"] == runs["b"]
    parsed = json.loads(runs["a"][0])
    ok = identical and abs(parsed["value"] - 1.0) < 1e-8
    _report(10, ok, f"byte-identical artifacts {identical}", t0, 60.0)
