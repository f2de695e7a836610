import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from metrocorr import OptimizerConfig, ds_general, ip_general, load_state, lqu_general
from metrocorr.cli import main
from metrocorr.linalg import Observable, linear_spectrum, random_density
from metrocorr.states import make_bell, make_werner, random_cq, save_observable, save_state


@pytest.fixture()
def bell_file(tmp_path):
    path = tmp_path / "bell.json"
    save_state(make_bell(), path)
    return str(path)


@pytest.fixture()
def cq_file(tmp_path):
    path = tmp_path / "cq.json"
    save_state(random_cq((2, 2), np.random.default_rng(3)), path)
    return str(path)


def test_measure_lqu_bell(bell_file, capsys):
    assert main(["measure", "--lqu", bell_file]) == 0
    out = capsys.readouterr().out
    assert "value 1.000000" in out
    assert "converged true" in out


def test_measure_lqu_cq(cq_file, capsys):
    assert main(["measure", "--lqu", cq_file]) == 0
    assert "value 0.000000" in capsys.readouterr().out


def test_measure_ds_equals_lqu_scaled(bell_file, cq_file, capsys):
    lam = 0.785398
    for path in (bell_file, cq_file):
        assert main(["measure", "--lqu", path]) == 0
        lqu = float(capsys.readouterr().out.split("\n")[0].split()[1])
        assert main(["measure", "--ds", "--lambda", str(lam), path]) == 0
        ds = float(capsys.readouterr().out.split("\n")[0].split()[1])
        assert abs(ds - lqu * np.sin(lam) ** 2 / lam**2 * lam**2) < 2e-6


def test_measure_ip_general_flag(bell_file, capsys):
    assert main(["measure", "--ip", "--general", "--restarts", "6", bell_file]) == 0
    out = capsys.readouterr().out
    assert "value 1.000000" in out
    assert "restarts 6" in out


@pytest.mark.parametrize("name, search, scale", [
    ("lqu", lqu_general, 1.0), ("ip", ip_general, 1.0), ("ds", ds_general, np.pi / 4),
])
def test_measure_qutrit_probe_runs_optimizer(tmp_path, capsys, name, search, scale):
    path = tmp_path / "qutrit.json"
    save_state(random_density((3, 2), 3, np.random.default_rng(21)), path)
    expect = search(load_state(path), linear_spectrum(3) * scale, OptimizerConfig(restarts=3))
    code = main(["measure", f"--{name}", "--restarts", "3", str(path)])
    assert code == (0 if expect.converged else 3)
    out = capsys.readouterr().out
    assert f"value {expect.value:.6f}\n" in out
    assert "restarts 3\n" in out


def test_measure_spectrum_takes_closed_form(bell_file, capsys):
    assert main(["measure", "--lqu", "--spectrum=-0.5,0.5", "--restarts", "3", bell_file]) == 0
    out = capsys.readouterr().out
    assert "value 0.250000" in out
    assert "restarts 0" in out


@pytest.mark.parametrize("flags", [
    ["--lqu", "--spectrum", "0.3,2"],
    ["--ip", "--spectrum", "0.3,2"],
    ["--ds", "--spectrum", "0.3,2"],
    ["--ds", "--lambda", "2.0"],
])
def test_measure_qubit_probe_closed_form_matches_general(tmp_path, capsys, flags):
    path = tmp_path / "r23.json"
    save_state(random_density((2, 3), 5, np.random.default_rng(41)), path)
    values = {}
    for extra in ([], ["--general"]):
        out = tmp_path / f"res{len(extra)}.json"
        assert main(["measure", *flags, *extra, str(path), "--json", str(out)]) == 0
        values[bool(extra)] = json.loads(out.read_text())
    assert values[False]["restarts"] == 0
    assert values[True]["restarts"] == 16
    assert abs(values[False]["value"] - values[True]["value"]) <= 1e-10
    capsys.readouterr()


def test_measure_non_finite_spectrum_exits_2(bell_file, capsys):
    assert main(["measure", "--lqu", "--spectrum", "nan,1", bell_file]) == 2
    assert "finite" in capsys.readouterr().err


def test_measure_skew_and_qfi(bell_file, tmp_path, capsys):
    obs_path = tmp_path / "sz.json"
    save_observable(Observable.pauli([0, 0, 1.0]), obs_path)
    assert main(["measure", "--qfi", "--observable", str(obs_path), bell_file]) == 0
    assert "value 4.000000" in capsys.readouterr().out
    assert main(["measure", "--skew", "--observable", str(obs_path), bell_file]) == 0
    assert "value 1.000000" in capsys.readouterr().out


def test_measure_chernoff(bell_file, tmp_path, capsys):
    other = tmp_path / "werner.json"
    save_state(make_werner(0.5), other)
    assert main(["measure", "--chernoff", bell_file, "--other", str(other)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("value ")
    assert "s_star" in out and "exponent" in out


def test_measure_json_artifact_contains_printed_numbers(bell_file, tmp_path, capsys):
    out_path = tmp_path / "res.json"
    assert main(["measure", "--lqu", bell_file, "--json", str(out_path)]) == 0
    printed = capsys.readouterr().out
    payload = json.loads(out_path.read_text())
    assert f"value {payload['value']:.6f}" in printed
    assert f"restarts {payload['restarts']}" in printed


def test_measure_certificate_direction_has_no_negative_zero(bell_file, tmp_path, capsys):
    out_path = tmp_path / "res.json"
    assert main(["measure", "--lqu", bell_file, "--json", str(out_path)]) == 0
    assert "direction 0.000000 0.000000 1.000000" in capsys.readouterr().out
    direction = json.loads(out_path.read_text())["certificate"]["direction"]
    assert direction == [0.0, 0.0, 1.0]
    assert not np.signbit(direction).any()


def test_measure_missing_file(tmp_path, capsys):
    assert main(["measure", "--lqu", str(tmp_path / "nope.json")]) == 2
    assert "nope.json" in capsys.readouterr().err


def test_measure_nonconvergence_exit_code(bell_file, capsys):
    # fewer than three restarts can never satisfy the reproduction rule,
    # so the run reports the value but exits with the non-convergence code
    assert main(["measure", "--lqu", "--general", "--restarts", "2", bell_file]) == 3
    out = capsys.readouterr().out
    assert "value 1.000000" in out
    assert "converged false" in out


def test_measure_invalid_state(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dims": [2], "re": [[1.2, 0], [0, -0.2]], "im": [[0, 0], [0, 0]]}))
    assert main(["measure", "--lqu", str(bad)]) == 2


def test_sweep_fig1_tsv(tmp_path, capsys):
    out = tmp_path / "fig1.tsv"
    code = main([
        "sweep", "--family", "fig1", "--grid", "0:1:21",
        "--measures", "variance,skew,classical", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "# p\tvariance\tskew\tclassical"
    data = np.array([[float(x) for x in ln.split("\t")] for ln in lines[1:]])
    np.testing.assert_allclose(data[:, 1], 1.0, atol=1e-9)
    np.testing.assert_allclose(data[:, 2], 1 - np.sqrt(1 - data[:, 0] ** 2), atol=1e-9)


def test_sweep_werner_inequality(tmp_path):
    out = tmp_path / "werner.tsv"
    assert main([
        "sweep", "--family", "werner", "--grid", "0:1:21",
        "--measures", "lqu,ip", "--out", str(out),
    ]) == 0
    lines = out.read_text().strip().split("\n")[1:]
    data = np.array([[float(x) for x in ln.split("\t")] for ln in lines])
    assert np.all(data[:, 1] <= data[:, 2] + 1e-8)


def test_sweep_bad_family(tmp_path, capsys):
    assert main([
        "sweep", "--family", "ghz", "--grid", "0:1:5", "--measures", "lqu",
        "--out", str(tmp_path / "x.tsv"),
    ]) == 2


@pytest.mark.parametrize(
    "grid, message",
    [
        ("0:1:-3", "at least one point"),
        ("-inf:1:5", "must be finite"),
        ("0:1:2.5", "must be an integer"),
        ("0:1:0", "at least one point"),
    ],
)
def test_sweep_bad_grid_exits_2(tmp_path, capsys, grid, message):
    out = tmp_path / "x.tsv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["sweep", "--family", "werner", f"--grid={grid}", "--measures", "lqu", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


def test_simulate_estimation(bell_file, tmp_path, capsys):
    out = tmp_path / "rec.json"
    code = main([
        "simulate", "estimation", "--state", bell_file, "--worst-case",
        "--theta0", "0.3", "--n", "500", "--trials", "40", "--seed", "0",
        "--out", str(out),
    ])
    assert code == 0
    printed = capsys.readouterr().out
    assert "ratio" in printed
    ratio = float(printed.split("ratio ")[1].split()[0])
    assert ratio >= 1 - 3 / np.sqrt(40)
    payload = json.loads(out.read_text())
    assert payload["summary"]["ratio"] == pytest.approx(ratio, abs=5e-7)


@pytest.mark.parametrize(
    "extra", [["--grid=-inf:1:5"], ["--grid=0:1:2.7"], ["--n", str(10**19)]]
)
def test_simulate_estimation_bad_counts_and_grids_exit_2(bell_file, extra, capsys):
    argv = ["simulate", "estimation", "--state", bell_file, "--worst-case", "--theta0", "0.3"]
    assert main(argv + extra) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_simulate_estimation_zero_information(tmp_path, capsys):
    path = tmp_path / "cq.json"
    zero = np.diag([1.0, 0.0]).astype(complex)
    one = np.diag([0.0, 1.0]).astype(complex)
    from metrocorr.states import make_cq

    save_state(make_cq([0.5, 0.5], np.eye(2), [zero, one]), path)
    obs_path = tmp_path / "sz.json"
    save_observable(Observable.pauli([0, 0, 1.0]), obs_path)
    code = main([
        "simulate", "estimation", "--state", str(path),
        "--generator", str(obs_path), "--theta0", "0.1",
    ])
    assert code == 4


def test_simulate_discrimination_identical(tmp_path, capsys, cq_file):
    code = main([
        "simulate", "discrimination", "--state", cq_file,
        "--lambda", "0.5", "--copies", "3",
    ])
    assert code == 0
    printed = capsys.readouterr().out
    exponent = float(printed.split("exponent ")[-1].split()[0])
    assert abs(exponent) < 1e-6


def test_simulate_discrimination_default_copies_fit_the_guard(tmp_path, capsys):
    # side 6: 6^5 = 7776 exceeds the copy guard, 6^4 = 1296 does not
    path = tmp_path / "w23.json"
    save_state(make_werner(0.4, 3), path)
    out = tmp_path / "rec.json"
    assert main(["simulate", "discrimination", "--state", str(path), "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert record["config"]["n_max"] == 4
    assert record["columns"]["n"] == [1, 2, 3, 4]


def test_simulate_discrimination_default_spectrum_on_a_qutrit_probe(tmp_path, capsys):
    # without --spectrum the probe takes d_A values over [-lambda, lambda], as
    # measure --ds does, so a d_A = 3 state runs instead of exiting 2
    path = tmp_path / "r32.json"
    save_state(random_density((3, 2), 6, np.random.default_rng(31)), path)
    out = tmp_path / "rec.json"
    argv = ["simulate", "discrimination", "--state", str(path), "--copies", "2",
            "--restarts", "4", "--out", str(out)]
    assert main(argv) == 0
    record = json.loads(out.read_text())
    expect = ds_general(load_state(path), linear_spectrum(3) * np.pi / 4, OptimizerConfig(restarts=4))
    assert record["columns"]["n"] == [1, 2]
    assert record["config"]["spectrum"] == list(linear_spectrum(3) * np.pi / 4)
    assert abs(record["summary"]["discriminating_strength"] - expect.value) < 1e-12
    capsys.readouterr()
    assert main(argv[:-4] + ["--restarts", "0"]) == 2
    assert "restart count" in capsys.readouterr().err


def test_simulate_missing_state(tmp_path, capsys):
    assert main([
        "simulate", "estimation", "--state", str(tmp_path / "gone.json"),
    ]) == 2
    assert "gone.json" in capsys.readouterr().err


def test_validate_command(bell_file, tmp_path, capsys):
    assert main(["validate", bell_file]) == 0
    out = capsys.readouterr().out
    assert "valid" in out and "rank=1" in out
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["validate", str(bad)]) == 2


def test_cli_outputs_byte_identical(bell_file, tmp_path):
    paths = []
    for tag in ("a", "b"):
        out = tmp_path / f"rec_{tag}.json"
        tsv = tmp_path / f"rec_{tag}.tsv"
        assert main([
            "simulate", "estimation", "--state", bell_file, "--worst-case",
            "--theta0", "0.2", "--n", "200", "--trials", "20", "--seed", "7",
            "--out", str(out), "--tsv", str(tsv),
        ]) == 0
        paths.append((out.read_bytes(), tsv.read_bytes()))
    assert paths[0] == paths[1]

    sweeps = []
    for tag in ("a", "b"):
        out = tmp_path / f"sw_{tag}.tsv"
        assert main([
            "sweep", "--family", "werner", "--grid", "0:1:11",
            "--measures", "lqu,ip,ds", "--out", str(out),
        ]) == 0
        sweeps.append(out.read_bytes())
    assert sweeps[0] == sweeps[1]


def test_cli_module_entry_point(bell_file):
    proc = subprocess.run(
        [sys.executable, "-m", "metrocorr", "measure", "--lqu", bell_file],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "value 1.000000" in proc.stdout
