import json
import subprocess
import sys

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


def test_measure_spectrum_runs_optimizer(bell_file, capsys):
    assert main(["measure", "--lqu", "--spectrum=-0.5,0.5", "--restarts", "3", bell_file]) == 0
    out = capsys.readouterr().out
    assert "value 0.250000" in out
    assert "restarts 3" in out


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
