"""Command-line front end: compute measures on state files, run simulations,
emit sweep data, validate files.

Exit codes: 0 success, 2 parse/validation/configuration error, 3 optimizer
non-convergence (the value is still printed), 4 zero Fisher information.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .discrimination import chernoff
from .errors import MetrocorrError, ZeroInformation
from .fisher import PhaseChannel, qfi
from .linalg import Observable
from .manifold import MeasureResult, OptimizerConfig
from .sim import (
    CORRELATIONS,
    EstimationConfig,
    correlation,
    run_discrimination,
    run_phase_estimation,
    sweep_states,
)
from .states import load_observable, load_state
from .uncertainty import skew_information

EXIT_OK = 0
EXIT_DATA = 2
EXIT_NO_CONVERGENCE = 3
EXIT_NO_INFORMATION = 4

MEASURES = ("lqu", "ip", "ds", "skew", "qfi", "chernoff")


def _parse_spectrum(text: str) -> np.ndarray:
    return np.array([float(tok) for tok in text.replace(",", " ").split()])


def _parse_grid(text: str):
    lo, hi, n = text.split(":")
    return float(lo), float(hi), int(n)


def _certificate_summary(cert: Observable | None) -> dict:
    if cert is None:
        return {}
    out = {"spectrum": [float(x) for x in cert.spectrum]}
    if cert.dim == 2:
        mat = cert.matrix
        scale = 0.5 * (cert.spectrum[-1] - cert.spectrum[0])
        out["direction"] = [
            float(np.real(mat[0, 1])) / scale,
            float(-np.imag(mat[0, 1])) / scale,
            float(np.real(mat[0, 0] - mat[1, 1])) / (2 * scale),
        ]
    return out


def _print_result(res: MeasureResult) -> None:
    print(f"value {res.value:.6f}")
    cert = _certificate_summary(res.certificate)
    if "direction" in cert:
        print("direction " + " ".join(f"{x:.6f}" for x in cert["direction"]))
    if "spectrum" in cert:
        print("spectrum " + " ".join(f"{x:.6f}" for x in cert["spectrum"]))
    print(f"restarts {res.restarts_used}")
    print(f"converged {str(res.converged).lower()}")


def _result_payload(res: MeasureResult) -> dict:
    return {
        "value": res.value,
        "certificate": _certificate_summary(res.certificate),
        "restarts": res.restarts_used,
        "converged": res.converged,
    }


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def cmd_measure(args) -> int:
    rho = load_state(args.state)
    if args.measure in CORRELATIONS:
        cfg = OptimizerConfig(restarts=args.restarts, value_tol=args.tol, seed=args.seed)
        spectrum = None if args.spectrum is None else _parse_spectrum(args.spectrum)
        res = correlation(args.measure, rho, spectrum, args.ds_lambda, cfg, args.general)
    elif args.measure in ("skew", "qfi"):
        if args.observable is None:
            raise MetrocorrError(f"--{args.measure} needs --observable FILE")
        obs = load_observable(args.observable)
        op = obs.matrix if obs.dim == rho.dim else PhaseChannel(obs).full_generator(rho)
        quantity = skew_information if args.measure == "skew" else qfi
        res = MeasureResult(value=quantity(rho, op))
    elif args.measure == "chernoff":
        if args.other is None:
            raise MetrocorrError("--chernoff needs --other FILE")
        ch = chernoff(rho, load_state(args.other))
        print(f"value {ch.q_value:.6f}")
        print(f"s_star {ch.s_star:.6f}")
        print(f"exponent {ch.exponent:.6f}")
        print("restarts 0")
        print("converged true")
        if args.json_out:
            payload = _result_payload(MeasureResult(value=ch.q_value))
            payload.update(s_star=ch.s_star, exponent=ch.exponent)
            _write_json(args.json_out, payload)
        return EXIT_OK
    else:  # pragma: no cover - argparse restricts choices
        raise MetrocorrError(f"unknown measure {args.measure}")

    _print_result(res)
    if args.json_out:
        _write_json(args.json_out, _result_payload(res))
    return EXIT_OK if res.converged else EXIT_NO_CONVERGENCE


def cmd_sweep(args) -> int:
    lo, hi, n = _parse_grid(args.grid)
    grid = np.linspace(lo, hi, n)
    measures = [m.strip() for m in args.measures.split(",") if m.strip()]
    table = sweep_states(args.family, grid, measures, ds_lambda=args.ds_lambda)
    text = table.to_tsv()
    with open(args.out, "w") as fh:
        fh.write(text)
    print(f"wrote {len(table.rows)} rows to {args.out}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    rho = load_state(args.state)
    if args.task == "estimation":
        generator = load_observable(args.generator) if args.generator else None
        cfg = EstimationConfig(
            state=rho,
            generator=generator,
            theta0=args.theta0,
            n_per_trial=args.n,
            trials=args.trials,
            theta_grid=_parse_grid(args.grid) if args.grid else None,
            seed=args.seed,
            worst_case=args.worst_case,
        )
        record = run_phase_estimation(cfg)
        s = record.summary
        print(
            f"variance {s['variance']:.6e} bound {s['bound']:.6e} "
            f"ratio {s['ratio']:.6f} bias {s['bias']:.6e}"
        )
    else:
        if args.spectrum is not None:
            spectrum = _parse_spectrum(args.spectrum)
        else:
            spectrum = np.array([-args.ds_lambda, args.ds_lambda])
        generator = load_observable(args.generator) if args.generator else "worst-case"
        record = run_discrimination(
            rho,
            spectrum,
            generator=generator,
            n_max=args.copies,
            config=OptimizerConfig(restarts=args.restarts, value_tol=args.tol, seed=args.seed),
        )
        s = record.summary
        print(
            f"exponent_estimate {s['exponent_estimate']:.6f} "
            f"exponent {s['exponent']:.6f} gap {s['gap_at_n_max']:.6f}"
        )
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(record.to_json())
    if args.tsv:
        with open(args.tsv, "w") as fh:
            fh.write(record.to_tsv())
    return EXIT_OK


def cmd_validate(args) -> int:
    rho = load_state(args.state)
    rank = int(np.sum(rho.eig.eigenvalues > 1e-9))
    print(
        f"valid dims={list(rho.dims)} trace=1 purity={rho.purity():.6f} rank={rank}"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metrocorr",
        description="Correlation measures with metrological meaning for bipartite states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_measure = sub.add_parser("measure", help="compute a measure on a state file")
    group = p_measure.add_mutually_exclusive_group(required=True)
    for name in MEASURES:
        group.add_argument(
            f"--{name}", dest="measure", action="store_const", const=name
        )
    p_measure.add_argument("state", help="state JSON file")
    p_measure.add_argument("--other", help="second state (chernoff)")
    p_measure.add_argument("--observable", help="observable JSON file (skew/qfi)")
    p_measure.add_argument("--spectrum", help="comma-separated spectrum values")
    p_measure.add_argument("--lambda", dest="ds_lambda", type=float, default=np.pi / 4)
    p_measure.add_argument("--general", action="store_true", help="force the optimizer")
    p_measure.add_argument("--restarts", type=int, default=16)
    p_measure.add_argument("--tol", type=float, default=1e-9)
    p_measure.add_argument("--seed", type=int, default=0)
    p_measure.add_argument("--json", dest="json_out", help="write result JSON here")
    p_measure.set_defaults(func=cmd_measure)

    p_sweep = sub.add_parser("sweep", help="tabulate measures over a state family")
    p_sweep.add_argument("--family", required=True)
    p_sweep.add_argument("--grid", required=True, help="lo:hi:points")
    p_sweep.add_argument("--measures", required=True, help="comma-separated names")
    p_sweep.add_argument("--lambda", dest="ds_lambda", type=float, default=np.pi / 4)
    p_sweep.add_argument("--out", required=True, help="output TSV path")
    p_sweep.set_defaults(func=cmd_sweep)

    p_sim = sub.add_parser("simulate", help="run an estimation/discrimination experiment")
    p_sim.add_argument("task", choices=["estimation", "discrimination"])
    p_sim.add_argument("--state", required=True)
    p_sim.add_argument("--generator", help="observable JSON file")
    p_sim.add_argument("--worst-case", action="store_true")
    p_sim.add_argument("--theta0", type=float, default=0.0)
    p_sim.add_argument("--n", type=int, default=1000)
    p_sim.add_argument("--trials", type=int, default=100)
    p_sim.add_argument("--grid", help="lo:hi:points")
    p_sim.add_argument("--spectrum")
    p_sim.add_argument("--lambda", dest="ds_lambda", type=float, default=np.pi / 4)
    p_sim.add_argument("--copies", type=int, default=5)
    p_sim.add_argument("--restarts", type=int, default=16)
    p_sim.add_argument("--tol", type=float, default=1e-9)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", help="record JSON path")
    p_sim.add_argument("--tsv", help="record TSV path")
    p_sim.set_defaults(func=cmd_simulate)

    p_val = sub.add_parser("validate", help="validate a state file")
    p_val.add_argument("state")
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ZeroInformation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_INFORMATION
    except (MetrocorrError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
