"""Batch command line for the library's experiments.

Every subcommand reads JSON matrices/vectors, runs one experiment, and
emits a deterministic JSON (or CSV) report: same seed and config, same
bytes.  Exit codes: 0 success, 1 validation/parse error, 2 numerical
failure; errors are reported as a JSON object on stdout.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from .acceptance import DEFAULT_SEED, _mixed_state, run_all
from .billiard import verify_billiard_theorem
from .bures import _pair, bures_angle, fidelity, geodesic
from .classical import (
    fr_geodesic_distance,
    jeffreys_density,
    monotonicity_stress,
    multinomial_ellipse_experiment,
    probability_vector,
)
from .errors import NumericalError, ValidationError
from .linalg import fix_phases
from .means import operator_mean
from .measurement import optimal_measurement, povm_classical_angle, qubit_povm_search
from .monotone import monotone_ds2
from .sampling import substream
from .serialize import _fill, dumps_canonical, read_matrix_file, read_vector_file

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as validation errors (exit 1)."""

    def error(self, message):
        raise ValidationError(message)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _at_least_one(count: int, option: str) -> None:
    if count < 1:
        raise ValidationError(f"{option} must be >= 1")


def _csv_text(header: list[str], rows: np.ndarray) -> str:
    line = "\n" + ",".join(["%.17g"] * rows.shape[1])
    return ",".join(header) + _fill(line * len(rows), rows) + "\n"


def _cmd_classical_distance(args) -> dict:
    p = probability_vector(read_vector_file(args.p))
    q = probability_vector(read_vector_file(args.q))
    return {"distance": fr_geodesic_distance(p, q)}


def _cmd_jeffreys(args) -> dict:
    p = probability_vector(read_vector_file(args.p))
    return {"density": jeffreys_density(p)}


def _cmd_multinomial(args) -> dict:
    p = probability_vector(read_vector_file(args.p))
    report = multinomial_ellipse_experiment(
        p, samples_per_trial=args.samples, trials=args.trials, seed=args.seed
    )
    return {**report, "samples_per_trial": args.samples, "trials": args.trials,
            "seed": args.seed}


def _cmd_monotone_stress(args) -> dict:
    report = monotonicity_stress(args.seed, args.trials, tol=args.tol)
    return {**report, "trials": args.trials, "seed": args.seed}


def _read_pair(args) -> tuple:
    """The matrices in the files ``a`` and ``b``, read in that order."""
    return read_matrix_file(args.a), read_matrix_file(args.b)


def _cmd_mean(args) -> dict:
    return {"mean": operator_mean(*_read_pair(args), args.f), "f": args.f}


def _cmd_monotone_metric(args) -> dict:
    rho, drho = read_matrix_file(args.rho), read_matrix_file(args.drho)
    return {"ds2": monotone_ds2(rho, drho, args.f), "f": args.f}


def _cmd_fidelity(args) -> dict:
    return {"fidelity": fidelity(*_read_pair(args))}


def _cmd_bures_distance(args) -> dict:
    a, b = _read_pair(args)
    return {"angle": bures_angle(a, b), "fidelity": fidelity(a, b)}


def _cmd_geodesic(args):
    _at_least_one(args.samples, "--samples")
    path = geodesic(*_read_pair(args))
    ts = np.linspace(0.0, path.t_star, args.samples)
    states = path.state(ts)
    lams = np.linalg.eigvalsh(states)[..., 0]  # states are their own hermitian_part
    if args.format == "csv":
        n = range(path.dim)
        cells = [f"{part}_{i}_{j}" for i in n for j in n for part in ("re", "im")]
        flat = np.stack([states.real, states.imag], axis=-1).reshape(len(ts), -1)
        return _csv_text(["t", *cells, "lambda_min"], np.column_stack([ts, flat, lams]))
    return {
        "t_star": path.t_star,
        "samples": [
            {"t": float(t), "state": state, "min_eigenvalue": float(lam)}
            for t, state, lam in zip(ts, states, lams)
        ],
    }


def _cmd_optimal_measurement(args) -> dict:
    a, b = _read_pair(args)
    eigenvalues, eigenvectors = _pair(a, b).eig_m  # eig(M) has no public view; eigh's phases
    return {
        "bures_angle": bures_angle(a, b),
        "classical_angle": povm_classical_angle(optimal_measurement(a, b), a, b),
        "m_eigenvalues": eigenvalues,
        "m_eigenvectors": fix_phases(eigenvectors),
    }


def _cmd_povm_search(args) -> dict:
    a, b = _read_pair(args)
    report = qubit_povm_search(a, b)  # first: its errors come in its order
    return {**report, "bures_angle": bures_angle(a, b)}


def _cmd_billiard(args):
    _at_least_one(args.dim, "--dim")
    _at_least_one(args.samples, "--samples")
    rng = substream(args.seed, "cli-billiard")
    rho1, rho2 = _mixed_state(args.dim, rng, 0.15), _mixed_state(args.dim, rng, 0.15)
    if args.format == "csv":
        path = geodesic(rho1, rho2)
        ts = np.linspace(0.0, np.pi, args.samples, endpoint=False)
        lams = path.min_eigenvalue(ts)
        return _csv_text(["t", "lambda_min"], np.column_stack([ts, lams]))
    report = verify_billiard_theorem(rho1, rho2)
    flags = ["degenerate-root"] if report.pop("flagged") else []
    return {**report, "seed": args.seed, "flags": flags}


def _cmd_verify_all(args) -> dict:
    reports = run_all(args.seed)
    criteria = []
    for report in reports:
        line = (
            f"criterion {report['criterion']:2d} {report['name']}: "
            f"{'PASS' if report['passed'] else 'FAIL'} "
            f"({report['runtime_s']:.1f} s)"
        )
        print(line, file=sys.stderr)
        criteria.append(
            {k: v for k, v in report.items() if k != "runtime_s"}
        )
    return {
        "seed": args.seed,
        "all_passed": all(r["passed"] for r in reports),
        "criteria": criteria,
    }


@functools.cache  # built once per process: parsing does not change a parser
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="statgeom",
        description=(
            "Experiments in the statistical geometry of probability vectors "
            "and density matrices."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, csv=False, seed=False):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--out", default=None, help="write the report to a file")
        if csv:
            p.add_argument("--format", choices=("json", "csv"), default="json",
                           help="output format")
        if seed:
            p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="random seed")
        return p

    p = add("classical-distance", _cmd_classical_distance,
            "Fisher-Rao geodesic distance between two probability vectors")
    p.add_argument("p")
    p.add_argument("q")

    p = add("jeffreys", _cmd_jeffreys, "Jeffreys prior density at a simplex point")
    p.add_argument("p")

    p = add("multinomial-experiment", _cmd_multinomial,
            "empirical vs predicted multinomial frequency covariance", seed=True)
    p.add_argument("p")
    p.add_argument("--samples", type=int, default=100_000,
                   help="multinomial samples per trial")
    p.add_argument("--trials", type=int, default=10_000, help="number of trials")

    p = add("monotone-stress", _cmd_monotone_stress,
            "stress-test distance monotonicity under random stochastic maps", seed=True)
    p.add_argument("--trials", type=int, default=10_000, help="number of trials")
    p.add_argument("--tol", type=float, default=1e-9, help="comparison tolerance")

    p = add("mean", _cmd_mean, "operator mean of two positive matrices")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--f", choices=("arithmetic", "geometric", "harmonic"),
                   default="geometric", help="mean function")

    p = add("monotone-metric", _cmd_monotone_metric,
            "monotone-metric squared line element at a state")
    p.add_argument("rho")
    p.add_argument("drho")
    p.add_argument("--f", choices=("arithmetic", "geometric", "harmonic"),
                   default="arithmetic", help="metric function")

    p = add("fidelity", _cmd_fidelity, "fidelity of two density matrices")
    p.add_argument("a")
    p.add_argument("b")

    p = add("bures-distance", _cmd_bures_distance,
            "Bures angle (and fidelity) of two density matrices")
    p.add_argument("a")
    p.add_argument("b")

    p = add("geodesic", _cmd_geodesic,
            "sample the Bures geodesic between two invertible states", csv=True)
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--samples", type=int, default=50, help="sample points")

    p = add("optimal-measurement", _cmd_optimal_measurement,
            "eigenbasis measurement of the Fuchs-Caves operator")
    p.add_argument("a")
    p.add_argument("b")

    p = add("povm-search", _cmd_povm_search,
            "qubit projective-measurement search, not reading M")
    p.add_argument("a")
    p.add_argument("b")

    p = add("billiard", _cmd_billiard,
            "boundary bounce points of a random geodesic's great circle",
            csv=True, seed=True)
    p.add_argument("--dim", type=int, default=3, help="state dimension")
    p.add_argument("--samples", type=int, default=512,
                   help="scan resolution for csv output")

    add("verify-all", _cmd_verify_all, "run the full acceptance suite", seed=True)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        tol = getattr(args, "tol", None)
        if tol is not None and tol <= 0:
            raise ValidationError("--tol must be positive")
        trials = getattr(args, "trials", None)
        if trials is not None:
            _at_least_one(trials, "--trials")
        result = args.func(args)
        text = result if isinstance(result, str) else dumps_canonical(result)
        _emit(text, args.out)
        if args.command == "verify-all" and not result["all_passed"]:
            return 2
        return 0
    except (ValidationError, NumericalError) as exc:  # and subclasses: ParseError, ...
        _emit(dumps_canonical({"error": {
            "type": type(exc).__name__, "message": str(exc)}}), None)
        return 1 if isinstance(exc, ValidationError) else 2


if __name__ == "__main__":
    sys.exit(main())
