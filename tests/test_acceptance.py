"""Acceptance gate: run every numbered criterion at its stated tolerance.

Each criterion prints one pass/fail line; the conftest scoreboard repeats
them in the terminal summary.  Reports are computed once and shared by the
follow-up tests that pin individual tolerances.
"""

import json
from importlib import resources

import jsonschema
import pytest

from statgeom import acceptance, cli
from statgeom.acceptance import _OPS, CRITERIA, DEFAULT_SEED, Gate, run_criterion
from statgeom.errors import NumericalError

_reports = {}


def _report(number):
    if number not in _reports:
        _reports[number] = run_criterion(number, DEFAULT_SEED)
    return _reports[number]


@pytest.mark.parametrize(
    "number,name",
    [(num, name) for num, name, _ in CRITERIA],
    ids=[f"{num:02d}-{name}" for num, name, _ in CRITERIA],
)
def test_criterion(number, name, scoreboard):
    report = _report(number)
    verdict = "PASS" if report["passed"] else "FAIL"
    line = f"criterion {number:2d} {name}: {verdict} ({report['runtime_s']:.1f} s)"
    print(line)
    scoreboard.append(line)
    assert report["name"] == name
    assert report["seed"] == DEFAULT_SEED
    assert report["passed"], json.dumps(report["details"], default=str)


def test_sphere_equivalence_tolerance():
    details = _report(1)["details"]
    assert details["tol"] == 1e-10
    assert details["max_abs_diff"] <= 1e-10
    assert details["pairs"] == 1000


def test_monotonicity_clean():
    details = _report(2)["details"]
    assert details["violations"] == 0


def test_multinomial_ellipse_tolerance():
    details = _report(3)["details"]
    assert details["tol"] == 0.05
    assert details["max_rel_err"] <= 0.05


def test_mean_ordering_details():
    details = _report(4)["details"]
    assert details["ordering_min_slack"] >= -1e-8
    assert all(v == 0 for v in details["axiom_violations"].values())
    # squaring must fail monotonicity on some witness pair
    assert details["square_min_gap"] < -1e-6


def test_monotone_consistency_details():
    details = _report(5)["details"]
    assert details["min_observed_order"] >= details["order_tol"] == 2.5
    assert details["diagonal_max_abs_diff"] <= details["diagonal_tol"] == 1e-12


def test_hemisphere_tolerance():
    details = _report(6)["details"]
    assert details["tol"] == 1e-10
    assert details["max_abs_diff"] <= 1e-10


def test_measurement_optimality_tolerances():
    details = _report(8)["details"]
    assert details["angle_tol"] == 1e-4
    assert details["axis_tol"] == pytest.approx(0.015707963267948967)


def test_ambiguity_tolerance():
    details = _report(9)["details"]
    assert details["tol"] == 1e-9
    assert details["max_abs_diff"] <= 1e-9


def test_billiard_statistics():
    details = _report(10)["details"]
    assert details["flagged_fraction"] < details["flagged_tol"] == 0.05
    assert details["runs_per_dim"] == 200


def test_report_payload_matches_published_schema():
    reports = [_report(num) for num, _, _ in CRITERIA]
    payload = {
        "seed": DEFAULT_SEED,
        "all_passed": all(r["passed"] for r in reports),
        "criteria": [
            {k: v for k, v in r.items() if k != "runtime_s"} for r in reports
        ],
    }
    schema = json.loads(
        resources.files("statgeom")
        .joinpath("schemas/verify-all.schema.json")
        .read_text()
    )
    jsonschema.validate(payload, schema, cls=jsonschema.Draft202012Validator)
    assert payload["all_passed"]


def test_verify_all_stdout_matches_the_golden_file(golden, monkeypatch, capsys):
    """``verify-all --seed 1729`` prints tests/golden/verify-all-1729.txt: the
    reports computed above go through the CLI in place of a second run."""
    monkeypatch.setattr(cli, "run_all", lambda seed: [_report(num) for num, _, _ in CRITERIA])
    assert cli.main(["verify-all", "--seed", str(DEFAULT_SEED)]) == 0
    expected = (golden.HERE / f"verify-all-{DEFAULT_SEED}.txt").read_text()
    mode = golden.mode()
    assert golden.same_stdout(capsys.readouterr().out, expected, mode), f"stdout changed ({mode})"


def _stub_report(monkeypatch, gates, details):
    """run_criterion's report on a stub criterion that returns ``gates``."""
    monkeypatch.setattr(acceptance, "CRITERIA", [(99, "stub", lambda seed: (gates, details))])
    return run_criterion(99, seed=5)


def test_one_failing_gate_fails_the_criterion(monkeypatch):
    gates = [Gate("max_abs_diff", 1e-12, "<=", 1e-10, "tol"), Gate("violations", 1, "==", 0)]
    report = _stub_report(monkeypatch, gates, {"pairs": 10})
    assert report["passed"] is False
    assert report["details"] == {"pairs": 10, "max_abs_diff": 1e-12, "tol": 1e-10, "violations": 1}


def test_holding_gates_pass_and_print_each_bound_under_its_key(monkeypatch):
    gates = [
        Gate("max_abs_diff", 1e-12, "<=", 1e-10, "tol"),
        Gate("min_observed_order", 3.0, ">=", 2.5, "order_tol"),
        Gate("flagged_fraction", 0.0, "<", 0.05, "flagged_tol"),
        Gate("max_suboptimality_excess", -1e-3, "<=", 1e-9),  # bound not printed
        Gate(None, 0, "==", 0),  # neither printed
    ]
    report = _stub_report(monkeypatch, gates, {"pairs": 10})
    assert report["passed"] is True
    assert report["details"] == {
        "pairs": 10,
        "max_abs_diff": 1e-12,
        "tol": 1e-10,
        "min_observed_order": 3.0,
        "order_tol": 2.5,
        "flagged_fraction": 0.0,
        "flagged_tol": 0.05,
        "max_suboptimality_excess": -1e-3,
    }


@pytest.mark.parametrize(
    "gate, passed",
    [
        (Gate("flagged_fraction", 0.05, "<", 0.05, "flagged_tol"), False),
        (Gate("min_observed_order", 2.5, ">=", 2.5, "order_tol"), True),
    ],
    ids=["criterion-10-strict", "criterion-5-inclusive"],
)
def test_a_gate_at_its_bound(monkeypatch, gate, passed):
    assert _stub_report(monkeypatch, [gate], {})["passed"] is passed


def test_billiard_criterion_counts_failures_and_flags(monkeypatch):
    # every third run raises NumericalError and every third is flagged: both
    # are counted per dimension, and each fails a gate of its own
    calls = []

    def verify(rho1, rho2):
        calls.append(None)
        if len(calls) % 3 == 1:
            raise NumericalError("stub")
        dim = len(rho1)
        return {"flagged": len(calls) % 3 == 2, "bounce_ts": [0.0] * dim, "matched": True}

    monkeypatch.setattr(acceptance, "verify_billiard_theorem", verify)
    gates, details = acceptance.criterion_10_billiard(DEFAULT_SEED)
    assert len(calls) == 800
    for counts in details["per_dim"].values():
        assert counts["mismatched"] == counts["wrong_count"] == 0
    assert sum(c["failures"] for c in details["per_dim"].values()) == 267
    assert sum(c["flagged"] for c in details["per_dim"].values()) == 267
    wrong, flagged = gates
    assert wrong.observed == 267 and not _OPS[wrong.op](wrong.observed, wrong.bound)
    assert flagged.observed == 267 / 800 and not _OPS[flagged.op](flagged.observed, flagged.bound)
