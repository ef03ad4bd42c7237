"""End-to-end verification suite.

Ten numbered criteria, each a deterministic seeded experiment exercising
one headline property of the library at fixed tolerances: classical
sphere geometry, monotonicity, the multinomial ellipse, operator-mean
ordering and axioms, monotone-metric consistency, the qubit hemisphere,
fidelity/lift/M contracts, measurement optimality, the pure-state
ambiguity formula, and the boundary billiard theorem.  Each criterion
returns its gates and its diagnostic metrics; ``run_criterion`` prints
each gate's observed value (and its bound, where the gate names a key for
it) among the metrics, decides ``passed`` from the gates alone, and adds
the runtime.  ``run_all`` executes the lot.
"""

from __future__ import annotations

import operator
import time
from typing import NamedTuple

import numpy as np

from .billiard import verify_billiard_theorem
from .bures import (
    _bloch_vector,
    bures_angle,
    fidelity,
    horizontal_lift,
    qubit_bures_ds2,
    qubit_perturbation,
    qubit_state,
)
from .classical import (
    euclidean_distance,
    fisher_rao_ds2,
    fr_geodesic_distance,
    monotonicity_stress,
    multinomial_ellipse_experiment,
    sphere_embed,
)
from .errors import NumericalError
from .linalg import hermitian_part, hs_norm, matrix_sqrt, min_eigenvalue
from .means import (
    arithmetic_mean,
    geometric_mean,
    harmonic_mean,
    mean_axioms_check,
    operator_monotone_test,
)
from .measurement import (
    fuchs_caves_operator,
    povm_classical_angle,
    pure_state_qubit_angle,
    qubit_povm_search,
)
from .monotone import monotone_ds2
from .sampling import (
    _random_psd,
    random_density_matrix,
    random_povm,
    random_probability_vector,
    random_traceless_hermitian,
    substream,
)

__all__ = ["DEFAULT_SEED", "CRITERIA", "run_criterion", "run_all"]

DEFAULT_SEED = 1729


class Gate(NamedTuple):
    """One pass condition of a criterion: ``observed op bound``.

    ``run_criterion`` writes ``observed`` into the report's details under
    ``key`` and ``bound`` under ``bound_key``; a None key writes nothing.
    """

    key: str | None
    observed: object
    op: str  # one of _OPS
    bound: object
    bound_key: str | None = None


_OPS = {"<=": operator.le, "<": operator.lt, ">=": operator.ge, "==": operator.eq}


def _mixed_state(dim: int, rng: np.random.Generator, mix: float = 0.1) -> np.ndarray:
    """Random full-rank state, blended toward the maximally mixed one; validated where used."""
    rho = random_density_matrix(dim, rng)
    return hermitian_part((1.0 - mix) * rho + mix * np.eye(dim) / dim)


def criterion_1_sphere(seed: int) -> tuple[list[Gate], dict]:
    """Simplex geodesic distance == great-circle arc between embeddings."""
    rng = substream(seed, "acceptance-1")
    worst = 0.0
    for k in range(1000):
        n = 2 + k % 5
        p = random_probability_vector(n, rng)
        q = random_probability_vector(n, rng)
        direct = fr_geodesic_distance(p, q)
        cosine = float(np.dot(sphere_embed(p), sphere_embed(q)))
        arc = float(np.arccos(np.clip(cosine, 0.0, 1.0)))
        worst = max(worst, abs(direct - arc))
    return [Gate("max_abs_diff", worst, "<=", 1e-10, "tol")], {"pairs": 1000}


def criterion_2_monotonicity(seed: int) -> tuple[list[Gate], dict]:
    """No Fisher-Rao stretching under 10^4 random stochastic maps."""
    report = monotonicity_stress(seed, trials=10_000)
    p = np.array([1.0, 0.0, 0.0])
    q = np.array([0.0, 0.5, 0.5])
    t = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
    before = euclidean_distance(p, q)
    after = euclidean_distance(t @ p, t @ q)
    flat_ok = (
        abs(before - np.sqrt(1.5)) <= 1e-12
        and abs(after - np.sqrt(2.0)) <= 1e-12
        and after > before
    )
    gates = [
        Gate("violations", report["violations"], "==", 0),
        Gate("flat_counterexample_reproduced", flat_ok, "==", True),
    ]
    return gates, {
        "trials": 10_000,
        "max_excess": report["max_excess"],
        "flat_before": before,
        "flat_after": after,
    }


def criterion_3_multinomial(seed: int) -> tuple[list[Gate], dict]:
    """Empirical frequency covariance within 5% of the multinomial law.

    It fails at some seeds by design.  Over seeds 0-1999, ``max_rel_err``
    exceeds 0.05 at 145 (7.3%); median 0.027, p95 0.054, p99 0.066, maximum
    0.090.  0.05 is about 2.2 sigma of a 10,000-trial covariance entry.
    """
    p = np.full(3, 1.0 / 3.0)
    report = multinomial_ellipse_experiment(
        p, samples_per_trial=100_000, trials=10_000, seed=seed
    )
    gate = Gate("max_rel_err", report["max_rel_err"], "<=", 0.05, "tol")
    return [gate], {"samples_per_trial": 100_000, "trials": 10_000}


def criterion_4_means(seed: int) -> tuple[list[Gate], dict]:
    """Mean ordering, the four mean axioms, and the t^2 counterexample."""
    rng = substream(seed, "acceptance-4")
    min_slack = np.inf
    for k in range(1000):
        dim = 2 + k % 5
        a, b = _random_psd((2,), dim, rng) + 0.01 * np.eye(dim)
        h = harmonic_mean(a, b)
        g = geometric_mean(a, b)
        m = arithmetic_mean(a, b)
        min_slack = min(min_slack, min_eigenvalue(g - h), min_eigenvalue(m - g))
    violations = {
        name: mean_axioms_check(name, seed, trials=300)["violations"]
        for name in ("arithmetic", "geometric", "harmonic")
    }
    square = operator_monotone_test(lambda t: t * t, dim=2, seed=seed, trials=10_000)
    gates = [
        Gate("ordering_min_slack", float(min_slack), ">=", -1e-9),
        Gate(None, sum(violations.values()), "==", 0),
        Gate("square_counterexample_found", square["counterexample"] is not None, "==", True),
    ]
    return gates, {
        "ordering_pairs": 1000,
        "axiom_violations": violations,
        "square_min_gap": square["min_gap"],
    }


def criterion_5_monotone_consistency(seed: int) -> tuple[list[Gate], dict]:
    """Bures finite differences converge at third order to monotone_ds2."""
    rng = substream(seed, "acceptance-5")
    steps = 0.02 * 0.5 ** np.arange(5)
    min_order = np.inf
    orders = []
    for k in range(100):
        dim = 2 + k % 3
        rho = _mixed_state(dim, rng, mix=0.3)
        drho = random_traceless_hermitian(dim, rng)
        drho = drho / hs_norm(drho)
        ds2 = monotone_ds2(rho, drho, "arithmetic")
        errs = []
        for t in steps:
            angle = bures_angle(rho, rho + t * drho)
            errs.append(abs(angle * angle - ds2 * t * t))
        errs = np.maximum(np.asarray(errs), 1e-300)
        order = float(np.polyfit(np.log2(steps), np.log2(errs), 1)[0])
        orders.append(order)
        min_order = min(min_order, order)
    diag_worst = 0.0
    for k in range(50):
        dim = 2 + k % 3
        lam = random_probability_vector(dim, rng) * 0.9 + 0.1 / dim
        lam = lam / lam.sum()
        dp = rng.normal(size=dim)
        dp -= dp.mean()
        classical = fisher_rao_ds2(lam, dp)
        for f in ("arithmetic", "geometric", "harmonic"):
            quantum = monotone_ds2(np.diag(lam.astype(complex)), np.diag(dp.astype(complex)), f)
            diag_worst = max(diag_worst, abs(quantum - classical))
    gates = [
        Gate("min_observed_order", float(min_order), ">=", 2.5, "order_tol"),
        Gate("diagonal_max_abs_diff", diag_worst, "<=", 1e-12, "diagonal_tol"),
    ]
    return gates, {"samples": 100, "median_observed_order": float(np.median(orders))}


def criterion_6_hemisphere(seed: int) -> tuple[list[Gate], dict]:
    """Closed-form qubit line element == monotone metric with arithmetic f."""
    rng = substream(seed, "acceptance-6")
    worst = 0.0
    for _ in range(1000):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        r = 0.95 * rng.uniform() ** (1.0 / 3.0)
        x, y, z = r * direction
        dx, dy, dz = rng.normal(size=3)
        closed = qubit_bures_ds2(x, y, z, dx, dy, dz)
        general = monotone_ds2(
            qubit_state(x, y, z), qubit_perturbation(dx, dy, dz), "arithmetic"
        )
        worst = max(worst, abs(closed - general))
    return [Gate("max_abs_diff", worst, "<=", 1e-10, "tol")], {"points": 1000}


def criterion_7_fidelity_lift(seed: int) -> tuple[list[Gate], dict]:
    """Fidelity symmetry and the lift/M algebraic contracts."""
    rng = substream(seed, "acceptance-7")
    worst = {"symmetry": 0.0, "lift_trace": 0.0, "riccati": 0.0, "inverse": 0.0}
    for k in range(1000):
        dim = 2 + k % 4
        rho1 = _mixed_state(dim, rng)
        rho2 = _mixed_state(dim, rng)
        # the views of one argument order in a row share one validated pair
        f12 = fidelity(rho1, rho2)
        a1 = matrix_sqrt(rho1)
        a2 = horizontal_lift(rho1, rho2)
        m12 = fuchs_caves_operator(rho1, rho2)
        f21 = fidelity(rho2, rho1)
        m21 = fuchs_caves_operator(rho2, rho1)
        worst["symmetry"] = max(worst["symmetry"], abs(f12 - f21))
        lift_trace = complex(np.trace(a1.conj().T @ a2))
        worst["lift_trace"] = max(
            worst["lift_trace"], abs(lift_trace - np.sqrt(f12))
        )
        worst["riccati"] = max(worst["riccati"], hs_norm(m12 @ rho1 @ m12 - rho2))
        worst["inverse"] = max(
            worst["inverse"], hs_norm(m12 @ m21 - np.eye(dim))
        )
    bounds = {"symmetry": 1e-10, "lift_trace": 1e-9, "riccati": 1e-9, "inverse": 1e-9}
    gates = [Gate(f"max_{k}", v, "<=", bounds[k]) for k, v in worst.items()]
    return gates, {"pairs": 1000}


def criterion_8_optimality(seed: int) -> tuple[list[Gate], dict]:
    """Axis search attains the Bures angle; no POVM ever beats it."""
    rng = substream(seed, "acceptance-8")
    worst_angle_gap = 0.0
    worst_axis_gap = 0.0
    for _ in range(100):
        rho1 = _mixed_state(2, rng)
        rho2 = _mixed_state(2, rng)
        report = qubit_povm_search(rho1, rho2)
        target = bures_angle(rho1, rho2)
        worst_angle_gap = max(worst_angle_gap, abs(report["best_angle"] - target))
        m = fuchs_caves_operator(rho1, rho2)
        m_axis = _bloch_vector(m)
        m_axis /= np.linalg.norm(m_axis)
        cosine = abs(float(np.dot(report["best_axis"], m_axis)))
        worst_axis_gap = max(worst_axis_gap, float(np.arccos(min(1.0, cosine))))
    worst_excess = -np.inf
    for k in range(1000):
        dim = 2 + k % 3
        rho1 = _mixed_state(dim, rng)
        rho2 = _mixed_state(dim, rng)
        elements = random_povm(dim, dim + 2, rng)
        excess = povm_classical_angle(elements, rho1, rho2) - bures_angle(rho1, rho2)
        worst_excess = max(worst_excess, excess)
    gates = [
        Gate("max_angle_gap", worst_angle_gap, "<=", 1e-4, "angle_tol"),
        Gate("max_axis_gap", worst_axis_gap, "<=", float(np.pi / 200), "axis_tol"),
        Gate("max_suboptimality_excess", float(worst_excess), "<=", 1e-9),
    ]
    return gates, {"search_pairs": 100, "random_povms": 1000}


def criterion_9_ambiguity(seed: int) -> tuple[list[Gate], dict]:
    """Analytic pure-pair diameter formula == measured classical angle.

    The tolerance 1e-9 lies below the floor of arccos at coincident
    distributions, arccos(1 - u) ~ sqrt(2u) = 1.49e-8 with u the unit
    roundoff.  At the diameter that bisects the two states p = q, and a sum
    of sqrt(p_k q_k) one ulp below 1 reads 1.49e-8 where the answer is 0.
    With p_k = Tr(E_k rho) taken as einsum("kij,ji->k"), np.vecdot,
    (E * rho^T).sum or one zdotu per element, max_abs_diff is 1.49e-8 and
    the criterion fails; the trace of each E_k rho and the one
    matrix-vector product of the stack give 1.6e-14.  A well-conditioned
    arc, 2 arcsin(|sqrt(p) - sqrt(q)| / 2), would remove the floor.
    """
    worst = 0.0
    points = 0
    thetas = np.linspace(0.1, np.pi - 0.1, 25)
    fractions = np.linspace(0.0, 1.0, 20)
    for theta in thetas:
        rho1 = qubit_state(0.0, 0.0, 1.0)
        rho2 = qubit_state(np.sin(theta), 0.0, np.cos(theta))
        for frac in fractions:
            for inside in (True, False):
                theta_a = frac * (theta / 2 if inside else (np.pi - theta) / 2)
                beta = theta_a if inside else -theta_a
                proj_up = qubit_state(np.sin(beta), 0.0, np.cos(beta))
                elements = [proj_up, np.eye(2, dtype=complex) - proj_up]
                measured = povm_classical_angle(elements, rho1, rho2)
                analytic = pure_state_qubit_angle(theta, theta_a, inside=inside)
                worst = max(worst, abs(measured - analytic))
                points += 1
    return [Gate("max_abs_diff", worst, "<=", 1e-9, "tol")], {"grid_points": points}


def criterion_10_billiard(seed: int) -> tuple[list[Gate], dict]:
    """Bounce kernel states are M's eigenstates, 200 runs per dimension."""
    rng = substream(seed, "acceptance-10")
    per_dim = {}
    for dim in (2, 3, 4, 5):
        counts = dict.fromkeys(("flagged", "mismatched", "wrong_count", "failures"), 0)
        for _ in range(200):
            rho1 = _mixed_state(dim, rng, mix=0.15)
            rho2 = _mixed_state(dim, rng, mix=0.15)
            try:
                report = verify_billiard_theorem(rho1, rho2)
            except NumericalError:
                counts["failures"] += 1
                continue
            if report["flagged"]:
                counts["flagged"] += 1
                continue
            counts["wrong_count"] += len(report["bounce_ts"]) != dim
            counts["mismatched"] += not report["matched"]
        per_dim[str(dim)] = counts
    flagged = sum(c["flagged"] for c in per_dim.values())
    wrong = sum(c["mismatched"] + c["wrong_count"] + c["failures"] for c in per_dim.values())
    gates = [
        Gate(None, wrong, "==", 0),
        Gate("flagged_fraction", flagged / (200 * len(per_dim)), "<", 0.05, "flagged_tol"),
    ]
    return gates, {"runs_per_dim": 200, "per_dim": per_dim}


CRITERIA = [
    (1, "fisher-rao-sphere-equivalence", criterion_1_sphere),
    (2, "classical-monotonicity", criterion_2_monotonicity),
    (3, "multinomial-ellipse", criterion_3_multinomial),
    (4, "mean-ordering-and-axioms", criterion_4_means),
    (5, "monotone-metric-consistency", criterion_5_monotone_consistency),
    (6, "qubit-hemisphere", criterion_6_hemisphere),
    (7, "fidelity-and-lift-contracts", criterion_7_fidelity_lift),
    (8, "measurement-optimality", criterion_8_optimality),
    (9, "pure-state-ambiguity", criterion_9_ambiguity),
    (10, "billiard-theorem", criterion_10_billiard),
]


def run_criterion(number: int, seed: int = DEFAULT_SEED) -> dict:
    """Run one numbered criterion and return its report."""
    for num, name, func in CRITERIA:
        if num == number:
            start = time.perf_counter()
            gates, details = func(seed)
            for gate in gates:
                details.update({gate.key: gate.observed, gate.bound_key: gate.bound})
            details.pop(None, None)
            return {
                "criterion": num,
                "name": name,
                "seed": seed,
                "passed": all(_OPS[g.op](g.observed, g.bound) for g in gates),
                "details": details,
                "runtime_s": time.perf_counter() - start,
            }
    raise ValueError(f"no criterion numbered {number}")


def run_all(seed: int = DEFAULT_SEED) -> list[dict]:
    """Run all ten criteria in order."""
    return [run_criterion(num, seed) for num, _, _ in CRITERIA]
