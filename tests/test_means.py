"""Operator means: named trio, axioms, ordering, non-monotone rejects."""

import math
import tracemalloc

import numpy as np
import pytest

from statgeom import (
    DomainError,
    SingularError,
    ValidationError,
    arithmetic_mean,
    geometric_mean,
    harmonic_mean,
    matrix_function,
    mean_axioms_check,
    mean_function,
    min_eigenvalue,
    operator_mean,
    operator_monotone_test,
    psd_order_geq,
    random_psd,
    square_monotonicity_counterexample,
    substream,
)
from statgeom.means import _MONOTONE_BLOCK

A2 = np.array([[2.0, 1.0], [1.0, 2.0]])


def _random_pd_pair(dim, rng):
    a = random_psd(dim, rng) + 0.05 * np.eye(dim)
    b = random_psd(dim, rng) + 0.05 * np.eye(dim)
    return a, b


def test_commuting_means_frozen():
    a = np.diag([1.0, 4.0]).astype(complex)
    b = np.diag([4.0, 1.0]).astype(complex)
    assert np.allclose(geometric_mean(a, b), np.diag([2.0, 2.0]), atol=1e-13)
    assert np.allclose(arithmetic_mean(a, b), np.diag([2.5, 2.5]), atol=1e-15)
    assert np.allclose(harmonic_mean(a, b), np.diag([1.6, 1.6]), atol=1e-13)


def test_geometric_mean_with_identity_is_sqrt():
    g = geometric_mean(A2, np.eye(2))
    d = (math.sqrt(3.0) + 1.0) / 2.0
    o = (math.sqrt(3.0) - 1.0) / 2.0
    assert np.allclose(g, [[d, o], [o, d]], atol=1e-13)


def test_geometric_mean_solves_riccati(rng):
    # G A^{-1} G = B characterizes the geometric mean of positive A, B
    for dim in (2, 3, 5):
        a, b = _random_pd_pair(dim, rng)
        g = geometric_mean(a, b)
        assert np.allclose(g @ np.linalg.inv(a) @ g, b, atol=1e-10)


def test_geometric_mean_is_symmetric(rng):
    a, b = _random_pd_pair(4, rng)
    assert np.allclose(geometric_mean(a, b), geometric_mean(b, a), atol=1e-10)


def test_harmonic_mean_matches_resolvent_formula(rng):
    # 2 (A^{-1} + B^{-1})^{-1}, computed without the sandwich construction
    a, b = _random_pd_pair(3, rng)
    direct = 2.0 * np.linalg.inv(np.linalg.inv(a) + np.linalg.inv(b))
    assert np.allclose(harmonic_mean(a, b), direct, atol=1e-11)


def test_arithmetic_mean_routes_agree(rng):
    a, b = _random_pd_pair(3, rng)
    assert np.allclose(
        operator_mean(a, b, "arithmetic"), (a + b) / 2.0, atol=1e-11
    )


def test_operator_mean_accepts_callable(rng):
    a, b = _random_pd_pair(3, rng)
    named = operator_mean(a, b, "geometric")
    custom = operator_mean(a, b, np.sqrt)
    assert np.allclose(named, custom, atol=1e-12)


def test_mean_ordering_harmonic_geometric_arithmetic(rng):
    for dim in (2, 3, 4, 5):
        for _ in range(10):
            a, b = _random_pd_pair(dim, rng)
            h = harmonic_mean(a, b)
            g = geometric_mean(a, b)
            m = arithmetic_mean(a, b)
            assert psd_order_geq(g, h)
            assert psd_order_geq(m, g)


def test_idempotence(rng):
    a = random_psd(4, rng) + 0.05 * np.eye(4)
    for name in ("arithmetic", "geometric", "harmonic"):
        assert np.allclose(operator_mean(a, a, name), a, atol=1e-11)


def test_operator_mean_requires_invertible_first_argument():
    with pytest.raises(SingularError):
        operator_mean(np.diag([1.0, 0.0]), np.eye(2), "geometric")


def _all_nan(t):
    return np.full_like(np.asarray(t, dtype=float), np.nan)


def _log_mean_without_limit(t):
    return (t - 1.0) / np.log(t)  # 0/0 = NaN at t = 1


def test_operator_mean_rejects_f_not_finite_on_the_core():
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(DomainError, match="not finite"):
            operator_mean(np.eye(2), 2.0 * np.eye(2), _all_nan)
        with pytest.raises(DomainError, match="not finite"):
            operator_mean(np.eye(2), np.eye(2), _log_mean_without_limit)  # core spectrum {1}
    # the pair stays usable: its named means are unchanged
    assert np.array_equal(operator_mean(np.eye(2), 2.0 * np.eye(2), "arithmetic"), 1.5 * np.eye(2))


def test_mean_function_lookup():
    f = mean_function("geometric")
    assert f(4.0) == pytest.approx(2.0)
    with pytest.raises(ValidationError):
        mean_function("quadratic")


def test_axioms_hold_for_named_means():
    for name in ("arithmetic", "geometric", "harmonic"):
        report = mean_axioms_check(name, seed=3, trials=60)
        assert report["violations"] == 0, report


def test_axioms_flag_the_square_in_mixed_monotonicity():
    # the formula with f(t) = t^2 keeps axioms a, b and d, and breaks c, since
    # t^2 is not operator monotone: on each of the 30 pairs drawn at seed 1729
    report = mean_axioms_check(lambda t: t * t, 1729, trials=30)
    assert report["c"] == report["violations"] == 30


def test_axioms_flag_an_unnormalized_f_in_idempotence():
    # f = 1.1 (1 + t)/2 has f(1) = 1.1, so M(A, A) = 1.1 A; the other three
    # axioms survive the constant factor
    report = mean_axioms_check(lambda t: 0.55 * (1.0 + t), 1729, trials=3)
    assert report["a"] == report["violations"] == 3


@pytest.mark.parametrize(
    "f, dim, error, message",
    [
        (np.sqrt, 1, ValidationError, "dim must be >= 2"),
        (lambda t: np.full_like(t, np.inf), 2, DomainError, "f is undefined"),
    ],
    ids=["dim-1", "f-infinite"],
)
def test_operator_monotone_search_rejects_bad_input(f, dim, error, message):
    with pytest.raises(error, match=message):
        operator_monotone_test(f, dim=dim, seed=1, trials=10)


def test_operator_monotone_search_clears_sqrt():
    report = operator_monotone_test(np.sqrt, dim=3, seed=1, trials=200)
    assert report["counterexample"] is None
    assert report["min_gap"] > -1e-9


def test_operator_monotone_search_rejects_square():
    report = operator_monotone_test(lambda t: t**2, dim=2, seed=1, trials=500)
    assert report["counterexample"] is not None
    assert report["counterexample"]["min_eigenvalue"] < -1e-6
    a = report["counterexample"]["a"]
    b = report["counterexample"]["b"]
    # the witness pair really is ordered, and really violates after squaring
    assert np.linalg.eigvalsh(a - b)[0] >= -1e-9
    assert np.linalg.eigvalsh(a @ a - b @ b)[0] < -1e-6


def _operator_monotone_reference(f, dim, seed, trials):
    """operator_monotone_test as it was written before its blocks: one trial
    at a time, each side through the public matrix_function."""
    def clipped(w):
        fw = np.asarray(f(np.clip(w, 0.0, None)), dtype=float)
        if not np.all(np.isfinite(fw)):
            raise DomainError("f is undefined on part of the sampled spectrum")
        return fw

    rng = substream(seed, "operator-monotone")
    worst = np.inf
    counterexample = None
    for _ in range(trials):
        b = random_psd(dim, rng)
        a = b + random_psd(dim, rng)
        gap = min_eigenvalue(matrix_function(a, clipped) - matrix_function(b, clipped))
        worst = min(worst, gap)
        if gap < -1e-9 and counterexample is None:
            counterexample = {"a": a, "b": b, "min_eigenvalue": gap}
    return {"counterexample": counterexample, "min_gap": float(worst), "trials": trials}


@pytest.mark.parametrize("seed", [1729, 1, 2])
@pytest.mark.parametrize("dim", [2, 3, 5])
@pytest.mark.parametrize("f", [lambda t: t * t, np.sqrt], ids=["square", "sqrt"])
def test_the_blocked_search_has_the_bits_of_the_trial_loop(f, dim, seed):
    trials = _MONOTONE_BLOCK + 1  # a full block and a block of one
    got = operator_monotone_test(f, dim, seed, trials)
    expected = _operator_monotone_reference(f, dim, seed, trials)
    assert got["trials"] == trials
    assert type(got["min_gap"]) is float
    assert np.float64(got["min_gap"]).tobytes() == np.float64(expected["min_gap"]).tobytes()
    if expected["counterexample"] is None:
        assert got["counterexample"] is None
        return
    found, oracle = got["counterexample"], expected["counterexample"]
    assert type(found["min_eigenvalue"]) is float
    assert found["min_eigenvalue"] == oracle["min_eigenvalue"]
    for key in ("a", "b"):
        assert found[key].shape == (dim, dim) and found[key].flags.owndata
        assert found[key].tobytes() == oracle[key].tobytes()


def test_a_counterexample_in_a_later_block_is_the_first_one():
    # t^1.002 first fails at seed 6 in trial 724, in the third block
    def f(t):
        return t**1.002

    trials = 3 * _MONOTONE_BLOCK
    got = operator_monotone_test(f, 2, 6, trials)["counterexample"]
    expected = _operator_monotone_reference(f, 2, 6, trials)["counterexample"]
    assert got["a"].tobytes() == expected["a"].tobytes()
    assert got["b"].tobytes() == expected["b"].tobytes()
    assert got["min_eigenvalue"] == pytest.approx(expected["min_eigenvalue"], rel=1e-9)


def test_a_non_finite_f_raises_with_its_message_in_a_later_block():
    def f(t):  # at seed 1729, no eigenvalue of the first block passes 1.99
        return np.where(t > 1.99, np.inf, t)

    for search in (operator_monotone_test, _operator_monotone_reference):
        with pytest.raises(DomainError) as caught:
            search(f, 2, 1729, 4 * _MONOTONE_BLOCK)
        assert str(caught.value) == "f is undefined on part of the sampled spectrum"
    assert operator_monotone_test(f, 2, 1729, _MONOTONE_BLOCK)["counterexample"] is None


def test_the_search_memory_does_not_grow_with_trials():
    operator_monotone_test(np.sqrt, 3, 1, 1)  # first-call imports and caches
    peaks = []
    for trials in (2 * _MONOTONE_BLOCK, 8 * _MONOTONE_BLOCK):
        tracemalloc.start()
        try:
            operator_monotone_test(np.sqrt, 3, 1, trials)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.05 * peaks[0], peaks  # kept pairs would add 0.5 KB a trial


def test_square_counterexample_frozen():
    report = square_monotonicity_counterexample()
    assert np.allclose(report["a"], [[2.0, 1.0], [1.0, 1.0]])
    assert np.allclose(report["b"], [[1.0, 0.0], [0.0, 0.0]])
    assert report["a_minus_b_min_eigenvalue"] >= -1e-12
    assert np.allclose(report["square_diff"], [[4.0, 3.0], [3.0, 2.0]])
    assert report["square_diff_min_eigenvalue"] == pytest.approx(
        3.0 - math.sqrt(10.0), abs=1e-12
    )
