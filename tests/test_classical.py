"""Fisher-Rao geometry on the probability simplex."""

import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
import scipy.stats

from statgeom import (
    BoundaryError,
    DimensionMismatchError,
    NumericalError,
    ValidationError,
    apply_stochastic,
    euclidean_distance,
    fisher_rao_ds2,
    fr_geodesic_distance,
    jeffreys_density,
    mean_axioms_check,
    monotonicity_stress,
    multinomial_ellipse_experiment,
    operator_monotone_test,
    probability_vector,
    sphere_embed,
    stochastic_matrix,
    substream,
    tangent_vector,
)
from statgeom.classical import _jeffreys_log_norm


def test_probability_vector_normalizes():
    p = probability_vector([2.0, 3.0, 5.0])
    assert np.allclose(p, [0.2, 0.3, 0.5])


def test_probability_vector_clips_noise():
    p = probability_vector([0.5, 0.5, -1e-15])
    assert np.all(p >= 0.0)
    assert abs(p.sum() - 1.0) < 1e-15


def test_probability_vector_rejects_bad_input():
    with pytest.raises(ValidationError):
        probability_vector([0.5, -0.1, 0.6])
    with pytest.raises(ValidationError):
        probability_vector([])
    with pytest.raises(ValidationError):
        probability_vector([0.0, 0.0])


@pytest.mark.parametrize(
    "p, total",
    [
        ([math.nan, 0.5, 0.5], "nan"),
        ([math.inf, 0.5], "inf"),
        pytest.param(  # finite entries whose sum overflows
            [1e308, 1e308], "inf", marks=pytest.mark.filterwarnings("ignore:overflow")
        ),
    ],
)
def test_probability_vector_rejects_non_finite_totals(p, total):
    # each used to normalize to NaN or to zeros, which downstream
    # distances then read as orthogonal
    with pytest.raises(ValidationError) as caught:
        probability_vector(p)
    assert str(caught.value) == f"probability vector sums to {total}"


def test_tangent_vector_must_sum_to_zero():
    assert np.allclose(tangent_vector([0.1, -0.1]), [0.1, -0.1])
    with pytest.raises(ValidationError):
        tangent_vector([0.1, 0.1])


def test_tangent_vector_rejects_nan():
    with pytest.raises(ValidationError, match="tangent vector needs nonempty, finite input"):
        tangent_vector([math.nan, 0.0])


def test_stochastic_matrix_rejects_nan():
    with pytest.raises(ValidationError, match="columns must sum to 1"):
        stochastic_matrix([[math.nan, 0.5], [math.nan, 0.5]])


@pytest.mark.parametrize(
    "t, message",
    [([0.5, 0.5], "must be 2-d"), ([[1.5, 0.5], [-0.5, 0.5]], "negative entries")],
    ids=["one-dimensional", "negative-entry"],
)
def test_stochastic_matrix_rejects_bad_shape_and_sign(t, message):
    with pytest.raises(ValidationError, match=message):
        stochastic_matrix(t)


@pytest.mark.parametrize(
    "call",
    [
        lambda: fisher_rao_ds2([0.5, 0.5], [0.1, -0.05, -0.05]),
        lambda: euclidean_distance([0.5, 0.5], [0.2, 0.3, 0.5]),
        lambda: apply_stochastic(np.eye(2), [0.2, 0.3, 0.5]),
    ],
    ids=["fisher_rao_ds2", "euclidean_distance", "apply_stochastic"],
)
def test_operands_of_different_shapes_are_rejected(call):
    with pytest.raises(DimensionMismatchError):
        call()


def test_fisher_rao_ds2_hand_value():
    p = np.array([0.5, 0.3, 0.2])
    dp = np.array([0.02, -0.01, -0.01])
    expected = 0.25 * (0.02**2 / 0.5 + 0.01**2 / 0.3 + 0.01**2 / 0.2)
    assert fisher_rao_ds2(p, dp) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize(
    "p, dp",
    [([], []), ([math.nan, 0.5], [0.1, -0.1]), ([0.5, 0.5], [math.inf, 0.0])],
    ids=["empty", "nan-probability", "infinite-tangent"],
)
def test_fisher_rao_ds2_rejects_empty_or_non_finite_input(p, dp):
    # these returned 0.0, nan and inf
    with pytest.raises(ValidationError, match="nonempty, finite"):
        fisher_rao_ds2(np.array(p), np.array(dp))


def test_fisher_rao_ds2_rejects_a_dp_off_the_tangent_space():
    # this returned 1.0: dp must sum to 0, as drho of monotone_ds2 is traceless
    with pytest.raises(ValidationError, match="sum to 2.000e"):
        fisher_rao_ds2(np.array([0.5, 0.5]), np.array([1.0, 1.0]))


def test_fisher_rao_ds2_needs_interior_point():
    with pytest.raises(BoundaryError):
        fisher_rao_ds2(np.array([1.0, 0.0]), np.array([0.1, -0.1]))


def test_sphere_embed_is_unit_vector():
    x = sphere_embed(np.array([0.2, 0.3, 0.5]))
    assert np.allclose(x, np.sqrt([0.2, 0.3, 0.5]))
    assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-15)


def test_distance_coincident_and_orthogonal():
    p = np.array([0.2, 0.8])
    assert fr_geodesic_distance(p, p) == pytest.approx(0.0, abs=1e-7)
    assert fr_geodesic_distance(
        np.array([1.0, 0.0]), np.array([0.0, 1.0])
    ) == pytest.approx(math.pi / 2, abs=1e-15)


@pytest.mark.parametrize(
    "p, q, message",
    [
        ([math.nan, 0.5, 0.5], [0.2, 0.3, 0.5], "needs nonempty, finite input"),
        ([0.5, 0.5], [math.inf, 0.0], "needs nonempty, finite input"),
        # these warned first, and RuntimeWarning is an error in this suite
        ([0.5, 0.5], [-0.1, 1.1], "negative probability -1.000e-01"),  # sqrt of a negative
        ([math.inf, 0.0], [0.0, 1.0], "needs nonempty, finite input"),  # inf * 0
        ([1e200, 0.0], [1e200, 1.0], "needs p on the simplex, got sum 1e+200"),  # overflow
    ],
    ids=[f"p{k}-q{k}" for k in range(5)],
)
def test_distance_rejects_a_non_finite_cosine(p, q, message):
    # each made a cosine that is not finite; a NaN one used to clamp to 0,
    # reporting orthogonality (pi/2).  The points are now checked first.
    with pytest.raises(ValidationError) as caught:
        fr_geodesic_distance(np.array(p), np.array(q))
    assert str(caught.value).endswith(message)


@pytest.mark.parametrize("distance", [fr_geodesic_distance, euclidean_distance])
def test_distances_reject_empty_input(distance):
    # these returned pi/2 and 0.0
    with pytest.raises(ValidationError, match="needs nonempty, finite input"):
        distance(np.array([]), np.array([]))


@pytest.mark.parametrize(
    "p, q",
    [([0.5, math.nan], [0.5, 0.5]), ([0.5, 0.5], [math.inf, 0.0])],
    ids=["nan", "inf"],
)
def test_euclidean_distance_rejects_a_non_finite_result(p, q):
    # these returned nan and inf
    with pytest.raises(ValidationError, match="Euclidean distance needs nonempty, finite input"):
        euclidean_distance(np.array(p), np.array(q))


@pytest.mark.parametrize(
    "p, q, message",
    [([1e200, 0.0], [-1e200, 0.0], "needs p on the simplex, got sum 1e+200"),
     ([1e308, 0.0], [-1e308, 0.0], "needs p on the simplex, got sum 1e+308"),
     ([math.inf, 0.0], [math.inf, 0.0], "needs nonempty, finite input")],
    ids=["overflow-in-norm", "overflow-in-subtract", "inf-minus-inf"],
)
def test_euclidean_distance_raises_on_overflow_without_a_warning(p, q, message):
    # these warned first, which a RuntimeWarning filter turns into the error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError) as caught:
            euclidean_distance(np.array(p), np.array(q))
    assert str(caught.value).endswith(message)


# Each classical entry point takes points of the simplex as they are, and
# checks both sides of a pair: these five are off the simplex.
_OFF_THE_SIMPLEX = {
    "off-simplex": ([0.1, 0.1], "needs p on the simplex, got sum 0.2"),
    "negative": ([1.5, -0.5], "negative probability -5.000e-01"),
    "nan": ([math.nan, 1.0], "needs nonempty, finite input"),
    "infinite": ([math.inf, 0.0], "needs nonempty, finite input"),
    "empty": ([], "needs nonempty, finite input"),
}
_UNIFORM = lambda p: np.full(len(p), 1.0 / max(1, len(p)))  # noqa: E731
_ON_POINTS = {
    "fr_geodesic_distance-p": lambda p: fr_geodesic_distance(p, _UNIFORM(p)),
    "fr_geodesic_distance-q": lambda q: fr_geodesic_distance(_UNIFORM(q), q),
    "euclidean_distance-p": lambda p: euclidean_distance(p, _UNIFORM(p)),
    "euclidean_distance-q": lambda q: euclidean_distance(_UNIFORM(q), q),
    "fisher_rao_ds2": lambda p: fisher_rao_ds2(p, np.zeros(len(p))),
    "jeffreys_density": jeffreys_density,
}
# a tangent vector may have negative components; it must sum to 0
_OFF_THE_TANGENT_SPACE = {
    "off-simplex": ([0.1, 0.1], "tangent components sum to 2.000e-01, not 0"),
    "nan": ([math.nan, 0.0], "needs nonempty, finite input"),
    "infinite": ([math.inf, 0.0], "needs nonempty, finite input"),
    "empty": ([], "needs nonempty, finite input"),
}


@pytest.mark.parametrize(
    "call, case",
    [(call, case) for call in _ON_POINTS for case in _OFF_THE_SIMPLEX]
    + [("tangent_vector", case) for case in _OFF_THE_TANGENT_SPACE],
    ids=lambda name: name,
)
def test_entry_points_reject_input_off_the_simplex(call, case):
    # the off-simplex points gave fr_geodesic_distance([0.5, 0.5], [0.1, 0.1])
    # = 1.107 and a Euclidean distance and a line element; tangent_vector
    # passed [inf, 0].  None may warn on the way to its error.
    if call == "tangent_vector":
        run, (x, message) = tangent_vector, _OFF_THE_TANGENT_SPACE[case]
    else:
        run, (x, message) = _ON_POINTS[call], _OFF_THE_SIMPLEX[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValidationError) as caught:
            run(np.array(x, dtype=float))
    assert str(caught.value).endswith(message)


def test_points_of_the_simplex_are_not_normalized():
    # a sum 1e-13 off 1 is on the simplex, and is used as it is
    p = np.array([0.5, 0.5 + 1e-13])
    assert euclidean_distance(p, np.array([0.5, 0.5])) == (0.5 + 1e-13) - 0.5


def test_distance_closed_form_on_binary_family():
    # p = (cos^2 a, sin^2 a) embeds at angle a; distance to uniform is |a - pi/4|
    a = 0.3
    p = np.array([math.cos(a) ** 2, math.sin(a) ** 2])
    u = np.array([0.5, 0.5])
    assert fr_geodesic_distance(p, u) == pytest.approx(math.pi / 4 - a, abs=1e-12)


def test_distance_is_symmetric(rng):
    from statgeom import random_probability_vector

    p = random_probability_vector(5, rng)
    q = random_probability_vector(5, rng)
    assert fr_geodesic_distance(p, q) == pytest.approx(
        fr_geodesic_distance(q, p), abs=1e-15
    )


def test_coarse_graining_contracts_distance():
    t = stochastic_matrix([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
    p = np.array([0.2, 0.3, 0.5])
    q = np.array([0.5, 0.25, 0.25])
    tp, tq = apply_stochastic(t, p), apply_stochastic(t, q)
    assert np.allclose(tp, [0.2, 0.8])
    assert np.allclose(tq, [0.5, 0.5])
    before = fr_geodesic_distance(p, q)
    after = fr_geodesic_distance(tp, tq)
    # hand value for the merged pair: arccos(sqrt(.2*.5) + sqrt(.8*.5))
    assert after == pytest.approx(
        math.acos(math.sqrt(0.1) + math.sqrt(0.4)), abs=1e-14
    )
    assert after <= before + 1e-12


def test_flat_metric_fails_monotonicity():
    # the same merge stretches the Euclidean distance sqrt(1.5) -> sqrt(2)
    t = stochastic_matrix([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
    p = np.array([1.0, 0.0, 0.0])
    q = np.array([0.0, 0.5, 0.5])
    before = euclidean_distance(p, q)
    after = euclidean_distance(apply_stochastic(t, p), apply_stochastic(t, q))
    assert before == pytest.approx(math.sqrt(1.5), abs=1e-15)
    assert after == pytest.approx(math.sqrt(2.0), abs=1e-15)
    assert after > before


def test_monotonicity_stress_clean_for_fisher_rao():
    report = monotonicity_stress(seed=7, trials=300)
    assert report["violations"] == 0
    assert report["max_excess"] <= 1e-9


def test_monotonicity_stress_catches_flat_metric():
    # random soft maps rarely stretch the flat distance, so give the
    # search enough trials to hit at least one expanding triple
    report = monotonicity_stress(seed=7, trials=500, distance=euclidean_distance)
    assert report["violations"] > 0
    assert report["max_excess"] > 1e-3


def test_multinomial_covariance_prediction():
    p = np.array([0.5, 0.3, 0.2])
    report = multinomial_ellipse_experiment(
        p, samples_per_trial=1000, trials=4000, seed=11
    )
    predicted = (np.diag(p) - np.outer(p, p)) / 1000
    assert np.allclose(report["predicted_cov"], predicted, atol=1e-18)
    assert report["max_rel_err"] < 0.2


def test_multinomial_experiment_validation():
    with pytest.raises(ValidationError):
        multinomial_ellipse_experiment(
            np.array([0.5, 0.5]), samples_per_trial=10, trials=10, seed=0
        )
    with pytest.raises(BoundaryError):
        multinomial_ellipse_experiment(
            np.array([1.0, 0.0]), samples_per_trial=1000, trials=10, seed=0
        )


def test_jeffreys_density_diverges_on_the_boundary():
    with pytest.raises(BoundaryError):
        jeffreys_density(np.array([1.0, 0.0]))


@pytest.mark.parametrize(
    "p", [[], [math.nan, 0.5], [math.inf, 0.5], [-math.inf, 0.5]],
    ids=["empty", "nan", "inf", "minus-inf"],
)
def test_jeffreys_density_rejects_empty_or_non_finite_input(p):
    # the first three returned 1.0, nan and 0.0
    with pytest.raises(ValidationError, match="nonempty, finite"):
        jeffreys_density(np.array(p))


@pytest.mark.parametrize(
    "p, total",
    [([2.0, 2.0], "4.0"), ([0.25, 0.25], "0.5"), ([0.0, 2.0], "2.0"), ([0.5, 0.5 + 2e-12], None)],
    ids=["above", "below", "above-with-a-zero", "just-off"],
)
def test_jeffreys_density_rejects_a_point_off_the_simplex(p, total):
    # [2, 2] returned 0.159 and [1/4, 1/4] 1.273, where the density at
    # (1/2, 1/2) is 2/pi; the sum is checked before the boundary
    with pytest.raises(ValidationError, match="on the simplex") as caught:
        jeffreys_density(np.array(p))
    if total is not None:
        assert str(caught.value).endswith(f"got sum {total}")


def test_jeffreys_density_checks_finiteness_before_the_sum():
    with pytest.raises(ValidationError, match="nonempty, finite"):
        jeffreys_density(np.array([math.nan, 2.0]))


def test_jeffreys_density_frozen_values():
    # N = 2 uniform: Gamma(1)/pi * (1/2 * 1/2)^(-1/2) = 2/pi
    assert jeffreys_density(np.array([0.5, 0.5])) == pytest.approx(
        2.0 / math.pi, rel=1e-14
    )
    # N = 3 uniform: Gamma(3/2)/pi^(3/2) * 3^(3/2) = 3*sqrt(3)/(2*pi)
    assert jeffreys_density(np.array([1.0, 1.0, 1.0]) / 3.0) == pytest.approx(
        3.0 * math.sqrt(3.0) / (2.0 * math.pi), rel=1e-14
    )


def test_jeffreys_density_one_outcome_is_exactly_one():
    # Gamma(1/2) / pi^(1/2) = 1, and the closed form has no factor to round
    assert jeffreys_density(np.array([1.0])) == 1.0


_PI_60 = Decimal(
    "3.14159265358979323846264338327950288419716939937510582097494459230781640628620899863"
)


def _log_norm_reference(n):
    """log(Gamma(n/2) / pi^(n/2)) to 60 digits, from exact factorial ratios."""
    k = n // 2
    if n % 2 == 0:  # Gamma(k) = (k - 1)!
        gamma = Decimal(math.factorial(k - 1))
    else:  # Gamma(k + 1/2) = (2k)! sqrt(pi) / (4^k k!)
        gamma = Decimal(math.factorial(2 * k)) / (
            Decimal(4) ** k * Decimal(math.factorial(k))
        )
    return gamma.ln() - k * _PI_60.ln()  # the sqrt(pi) of odd n cancels half a pi


def test_jeffreys_log_normalizer_matches_60_digit_reference():
    # up to n = 186 some point of the simplex still has a finite density;
    # a correctly rounded log normalizer is off by at most 1.35e-14 there
    with localcontext() as ctx:
        ctx.prec = 60
        worst = max(
            abs(Decimal(_jeffreys_log_norm(n)) - _log_norm_reference(n))
            for n in range(1, 187)
        )
    assert worst <= Decimal("2e-14")


def test_jeffreys_density_overflow_is_a_numerical_error():
    # -1/2 sum log p passes the float range long before n = 500
    p = substream(7, "jeffreys-overflow").dirichlet(np.ones(500))
    with pytest.raises(NumericalError, match="overflows a float"):
        jeffreys_density(p)


def test_jeffreys_density_matches_dirichlet_half():
    rng = substream(5, "jeffreys-oracle")
    for _ in range(20):
        p = rng.dirichlet([1.0] * 4)
        oracle = scipy.stats.dirichlet([0.5] * 4).pdf(p[:-1])
        assert jeffreys_density(p) == pytest.approx(oracle, rel=1e-10)


def test_jeffreys_density_integrates_to_one():
    # E over Dirichlet(1/2) of (N-1)!/density equals the simplex volume
    # times (N-1)!, i.e. exactly 1; the integrand is bounded, so a seeded
    # Monte Carlo mean pins the normalizer.
    rng = substream(6, "jeffreys-normalizer")
    samples = rng.dirichlet([0.5] * 3, size=20000)
    values = 2.0 / np.array([jeffreys_density(p) for p in samples])
    assert abs(values.mean() - 1.0) < 0.02


@pytest.mark.parametrize("trials", [0, -3])
@pytest.mark.parametrize(
    "run",
    [
        lambda trials: operator_monotone_test(np.sqrt, 2, 1, trials),
        lambda trials: monotonicity_stress(1, trials),
        lambda trials: multinomial_ellipse_experiment([0.2, 0.3, 0.5], 100, trials, 1),
        lambda trials: mean_axioms_check("geometric", 1, trials),
    ],
    ids=[
        "operator_monotone_test", "monotonicity_stress", "multinomial_ellipse_experiment",
        "mean_axioms_check",
    ],
)
def test_trials_below_one_are_rejected(run, trials):
    with pytest.raises(ValidationError, match="trials must be >= 1"):
        run(trials)


# The validators as they were written before their one-min() fast paths:
# each must give these bits, or the same exception and message.


def _probability_vector_reference(p):
    p = np.asarray(p, dtype=float).ravel()
    if p.size == 0:
        raise ValidationError("probability vector must be nonempty")
    if (p < -1e-12).any():
        raise ValidationError(f"negative probability {p.min():.3e}")
    p = np.maximum(p, 0.0)
    total = p.sum()
    if not 0.0 < total < math.inf:
        raise ValidationError(f"probability vector sums to {'zero' if total == 0 else total}")
    return p / total


def _stochastic_matrix_reference(t):
    t = np.asarray(t, dtype=float)
    if t.ndim != 2:
        raise ValidationError("stochastic matrix must be 2-d")
    if (t < -1e-12).any():
        raise ValidationError("stochastic matrix has negative entries")
    col_sums = t.sum(axis=0)
    if not (np.abs(col_sums - 1.0) <= 1e-12).all():
        raise ValidationError("columns must sum to 1")
    return t


def _outcome(call, arg):
    """The dtype, shape and bytes of what ``call`` returns, or its exception's
    type and message."""
    try:
        out = call(arg)
    except Exception as exc:  # noqa: BLE001 - any exception is an outcome to compare
        return type(exc), str(exc)
    return out.dtype, out.shape, out.tobytes()


@pytest.mark.parametrize("n", range(1, 17))
def test_probability_vector_has_the_bits_of_the_full_clamp(n):
    rng = np.random.default_rng(n)
    draws = [
        rng.uniform(0.0, 1.0, n),
        rng.dirichlet(np.ones(n)),
        rng.uniform(-1e-12, 1.0, n),
        rng.normal(size=n),
        np.where(rng.uniform(size=n) < 0.3, 0.0, rng.uniform(size=n)),
        np.where(rng.uniform(size=n) < 0.3, -0.0, rng.uniform(size=n)),
        rng.uniform(size=(n, 2)),  # raveled
    ]
    for p in draws:
        assert _outcome(probability_vector, p) == _outcome(_probability_vector_reference, p)


@pytest.mark.parametrize(
    "p",
    [
        [-0.0, 0.5, 0.5],
        [0.5, -0.0],
        [-0.0],
        [-1e-13, 0.5, 0.5],
        [0.5, -1e-300],
        [-2e-12, 1.0],
        [math.nan, 0.5],
        [0.5, math.nan, -5.0],
        [math.nan, -5.0],
        [0.0, 0.0],
        [-0.0, -0.0],
        [math.inf, 0.5],
        [],
    ],
    ids=[
        "negative-zero", "negative-zero-last", "only-negative-zero", "within-the-band",
        "subnormal-negative", "below-the-band", "nan", "nan-beside-minus-five",
        "nan-then-minus-five", "zeros", "negative-zeros", "infinite", "empty",
    ],
)
def test_probability_vector_edge_cases_reach_the_full_clamp(p):
    p = np.array(p, dtype=float)
    assert _outcome(probability_vector, p) == _outcome(_probability_vector_reference, p)


def test_probability_vector_turns_negative_zero_into_zero():
    assert np.signbit(probability_vector([-0.0, 1.0])).tolist() == [False, False]


@pytest.mark.parametrize("n", range(1, 17))
def test_stochastic_matrix_has_the_verdict_of_the_full_test(n):
    rng = np.random.default_rng(100 + n)
    good = rng.dirichlet(np.ones(n), size=3).T
    bad = good.copy()
    bad[0, 0] -= 1.0
    noisy = good.copy()
    noisy[-1, -1] = -1e-13
    for t in (good, bad, noisy, rng.uniform(size=(n, n)), -good, np.where(good < 0.2, -0.0, good)):
        assert _outcome(stochastic_matrix, t) == _outcome(_stochastic_matrix_reference, t)


@pytest.mark.parametrize(
    "t",
    [
        np.zeros((0, 3)),
        np.zeros((3, 0)),
        np.zeros((0, 0)),
        [[math.nan, 0.5], [-5.0, 0.5]],
        [[math.nan, 0.5], [0.5, 0.5]],
        [[-0.0, 1.0], [1.0, -0.0]],
        [[-1e-13, 1.0], [1.0 + 1e-13, 0.0]],
        [[math.inf, 0.5], [0.5, 0.5]],
    ],
    ids=["rows-empty", "columns-empty", "empty", "nan-beside-minus-five", "nan",
         "negative-zeros", "within-the-band", "infinite"],
)
def test_stochastic_matrix_edge_cases_reach_the_full_test(t):
    t = np.array(t, dtype=float)
    assert _outcome(stochastic_matrix, t) == _outcome(_stochastic_matrix_reference, t)
