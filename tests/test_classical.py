"""Fisher-Rao geometry on the probability simplex."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
import scipy.stats

from statgeom import (
    BoundaryError,
    NumericalError,
    ValidationError,
    apply_stochastic,
    euclidean_distance,
    fisher_rao_ds2,
    fr_geodesic_distance,
    jeffreys_density,
    monotonicity_stress,
    multinomial_ellipse_experiment,
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


def test_fisher_rao_ds2_hand_value():
    p = np.array([0.5, 0.3, 0.2])
    dp = np.array([0.02, -0.01, -0.01])
    expected = 0.25 * (0.02**2 / 0.5 + 0.01**2 / 0.3 + 0.01**2 / 0.2)
    assert fisher_rao_ds2(p, dp) == pytest.approx(expected, rel=1e-14)


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
    "p, q",
    [
        ([math.nan, 0.5, 0.5], [0.2, 0.3, 0.5]),
        ([0.5, 0.5], [math.inf, 0.0]),
    ],
)
def test_distance_rejects_a_non_finite_cosine(p, q):
    # a NaN cosine used to clamp to 0, reporting orthogonality (pi/2)
    with pytest.raises(ValidationError, match="not finite"):
        fr_geodesic_distance(np.array(p), np.array(q))


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
