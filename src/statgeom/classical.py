"""Fisher-Rao geometry on the probability simplex.

Covers the metric itself, the square-root embedding onto the positive
octant of the unit sphere, geodesic distance, stochastic coarse-graining
with its monotonicity stress test, the multinomial error-ellipse
experiment, and the Jeffreys prior density.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BoundaryError, DimensionMismatchError, NumericalError, ValidationError
from .sampling import random_probability_vector, random_stochastic_matrix, substream

__all__ = [
    "probability_vector",
    "tangent_vector",
    "stochastic_matrix",
    "fisher_rao_ds2",
    "sphere_embed",
    "fr_geodesic_distance",
    "euclidean_distance",
    "apply_stochastic",
    "monotonicity_stress",
    "multinomial_ellipse_experiment",
    "jeffreys_density",
]


def probability_vector(p) -> np.ndarray:
    """Validate and normalize a point of the probability simplex.

    Entries more than 1e-12 below zero are rejected; tiny negative noise is
    clipped and the vector renormalized to unit sum.
    """
    p = np.asarray(p, dtype=float).ravel()
    if p.size == 0:
        raise ValidationError("probability vector must be nonempty")
    if np.any(p < -1e-12):
        raise ValidationError(f"negative probability {p.min():.3e}")
    p = np.clip(p, 0.0, None)
    total = p.sum()
    if not 0.0 < total < math.inf:  # zero, NaN, or an infinite entry or sum
        raise ValidationError(f"probability vector sums to {'zero' if total == 0 else total}")
    return p / total


def tangent_vector(dp) -> np.ndarray:
    """Validate a tangent vector of the simplex (components sum to zero)."""
    dp = np.asarray(dp, dtype=float).ravel()
    scale = max(1.0, float(np.abs(dp).sum()))
    if abs(dp.sum()) > 1e-12 * scale:
        raise ValidationError(f"tangent components sum to {dp.sum():.3e}, not 0")
    return dp


def stochastic_matrix(t) -> np.ndarray:
    """Validate a column-stochastic matrix (columns sum to 1, entries >= 0)."""
    t = np.asarray(t, dtype=float)
    if t.ndim != 2:
        raise ValidationError("stochastic matrix must be 2-d")
    if np.any(t < -1e-12):
        raise ValidationError("stochastic matrix has negative entries")
    col_sums = t.sum(axis=0)
    if np.any(np.abs(col_sums - 1.0) > 1e-12):
        raise ValidationError("columns must sum to 1")
    return t


def fisher_rao_ds2(p: np.ndarray, dp: np.ndarray) -> float:
    """Squared Fisher-Rao line element (1/4) sum dp_i^2 / p_i.

    The 1/4 normalization makes classical distances directly comparable to
    the quantum ones elsewhere in this package.
    """
    p = np.asarray(p, dtype=float)
    dp = np.asarray(dp, dtype=float)
    if p.shape != dp.shape:
        raise DimensionMismatchError(f"p has shape {p.shape}, dp {dp.shape}")
    if np.any(p <= 0.0):
        raise BoundaryError("metric diverges where a probability vanishes")
    return 0.25 * float(np.sum(dp * dp / p))


def sphere_embed(p: np.ndarray) -> np.ndarray:
    """Map a simplex point to the positive sphere octant, x_i = sqrt(p_i)."""
    return np.sqrt(probability_vector(p))


def fr_geodesic_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Fisher-Rao geodesic distance arccos(sum_i sqrt(p_i q_i)), in radians.

    Equals the great-circle arc between the sphere embeddings of p and q,
    and lies in [0, pi/2].  Finite on the simplex boundary.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise DimensionMismatchError(f"p has shape {p.shape}, q {q.shape}")
    cosine = float(np.sum(np.sqrt(p * q)))
    if not math.isfinite(cosine):  # a NaN, infinite or negative entry
        raise ValidationError(f"sum of sqrt(p_i q_i) is {cosine}, not finite")
    return math.acos(min(1.0, max(0.0, cosine)))


def euclidean_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Flat-simplex distance |p - q|; not monotone under stochastic maps."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise DimensionMismatchError(f"p has shape {p.shape}, q {q.shape}")
    return float(np.linalg.norm(p - q))


def apply_stochastic(t: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Push a probability vector through a column-stochastic matrix."""
    t = stochastic_matrix(t)
    p = probability_vector(p)
    if t.shape[1] != p.size:
        raise DimensionMismatchError(
            f"matrix has {t.shape[1]} columns, vector has {p.size} entries"
        )
    return probability_vector(t @ p)


def monotonicity_stress(seed: int, trials: int, distance=None, tol: float = 1e-9) -> dict:
    """Stress-test distance monotonicity under random stochastic maps.

    Samples (T, P, Q) with input/output sizes drawn from 2..5 and counts
    trials where distance(TP, TQ) exceeds distance(P, Q) by more than ``tol``.
    ``distance`` defaults to :func:`fr_geodesic_distance`, which should never
    violate; passing :func:`euclidean_distance` exhibits stretching.

    Returns a dict with ``violations`` and ``max_excess``.
    """
    if distance is None:
        distance = fr_geodesic_distance
    rng = substream(seed, "monotonicity-stress")
    violations = 0
    max_excess = 0.0
    for _ in range(trials):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(2, 6))
        t = random_stochastic_matrix(m, n, rng)
        p = random_probability_vector(n, rng)
        q = random_probability_vector(n, rng)
        before = distance(p, q)
        after = distance(apply_stochastic(t, p), apply_stochastic(t, q))
        excess = after - before
        max_excess = max(max_excess, excess)
        if excess > tol:
            violations += 1
    return {"violations": violations, "max_excess": max_excess}


def multinomial_ellipse_experiment(
    p: np.ndarray, samples_per_trial: int, trials: int, seed: int
) -> dict:
    """Compare empirical frequency covariance to the multinomial prediction.

    Draws ``trials`` frequency vectors from ``samples_per_trial`` multinomial
    samplings of p, forms the covariance of f - p about the true mean, and
    compares entrywise to (diag(p) - p p^T) / samples_per_trial.

    Returns ``empirical_cov``, ``predicted_cov``, and ``max_rel_err``.
    """
    p = probability_vector(p)
    if np.any(p <= 0.0):
        raise BoundaryError("experiment needs a strictly positive p")
    if samples_per_trial < 100:
        raise ValidationError("samples_per_trial must be >= 100")
    rng = substream(seed, "multinomial-ellipse")
    counts = rng.multinomial(samples_per_trial, p, size=trials)
    deviations = counts / samples_per_trial - p
    empirical = deviations.T @ deviations / trials
    predicted = (np.diag(p) - np.outer(p, p)) / samples_per_trial
    max_rel_err = float(np.max(np.abs(empirical - predicted) / np.abs(predicted)))
    return {
        "empirical_cov": empirical,
        "predicted_cov": predicted,
        "max_rel_err": max_rel_err,
    }


def _jeffreys_log_norm(n: int) -> float:
    """log(Gamma(n/2) / pi^(n/2)), the log Dirichlet(1/2, ..., 1/2) normalizer.

    Gamma(n/2) is the product of the n/2 - m > 0 (m >= 1), times sqrt(pi) for
    odd n, which leaves floor(n/2) factors of 1/pi; one fsum adds the logs.
    """
    return math.fsum(
        np.log(n / 2.0 - np.arange(1, (n + 1) // 2)).tolist()
        + [-math.log(math.pi)] * (n // 2)
    )


def jeffreys_density(p: np.ndarray) -> float:
    """Jeffreys prior density at p, normalized over the simplex.

    Proportional to prod_i p_i^(-1/2), the square root of the Fisher-Rao
    metric determinant; the constant is the Dirichlet(1/2, ..., 1/2)
    normalizer with respect to Lebesgue measure on the simplex.

    For two outcomes this is the arcsine law: 1 / (pi sqrt(p (1 - p))).
    Raises :class:`NumericalError` when the density exceeds the float range.
    """
    p = np.asarray(p, dtype=float).ravel()
    if np.any(p <= 0.0):
        raise BoundaryError("density diverges where a probability vanishes")
    try:
        return float(math.exp(_jeffreys_log_norm(p.size) - 0.5 * np.sum(np.log(p))))
    except OverflowError:
        raise NumericalError("Jeffreys density overflows a float") from None
