"""Monotone Riemannian metrics on density matrices.

Every metric that contracts under completely positive trace-preserving
maps is labeled by a function f on (0, inf) that is (i) operator
monotone, (ii) symmetric in the sense f(1/t) = f(t)/t, and (iii)
normalized by f(1) = 1.  In the eigenbasis of rho = V diag(lambda) V*
the squared line element reads

    ds^2 = (1/4) [ sum_i ds_ii^2 / lambda_i
                   + 2 sum_{i<j} |ds_ij|^2 / (lambda_j f(lambda_i/lambda_j)) ]

with ds = V* drho V.  The arithmetic choice f = (1+t)/2 reproduces the
Bures metric; all choices coincide with Fisher-Rao on commuting
(diagonal) data.
"""

from __future__ import annotations

import numpy as np

from .errors import BoundaryError, DomainError, ValidationError
from .linalg import EigenSystem, _hermitian_checked
from .means import mean_function

__all__ = [
    "density_matrix",
    "tangent_perturbation",
    "monotone_ds2",
    "f_conditions_check",
]


def _square(a, noun: str = "density matrix") -> np.ndarray:
    """``a`` as a complex array, once it is checked to be one square matrix."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"{noun} must be square, got shape {a.shape}")
    return a


def density_matrix(rho) -> np.ndarray:
    """Validate a density matrix: square, Hermitian, unit trace, PSD (to -1e-12)."""
    return _states(_square(rho))[0]


def _states(stack: np.ndarray) -> tuple:
    """(hermitian_part(stack), its eigh) for a square state or an (..., n, n)
    stack of them, checked check by check over the whole stack: Hermitian,
    unit trace, then PSD by the one eigh that serves the caller (a stacked
    eigh has the bits of a 2-D eigh on each slice).  The first state that
    fails a check raises density_matrix's error."""
    h, hermitian = _hermitian_checked(stack)
    if not hermitian.all():
        raise ValidationError("density matrix must be Hermitian")
    traces = h.trace(axis1=-2, axis2=-1).real
    off = traces[abs(traces - 1.0) > 1e-12]
    if off.size:
        raise ValidationError(f"density matrix trace is {float(off[0])!r}, expected 1")
    spectrum = EigenSystem(*np.linalg.eigh(h))  # h is its own hermitian_part
    if spectrum.eigenvalues[..., 0].min() < -1e-12:
        raise ValidationError("density matrix has a negative eigenvalue")
    return h, spectrum


def tangent_perturbation(drho) -> np.ndarray:
    """Validate a tangent perturbation: Hermitian and traceless."""
    drho, hermitian = _hermitian_checked(_square(drho, "perturbation"))
    if not hermitian:
        raise ValidationError("perturbation must be Hermitian")
    scale = max(1.0, float(np.abs(drho).sum()))
    if abs(complex(np.trace(drho)).real) > 1e-12 * scale:
        raise ValidationError("perturbation must be traceless")
    return drho


def monotone_ds2(rho: np.ndarray, drho: np.ndarray, f="arithmetic") -> float:
    """Squared line element of the monotone metric labeled by f.

    ``f`` is a mean name ("arithmetic" for the Bures metric, "geometric",
    "harmonic") or a vectorizable callable.  ``rho`` must be strictly
    positive — all monotone metrics with f(0) = 0 diverge on the boundary
    of state space, so singular input raises BoundaryError; an f that makes
    some lambda_j f(lambda_i / lambda_j) not finite and positive, DomainError.
    """
    if isinstance(f, str):
        f = mean_function(f)
    _, (lam, v) = _states(_square(rho))  # one eigh validates rho and serves the metric
    drho = tangent_perturbation(drho)
    if v.shape != drho.shape:
        raise ValidationError(
            f"state has shape {v.shape}, perturbation {drho.shape}"
        )
    if lam[0] <= 1e-10:
        raise BoundaryError(
            f"state eigenvalue {lam[0]:.3e} too close to the boundary"
        )
    i, j = np.triu_indices(lam.size, k=1)
    denom = lam[j] * np.asarray(f(lam[i] / lam[j]), dtype=float)
    if not ((denom > 0.0) & (denom < np.inf)).all():  # NaN fails
        raise DomainError("lambda_j f(lambda_i / lambda_j) is not finite and positive")
    ds = v.conj().T @ drho @ v
    diag = float(np.sum(np.real(np.diag(ds)) ** 2 / lam))
    off = 2.0 * float(np.sum(np.abs(ds[i, j]) ** 2 / denom))
    return 0.25 * (diag + off)


# Condition (i) by Löwner's theorem (Löwner 1934; Bhatia, Matrix Analysis,
# ch. V): f is operator monotone on (0, inf) iff every Löwner matrix
# [(f(x_i) - f(x_j)) / (x_i - x_j)], with f'(x_i) on its diagonal, is PSD.
# The even point count keeps t = 1, where (t - 1)/ln t is 0/0, off the grid.
_LOWNER_GRID = np.logspace(-3.0, 3.0, 48)
_LOWNER_STEP = 1e-4  # central-difference step, relative to x
_LOWNER_FLOOR = -1e-5  # see f_conditions_check


def _lowner_spectrum(f) -> tuple[float, np.ndarray]:
    """Smallest eigenvalue and its eigenvector of f's Löwner matrix on the
    grid, scaled to a unit diagonal (a zero f' is left unscaled)."""
    x = _LOWNER_GRID
    step = _LOWNER_STEP * x
    with np.errstate(all="ignore"):
        fx = np.asarray(f(x), dtype=float)
        deriv = (np.asarray(f(x + step), dtype=float) - f(x - step)) / (2.0 * step)
    if not (np.isfinite(fx).all() and np.isfinite(deriv).all()):
        raise DomainError("f is not finite on the grid over [1e-3, 1e3]")
    lowner = (fx[:, None] - fx) / (x[:, None] - x + np.eye(x.size))
    np.fill_diagonal(lowner, deriv)
    scale = 1.0 / np.sqrt(np.where(deriv == 0.0, 1.0, np.abs(deriv)))
    w, v = np.linalg.eigh(scale[:, None] * lowner * scale)
    return float(w[0]), v[:, 0]


def _symmetry_defect(f) -> float:
    """Largest relative defect of f(1/t) = f(t)/t on a log grid over [1e-3, 1e3]."""
    grid = np.logspace(-3.0, 3.0, 61)
    ft = np.asarray(f(grid), dtype=float)
    finv = np.asarray(f(1.0 / grid), dtype=float)
    return float(np.max(np.abs(finv - ft / grid) / np.maximum(1.0, np.abs(ft / grid))))


def f_conditions_check(f) -> dict:
    """Check the three admissibility conditions for a metric function f.

    Condition (i), operator monotonicity, is decided by Löwner's theorem:
    the Löwner matrix of f on 48 log-spaced points over [1e-3, 1e3], with
    a central-difference f' (step 1e-4 x) on its diagonal and scaled to a
    unit diagonal, must have no eigenvalue below -1e-5.  That floor sits in
    the measured gap.  Operator-monotone f read at least -5.2e-10 (the
    arithmetic, geometric and harmonic means, Wigner-Yanase, Kubo-Mori,
    log1p, t^0.3), and -1.0e-7 for the nearly flat 1 + t/1000, whose
    difference quotient loses the most to rounding.  t^1.0001 reads
    -6.0e-3, and t^2, t^1.5, sqrt((1+t^2)/2), t^1.1, t^1.01, t^1.001 and
    t^-0.01 read -6.0e-2 or less; t^(1+d) reads about -60 d, so the floor
    resolves d down to about 2e-7.  ``witness`` lists the grid points where
    the eigenvector of the failing eigenvalue has at least half its largest
    magnitude, or is None when f passes.  No random draw is made.  Raises
    DomainError if f is not finite on the grid.

    (ii) is the grid identity f(1/t) = f(t)/t over t in [1e-3, 1e3]; (iii)
    is f(1) = 1.  The report also flags f(0) = 0, which makes the metric
    divergent on the boundary of state space; where f(0) is not finite,
    f(1e-14) stands in for it.
    """
    if isinstance(f, str):
        f = mean_function(f)
    lowest, direction = _lowner_spectrum(f)
    witness = None
    if lowest < _LOWNER_FLOOR:
        weight = np.abs(direction)
        witness = _LOWNER_GRID[weight >= 0.5 * weight.max()].tolist()
    sym_defect = _symmetry_defect(f)
    with np.errstate(all="ignore"):
        at_zero = float(f(np.float64(0.0)))
        if not np.isfinite(at_zero):
            at_zero = float(f(1e-14))
    report = {
        "operator_monotone": witness is None,
        "witness": witness,
        "symmetric": sym_defect <= 1e-10,
        "symmetry_defect": sym_defect,
        "normalized": abs(float(f(1.0)) - 1.0) <= 1e-12,
        "boundary_divergent": abs(at_zero) < 1e-6,
    }
    report["all_pass"] = bool(
        report["operator_monotone"] and report["symmetric"] and report["normalized"]
    )
    return report
