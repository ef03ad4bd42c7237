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

from .errors import BoundaryError, ValidationError
from .linalg import _half_sum, _is_hermitian, eig_hermitian
from .means import _symmetry_defect, mean_function, operator_monotone_test

__all__ = [
    "density_matrix",
    "tangent_perturbation",
    "monotone_ds2",
    "f_conditions_check",
]


def _hermitian(a, noun: str) -> np.ndarray:
    """hermitian_part(a) of a square ``a`` that passes is_hermitian; one A† serves both."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"{noun} must be square, got shape {a.shape}")
    adjoint = a.conj().T
    if not _is_hermitian(a, adjoint):
        raise ValidationError(f"{noun} must be Hermitian")
    return _half_sum(adjoint.copy(), a)  # hermitian_part(a)


def density_matrix(rho) -> np.ndarray:
    """Validate a density matrix: Hermitian, PSD (to -1e-12), unit trace."""
    rho = _unit_trace_hermitian(rho)
    _check_positive(float(np.linalg.eigvalsh(rho)[0]))  # rho is its own hermitian_part
    return rho


def _unit_trace_hermitian(rho) -> np.ndarray:
    """The checks of :func:`density_matrix` before positivity: square,
    Hermitian and unit trace; returns hermitian_part(rho)."""
    rho = _hermitian(rho, "density matrix")
    trace = float(np.trace(rho).real)
    if abs(trace - 1.0) > 1e-12:
        raise ValidationError(f"density matrix trace is {trace!r}, expected 1")
    return rho


def _check_positive(low) -> None:
    """The positivity check of :func:`density_matrix` on the smallest eigenvalue."""
    if low < -1e-12:
        raise ValidationError("density matrix has a negative eigenvalue")


def tangent_perturbation(drho) -> np.ndarray:
    """Validate a tangent perturbation: Hermitian and traceless."""
    drho = _hermitian(drho, "perturbation")
    scale = max(1.0, float(np.abs(drho).sum()))
    if abs(complex(np.trace(drho)).real) > 1e-12 * scale:
        raise ValidationError("perturbation must be traceless")
    return drho


def monotone_ds2(rho: np.ndarray, drho: np.ndarray, f="arithmetic") -> float:
    """Squared line element of the monotone metric labeled by f.

    ``f`` is a mean name ("arithmetic" for the Bures metric, "geometric",
    "harmonic") or a vectorizable callable.  ``rho`` must be strictly
    positive — all monotone metrics with f(0) = 0 diverge on the boundary
    of state space, so singular input raises BoundaryError.
    """
    if isinstance(f, str):
        f = mean_function(f)
    rho = density_matrix(rho)
    drho = tangent_perturbation(drho)
    if rho.shape != drho.shape:
        raise ValidationError(
            f"state has shape {rho.shape}, perturbation {drho.shape}"
        )
    lam, v = eig_hermitian(rho)
    if lam[0] <= 1e-10:
        raise BoundaryError(
            f"state eigenvalue {lam[0]:.3e} too close to the boundary"
        )
    ds = v.conj().T @ drho @ v
    diag = float(np.sum(np.real(np.diag(ds)) ** 2 / lam))
    i, j = np.triu_indices(lam.size, k=1)
    denom = lam[j] * np.asarray(f(lam[i] / lam[j]), dtype=float)
    off = 2.0 * float(np.sum(np.abs(ds[i, j]) ** 2 / denom))
    return 0.25 * (diag + off)


def f_conditions_check(f, seed: int = 0) -> dict:
    """Check the three admissibility conditions for a metric function f.

    Condition (i), operator monotonicity, is tested by randomized
    counterexample search in dimensions 2-4; (ii) is the grid identity
    f(1/t) = f(t)/t over t in [1e-3, 1e3]; (iii) is f(1) = 1.  The report
    also flags f(0) = 0, which makes the metric divergent on the boundary
    of state space.
    """
    if isinstance(f, str):
        f = mean_function(f)
    counterexample_dim = None
    for dim in (2, 3, 4):
        report = operator_monotone_test(f, dim, seed + dim, trials=400)
        if report["counterexample"] is not None:
            counterexample_dim = dim
            break
    sym_defect = _symmetry_defect(f)
    report = {
        "operator_monotone": counterexample_dim is None,
        "counterexample_dim": counterexample_dim,
        "symmetric": sym_defect <= 1e-10,
        "symmetry_defect": sym_defect,
        "normalized": abs(float(f(1.0)) - 1.0) <= 1e-12,
        "boundary_divergent": abs(float(f(1e-14))) < 1e-6,
    }
    report["all_pass"] = bool(
        report["operator_monotone"] and report["symmetric"] and report["normalized"]
    )
    return report
