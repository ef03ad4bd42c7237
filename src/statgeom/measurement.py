"""Quantum measurements and statistical distinguishability.

A POVM turns a pair of density matrices into a pair of classical outcome
distributions, whose Fisher-Rao angle can never exceed the Bures angle of
the states.  The bound is reached by the projective measurement in the
eigenbasis of the operator

    M(rho1, rho2) = rho1^(-1/2) sqrt(sqrt(rho1) rho2 sqrt(rho1)) rho1^(-1/2),

the geometric mean of rho1^(-1) and rho2.  The module provides the POVM
plumbing, the operator M, the optimal projective measurement, a brute
force qubit axis search that rediscovers it, and the closed-form answer
for a pair of pure qubit states measured along an arbitrary diameter of
their Bloch-disk section.
"""

from __future__ import annotations

import numpy as np

from .classical import fr_geodesic_distance, probability_vector
from .errors import DimensionMismatchError, DomainError, ValidationError
from .linalg import _as_square, hermitian_part
from .monotone import density_matrix
from .bures import _pair, _recall, bloch_vector

__all__ = [
    "povm",
    "induced_distribution",
    "povm_classical_angle",
    "fuchs_caves_operator",
    "optimal_measurement",
    "qubit_povm_search",
    "pure_state_qubit_angle",
]

# eigvalsh passes E when its least eigenvalue is >= -_PSD_FLOOR.  Cholesky
# succeeding on E + _SHIFT I proves lambda_min(E) >= -_SHIFT - (N+1) u tr(E +
# _SHIFT I), u = 2^-53 (Demmel 1989; Rump 2006); that error plus eigvalsh's
# N u |E|_F must fit in half the gap, the rest covering complex arithmetic.
_PSD_FLOOR = 1e-12
_SHIFT = 5e-13
_ROUNDING_BUDGET = 0.5 * (_PSD_FLOOR - _SHIFT) / 2.0**-53  # in units of u


def povm(elements) -> list[np.ndarray]:
    """Validate a POVM: PSD elements of equal shape resolving the identity."""
    return list(_povm_stack(elements))


def _povm_stack(elements) -> np.ndarray:
    """Validate a POVM as one (K, N, N) stack, with the checks of :func:`povm`.

    The error raised is the one a check element by element (shape, then
    Hermiticity, then positivity) meets first: the batched Hermiticity test
    covers only the elements before the first that fails shape, the one
    batched eigvalsh only those before the first that fails either, and
    that failure is raised when none of them is negative.
    Positivity of a POVM passing both is first proved by one cheaper shifted
    Cholesky (see _PSD_FLOOR); eigvalsh runs only if that proves nothing.
    """
    if len(elements) == 0:
        raise ValidationError("a POVM needs at least one element")
    checked, error = [], None
    for e in elements:
        try:
            e = np.asarray(e, dtype=complex)
        except (TypeError, ValueError) as exc:  # e.g. a ragged nested list
            error = exc
            break
        if e.shape != np.shape(elements[0]):
            error = DimensionMismatchError("POVM elements must share one shape")
            break
        checked.append(e)
    if not checked:
        raise error
    _as_square(checked[0])  # every checked element has this shape
    raw = np.stack(checked)
    stack = hermitian_part(raw)
    # is_hermitian on every element at once: |A - A†| = 2 |A - H| must be at
    # most 1e-10 max(|A|, 1), and NaN fails
    scale = np.maximum(_hs_norms(raw), 1.0)
    raw -= stack
    hermitian = 2.0 * _hs_norms(raw) <= 1e-10 * scale
    if not hermitian.all():
        k = int(np.argmin(hermitian))
        error = ValidationError(f"POVM element {k} is not Hermitian")
        stack = stack[:k]
    if error is not None or not _cholesky_certifies(stack, raw, scale.max()):
        # eigvalsh directly: min_eigenvalue would symmetrize the stack again
        negative = np.flatnonzero(np.linalg.eigvalsh(stack)[..., 0] < -_PSD_FLOOR)
        if negative.size:
            raise ValidationError(
                f"POVM element {negative[0]} is not positive semidefinite"
            )
        if error is not None:
            raise error
    total = np.sum(stack, axis=0)
    if np.max(np.abs(total - np.eye(total.shape[0]))) > 1e-10:
        raise ValidationError("POVM elements must sum to the identity")
    return stack


def _cholesky_certifies(stack: np.ndarray, scratch: np.ndarray, max_norm: float) -> bool:
    """True if one shifted Cholesky (in ``scratch``) proves eigvalsh passes all."""
    n = stack.shape[-1]
    trace = stack.trace(axis1=1, axis2=2).real.max() + n * _SHIFT
    if not (n + 1) * trace + n * max_norm <= _ROUNDING_BUDGET:
        return False
    np.copyto(scratch, stack)
    scratch.reshape(len(stack), -1)[:, :: n + 1] += _SHIFT
    try:
        np.linalg.cholesky(scratch)
    except np.linalg.LinAlgError:
        return False
    return True


def _hs_norms(stack: np.ndarray) -> np.ndarray:
    """Hilbert-Schmidt norm of each matrix of a contiguous complex stack."""
    parts = stack.view(float)  # real and imaginary parts side by side
    return np.sqrt(np.einsum("kij,kij->k", parts, parts))


def _distribution(stack: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """p_k = Tr(E_k rho) for a validated POVM stack and state."""
    if stack.shape[1:] != rho.shape:
        raise DimensionMismatchError(
            f"POVM acts on dim {stack.shape[1]}, state has dim {rho.shape[0]}"
        )
    return probability_vector(np.trace(stack @ rho, axis1=1, axis2=2).real)


def induced_distribution(elements, rho) -> np.ndarray:
    """Outcome distribution p_k = Tr(E_k rho) of a POVM on a state."""
    return _distribution(_povm_stack(elements), density_matrix(rho))


def povm_classical_angle(elements, rho1, rho2) -> float:
    """Fisher-Rao angle between the outcome distributions of one POVM.

    Bounded above by the Bures angle of the two states for every POVM.
    The states come validated from the last pair the Bures views were given,
    when that is this pair.
    """
    stack = _povm_stack(elements)
    pair = _recall(rho1, rho2)[1]
    p = _distribution(stack, pair.rho1 if pair else density_matrix(rho1))
    q = _distribution(stack, pair.rho2 if pair else density_matrix(rho2))
    return fr_geodesic_distance(p, q)


def fuchs_caves_operator(rho1, rho2) -> np.ndarray:
    """The operator M with rho2 = M rho1 M, optimal for telling the states apart.

    M = rho1^(-1/2) sqrt(sqrt(rho1) rho2 sqrt(rho1)) rho1^(-1/2) is Hermitian
    and positive semidefinite, is the geometric mean rho1^(-1) # rho2 (the
    congruence formula of operator_mean; horizontal_lift is M A1), and obeys
    M(rho1, rho2) M(rho2, rho1) = identity, so both argument orders define
    the same projective measurement.
    ``rho1`` must be invertible (SingularError otherwise).
    """
    return hermitian_part(_pair(rho1, rho2).lift[0])


def optimal_measurement(rho1, rho2) -> list[np.ndarray]:
    """Projective measurement achieving the Bures angle classically.

    Returns the N rank-1 projectors onto the eigenvectors of
    fuchs_caves_operator(rho1, rho2).  When M has a degenerate eigenvalue
    the eigenbasis inside each eigenspace is an arbitrary orthonormal
    choice; any such refinement attains the bound.
    """
    return list(_projectors(_pair(rho1, rho2).eig_m.eigenvectors))


def _projectors(vectors: np.ndarray) -> np.ndarray:
    """The rank-1 projectors v v† onto the columns v of ``vectors``, stacked."""
    return vectors.T[:, :, None] * vectors.conj().T[:, None, :]


def _fibonacci_axes(count: int) -> np.ndarray:
    """Near-uniform axis grid on the sphere (Fibonacci lattice)."""
    i = np.arange(count) + 0.5
    golden = np.pi * (1.0 + np.sqrt(5.0))
    cos_theta = 1.0 - 2.0 * i / count
    sin_theta = np.sqrt(np.clip(1.0 - cos_theta**2, 0.0, None))
    phi = golden * i
    return np.stack(
        [sin_theta * np.cos(phi), sin_theta * np.sin(phi), cos_theta], axis=1
    )


def _axis_cosine(axes: np.ndarray, r1: np.ndarray, r2: np.ndarray) -> np.ndarray:
    """cos of the classical angle for projective measurements along axes."""
    p_plus = np.clip(0.5 * (1.0 + axes @ r1), 0.0, 1.0)
    q_plus = np.clip(0.5 * (1.0 + axes @ r2), 0.0, 1.0)
    return np.sqrt(p_plus * q_plus) + np.sqrt((1.0 - p_plus) * (1.0 - q_plus))


def _spherical_axis(theta: float, phi: float) -> np.ndarray:
    s = np.sin(theta)
    return np.array([s * np.cos(phi), s * np.sin(phi), np.cos(theta)])


def qubit_povm_search(rho1, rho2, grid_resolution: int = 200) -> dict:
    """Brute-force the best projective measurement over Bloch axes.

    Evaluates the induced classical angle on a Fibonacci grid of
    grid_resolution^2 axes, then polishes the best axis by 60 rounds of a
    shrinking compass search in spherical coordinates.  Reports the largest
    angle found and the axis attaining it; ``non_unique`` is set when both
    states are pure, where a continuum of measurements is optimal.
    """
    return _qubit_povm_search(rho1, rho2, bloch_vector, grid_resolution)


def _qubit_povm_search(rho1, rho2, bloch, grid_resolution) -> dict:
    """:func:`qubit_povm_search`, reading each state's Bloch vector with ``bloch``."""
    if grid_resolution < 2:
        raise ValidationError("grid_resolution must be >= 2")
    r1 = bloch(rho1)
    r2 = bloch(rho2)
    axes = _fibonacci_axes(grid_resolution * grid_resolution)
    cosines = _axis_cosine(axes, r1, r2)
    best = int(np.argmin(cosines))
    best_axis = axes[best]
    best_cos = float(cosines[best])

    theta = float(np.arccos(np.clip(best_axis[2], -1.0, 1.0)))
    phi = float(np.arctan2(best_axis[1], best_axis[0]))
    step = 4.0 / grid_resolution
    for _ in range(60):
        moved = False
        for dt, dp in (
            (step, 0.0), (-step, 0.0), (0.0, step), (0.0, -step),
            (step, step), (step, -step), (-step, step), (-step, -step),
        ):
            axis = _spherical_axis(theta + dt, phi + dp)
            c = float(_axis_cosine(axis[None, :], r1, r2)[0])
            if c < best_cos:
                best_cos, theta, phi = c, theta + dt, phi + dp
                moved = True
        if not moved:
            step *= 0.5
    best_axis = _spherical_axis(theta, phi)
    if best_axis[np.argmax(np.abs(best_axis))] < 0:
        best_axis = -best_axis
    both_pure = min(np.linalg.norm(r1), np.linalg.norm(r2)) >= 1.0 - 1e-9
    return {
        "best_angle": float(np.arccos(np.clip(best_cos, 0.0, 1.0))),
        "best_axis": best_axis,
        "non_unique": bool(both_pure),
    }


def pure_state_qubit_angle(theta: float, theta_a: float, inside: bool = True) -> float:
    """Classical angle for two pure qubit states and a diameter measurement.

    The two states subtend Bloch angle ``theta`` (twice their Fubini-Study
    angle); the measurement is the projective pair along a diameter of
    their common Bloch disk, at angle ``theta_a`` from the nearer state.
    When the diameter crosses the arc between the states (``inside``) the
    answer is theta/2 - theta_a; any diameter outside the arc gives
    theta/2, the Fubini-Study distance itself — so every outside
    measurement is optimal.
    """
    if not 0.0 < theta < np.pi:
        raise DomainError(f"theta must lie in (0, pi), got {theta!r}")
    if not 0.0 <= theta_a <= np.pi / 2:
        raise DomainError(f"theta_a must lie in [0, pi/2], got {theta_a!r}")
    if inside:
        if theta_a > theta / 2 + 1e-12:
            raise DomainError(
                "a diameter inside the arc lies within theta/2 of the nearer state"
            )
        return theta / 2 - theta_a
    if theta_a > (np.pi - theta) / 2 + 1e-12:
        raise DomainError(
            "a diameter outside the arc lies within (pi - theta)/2 "
            "of the nearer state"
        )
    return theta / 2
