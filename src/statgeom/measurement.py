"""Quantum measurements and statistical distinguishability.

A POVM turns a pair of density matrices into a pair of classical outcome
distributions, whose Fisher-Rao angle can never exceed the Bures angle of
the states.  The bound is reached by the projective measurement in the
eigenbasis of the operator

    M(rho1, rho2) = rho1^(-1/2) sqrt(sqrt(rho1) rho2 sqrt(rho1)) rho1^(-1/2),

the geometric mean of rho1^(-1) and rho2.  The module provides the POVM
plumbing, the operator M, the optimal projective measurement, the best
qubit axis found from its stationary equation on the circle of the two
Bloch vectors, which rediscovers it without reading M, and the
closed-form answer for a pair of pure qubit states measured along an
arbitrary diameter of their Bloch-disk section.
"""

from __future__ import annotations

from operator import is_

import numpy as np

from .classical import _fr_angle, probability_vector
from .errors import DimensionMismatchError, DomainError, ValidationError
from .linalg import _hermitian_checked, _square_stack, hermitian_part
from .monotone import density_matrix
from .bures import _bloch_vector, _pair

__all__ = [
    "povm",
    "induced_distribution",
    "povm_classical_angle",
    "fuchs_caves_operator",
    "optimal_measurement",
    "qubit_povm_search",
    "pure_state_qubit_angle",
]

_PSD_FLOOR = 1e-12  # a POVM element passes when its least eigenvalue is >= -this


def povm(elements) -> list[np.ndarray]:
    """Validate a POVM: PSD elements of equal shape resolving the identity.

    Check by check, each over all elements: every element converts and is
    square, in element order, then shares the first one's shape, each is
    Hermitian, each is PSD (to -1e-12), then they sum to I (to 1e-10); the
    first element that fails a check names it or its shape."""
    return list(_povm_stack(elements))


def _povm_stack(elements) -> np.ndarray:
    """Validate a POVM as one (K, N, N) stack, with the checks of :func:`povm`:
    one Hermiticity test and one eigvalsh, each of the whole stack."""
    if len(elements) == 0:
        raise ValidationError("a POVM needs at least one element")
    stack, hermitian = _hermitian_checked(_square_stack(elements, "POVM elements"))
    if not hermitian.all():
        raise ValidationError(f"POVM element {np.argmin(hermitian)} is not Hermitian")
    # the stack is its own hermitian_part, as in density_matrix
    negative = np.flatnonzero(np.linalg.eigvalsh(stack)[..., 0] < -_PSD_FLOOR)
    if negative.size:
        raise ValidationError(f"POVM element {negative[0]} is not positive semidefinite")
    return _resolving_identity(stack)


def _resolving_identity(stack: np.ndarray) -> np.ndarray:
    """``stack``, once its elements are checked to sum to I (to 1e-10)."""
    total = stack.sum(axis=0)  # a new array: I is taken off its diagonal in place
    diagonal = total.reshape(-1)[:: len(total) + 1]
    diagonal -= 1.0
    if np.max(np.abs(total)) > 1e-10:
        raise ValidationError("POVM elements must sum to the identity")
    return stack


def _distribution(stack: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """p_k = Tr(E_k rho) for a validated POVM stack and state.

    p_k = sum_ij (E_k)_ij rho_ji, as one matrix-vector product of the
    flattened stack with rho^T flattened: O(K N^2), with no (K, N, N)
    temporary.  Its last bits are those of the BLAS matrix-vector kernel,
    which a loop over the elements (a trace or one dot product each) agrees
    with only to rounding.
    """
    if stack.shape[1:] != rho.shape:
        raise DimensionMismatchError(
            f"POVM acts on dim {stack.shape[1]}, state has dim {rho.shape[0]}"
        )
    return probability_vector((stack.reshape(len(stack), -1) @ rho.T.ravel()).real)


def induced_distribution(elements, rho) -> np.ndarray:
    """Outcome distribution p_k = Tr(E_k rho) of a POVM on a state."""
    return _distribution(_povm_stack(elements), density_matrix(rho))


def povm_classical_angle(elements, rho1, rho2) -> float:
    """Fisher-Rao angle between the outcome distributions of one POVM.

    Bounded above by the Bures angle of the two states for every POVM.
    The states come validated from the pair the Bures views share, checked
    before the POVM.  The very read-only arrays :func:`optimal_measurement`
    returned for that pair, in order, are not validated again as an arbitrary
    POVM: each is the Hermitian part of fl(v v†) with |v| = 1 + O(N u), so its
    own Hermitian part, with least eigenvalue -O(u), far inside the -1e-12 of
    that check.  Their sum, whose error rests on eigh's accuracy, is checked once
    per pair.  Other elements, byte-equal copies too, are validated as any POVM.
    The outcome distributions are checked once, as probability_vector
    normalizes them: their arc is fr_geodesic_distance's, not checked again.
    """
    pair = _pair(rho1, rho2)
    # only projectors already made: another POVM must not pay for eig(M)
    kept = vars(pair).get("projectors")
    if kept and len(elements) == len(kept) and all(map(is_, elements, kept)):
        stack = kept[0].base  # the stack they are views of
        if vars(pair).get("checked_stack") is not stack:  # a failed check is not kept
            pair.checked_stack = _resolving_identity(stack)
    else:
        stack = _povm_stack(elements)
    return _fr_angle(_distribution(stack, pair.rho1), _distribution(stack, pair.rho2))


def fuchs_caves_operator(rho1, rho2) -> np.ndarray:
    """The operator M with rho2 = M rho1 M, optimal for telling the states apart.

    M = rho1^(-1/2) sqrt(sqrt(rho1) rho2 sqrt(rho1)) rho1^(-1/2) is Hermitian
    and positive semidefinite, is the geometric mean rho1^(-1) # rho2 (the
    congruence formula of operator_mean; horizontal_lift is M A1), and obeys
    M(rho1, rho2) M(rho2, rho1) = identity, so both argument orders define
    the same projective measurement.  Exactly the identity when the states
    coincide.  ``rho1`` must be invertible (SingularError otherwise).
    """
    return hermitian_part(_pair(rho1, rho2).m)


def optimal_measurement(rho1, rho2) -> list[np.ndarray]:
    """Projective measurement achieving the Bures angle classically.

    Returns the N rank-1 projectors onto the eigenvectors of
    fuchs_caves_operator(rho1, rho2).  When M has a degenerate eigenvalue
    the eigenbasis inside each eigenspace is an arbitrary orthonormal
    choice; any such refinement attains the bound.  The projectors are
    read-only views of one stack the pair keeps: writing to one raises ValueError.
    """
    return list(_pair(rho1, rho2).projectors)


def _axis_cosine(phi, polars) -> np.ndarray:
    """cos of the classical angle measuring along the axes at angles ``phi``
    of a plane, for Bloch vectors r given in it as (|r|, angle psi).

    p = (1 + n.r)/2 and 1 - p are each summed from nonnegative terms,
    (1 - |r|)/2 + |r| cos^2 or sin^2 of (phi - psi)/2, to keep their relative
    accuracy where small: 1 - fl(p) errs by u near a pure state's axis, its
    square root by sqrt(u) ~ 1e-8, and that axis is where the optimum can be.
    """
    plus, minus = 1.0, 1.0
    for length, psi in polars:
        mixed, half = 0.5 * max(0.0, 1.0 - length), 0.5 * (phi - psi)
        plus = plus * (mixed + length * np.cos(half) ** 2)
        minus = minus * (mixed + length * np.sin(half) ** 2)
    return np.sqrt(plus) + np.sqrt(minus)


def qubit_povm_search(rho1, rho2) -> dict:
    """Find, without reading M, the best projective qubit measurement: the
    largest classical angle and an axis attaining it.  ``non_unique`` is set
    when both states are pure, where a continuum of measurements is optimal.

    An optimal axis lies in a plane holding the Bloch vectors r1 and r2.
    The cosine to minimize is B(a, b) = sqrt(pq) + sqrt((1-p)(1-q)), with
    p = (1+a)/2, q = (1+b)/2, a = n.r1 and b = n.r2.  B is concave, each
    term being the geometric mean of two nonnegative affine functions.  As
    n runs over the unit sphere, (a, b) fills an ellipse (a segment or a
    point when r1 and r2 span no plane), whose boundary the axes n in such
    a plane trace.  A concave function takes its minimum over a compact
    convex set at an extreme point.

    On that circle, with a_i = x_i cos phi + y_i sin phi in the plane's
    coordinates, B = sqrt(P) + sqrt(Q) for P = (1+a1)(1+a2)/4 and
    Q = (1-a1)(1-a2)/4 (Braunstein and Caves's optimal measurement on the
    circle of axes).  Where B is smooth, its minimum is a root of
    g = P'^2 Q - Q'^2 P, a trigonometric polynomial of degree 6 with
    g(phi + pi) = -g(phi), since n and -n swap P and Q.  So g has only the
    odd harmonics 1, 3 and 5: it is a quintic in w = exp(2i phi), whose
    coefficients an FFT of 12 samples gives exactly.  B has kinks only on
    the axis of a pure state.  The answer is the least B over the angles of
    the quintic's 5 roots, whatever their modulus, and the axes along r1 and
    r2.  When g vanishes identically (two pure or two equal states) its
    roots are noise, but each is still an axis, whose B is at least the
    minimum that an axis along r1 or r2 attains.

    The states are validated through the pair the Bures views share, then
    the qubit shape, so two square states of different shapes, which the
    pair rejects before its state checks, raise "Bloch vector is defined
    for qubits only"; a state that is not square raises as the pair does.
    """
    try:
        pair = _pair(rho1, rho2)
    except DimensionMismatchError as exc:
        if not str(exc).startswith("states have shapes"):
            raise
        raise DimensionMismatchError("Bloch vector is defined for qubits only") from None
    r1, r2 = _bloch_vector(pair.rho1), _bloch_vector(pair.rho2)
    # orthonormal columns whose span holds r1 and r2, whatever their rank,
    # and the coordinates (x_i, y_i) of r1 and r2 in that plane
    plane, (x, y) = np.linalg.qr(np.column_stack([r1, r2]))
    samples = np.pi / 6 * np.arange(12)
    a = np.outer(x, np.cos(samples)) + np.outer(y, np.sin(samples))
    da = np.outer(y, np.cos(samples)) - np.outer(x, np.sin(samples))
    # 4P, 4Q, 4P' and -4Q': g times 64, which has g's roots
    p, q = (1.0 + a[0]) * (1.0 + a[1]), (1.0 - a[0]) * (1.0 - a[1])
    dp = da[0] * (1.0 + a[1]) + (1.0 + a[0]) * da[1]
    dq = da[0] * (1.0 - a[1]) + (1.0 - a[0]) * da[1]
    # harmonics 5, 3, 1, -1, -3, -5 of g: the quintic's coefficients, highest first
    quintic = np.fft.fft(dp * dp * q - dq * dq * p)[[5, 3, 1, 11, 9, 7]]
    psis = np.arctan2(y, x)
    phis = np.concatenate([psis, 0.5 * np.angle(np.roots(quintic))])
    cosines = _axis_cosine(phis, zip(np.hypot(x, y), psis))
    best = int(np.argmin(cosines))
    # a unit vector to rounding; clipped to the schema's bounds of 1
    best_axis = np.clip(plane @ np.array([np.cos(phis[best]), np.sin(phis[best])]), -1.0, 1.0)
    if best_axis[np.argmax(np.abs(best_axis))] < 0:
        best_axis = -best_axis
    best_axis += 0.0  # -0 to +0, every other value unchanged
    both_pure = min(np.linalg.norm(r1), np.linalg.norm(r2)) >= 1.0 - 1e-9
    return {
        "best_angle": float(np.arccos(np.clip(cosines[best], 0.0, 1.0))),
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
