"""Bures-Uhlmann geometry on density matrices.

Fidelity and the Bures angle, purifications rho = A A* living on the
Hilbert-Schmidt unit sphere, the horizontal lift that aligns a second
state's purification with a first, the geodesic through two invertible
states (the projection of a great circle in the purification sphere),
the Fubini-Study distance on pure-state vectors, and the closed-form
qubit line element that exhibits interior state space as a round
hemisphere of radius 1/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    BoundaryError,
    DegenerateError,
    DimensionMismatchError,
    SingularError,
    ValidationError,
    ZeroVectorError,
)
from .linalg import EigenSystem, _PairSlot, _apply_spectrum, _as_square, _floored
from .linalg import _half_sum, _hermitian, _square_stack, hermitian_part
from .means import _Pair
from .monotone import _states, density_matrix

__all__ = [
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "fidelity",
    "bures_angle",
    "purify",
    "horizontal_lift",
    "GeodesicPath",
    "geodesic",
    "fubini_study_distance",
    "qubit_state",
    "qubit_perturbation",
    "bloch_vector",
    "qubit_bures_ds2",
]

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


# F counts core eigenvalues <= this * lambda_max(rho1) lambda_max(rho2) as rounding, worth
# sqrt(u) = 1e-8 each.  On exact rank deficiency (pure vs mixed both ways, pure vs pure; 300
# pairs each, d = 2..32) they reached 3.6u, u = 2^-53; real ones of HS pairs were >= 6.2e-12.
# M keeps them: rho1^(-1/2) scales sqrt(c) by 1/lambda(rho1), so on a near-singular rho1 an
# exact core eigenvalue under the floor is O(1) in M.
_CORE_NOISE = 8 * 2.0**-53


class _StatePair(_Pair):
    """A validated pair of states of one shape, and what the paper derives from it.

    The pair of :mod:`means` switched to states: rho1 and rho2 are its X and Y,
    ``spectrum`` rho1's eigendecomposition, ``inner`` its ``root`` sqrt(rho1),
    ``outer`` its ``inv_root`` rho1^(-1/2), and ``core`` the unclamped spectrum
    of sqrt(rho1) rho2 sqrt(rho1), which serves F and M; ``lows`` and ``highs``
    the extremes of rho1's and rho2's spectra; ``coincide`` is True when the
    validated states are equal.  F, M, the lift M sqrt(rho1), the geodesic,
    eig(M), with eigh's phases, and the optimal measurement are each computed
    on first use; one that raises is not kept.  Public views copy what is
    kept, bar the read-only projectors, matched later by identity;
    povm_classical_angle reads the states as they are.
    """

    def __init__(self, rho1, rho2):
        """Validate two states check by check: each converts and is square, in
        argument order, then the two share one shape, then the one state check
        of density_matrix runs over their stack and raises its errors, from
        rho1's eigh and rho2's eigenvalues alone."""
        stack = _square_stack((rho1, rho2), "states", "density matrix")
        (self.x, self.y), (self.spectrum, w2) = _states(stack)  # _Pair's cached spectrum
        self.rho1, self.rho2 = self.x, self.y
        w1 = self.spectrum.eigenvalues
        self.lows, self.highs = (float(w1[0]), w2[0]), (float(w1[-1]), w2[-1])
        self.coincide = bool((self.x == self.y).all())

    inner = property(lambda self: self.root)
    outer = property(lambda self: self.inv_root)

    @cached_property
    def clamped_core(self) -> EigenSystem:
        """The core clamped at 0.  Validation bounds it below by about
        -1e-12 lambda_max(rho1), so it never raises DomainError."""
        w, v = self.core
        return EigenSystem(np.maximum(w, 0.0), v)

    @cached_property
    def fidelity(self) -> float:
        if self.coincide:
            return 1.0  # F(rho, rho) = 1, which the rounded root sum only comes near
        w = self.core.eigenvalues
        noise = _CORE_NOISE * (self.highs[0] * self.highs[1])
        root_sum = float(np.sqrt(w[w > noise]).sum())
        return min(1.0, root_sum * root_sum)

    @cached_property
    def m(self) -> np.ndarray:
        """M unsymmetrized; rho1 invertible.  Never DomainError: the core is clamped.
        Exactly the identity when the states coincide, as F is exactly 1 then."""
        if self.coincide:
            self.inv_root  # a singular rho1 still raises SingularError
            return np.eye(len(self.rho1), dtype=complex)
        return self.congruence(np.sqrt)

    @cached_property
    def eig_m(self) -> EigenSystem:
        return EigenSystem(*np.linalg.eigh(_hermitian(self.m)))  # symmetrizes M first

    @cached_property
    def projectors(self) -> list[np.ndarray]:
        """The rank-1 projectors onto eig(M)'s eigenvectors, each the Hermitian
        part of v v†, as validating a POVM returns it: read-only views of one
        C-ordered stack, written in place through temporaries of 64 KB."""
        rows = np.ascontiguousarray(self.eig_m.eigenvectors.T)
        stack = np.empty((len(rows),) * 3, dtype=complex)
        step = max(1, 4096 // rows.size)  # rows per block of 4096 entries
        for k in range(0, len(rows), step):
            block, out = rows[k : k + step], stack[k : k + step]
            outer = block[:, :, None] * block.conj()[:, None, :]
            out[...] = outer.swapaxes(-1, -2)  # conjugated in place: no ufunc buffer
            _half_sum(np.conjugate(out, out=out), outer)
            del outer  # before the next block's is made
        stack.flags.writeable = False
        return list(stack)

    @cached_property
    def lift(self) -> np.ndarray:
        """M sqrt(rho1): :func:`horizontal_lift`, and the geodesic's far end."""
        return self.m @ self.root

    @cached_property
    def path(self) -> GeodesicPath:
        """:func:`geodesic`, with ``e1`` the kept sqrt(rho1) itself."""
        for low in self.lows:
            if low <= 1e-12:
                raise SingularError(
                    f"geodesic endpoint has eigenvalue {low:.3e}; "
                    "both endpoints must be strictly positive"
                )
        if self.coincide:
            raise DegenerateError("states coincide; the geodesic is not unique")
        a1, a2 = self.root, self.lift
        overlap = float((a1.conj() * a2).sum().real)  # hs_inner(a1, a2) = sqrt(fidelity), real
        overlap = min(1.0, max(-1.0, overlap))
        sine = np.sqrt(max(0.0, 1.0 - overlap * overlap))
        if sine < 1e-8:
            raise DegenerateError("states coincide; the geodesic is not unique")
        e2 = (a2 - overlap * a1) / sine
        return GeodesicPath(e1=a1, e2=e2, t_star=float(np.arccos(overlap)))


# The most recent valid pair, so the public views called in a row on one
# pair share it: _pair(rho1, rho2) gives it, validating a new pair.
_pairs = _PairSlot(_StatePair)
_pair = _pairs.get


def fidelity(rho1, rho2) -> float:
    """Fidelity (Tr sqrt(sqrt(rho1) rho2 sqrt(rho1)))^2 = (Tr M rho1)^2, in [0, 1].

    Summed from the spectrum of the core M is formed from, counting eigenvalues
    up to 8u lambda_max(rho1) lambda_max(rho2), u = 2^-53, as rounding.  Equals
    1 exactly when the states coincide, |<psi|phi>|^2 on pure states and
    (sum_i sqrt(p_i q_i))^2 on commuting ones; symmetric, though the formula hides it.
    """
    return _pair(rho1, rho2).fidelity


def bures_angle(rho1, rho2) -> float:
    """Bures-Uhlmann angle arccos(sqrt(fidelity)), in [0, pi/2]."""
    return float(np.arccos(np.clip(np.sqrt(_pair(rho1, rho2).fidelity), 0.0, 1.0)))


def purify(rho) -> np.ndarray:
    """Canonical purification A = sqrt(rho), the positive-root gauge choice;
    one eigh validates rho and gives the bits of matrix_sqrt(density_matrix(rho))."""
    spectrum = _states(_as_square(rho, "density matrix"))[1]
    return _apply_spectrum(_floored(spectrum, 0.0), np.sqrt)


def horizontal_lift(rho1, rho2) -> np.ndarray:
    """Purification of rho2 aligned with the canonical purification sqrt(rho1).

    Returns A2 = M sqrt(rho1) with M = fuchs_caves_operator(rho1, rho2) =
    rho1^(-1) # rho2.  The alignment makes A1* A2 positive semidefinite with
    Tr(A1* A2) = sqrt(fidelity(rho1, rho2)) — the largest overlap any
    purification of rho2 can reach, so the straight-line (great-circle)
    distance from A1 to A2 realizes the Bures angle downstairs.

    Gauge rule: the lift of another purification A1 = sqrt(rho1) U, U
    unitary, is M A1, that is ``fuchs_caves_operator(rho1, rho2) @ a1``.
    ``rho1`` must be invertible (SingularError otherwise).
    """
    return _pair(rho1, rho2).lift.copy()


@dataclass(frozen=True)
class GeodesicPath:
    """Bures geodesic as the projection of a purification great circle.

    ``e1`` and ``e2`` are a Hilbert-Schmidt orthonormal pair spanning the
    real 2-plane of the circle; the state at arc parameter t is

        rho(t) = C(t) C(t)*,   C(t) = cos(t) e1 + sin(t) e2.

    rho(0) is the first endpoint and rho(t_star) the second, with t_star
    equal to the Bures angle, so t is Bures arc length.  rho(t) is
    pi-periodic: the circle covers the geodesic twice per revolution.
    """

    e1: np.ndarray
    e2: np.ndarray
    t_star: float

    @property
    def dim(self) -> int:
        return self.e1.shape[0]

    def chord(self, t) -> np.ndarray:
        """C(t) = cos(t) e1 + sin(t) e2; batched over an array of t."""
        t = np.asarray(t, dtype=float)
        return (
            np.cos(t)[..., None, None] * self.e1
            + np.sin(t)[..., None, None] * self.e2
        )

    def state(self, t) -> np.ndarray:
        """Density matrix rho(t) = C(t) C(t)*; batched over an array of t."""
        c = self.chord(t)
        return _hermitian(c @ np.conj(np.swapaxes(c, -1, -2)))

    def min_eigenvalue(self, t):
        """Smallest eigenvalue of rho(t); zero exactly at boundary contact."""
        low = np.linalg.eigvalsh(self.state(t))[..., 0]  # rho(t) is its own hermitian_part
        return float(low) if low.ndim == 0 else low


def geodesic(rho1, rho2) -> GeodesicPath:
    """Unit-speed Bures geodesic from rho1 to rho2, both invertible.

    Built by horizontally lifting rho2 next to A1 = sqrt(rho1) and
    orthonormalizing the real span of the two purifications.  Raises
    SingularError for rank-deficient endpoints and DegenerateError when
    the states coincide (equal once validated, or Bures angle below 1e-8),
    where no unique geodesic exists.
    """
    path = _pair(rho1, rho2).path
    return GeodesicPath(e1=path.e1.copy(), e2=path.e2.copy(), t_star=path.t_star)


def fubini_study_distance(psi, phi) -> float:
    """Fubini-Study distance arccos(|<psi|phi>| / (|psi| |phi|)).

    Defined on rays: invariant under rescaling and rephasing of either
    vector; lies in [0, pi/2].
    """
    psi = np.asarray(psi, dtype=complex).ravel()
    phi = np.asarray(phi, dtype=complex).ravel()
    if psi.shape != phi.shape:
        raise DimensionMismatchError(
            f"vectors have lengths {psi.size} and {phi.size}"
        )
    if not (np.isfinite(psi).all() and np.isfinite(phi).all()):
        raise ValidationError("Fubini-Study distance needs finite vectors")
    norm_psi = float(np.linalg.norm(psi))
    norm_phi = float(np.linalg.norm(phi))
    if norm_psi < 1e-150 or norm_phi < 1e-150:
        raise ZeroVectorError("Fubini-Study distance needs nonzero vectors")
    overlap = abs(np.vdot(psi, phi)) / (norm_psi * norm_phi)
    return float(np.arccos(np.clip(overlap, 0.0, 1.0)))


def qubit_state(x: float, y: float, z: float) -> np.ndarray:
    """Qubit density matrix (I + x sx + y sy + z sz) / 2 from a Bloch vector."""
    r2 = x * x + y * y + z * z
    if not r2 <= 1.0 + 1e-12:  # NaN fails
        raise ValidationError(f"Bloch vector has length {np.sqrt(r2)!r} > 1")
    rho = 0.5 * (np.eye(2, dtype=complex) + x * SIGMA_X + y * SIGMA_Y + z * SIGMA_Z)
    return hermitian_part(rho)


def _check_tangent(dx: float, dy: float, dz: float) -> None:
    for c in (dx, dy, dz):
        if not abs(c) < np.inf:  # NaN fails
            raise ValidationError(f"tangent component {c!r} is not finite")


def qubit_perturbation(dx: float, dy: float, dz: float) -> np.ndarray:
    """Traceless Hermitian perturbation (dx sx + dy sy + dz sz) / 2."""
    _check_tangent(dx, dy, dz)
    return hermitian_part(0.5 * (dx * SIGMA_X + dy * SIGMA_Y + dz * SIGMA_Z))


def bloch_vector(rho) -> np.ndarray:
    """Bloch vector (Tr rho sx, Tr rho sy, Tr rho sz) of a qubit state."""
    return _bloch_vector(density_matrix(rho))


def _bloch_vector(rho: np.ndarray) -> np.ndarray:
    """:func:`bloch_vector` of a validated state."""
    if rho.shape != (2, 2):
        raise DimensionMismatchError("Bloch vector is defined for qubits only")
    return np.array([np.trace(rho @ s).real for s in (SIGMA_X, SIGMA_Y, SIGMA_Z)])


def qubit_bures_ds2(
    x: float, y: float, z: float, dx: float, dy: float, dz: float
) -> float:
    """Bures line element of a qubit in Bloch coordinates.

    ds^2 = (1/4) [dx^2 + dy^2 + dz^2 + (x dx + y dy + z dz)^2 / (1 - r^2)]

    — the round metric of a hemisphere of radius 1/2, with the maximally
    mixed state at the pole and pure states on the (boundary) equator.
    Only defined strictly inside the Bloch ball; the radial term diverges
    on the sphere.
    """
    r2 = x * x + y * y + z * z
    if not r2 < 1.0:  # NaN fails
        raise BoundaryError("line element is defined strictly inside the Bloch ball")
    _check_tangent(dx, dy, dz)
    flat = dx * dx + dy * dy + dz * dz
    radial = x * dx + y * dy + z * dz
    return 0.25 * (flat + radial * radial / (1.0 - r2))
