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
from .linalg import EigenSystem, _sqrt_and_inv_sqrt, eig_hermitian, hermitian_part
from .linalg import hs_inner, matrix_sqrt, min_eigenvalue
from .means import _congruence_mean
from .monotone import _density_matrix, density_matrix

__all__ = [
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "fidelity",
    "bures_angle",
    "purification",
    "purify",
    "project",
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


class _Pair:
    """A validated pair of states of one shape, and what the paper derives from it.

    Holds rho1, rho2 and their smallest eigenvalues ``lows``.  F, the lift
    (M unsymmetrized, sqrt(rho1)), the geodesic and eig(M) are each computed
    on first use, by one route per quantity; one that raises is not kept.
    The arrays kept are shared, so a public view returns copies or new arrays.
    """

    def __init__(self, state1: tuple, state2: tuple):
        """Pair two ``_density_matrix`` results, (state, smallest eigenvalue)."""
        (self.rho1, low1), (self.rho2, low2) = state1, state2
        if self.rho1.shape != self.rho2.shape:
            raise DimensionMismatchError(
                f"states have shapes {self.rho1.shape} and {self.rho2.shape}"
            )
        self.lows = (low1, low2)

    @cached_property
    def fidelity(self) -> float:
        r2 = matrix_sqrt(self.rho2)
        w = np.linalg.eigvalsh(hermitian_part(r2 @ self.rho1 @ r2))
        root_sum = float(np.sum(np.sqrt(np.clip(w, 0.0, None))))
        return min(1.0, root_sum * root_sum)

    @property
    def angle(self) -> float:
        return float(np.arccos(np.clip(np.sqrt(self.fidelity), 0.0, 1.0)))

    @cached_property
    def lift(self) -> tuple[np.ndarray, np.ndarray]:
        """(M unsymmetrized, sqrt(rho1)); rho1 invertible."""
        root, inv_root = _sqrt_and_inv_sqrt(self.rho1)
        return _congruence_mean(inv_root, root, self.rho2, np.sqrt), root

    @cached_property
    def eig_m(self) -> EigenSystem:
        return eig_hermitian(self.lift[0])  # symmetrizes M first

    @cached_property
    def path(self) -> GeodesicPath:
        """:func:`geodesic`, with ``e1`` the kept sqrt(rho1) itself."""
        for low in self.lows:
            if low <= 1e-12:
                raise SingularError(
                    f"geodesic endpoint has eigenvalue {low:.3e}; "
                    "both endpoints must be strictly positive"
                )
        m, a1 = self.lift
        a2 = m @ a1
        overlap = hs_inner(a1, a2).real  # = sqrt(fidelity), real by alignment
        overlap = min(1.0, max(-1.0, overlap))
        sine = np.sqrt(max(0.0, 1.0 - overlap * overlap))
        if sine < 1e-8:
            raise DegenerateError("states coincide; the geodesic is not unique")
        e2 = (a2 - overlap * a1) / sine
        return GeodesicPath(e1=a1, e2=e2, t_star=float(np.arccos(overlap)))


# The most recent valid pair as (key, pair), so the public views called in a
# row on one pair share it.  One tuple assignment replaces it, so a reader
# always compares against the key stored with the pair it gets.
_last: tuple = (None, None)


def _recall(rho1, rho2) -> tuple:
    """(memo key, the remembered pair or None) for two states.

    The key is the (shape, bytes) of each state as a complex array, and None
    when one does not convert (e.g. a ragged nested list).
    """
    try:
        a, b = np.asarray(rho1, dtype=complex), np.asarray(rho2, dtype=complex)
    except (TypeError, ValueError):
        return None, None
    key = (a.shape, a.tobytes(), b.shape, b.tobytes())
    last_key, pair = _last
    return key, (pair if key == last_key else None)


def _pair(rho1, rho2) -> _Pair:
    """The validated pair (rho1, rho2): the remembered one, or a new one kept."""
    global _last
    key, pair = _recall(rho1, rho2)
    if pair is None:
        pair = _Pair(_density_matrix(rho1), _density_matrix(rho2))
        if key is not None:
            _last = (key, pair)
    return pair


def fidelity(rho1, rho2) -> float:
    """Fidelity (Tr sqrt(sqrt(rho2) rho1 sqrt(rho2)))^2, in [0, 1].

    Equals 1 exactly when the states coincide, the squared overlap
    |<psi|phi>|^2 on pure states, and (sum_i sqrt(p_i q_i))^2 on
    commuting (classical) states.  Symmetric in its arguments, although
    the formula hides it.
    """
    return _pair(rho1, rho2).fidelity


def bures_angle(rho1, rho2) -> float:
    """Bures-Uhlmann angle arccos(sqrt(fidelity)), in [0, pi/2]."""
    return _pair(rho1, rho2).angle


def purification(a) -> np.ndarray:
    """Validate a purification: square complex matrix with Tr A A* = 1 (to 1e-10)."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"purification must be square, got shape {a.shape}")
    norm2 = float(np.sum(np.abs(a) ** 2))
    if not abs(norm2 - 1.0) <= 1e-10:  # NaN fails
        raise ValidationError(f"purification has squared norm {norm2!r}, expected 1")
    return a


def purify(rho) -> np.ndarray:
    """Canonical purification A = sqrt(rho), the positive-root gauge choice."""
    return matrix_sqrt(density_matrix(rho))


def project(a) -> np.ndarray:
    """Project a purification down to its density matrix A A*.

    Gauge invariant: project(A U) = project(A) for any unitary U.
    """
    a = purification(a)
    rho = hermitian_part(a @ a.conj().T)
    return density_matrix(rho / float(np.trace(rho).real))


def horizontal_lift(rho1, rho2, a1: np.ndarray | None = None) -> np.ndarray:
    """Purification of rho2 aligned with the purification a1 of rho1.

    Returns A2 = M A1 with M = fuchs_caves_operator(rho1, rho2) = rho1^(-1) # rho2.
    The alignment makes A1* A2 positive semidefinite with
    Tr(A1* A2) = sqrt(fidelity(rho1, rho2)) — the largest overlap any
    purification of rho2 can reach, so the straight-line (great-circle)
    distance from A1 to A2 realizes the Bures angle downstairs.

    ``a1`` defaults to the canonical purification sqrt(rho1).  ``rho1``
    must be invertible (SingularError otherwise).
    """
    pair = _pair(rho1, rho2)
    if a1 is not None:
        a1 = purification(a1)
        resid = float(np.linalg.norm(a1 @ a1.conj().T - pair.rho1))
        if not resid <= 1e-8:
            raise ValidationError(f"a1 does not purify rho1 (residual {resid:.3e})")
    m, root = pair.lift
    return m @ (root if a1 is None else a1)


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
        return hermitian_part(c @ np.conj(np.swapaxes(c, -1, -2)))

    def min_eigenvalue(self, t):
        """Smallest eigenvalue of rho(t); zero exactly at boundary contact."""
        return min_eigenvalue(self.state(t))


def geodesic(rho1, rho2) -> GeodesicPath:
    """Unit-speed Bures geodesic from rho1 to rho2, both invertible.

    Built by horizontally lifting rho2 next to A1 = sqrt(rho1) and
    orthonormalizing the real span of the two purifications.  Raises
    SingularError for rank-deficient endpoints and DegenerateError when
    the states coincide (Bures angle below 1e-8), where no unique
    geodesic exists.
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


def qubit_perturbation(dx: float, dy: float, dz: float) -> np.ndarray:
    """Traceless Hermitian perturbation (dx sx + dy sy + dz sz) / 2."""
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
    flat = dx * dx + dy * dy + dz * dz
    radial = x * dx + y * dy + z * dz
    return 0.25 * (flat + radial * radial / (1.0 - r2))
