"""The geodesic billiard on the boundary of state space.

Extending a Bures geodesic between two invertible N-dimensional states
to its full great circle, the projected curve rho(t) stays a valid
density matrix for every t but loses rank at isolated parameters: in
one half-period it touches the boundary exactly N times (generically),
bouncing off rank-(N-1) states.  The pure states annihilated there —
the kernel states — are precisely the eigenstates of the optimal
measurement operator M(rho1, rho2), which this module verifies
numerically.

The contacts come in closed form.  The chord factors as
C(t) = cos(t) e1 + sin(t) e2 = e1 (cos(t) I + sin(t) K) with K = e1^-1 e2,
so det C(t) = det(e1) prod_i (cos t + kappa_i sin t), a trigonometric
polynomial of degree N whose zeros in [0, pi) are t_i = atan2(1, -kappa_i)
for the real eigenvalues kappa_i of K.  On a geodesic() path K = (M - c)/s
with c = sqrt(F), s = sqrt(1 - F), giving t_i = atan2(s, c - mu_i) for the
eigenvalues mu_i of M.  All contacts are verified at once, on one stacked
eigendecomposition of the states rho(t_i) that also supplies the kernel
states, and the same formula names the eigenvector of M each must match:
verify_billiard_theorem pairs them as arrays, with no BouncePoint and no
warning.  The signed diagnostic is the determinant of the chord C(t), real
(up to roundoff) on horizontal circles; it flips sign at each simple contact.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .bures import GeodesicPath, _pair
from .errors import DegenerateRootWarning, ScanFailureError
from .linalg import fix_phases

__all__ = [
    "BouncePoint",
    "bounce_points",
    "verify_billiard_theorem",
    "real_roots_check",
]

# Contact parameters closer than this are one multiple root; a kappa whose
# root lies this far off the real t axis is not a contact.
_MERGE_TOL = 1e-6
# A contact of multiplicity m is verified when the m smallest eigenvalues
# of rho(t) are at most this.
_CONTACT_TOL = 1e-10


@dataclass(frozen=True)
class BouncePoint:
    """One boundary contact of the great circle.

    ``t`` is the contact parameter in [0, pi); ``rho_b`` the rank-deficient
    state there; ``kernel_state`` the unit vector it annihilates (the
    smallest-eigenvalue eigenvector, phase-fixed); ``multiplicity`` the
    number of vanishing eigenvalues (1 in the generic case).
    """

    t: float
    rho_b: np.ndarray
    kernel_state: np.ndarray
    multiplicity: int
    min_eigenvalue: float


def _contact_groups(ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cluster roots on the circle [0, pi): each cluster's first root and size."""
    ts = np.sort(ts)
    # gap from each root to the next, the last one wrapping round to ts[0] + pi
    apart = np.concatenate((ts[1:], ts[:1] + np.pi)) - ts > _MERGE_TOL
    if apart.all():  # the generic case: every root is a cluster of its own
        return ts, np.ones(ts.size, dtype=np.intp)
    ends = np.flatnonzero(apart)
    starts = np.roll(ends + 1, 1) % ts.size
    sizes = (ends - starts) % ts.size + 1
    order = np.argsort(ts[starts])
    return ts[starts][order], sizes[order]


def _contacts(path: GeodesicPath) -> tuple:
    """The contacts of :func:`bounce_points` as arrays (ts, multiplicities,
    states, eigenvalues, kernels).  det C(t) has at most N zeros, so N
    verified vanishing eigenvalues leave none unverified; fewer raise."""
    kappa = np.linalg.eigvals(np.linalg.solve(path.e1, path.e2))
    real = np.abs(kappa.imag) <= _MERGE_TOL * (1.0 + np.abs(kappa) ** 2)
    ts, sizes = _contact_groups(np.arctan2(1.0, -kappa.real[real]) % np.pi)
    states = path.state(ts)
    ws, vs = np.linalg.eigh(states)  # hermitian_part results: eig_hermitian would change no bit
    kernels = fix_phases(vs[..., :1])[..., 0]  # only column 0 is read
    verified = ~(ws[np.arange(ts.size), sizes - 1] > _CONTACT_TOL)  # NaN passes
    total = int(sizes[verified].sum())
    if total < path.dim:
        raise ScanFailureError(
            f"verified {total} vanishing eigenvalues, expected {path.dim}; "
            "not every root of det C(t) is a real boundary contact"
        )
    return ts, sizes, states, ws, kernels


def bounce_points(path: GeodesicPath) -> list[BouncePoint]:
    """All boundary contacts of the great circle in one half-period [0, pi).

    Solves for the contact parameters t_i = atan2(1, -kappa_i) from the
    real eigenvalues kappa_i of e1^-1 e2 (``e1`` must be invertible, as
    it is on every geodesic()), verifies each on the eigenvalues of
    rho(t_i), and returns the contacts sorted by parameter.  Generic
    input yields exactly N simple contacts.  Roots closer than 1e-6 in
    parameter are merged into one contact of raised multiplicity with a
    DegenerateRootWarning.  A contact of multiplicity m is verified if
    the m smallest eigenvalues of rho(t) are at most 1e-10; since det C(t)
    has at most N zeros, N verified vanishing eigenvalues prove the list
    complete, and fewer raise ScanFailureError.
    """
    ts, sizes, states, ws, kernels = _contacts(path)
    ts, sizes = ts.tolist(), sizes.tolist()
    for t, size in zip(ts, sizes):
        if size > 1:
            warnings.warn(
                f"{size} contacts within {_MERGE_TOL:g} of t = {t:.9f} "
                "merged as a multiple root",
                DegenerateRootWarning,
                stacklevel=2,
            )
    return [
        BouncePoint(t=t, rho_b=rho_b, kernel_state=kernel, multiplicity=size, min_eigenvalue=low)
        for t, size, rho_b, kernel, low in zip(ts, sizes, states, kernels, ws[:, 0].tolist())
    ]


def _pair_contacts(ts, t_star: float, mu: np.ndarray) -> np.ndarray:
    """For each t_i, the j whose atan2(sin t*, cos t* - mu_j) is nearest mod pi."""
    predicted = np.arctan2(np.sin(t_star), np.cos(t_star) - mu)
    gaps = np.abs(np.subtract.outer(ts, predicted))
    return np.argmin(np.minimum(gaps, np.pi - gaps), axis=1)


def verify_billiard_theorem(rho1, rho2) -> dict:
    """Match the bounce kernel states against the eigenstates of M.

    Finds the boundary contacts of the geodesic through the (distinct,
    invertible) pair, as :func:`bounce_points` does, but warns of none.
    Eigenvalue mu_j of fuchs_caves_operator(rho1, rho2) predicts a contact
    at atan2(sin t*, cos t* - mu_j); each contact is paired with the
    eigenvector predicted nearest on the pi-periodic circle.  ``matched`` is
    true when that pairing is one-to-one with squared overlaps at least
    1 - 1e-6; ``flagged`` reports degenerate (merged) contacts.
    """
    pair = _pair(rho1, rho2)
    path = pair.path
    ts, sizes, _, _, kernels = _contacts(path)
    m_eigenvalues, m_vectors = pair.eig_m  # fuchs_caves_operator's eigenbasis
    cols = _pair_contacts(ts, path.t_star, m_eigenvalues)
    overlap2 = np.abs(kernels.conj() @ m_vectors) ** 2
    bounce_ts, eigenvectors = ts.tolist(), cols.tolist()
    paired = overlap2[np.arange(ts.size), cols].tolist()
    return {
        "dim": path.dim,
        "matched": len(set(eigenvectors)) == path.dim and all(o >= 1.0 - 1e-6 for o in paired),
        "flagged": bool((sizes > 1).any()),
        "pairings": [
            {"bounce": i, "t": t, "eigenvector": j, "overlap2": o}
            for i, (t, j, o) in enumerate(zip(bounce_ts, eigenvectors, paired))
        ],
        "max_infidelity": max(1.0 - o for o in paired),
        "bounce_ts": bounce_ts,
        "multiplicities": sizes.tolist(),
        "kernel_states": list(kernels),
        "m_eigenvalues": m_eigenvalues.copy(),
    }


def real_roots_check(path: GeodesicPath, bounce_ts=None) -> dict:
    """Diagnostics for the reality of the chord-determinant roots.

    det C(t) with C(t) = cos(t) e1 + sin(t) e2 is, on a horizontal great
    circle, a real function of t whose N simple zeros are the boundary
    contacts.  The report counts its sign changes on a 2048-point grid over
    [0, pi) (expected N), the largest relative imaginary part (expected
    roundoff), and the relative magnitude of the determinant at the bounce
    parameters (expected roundoff).
    """
    ts = np.linspace(0.0, np.pi, 2048, endpoint=False)
    dets = np.linalg.det(path.chord(ts))
    scale = float(np.max(np.abs(dets)))
    complex_residual = float(np.max(np.abs(dets.imag))) / scale
    real_part = dets.real
    keep = np.abs(real_part) > 1e-9 * scale
    signs = np.sign(real_part[keep])
    sign_changes = int(np.sum(signs[1:] != signs[:-1]))
    if bounce_ts is None:
        bounce_ts = [p.t for p in bounce_points(path)]
    bounce_dets = np.linalg.det(path.chord(np.asarray(bounce_ts, dtype=float)))
    bounce_residual = float(np.max(np.abs(bounce_dets))) / scale if len(bounce_ts) else 0.0
    return {
        "sign_changes": sign_changes,
        "complex_det_residual": complex_residual,
        "bounce_det_residual": bounce_residual,
    }
