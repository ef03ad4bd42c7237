"""The geodesic billiard on the boundary of state space.

Extending a Bures geodesic between two invertible N-dimensional states
to its full great circle, the projected curve rho(t) stays a valid
density matrix for every t but loses rank at isolated parameters: in
one half-period it touches the boundary exactly N times (generically),
bouncing off rank-(N-1) states.  The pure states annihilated there —
the kernel states — are precisely the eigenstates of the optimal
measurement operator M(rho1, rho2), which this module verifies
numerically.

The contacts come in closed form from the spectrum of M.  On a geodesic()
path e2 = (M - cos t*) e1 / sin t*, so the chord factors as
C(t) = cos(t) e1 + sin(t) e2 = e1 (cos(t) I + sin(t) K), with K = e1^-1 e2
similar to (M - cos t*) / sin t*.  Hence
det C(t) = det(e1) prod_j (cos t + sin t (mu_j - cos t*) / sin t*), a
trigonometric polynomial of degree N whose zeros in [0, pi) are
t_j = atan2(sin t*, cos t* - mu_j) for the eigenvalues mu_j of M, and
rho(t_j) annihilates mu_j's eigenvector.  Each contact is thus paired
with its eigenvector by construction.  All contacts are verified at once,
on one stacked eigendecomposition of the states rho(t_j) that also
supplies the kernel states; verify_billiard_theorem's report is the one
public view of the contacts.
"""

from __future__ import annotations

import numpy as np

from .bures import GeodesicPath, _pair
from .errors import ScanFailureError
from .linalg import fix_phases

__all__ = ["verify_billiard_theorem"]

# Contact parameters closer than this are one multiple root.
_MERGE_TOL = 1e-6
# A contact of multiplicity m is verified when the m smallest eigenvalues
# of rho(t) are at most this.
_CONTACT_TOL = 1e-10


def _contact_groups(ts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cluster roots on the circle [0, pi): each cluster's first root, its
    size, and that root's index in ``ts`` (the lower index of equal roots)."""
    index = np.argsort(ts, kind="stable")
    ts = ts[index]
    # gap from each root to the next, the last one wrapping round to ts[0] + pi
    apart = np.concatenate((ts[1:], ts[:1] + np.pi)) - ts > _MERGE_TOL
    if apart.all():  # the generic case: every root is a cluster of its own
        return ts, np.ones(ts.size, dtype=np.intp), index
    ends = np.flatnonzero(apart)
    starts = np.roll(ends + 1, 1) % ts.size
    sizes = (ends - starts) % ts.size + 1
    order = np.argsort(ts[starts])
    starts = starts[order]
    return ts[starts], sizes[order], index[starts]


def _contacts(path: GeodesicPath, mu: np.ndarray) -> tuple:
    """The contacts in [0, pi) as arrays (ts, multiplicities, kernels,
    columns), by t, for the eigenvalues ``mu`` of the path's M.

    t_j = atan2(sin t*, cos t* - mu_j); roots within 1e-6 merge into one
    multiple contact, whose column is the j of its first root.  A contact of
    multiplicity m is verified when its m smallest eigenvalues of rho(t_j)
    are at most 1e-10.  det C(t) has at most N zeros, so N verified
    vanishing eigenvalues leave none unverified; fewer raise
    ScanFailureError."""
    ts = np.arctan2(np.sin(path.t_star), np.cos(path.t_star) - mu) % np.pi
    ts, sizes, columns = _contact_groups(ts)
    states = path.state(ts)
    ws, vs = np.linalg.eigh(states)  # hermitian_part results: eig_hermitian would change no bit
    kernels = fix_phases(vs[..., :1])[..., 0]  # only column 0 is read
    verified = ~(ws[np.arange(ts.size), sizes - 1] > _CONTACT_TOL)  # NaN passes
    total = int(sizes[verified].sum())
    if total < path.dim:
        raise ScanFailureError(
            f"verified {total} vanishing eigenvalues, expected {path.dim}; "
            "not every contact predicted from the spectrum of M is a boundary contact"
        )
    return ts, sizes, kernels, columns


def verify_billiard_theorem(rho1, rho2) -> dict:
    """Match the bounce kernel states against the eigenstates of M.

    Finds the boundary contacts of the geodesic through the (distinct,
    invertible) pair in closed form: eigenvalue mu_j of
    fuchs_caves_operator(rho1, rho2) gives a contact at
    atan2(sin t*, cos t* - mu_j), paired by that construction with the
    j-th eigenvector (a merged contact with its first root's).  ``matched``
    is true when the pairing is one-to-one with squared overlaps at least
    1 - 1e-6; ``flagged`` reports degenerate (merged) contacts.  The report
    is the one public view of the contacts; the least eigenvalue of the
    state at contact t is ``geodesic(rho1, rho2).min_eigenvalue(t)``.
    """
    pair = _pair(rho1, rho2)
    path = pair.path
    m_eigenvalues, m_vectors = pair.eig_m  # fuchs_caves_operator's eigenbasis
    ts, sizes, kernels, cols = _contacts(path, m_eigenvalues)
    overlap2 = np.abs(kernels.conj() @ fix_phases(m_vectors)) ** 2  # as it leaves the library
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
