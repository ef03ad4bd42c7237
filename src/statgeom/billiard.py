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
verify_billiard_theorem pairs them as arrays, and its report is the one
public view of the contacts.
"""

from __future__ import annotations

import numpy as np

from .bures import GeodesicPath, _pair
from .errors import ScanFailureError
from .linalg import fix_phases

__all__ = ["verify_billiard_theorem"]

# Contact parameters closer than this are one multiple root; a kappa whose
# root lies this far off the real t axis is not a contact.
_MERGE_TOL = 1e-6
# A contact of multiplicity m is verified when the m smallest eigenvalues
# of rho(t) are at most this.
_CONTACT_TOL = 1e-10


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
    """The contacts in [0, pi) as arrays (ts, multiplicities, kernels), by t.

    t_i = atan2(1, -kappa_i) for each real eigenvalue kappa_i of e1^-1 e2;
    roots within 1e-6 merge into one multiple contact, verified when its m
    smallest eigenvalues of rho(t_i) are at most 1e-10.  det C(t) has at
    most N zeros, so N verified vanishing eigenvalues leave none unverified;
    fewer raise ScanFailureError."""
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
    return ts, sizes, kernels


def _pair_contacts(ts, t_star: float, mu: np.ndarray) -> np.ndarray:
    """For each t_i, the j whose atan2(sin t*, cos t* - mu_j) is nearest mod pi."""
    predicted = np.arctan2(np.sin(t_star), np.cos(t_star) - mu)
    gaps = np.abs(np.subtract.outer(ts, predicted))
    return np.argmin(np.minimum(gaps, np.pi - gaps), axis=1)


def verify_billiard_theorem(rho1, rho2) -> dict:
    """Match the bounce kernel states against the eigenstates of M.

    Finds the boundary contacts of the geodesic through the (distinct,
    invertible) pair in closed form.  Eigenvalue mu_j of
    fuchs_caves_operator(rho1, rho2) predicts a contact at
    atan2(sin t*, cos t* - mu_j); each contact is paired with the eigenvector
    predicted nearest on the pi-periodic circle.  ``matched`` is true when
    that pairing is one-to-one with squared overlaps at least 1 - 1e-6;
    ``flagged`` reports degenerate (merged) contacts.  The report is the one
    public view of the contacts; the least eigenvalue of the state at
    contact t is ``geodesic(rho1, rho2).min_eigenvalue(t)``.
    """
    pair = _pair(rho1, rho2)
    path = pair.path
    ts, sizes, kernels = _contacts(path)
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
