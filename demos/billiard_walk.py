#!/usr/bin/env python3
"""Extending a geodesic past its endpoints: the boundary billiard.

The geodesic through two N x N density matrices is an arc of a great
circle in purification space.  Followed for a full half-period, the
projected curve leaves the positive states and touches the boundary —
states with a zero eigenvalue — exactly N times.  Each contact kills one
eigenvector, and together the N kernel vectors form an orthonormal basis:
the eigenbasis of the optimal distinguishing observable.  The arc
therefore bounces its way around the boundary like a billiard ball whose
cushions encode the best measurement.
"""

import numpy as np

from statgeom import (
    fuchs_caves_operator,
    geodesic,
    random_invertible_density_matrix,
    substream,
    verify_billiard_theorem,
)


def bounce_table():
    rng = substream(12, "demo-billiard")
    dim = 4
    rho1 = random_invertible_density_matrix(dim, rng)
    rho2 = random_invertible_density_matrix(dim, rng)
    path = geodesic(rho1, rho2)
    report = verify_billiard_theorem(rho1, rho2)
    ts = report["bounce_ts"]

    print(f"== a dimension-{dim} billiard ==")
    print(f"geodesic parameter t* = {path.t_star:.6f}; full period pi")
    print(f"boundary contacts in [0, pi): {len(ts)} (one per dimension)")
    print(f"{'t':>10}  {'min eigenvalue':>15}  {'multiplicity':>12}")
    for t, low, size in zip(ts, path.min_eigenvalue(np.array(ts)), report["multiplicities"]):
        print(f"{t:10.6f}  {low:15.2e}  {size:12d}")
    print()
    return rho1, rho2, path, report


def kernels_are_the_measurement(rho1, rho2, report):
    print("== the cushions are the optimal observable ==")
    m = fuchs_caves_operator(rho1, rho2)
    evals, evecs = np.linalg.eigh(m)
    print("overlap^2 of each kernel vector with its M eigenvector:")
    for t, kernel in zip(report["bounce_ts"], report["kernel_states"]):
        overlaps = np.abs(evecs.conj().T @ kernel) ** 2
        best = int(np.argmax(overlaps))
        print(f"  t = {t:8.6f} -> eigenvector {best}"
              f"  (overlap^2 = {overlaps[best]:.12f})")
    print()


def checked_in_bulk():
    print("== verified wholesale ==")
    rng = substream(12, "demo-billiard-bulk")
    for dim in (2, 3, 5):
        rho1 = random_invertible_density_matrix(dim, rng)
        rho2 = random_invertible_density_matrix(dim, rng)
        report = verify_billiard_theorem(rho1, rho2)
        print(f"  dim {dim}: matched={report['matched']}"
              f"  contacts={len(report['bounce_ts'])}"
              f"  worst overlap deficit={report['max_infidelity']:.2e}")
    print()


def roots_really_are_real(path, report):
    # det C(t) of the chord C(t) = cos(t) e1 + sin(t) e2 is real on a
    # horizontal great circle and flips sign at each simple contact
    print("== all half-period roots are boundary contacts ==")
    dets = np.linalg.det(path.chord(np.linspace(0.0, np.pi, 2048, endpoint=False)))
    scale = np.abs(dets).max()
    signs = np.sign(dets.real[np.abs(dets.real) > 1e-9 * scale])
    at_contacts = np.linalg.det(path.chord(np.array(report["bounce_ts"])))
    print(f"sign changes of the real determinant : {np.sum(signs[1:] != signs[:-1])}")
    print(f"largest imaginary part along the arc : {np.abs(dets.imag).max() / scale:.2e}")
    print(f"determinant residual at the contacts : {np.abs(at_contacts).max() / scale:.2e}")


if __name__ == "__main__":
    np.set_printoptions(precision=6, suppress=True)
    rho1, rho2, path, report = bounce_table()
    kernels_are_the_measurement(rho1, rho2, report)
    checked_in_bulk()
    roots_really_are_real(path, report)
