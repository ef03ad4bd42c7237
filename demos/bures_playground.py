#!/usr/bin/env python3
"""Fidelity, purification lifts, and geodesics between density matrices.

The Bures angle arccos(sqrt(F)) is the quantum version of the sphere-arc
distance between probability vectors.  It is realized by purifications:
lift both states to vectors in a doubled space, align the phases as well
as possible, and measure the ordinary angle.  The aligned lift makes the
geodesic an explicit great circle that can be sampled like any curve.
"""

import numpy as np

from statgeom import (
    bloch_vector,
    bures_angle,
    fidelity,
    fubini_study_distance,
    geodesic,
    horizontal_lift,
    hs_inner,
    purify,
    qubit_bures_ds2,
    qubit_state,
)


def fidelity_basics():
    rho1 = qubit_state(0.3, 0.1, -0.2)
    rho2 = qubit_state(-0.4, 0.2, 0.5)
    f = fidelity(rho1, rho2)
    print("== fidelity and angle ==")
    print(f"fidelity          : {f:.12f}")
    print(f"bures angle       : {bures_angle(rho1, rho2):.12f}")
    print(f"arccos sqrt(F)    : {np.arccos(np.sqrt(f)):.12f}")
    print(f"swap symmetry gap : {abs(f - fidelity(rho2, rho1)):.3e}")
    print()
    return rho1, rho2


def lift_alignment(rho1, rho2):
    print("== the aligned purification ==")
    a1 = purify(rho1)
    a2 = horizontal_lift(rho1, rho2)
    print(f"lift reproduces rho2   : {np.linalg.norm(a2 @ a2.conj().T - rho2):.3e}")
    overlap = hs_inner(a1, a2)
    print(f"overlap <A1, A2>       : {overlap.real:.12f} + {overlap.imag:.1e}j")
    print(f"sqrt fidelity          : {np.sqrt(fidelity(rho1, rho2)):.12f}")
    print("(real, positive, and as large as any purification pair can make it)")
    print()


def walk_the_geodesic(rho1, rho2):
    print("== sampling the geodesic ==")
    path = geodesic(rho1, rho2)
    print(f"endpoint parameter t* = {path.t_star:.12f}")
    print(f"{'t':>8}  {'F(rho(t), rho2)':>18}  {'min eigenvalue':>16}")
    for t in np.linspace(0.0, path.t_star, 6):
        state = path.state(t)
        print(f"{t:8.4f}  {fidelity(state, rho2):18.12f}  {path.min_eigenvalue(t):16.12f}")
    mid = path.state(path.t_star / 2)
    left = bures_angle(rho1, mid)
    right = bures_angle(mid, rho2)
    print(f"midpoint splits the angle: {left:.12f} + {right:.12f}"
          f" = {left + right:.12f} vs {bures_angle(rho1, rho2):.12f}")
    print()


def pure_states_are_the_sphere():
    print("== pure states: the same angle, computed two ways ==")
    rng = np.random.default_rng(8)
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    w = rng.normal(size=2) + 1j * rng.normal(size=2)
    v, w = v / np.linalg.norm(v), w / np.linalg.norm(w)
    proj = lambda u: np.outer(u, u.conj())
    print(f"fubini-study distance : {fubini_study_distance(v, w):.12f}")
    print(f"bures angle           : {bures_angle(proj(v), proj(w)):.12f}")
    print()


def hemisphere_line_element():
    print("== the qubit ball is a round hemisphere ==")
    r = np.array([0.3, -0.1, 0.25])
    dr = np.array([0.002, 0.001, -0.003])
    ds2 = qubit_bures_ds2(*r, *dr)
    expected = 0.25 * (dr @ dr + (r @ dr) ** 2 / (1 - r @ r))
    print(f"ds^2 from the metric     : {ds2:.15e}")
    print(f"dr^2/4 + radial correction: {expected:.15e}")
    rho = qubit_state(*r)
    print(f"round trip through bloch coordinates: {bloch_vector(rho)}")


if __name__ == "__main__":
    np.set_printoptions(precision=6, suppress=True)
    rho1, rho2 = fidelity_basics()
    lift_alignment(rho1, rho2)
    walk_the_geodesic(rho1, rho2)
    pure_states_are_the_sphere()
    hemisphere_line_element()
