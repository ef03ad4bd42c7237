#!/usr/bin/env python3
"""Measurements that make two states look as different as possible.

Any measurement turns a pair of density matrices into a pair of outcome
distributions, whose sphere-arc distance can never exceed the Bures angle
of the original states.  The bound is tight: measuring in the eigenbasis
of the likelihood-ratio-like operator M (the geometric mean of rho1^-1
and rho2) achieves it exactly.  On a qubit, the best projective
measurement found from its stationary equation, which never looks at M,
gives the same answer.
"""

import numpy as np

from statgeom import (
    bures_angle,
    fr_geodesic_distance,
    fuchs_caves_operator,
    induced_distribution,
    optimal_measurement,
    povm_classical_angle,
    pure_state_qubit_angle,
    qubit_povm_search,
    qubit_state,
    random_invertible_density_matrix,
    random_povm,
    substream,
)


def optimal_in_any_dimension():
    rng = substream(5, "demo-measurement")
    rho1 = random_invertible_density_matrix(3, rng)
    rho2 = random_invertible_density_matrix(3, rng)
    target = bures_angle(rho1, rho2)

    m = fuchs_caves_operator(rho1, rho2)
    print("== the optimal observable ==")
    print(f"M rho1 M reproduces rho2: {np.linalg.norm(m @ rho1 @ m - rho2):.3e}")

    elements = optimal_measurement(rho1, rho2)
    achieved = povm_classical_angle(elements, rho1, rho2)
    p = induced_distribution(elements, rho1)
    q = induced_distribution(elements, rho2)
    print(f"outcomes on rho1  : {p}")
    print(f"outcomes on rho2  : {q}")
    print(f"their FR angle    : {fr_geodesic_distance(p, q):.12f}")
    print(f"bures angle       : {target:.12f}")
    print(f"eigenbasis of M   : {achieved:.12f}")
    print(f"gap               : {abs(achieved - target):.3e}")
    print()

    print("random measurements stay below the bound:")
    for k in range(5):
        povm = random_povm(3, 4, rng)
        angle = povm_classical_angle(povm, rho1, rho2)
        print(f"  random POVM {k}: {angle:.6f}  <= {target:.6f}")
    print()
    return rho1, rho2


def qubit_search_without_m():
    print("== a search that never reads M agrees on a qubit ==")
    rho1 = qubit_state(0.5, 0.1, -0.2)
    rho2 = qubit_state(-0.3, 0.25, 0.4)
    report = qubit_povm_search(rho1, rho2)
    print(f"bures angle          : {bures_angle(rho1, rho2):.10f}")
    print(f"best projective angle: {report['best_angle']:.10f}")
    print(f"best axis            : {report['best_axis']}")
    print(f"unique optimum       : {not report['non_unique']}")
    print()


def pure_state_ambiguity():
    print("== a subtlety for pure states ==")
    print("when both states are pure, many measurements are optimal;")
    print("the distribution angle decomposes around the half-angle point.")
    theta = 0.9
    for theta_a in (0.0, 0.2, 0.4):
        inside = pure_state_qubit_angle(theta, theta_a, inside=True)
        print(f"  detector at {theta_a:.1f} inside the arc : angle {inside:.10f}"
              f"  (= theta/2 - theta_a = {theta / 2 - theta_a:.10f})")
    outside = pure_state_qubit_angle(theta, 0.3, inside=False)
    print(f"  detector outside the arc        : angle {outside:.10f}"
          f"  (= theta/2 = {theta / 2:.10f})")


if __name__ == "__main__":
    np.set_printoptions(precision=6, suppress=True)
    optimal_in_any_dimension()
    qubit_search_without_m()
    pure_state_ambiguity()
