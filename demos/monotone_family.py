#!/usr/bin/env python3
"""The family of contraction-respecting metrics on density matrices.

Unlike the classical simplex, the state space of a quantum system carries
infinitely many Riemannian metrics that shrink under every physical map.
Each is built from an operator-monotone function f; the function only
matters off-diagonal, where it weighs how eigenvalue pairs (lambda_i,
lambda_j) damp a perturbation.  Smaller f means a larger metric, so the
three classic means bracket the family.
"""

import numpy as np

from statgeom import (
    f_conditions_check,
    fisher_rao_ds2,
    monotone_ds2,
    qubit_perturbation,
    qubit_state,
)


def family_on_one_qubit():
    rho = qubit_state(0.3, -0.2, 0.4)
    drho = qubit_perturbation(0.01, 0.02, -0.015)

    print("== one state, three metrics ==")
    print("rho =\n", rho)
    for f in ("arithmetic", "geometric", "harmonic"):
        ds2 = monotone_ds2(rho, drho, f=f)
        print(f"  ds^2 with f = {f:>10}: {ds2:.10f}")
    print("(the arithmetic mean gives the smallest metric, the harmonic the largest)")
    print()


def diagonal_reduction():
    print("== diagonal data reduces to the classical metric ==")
    p = np.array([0.6, 0.3, 0.1])
    dp = np.array([0.01, -0.004, -0.006])
    rho = np.diag(p).astype(complex)
    drho = np.diag(dp).astype(complex)
    classical = fisher_rao_ds2(p, dp)
    for f in ("arithmetic", "geometric", "harmonic"):
        ds2 = monotone_ds2(rho, drho, f=f)
        print(f"  f = {f:>10}: ds^2 = {ds2:.15f}  (classical {classical:.15f})")
    print("all members agree on commuting perturbations")
    print()


def admission_test():
    print("== who is allowed into the family ==")
    candidates = [
        ("(1+t)/2", lambda t: (1 + t) / 2),
        ("sqrt(t)", np.sqrt),
        ("2t/(1+t)", lambda t: 2 * t / (1 + t)),
        ("t^2", np.square),
        ("t^0.3", lambda t: t ** 0.3),
    ]
    for label, f in candidates:
        report = f_conditions_check(f)
        verdict = "ok" if report["all_pass"] else "rejected"
        reasons = []
        if not report["operator_monotone"]:
            witness = report["witness"]
            reasons.append(
                f"not operator monotone (Löwner witness: {len(witness)} points"
                f" in [{min(witness):.3g}, {max(witness):.3g}])"
            )
        if not report["symmetric"]:
            reasons.append("not symmetric under t -> 1/t")
        if not report["normalized"]:
            reasons.append("f(1) != 1")
        extra = f"  [{'; '.join(reasons)}]" if reasons else ""
        print(f"  {label:>10}: {verdict}{extra}")


if __name__ == "__main__":
    np.set_printoptions(precision=6, suppress=True)
    family_on_one_qubit()
    diagonal_reduction()
    admission_test()
