"""Fidelity against the 50-digit closed forms of tests/oracle.py.

The tolerances were fixed from sweeps on other seeds before any assert: the
worst error was 6.3e-15 over 6,000 qubit pairs with lambda_min >= 0.02 and
4.1e-16 over 6,000 diagonal pairs at d = 2..6.  Nearer the boundary the
error grows (4.9e-14 over 3,000 qubit pairs with lambda_min >= 1e-3), so
those pairs are not drawn here.
"""

from decimal import Decimal

import numpy as np

from statgeom import fidelity, min_eigenvalue, random_density_matrix
from statgeom.sampling import substream

from oracle import diagonal_fidelity, qubit_fidelity


def _qubit_pairs(rng, count, low=0.02):
    """count pairs of random qubit states, each with lambda_min >= low."""
    states = []
    while len(states) < 2 * count:
        rho = random_density_matrix(2, rng)
        if min_eigenvalue(rho) >= low:
            states.append(rho)
    return list(zip(states[::2], states[1::2]))


def _diagonal_pairs(rng, count):
    """count pairs of diagonal states, cycling d = 2..6."""
    draw = lambda d: np.diag(rng.dirichlet(np.ones(d))).astype(complex)
    return [(draw(2 + k % 5), draw(2 + k % 5)) for k in range(count)]


def _worst(pairs, oracle):
    return max(abs(Decimal(fidelity(a, b)) - oracle(a, b)) for a, b in pairs)


def test_the_two_closed_forms_agree_on_diagonal_qubits():
    rng = substream(1, "oracle-self-check")
    pairs = [(a, b) for a, b in _diagonal_pairs(rng, 500) if a.shape == (2, 2)]
    worst = max(abs(qubit_fidelity(a, b) - diagonal_fidelity(a, b)) for a, b in pairs)
    assert worst <= Decimal("1e-48")  # 4e-50 in a sweep on another seed


def test_fidelity_meets_the_qubit_closed_form():
    pairs = _qubit_pairs(substream(1, "fidelity-oracle-qubit"), 500)
    assert _worst(pairs, qubit_fidelity) <= Decimal("2e-14")


def test_fidelity_meets_the_diagonal_closed_form():
    pairs = _diagonal_pairs(substream(1, "fidelity-oracle-diagonal"), 500)
    assert _worst(pairs, diagonal_fidelity) <= Decimal("2e-15")
