"""Fidelity against the 50-digit closed forms of tests/oracle.py.

The tolerances were fixed from sweeps on other seeds before any assert: the
worst error was 6.3e-15 over 6,000 qubit pairs with lambda_min >= 0.02 and
4.1e-16 over 6,000 diagonal pairs at d = 2..6.  Nearer the boundary the
error grows (4.9e-14 over 3,000 qubit pairs with lambda_min >= 1e-3), so
those pairs are not drawn here.

M = rho1^(-1) # rho2 is held to its closed form on qubit pairs with
lambda_min >= 0.02.  Over 9,000 such pairs on seeds 11..15 the worst errors
were 8.6e-14 in an entry of fuchs_caves_operator, 1.1e-13 in an eigenvalue
of the pair's eig(M), and 1.3e-13 in an entry of an optimal projector, or
4.6e-14 times the gap mu_+ - mu_-, which bounds the rotation of an
eigenvector (Davis and Kahan); the oracle's own identities held to 5.8e-49.
"""

from decimal import Decimal, localcontext

import numpy as np

from statgeom import (
    fidelity,
    fuchs_caves_operator,
    min_eigenvalue,
    optimal_measurement,
    random_density_matrix,
)
from statgeom import bures
from statgeom.sampling import substream

from oracle import (
    PRECISION,
    diagonal_fidelity,
    product,
    qubit_fidelity,
    qubit_m,
    qubit_m_spectrum,
    qubit_parts,
)


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


def _gap(parts, matrix):
    """The largest difference of the (a, d, x, y) parts of a Hermitian matrix."""
    return max(abs(p - q) for p, q in zip(parts, qubit_parts(matrix)))


def _entry_gap(a, b):
    """The largest difference of the real or imaginary part of an entry."""
    pairs = (zip(x, y) for row, row2 in zip(a, b) for x, y in zip(row, row2))
    return max(abs(p - q) for pair in pairs for p, q in pair)


def test_the_m_closed_form_meets_its_own_identities():
    """M rho1 M = rho2, M(rho1, rho2) M(rho2, rho1) = I, and (Tr M rho1)^2 is
    the qubit fidelity form."""
    identity = product((Decimal(1), Decimal(1), Decimal(0), Decimal(0)))
    for rho1, rho2 in _qubit_pairs(substream(1, "m-oracle-self-check"), 100):
        m, h1 = qubit_m(rho1, rho2), qubit_parts(rho1)
        rho2_entries = product(qubit_parts(rho2))  # a product of one factor: its entries
        assert _entry_gap(product(m, h1, m), rho2_entries) <= Decimal("1e-45")
        assert _entry_gap(product(m, qubit_m(rho2, rho1)), identity) <= Decimal("1e-45")
        with localcontext() as ctx:
            ctx.prec = PRECISION
            (a, d, x, y), (a1, d1, x1, y1) = m, h1
            root_fidelity = a * a1 + d * d1 + 2 * (x * x1 + y * y1)  # Tr M rho1
            assert abs(root_fidelity**2 - qubit_fidelity(rho1, rho2)) <= Decimal("1e-45")


def test_m_its_spectrum_and_the_optimal_projectors_meet_the_closed_form():
    worst_m = worst_mu = worst_projector = Decimal(0)
    for rho1, rho2 in _qubit_pairs(substream(1, "m-oracle"), 300):
        (mu_minus, mu_plus), projectors = qubit_m_spectrum(rho1, rho2)
        worst_m = max(worst_m, _gap(qubit_m(rho1, rho2), fuchs_caves_operator(rho1, rho2)))
        eigenvalues = bures._pair(rho1, rho2).eig_m.eigenvalues
        for w, mu in zip(eigenvalues, (mu_minus, mu_plus)):
            worst_mu = max(worst_mu, abs(Decimal(w) - mu))
        elements = optimal_measurement(rho1, rho2)  # ascending mu, as eig(M) orders them
        rotation = max(_gap(p, e) for p, e in zip(projectors, elements)) * (mu_plus - mu_minus)
        worst_projector = max(worst_projector, rotation)
    assert worst_m <= Decimal("2e-13")
    assert worst_mu <= Decimal("2e-13")
    assert worst_projector <= Decimal("1e-13")
