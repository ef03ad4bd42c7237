"""Fidelity against its closed forms, rank-deficient states included.

Each case has an exact value in terms of the inputs: <psi|rho|psi> for a
pure state against any state, |<psi|phi>|^2 for two pure states,
(sum_i sqrt(p_i q_i))^2 for commuting states, Tr(rho sigma) +
2 sqrt(det rho det sigma) for qubits, and 1 for a state against itself.
Each is checked in both argument orders at d = 2..16.  The tolerances are
a few times the largest error measured on these inputs; summing sqrt of
eigenvalues of size u (unit roundoff) that a singular state leaves in the
core would add about sqrt(u) = 1e-8, far above every one of them.
"""

import numpy as np
import pytest

from statgeom import (
    DomainError,
    ValidationError,
    bures_angle,
    fidelity,
    fuchs_caves_operator,
    geodesic,
    qubit_state,
    random_density_matrix,
    random_invertible_density_matrix,
    random_unitary,
)
from statgeom import bures
from statgeom.linalg import _floored

from samplers import random_pure_state

DIMS = range(2, 17)


def _both_orders(rho1, rho2):
    return fidelity(rho1, rho2), fidelity(rho2, rho1)


def _projector(psi):
    return np.outer(psi, psi.conj())


@pytest.mark.parametrize("dim", DIMS)
def test_a_pure_state_against_a_mixed_one(dim):
    # largest error seen over 40 pairs per dim: 1.8e-15
    rng = np.random.default_rng(300 + dim)
    for _ in range(10):
        psi = random_pure_state(dim, rng)
        rho = random_density_matrix(dim, rng)
        expected = float(np.vdot(psi, rho @ psi).real)
        for got in _both_orders(_projector(psi), rho):
            assert abs(got - expected) <= 1e-14


@pytest.mark.parametrize("dim", DIMS)
def test_two_pure_states(dim):
    # largest error seen over 40 pairs per dim: 1.3e-15
    rng = np.random.default_rng(400 + dim)
    for _ in range(10):
        psi, phi = random_pure_state(dim, rng), random_pure_state(dim, rng)
        expected = abs(np.vdot(psi, phi)) ** 2
        for got in _both_orders(_projector(psi), _projector(phi)):
            assert abs(got - expected) <= 1e-14


@pytest.mark.parametrize("dim", DIMS)
def test_commuting_states_with_zeros_in_their_spectra(dim):
    # one random eigenbasis for both, and about a third of each spectrum 0;
    # largest error seen over 40 pairs per dim: 2.7e-15
    rng = np.random.default_rng(500 + dim)
    for _ in range(10):
        p, q = rng.random(dim), rng.random(dim)
        p[rng.random(dim) < 0.3] = 0.0
        q[rng.random(dim) < 0.3] = 0.0
        p[0], q[-1] = max(p[0], 0.1), max(q[-1], 0.1)
        p, q = p / p.sum(), q / q.sum()
        expected = float(np.sqrt(p * q).sum()) ** 2
        u = random_unitary(dim, rng)
        rho1, rho2 = (u * p) @ u.conj().T, (u * q) @ u.conj().T
        for got in _both_orders(rho1, rho2):
            assert abs(got - expected) <= 1e-14


def _bloch(rng, pure):
    r = rng.standard_normal(3)
    r /= np.linalg.norm(r)
    return r if pure else r * rng.random()


@pytest.mark.parametrize("pure", [(False, False), (True, False), (False, True), (True, True)])
def test_qubits(pure):
    # det of a pure qubit is 0; largest error seen over 400 pairs: 4.0e-15
    rng = np.random.default_rng(600 + 2 * pure[0] + pure[1])
    for _ in range(50):
        r, s = (_bloch(rng, p) for p in pure)
        det_r, det_s = ((0.0 if p else 0.25 * (1.0 - v @ v)) for p, v in zip(pure, (r, s)))
        expected = 0.5 * (1.0 + r @ s) + 2.0 * np.sqrt(det_r * det_s)
        for got in _both_orders(qubit_state(*r), qubit_state(*s)):
            assert abs(got - expected) <= 1.5e-14


@pytest.mark.parametrize("dim", DIMS)
def test_a_state_against_itself(dim):
    rng = np.random.default_rng(700 + dim)
    for rho in (random_density_matrix(dim, rng), _projector(random_pure_state(dim, rng))):
        assert fidelity(rho, rho.copy()) == 1.0
        assert bures_angle(rho, rho.copy()) == 0.0


@pytest.mark.parametrize("dim", DIMS)
def test_one_formula_gives_f_m_and_the_geodesic(dim):
    """F = (Tr M rho1)^2 = cos^2 t*: F is summed from the core that M is
    formed from, and t* is the angle between sqrt(rho1) and M sqrt(rho1).
    Largest defect seen over 40 pairs per dim (lambda_min >= 0.02): 9.2e-15."""
    rng = np.random.default_rng(800 + dim)
    for _ in range(5):
        rho1 = random_invertible_density_matrix(dim, rng, min_eig=0.02)
        rho2 = random_invertible_density_matrix(dim, rng, min_eig=0.02)
        f = fidelity(rho1, rho2)
        trace = float(np.trace(fuchs_caves_operator(rho1, rho2) @ rho1).real)
        assert abs(f - trace * trace) <= 1e-14
        assert abs(f - np.cos(geodesic(rho1, rho2).t_star) ** 2) <= 1e-14


def test_a_state_at_the_validation_limit_does_not_raise():
    """rho2 with eigenvalue -1e-12 along a pure rho1 passes validation, and
    the core's eigenvalue along psi lands within rounding of -1e-12: below
    the clamp's -1e-12 on some draws.  F counts it as 0 and never raises."""
    rng = np.random.default_rng(900)
    below = 0
    for dim in DIMS:
        for _ in range(8):
            u = random_unitary(dim, rng)  # first column psi
            rest = rng.random(dim - 1)
            w = np.concatenate(([-1e-12], (1.0 + 1e-12) * rest / rest.sum()))
            rho1, rho2 = _projector(u[:, 0]), (u * w) @ u.conj().T
            try:
                pair = bures._pair(rho1, rho2)
            except ValidationError:
                continue  # its computed least eigenvalue fell below -1e-12
            assert 0.0 <= fidelity(rho1, rho2) <= 1e-14
            try:
                _floored(pair.core, 0.0)
            except DomainError:
                below += 1
    assert below  # the edge was reached
