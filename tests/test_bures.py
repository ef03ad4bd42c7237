"""Fidelity, purifications, horizontal lifts, and Bures geodesics."""

import math

import numpy as np
import pytest

from statgeom import (
    BoundaryError,
    DegenerateError,
    DimensionMismatchError,
    SingularError,
    ValidationError,
    ZeroVectorError,
    bloch_vector,
    bures_angle,
    density_matrix,
    fidelity,
    fubini_study_distance,
    fuchs_caves_operator,
    geodesic,
    horizontal_lift,
    hs_inner,
    matrix_sqrt,
    purify,
    qubit_bures_ds2,
    qubit_perturbation,
    qubit_state,
    random_density_matrix,
    random_invertible_density_matrix,
    random_unitary,
    verify_billiard_theorem,
)

from statgeom.bures import _pair

from samplers import random_pure_state


def _commuting_pair():
    return np.diag([0.7, 0.3]).astype(complex), np.diag([0.4, 0.6]).astype(complex)


def test_fidelity_commuting_frozen():
    rho1, rho2 = _commuting_pair()
    expected = (math.sqrt(0.7 * 0.4) + math.sqrt(0.3 * 0.6)) ** 2
    assert fidelity(rho1, rho2) == pytest.approx(expected, rel=1e-13)


def test_fidelity_basic_properties(rng):
    rho = random_density_matrix(3, rng)
    sigma = random_density_matrix(3, rng)
    f = fidelity(rho, sigma)
    assert 0.0 <= f <= 1.0
    assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)
    assert fidelity(sigma, rho) == pytest.approx(f, abs=1e-12)


def test_fidelity_pure_states_is_squared_overlap(rng):
    psi = random_pure_state(4, rng)
    phi = random_pure_state(4, rng)
    overlap2 = abs(np.vdot(psi, phi)) ** 2
    # the general formula takes a matrix square root of a rank-one product,
    # which costs sqrt(eps) in accuracy
    f = fidelity(np.outer(psi, psi.conj()), np.outer(phi, phi.conj()))
    assert f == pytest.approx(overlap2, abs=1e-7)


def test_fidelity_orthogonal_pure_states():
    e0 = np.diag([1.0, 0.0]).astype(complex)
    e1 = np.diag([0.0, 1.0]).astype(complex)
    assert fidelity(e0, e1) == pytest.approx(0.0, abs=1e-15)
    assert bures_angle(e0, e1) == pytest.approx(math.pi / 2, abs=1e-12)


def test_bures_angle_is_arccos_root_fidelity(rng):
    rho = random_density_matrix(3, rng)
    sigma = random_density_matrix(3, rng)
    assert bures_angle(rho, sigma) == pytest.approx(
        math.acos(math.sqrt(fidelity(rho, sigma))), abs=1e-14
    )


def test_purify_project_roundtrip(rng):
    rho = random_density_matrix(4, rng)
    a = purify(rho)
    assert np.allclose(a @ a.conj().T, rho, atol=1e-12)


def test_purify_is_the_root_of_the_validated_state(rng):
    for dim in range(1, 17):
        rho = random_density_matrix(dim, rng)
        assert purify(rho).tobytes() == matrix_sqrt(density_matrix(rho)).tobytes()


def test_purify_decomposes_the_state_once(rng, lapack_calls):
    rho = random_density_matrix(3, rng)
    calls = lapack_calls("eigh", "eigvalsh")
    purify(rho)
    assert calls == {"eigh": 1}  # was 1 eigvalsh to validate, then 1 eigh


@pytest.mark.parametrize(
    "rho",
    [
        [[1.1, 0.0], [0.0, -0.1]],  # negative eigenvalue
        [[0.5, 0.3], [0.0, 0.5]],  # not Hermitian
        [[1.2, 0.0], [0.0, 0.8]],  # trace 2
    ],
    ids=["negative", "nonhermitian", "trace2"],
)
def test_purify_rejects_as_density_matrix_does(rho):
    with pytest.raises(ValidationError) as expected:
        density_matrix(rho)
    with pytest.raises(ValidationError) as got:
        purify(rho)
    assert str(got.value) == str(expected.value)


def test_horizontal_lift_contracts(rng):
    rho1 = random_invertible_density_matrix(3, rng)
    rho2 = random_invertible_density_matrix(3, rng)
    a2 = horizontal_lift(rho1, rho2)
    assert np.allclose(a2 @ a2.conj().T, rho2, atol=1e-11)
    overlap = hs_inner(purify(rho1), a2)
    assert overlap.imag == pytest.approx(0.0, abs=1e-12)
    assert overlap.real == pytest.approx(
        math.sqrt(fidelity(rho1, rho2)), abs=1e-11
    )


def test_horizontal_lift_gauge_invariant_overlap(rng):
    # the lift of a rotated purification A1 = sqrt(rho1) U is M A1: the
    # transition amplitude is unchanged
    rho1 = random_invertible_density_matrix(3, rng)
    rho2 = random_invertible_density_matrix(3, rng)
    u = random_unitary(3, rng)
    a1 = purify(rho1) @ u
    a2 = fuchs_caves_operator(rho1, rho2) @ a1
    assert np.allclose(a2 @ a2.conj().T, rho2, atol=1e-11)
    overlap = hs_inner(a1, a2)
    assert overlap.real == pytest.approx(
        math.sqrt(fidelity(rho1, rho2)), abs=1e-11
    )
    assert overlap.imag == pytest.approx(0.0, abs=1e-12)


def test_horizontal_lift_is_the_pairs_one_lift(rng):
    """The lift is M sqrt(rho1) of the validated pair, formed once and kept:
    the geodesic reads the same array as its far end, and each call to
    horizontal_lift, before or after geodesic, returns a new copy of it."""
    for dim in range(2, 6):
        rho1 = random_invertible_density_matrix(dim, rng)
        rho2 = random_invertible_density_matrix(dim, rng)
        before = horizontal_lift(rho1, rho2)
        pair = _pair(rho1, rho2)
        kept = pair.lift
        expected = pair.m @ matrix_sqrt(density_matrix(rho1))
        assert before.tobytes() == expected.tobytes()
        geodesic(rho1, rho2)
        assert _pair(rho1, rho2) is pair and pair.lift is kept
        after = horizontal_lift(rho1, rho2)
        assert after.tobytes() == expected.tobytes()
        assert not np.shares_memory(before, after)
        assert not np.shares_memory(before, kept)
        assert not np.shares_memory(after, kept)
        after[...] = 0.0  # the caller's own array: the kept lift is untouched
        assert horizontal_lift(rho1, rho2).tobytes() == expected.tobytes()


def test_geodesic_endpoints_and_angle(rng):
    rho1 = random_invertible_density_matrix(4, rng)
    rho2 = random_invertible_density_matrix(4, rng)
    path = geodesic(rho1, rho2)
    assert path.t_star == pytest.approx(bures_angle(rho1, rho2), abs=1e-12)
    assert np.allclose(path.state(0.0), rho1, atol=1e-11)
    assert np.allclose(path.state(path.t_star), rho2, atol=1e-10)


def test_geodesic_midpoint_is_valid_state(rng):
    rho1 = random_invertible_density_matrix(3, rng)
    rho2 = random_invertible_density_matrix(3, rng)
    path = geodesic(rho1, rho2)
    mid = path.state(path.t_star / 2.0)
    assert np.allclose(mid, mid.conj().T)
    assert np.trace(mid).real == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(mid)[0] >= -1e-12
    # triangle equality along the geodesic: d(r1, mid) + d(mid, r2) = d(r1, r2)
    left = bures_angle(rho1, mid)
    right = bures_angle(mid, rho2)
    assert left + right == pytest.approx(path.t_star, abs=1e-9)


def test_geodesic_is_pi_periodic(rng):
    rho1 = random_invertible_density_matrix(3, rng)
    rho2 = random_invertible_density_matrix(3, rng)
    path = geodesic(rho1, rho2)
    for t in (0.3, 1.1):
        assert np.allclose(path.state(t), path.state(t + math.pi), atol=1e-11)


def test_geodesic_commuting_matches_scalar_formula():
    # diagonal endpoints evolve each eigenvalue along the classical circle
    p = np.array([0.7, 0.3])
    q = np.array([0.4, 0.6])
    path = geodesic(np.diag(p).astype(complex), np.diag(q).astype(complex))
    t_star = math.acos(np.sum(np.sqrt(p * q)))
    assert path.t_star == pytest.approx(t_star, abs=1e-13)
    w = (np.sqrt(q) - math.cos(t_star) * np.sqrt(p)) / math.sin(t_star)
    for t in (0.1, 0.2, 0.29):
        expected = (math.cos(t) * np.sqrt(p) + math.sin(t) * w) ** 2
        state = path.state(t)
        assert np.allclose(state, np.diag(expected), atol=1e-12)


def test_geodesic_rejects_singular_endpoint():
    pure = np.diag([1.0, 0.0]).astype(complex)
    mixed = np.eye(2, dtype=complex) / 2
    message = (
        "geodesic endpoint has eigenvalue 0.000e+00; "
        "both endpoints must be strictly positive"
    )
    for pair in ((pure, mixed), (mixed, pure)):
        with pytest.raises(SingularError) as caught:
            geodesic(*pair)
        assert str(caught.value) == message


def test_geodesic_reads_each_endpoint_spectrum_once(lapack_calls, rng):
    # the singular-endpoint check reuses the validation's smallest
    # eigenvalue instead of a second eigvalsh per endpoint (4 before); one
    # eigh of rho1 and an eigvalsh of rho2 validate both endpoints and give
    # sqrt(rho1) (2 eigvalsh and 2 eigh before, then one stacked eigh), and
    # one eigh gives M's core
    rho1 = random_invertible_density_matrix(3, rng)
    rho2 = random_invertible_density_matrix(3, rng)
    calls = lapack_calls("eigvalsh", "eigh")
    geodesic(rho1, rho2)
    assert calls == {"eigh": 2, "eigvalsh": 1}


def test_geodesic_rejects_identical_states():
    rho = np.eye(3, dtype=complex) / 3
    with pytest.raises(DegenerateError):
        geodesic(rho, rho.copy())


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_geodesic_rejects_every_coincident_pair(dim):
    # the angle floor alone passes about half of these, with t* near 1e-8,
    # since sine = sqrt(1 - overlap^2) rounds to about sqrt(2 eps)
    rng = np.random.default_rng(dim)
    states = [random_invertible_density_matrix(dim, rng, min_eig=0.02) for _ in range(200)]
    for rho in states:
        with pytest.raises(DegenerateError, match="states coincide"):
            geodesic(rho, rho.copy())
    with pytest.raises(DegenerateError, match="states coincide"):
        verify_billiard_theorem(states[0], states[0].copy())


def test_geodesic_rejects_distinct_states_whose_overlap_rounds_to_one():
    # rho1 != rho2 bit for bit, so only the sine floor can see them coincide
    rho1 = np.diag([0.5 + 2.0**-52, 0.5 - 2.0**-52]).astype(complex)
    rho2 = np.eye(2, dtype=complex) / 2
    assert not (rho1 == rho2).all()
    with pytest.raises(DegenerateError, match="states coincide"):
        geodesic(rho1, rho2)


def test_fubini_study_frozen_and_phase_invariant():
    psi = np.array([1.0, 0.0])
    phi = np.array([1.0, 1.0]) / math.sqrt(2.0)
    assert fubini_study_distance(psi, phi) == pytest.approx(math.pi / 4, abs=1e-14)
    assert fubini_study_distance(psi, np.exp(0.7j) * phi) == pytest.approx(
        math.pi / 4, abs=1e-14
    )
    assert fubini_study_distance(psi, psi) == pytest.approx(0.0, abs=1e-7)
    with pytest.raises(ZeroVectorError):
        fubini_study_distance(psi, np.zeros(2))
    with pytest.raises(DimensionMismatchError):
        fubini_study_distance(psi, np.ones(3))


def test_fubini_study_equals_bures_on_projectors(rng):
    psi = random_pure_state(3, rng)
    phi = random_pure_state(3, rng)
    assert fubini_study_distance(psi, phi) == pytest.approx(
        bures_angle(np.outer(psi, psi.conj()), np.outer(phi, phi.conj())),
        abs=1e-7,
    )


def test_qubit_state_bloch_roundtrip():
    r = (0.3, -0.2, 0.4)
    rho = qubit_state(*r)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-15)
    assert np.allclose(bloch_vector(rho), r, atol=1e-14)
    with pytest.raises(ValidationError):
        qubit_state(0.8, 0.8, 0.8)  # |r| > 1
    with pytest.raises(DimensionMismatchError):
        bloch_vector(np.eye(3) / 3)


def test_qubit_bures_ds2_hand_value():
    r = np.array([0.3, 0.0, 0.4])
    dr = np.array([0.01, 0.02, -0.005])
    expected = 0.25 * (
        float(dr @ dr) + float(r @ dr) ** 2 / (1.0 - float(r @ r))
    )
    assert qubit_bures_ds2(*r, *dr) == pytest.approx(expected, rel=1e-13)


def test_qubit_bures_ds2_boundary():
    with pytest.raises(BoundaryError):
        qubit_bures_ds2(1.0, 0.0, 0.0, 0.0, 0.0, 0.01)


NAN = float("nan")


@pytest.mark.parametrize(
    "call",
    [
        lambda: qubit_state(NAN, 0.0, 0.0),
        lambda: qubit_bures_ds2(NAN, 0.0, 0.0, 1.0, 0.0, 0.0),
        lambda: fubini_study_distance([NAN, 1.0], [1.0, 0.0]),
        lambda: qubit_bures_ds2(0.1, 0.0, 0.0, NAN, 0.0, 0.0),
        lambda: qubit_perturbation(NAN, 0.0, 0.0),
    ],
    ids=[
        "qubit_state", "qubit_bures_ds2",
        "fubini_study_distance", "qubit_bures_ds2_tangent", "qubit_perturbation",
    ],
)
def test_nan_fails_validation(call):
    # each bound is written so that NaN fails it, instead of passing it through
    with pytest.raises(ValidationError):
        call()
