"""POVMs, induced distributions, and optimal state discrimination."""

import math

import numpy as np
import pytest

from statgeom import (
    DimensionMismatchError,
    DomainError,
    SingularError,
    ValidationError,
    bures_angle,
    density_matrix,
    eig_hermitian,
    fr_geodesic_distance,
    fuchs_caves_operator,
    geometric_mean,
    hermitian_part,
    induced_distribution,
    is_hermitian,
    min_eigenvalue,
    optimal_measurement,
    povm,
    povm_classical_angle,
    probability_vector,
    pure_state_qubit_angle,
    qubit_povm_search,
    qubit_state,
    random_invertible_density_matrix,
    random_povm,
)


def _trine_povm():
    """Three rank-one elements (2/3)|u_k><u_k| at 120-degree spacing."""
    elements = []
    for k in range(3):
        angle = 2.0 * math.pi * k / 3.0
        u = np.array([math.cos(angle / 2.0), math.sin(angle / 2.0)], dtype=complex)
        elements.append(2.0 / 3.0 * np.outer(u, u.conj()))
    return elements


def test_povm_accepts_trine():
    elements = povm(_trine_povm())
    assert len(elements) == 3
    assert np.allclose(sum(elements), np.eye(2), atol=1e-12)


def test_povm_validation():
    with pytest.raises(ValidationError):
        povm([np.eye(2), np.eye(2)])  # sums to 2I
    with pytest.raises(ValidationError):
        povm([np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])])  # negative element
    with pytest.raises(ValidationError):
        povm([np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2)])  # not Hermitian


def test_induced_distribution_diagonal():
    rho = np.diag([0.7, 0.3]).astype(complex)
    projectors = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    p = induced_distribution(projectors, rho)
    assert np.allclose(p, [0.7, 0.3], atol=1e-14)


def test_induced_distribution_sums_to_one(rng):
    rho = random_invertible_density_matrix(3, rng)
    elements = random_povm(3, 5, rng)
    p = induced_distribution(elements, rho)
    assert np.all(p >= -1e-14)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)


def test_classical_angle_of_z_measurement_is_simplex_distance():
    rho1 = np.diag([0.7, 0.3]).astype(complex)
    rho2 = np.diag([0.4, 0.6]).astype(complex)
    projectors = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    angle = povm_classical_angle(projectors, rho1, rho2)
    assert angle == pytest.approx(
        fr_geodesic_distance(np.array([0.7, 0.3]), np.array([0.4, 0.6])),
        abs=1e-14,
    )


def test_fuchs_caves_commuting_frozen():
    rho1 = np.diag([0.7, 0.3]).astype(complex)
    rho2 = np.diag([0.4, 0.6]).astype(complex)
    m = fuchs_caves_operator(rho1, rho2)
    expected = np.diag([math.sqrt(0.4 / 0.7), math.sqrt(0.6 / 0.3)])
    assert np.allclose(m, expected, atol=1e-13)


def test_fuchs_caves_riccati_and_inverse(rng):
    for dim in (2, 3, 4):
        rho1 = random_invertible_density_matrix(dim, rng)
        rho2 = random_invertible_density_matrix(dim, rng)
        m12 = fuchs_caves_operator(rho1, rho2)
        m21 = fuchs_caves_operator(rho2, rho1)
        assert np.allclose(m12 @ rho1 @ m12, rho2, atol=1e-10)
        assert np.allclose(m12 @ m21, np.eye(dim), atol=1e-9)


def test_fuchs_caves_is_a_geometric_mean(rng):
    # the likelihood-ratio operator is the geometric mean of rho1^{-1}, rho2
    rho1 = random_invertible_density_matrix(3, rng)
    rho2 = random_invertible_density_matrix(3, rng)
    direct = fuchs_caves_operator(rho1, rho2)
    via_mean = geometric_mean(np.linalg.inv(rho1), rho2)
    assert np.allclose(direct, via_mean, atol=1e-10)


def test_fuchs_caves_needs_invertible_first_state():
    with pytest.raises(SingularError):
        fuchs_caves_operator(
            np.diag([1.0, 0.0]).astype(complex), np.eye(2, dtype=complex) / 2
        )


def test_optimal_measurement_attains_bures_angle(rng):
    for dim in (2, 3, 4):
        rho1 = random_invertible_density_matrix(dim, rng)
        rho2 = random_invertible_density_matrix(dim, rng)
        elements = optimal_measurement(rho1, rho2)
        assert np.allclose(sum(elements), np.eye(dim), atol=1e-10)
        for e in elements:
            assert np.linalg.matrix_rank(e, tol=1e-8) == 1
        achieved = povm_classical_angle(elements, rho1, rho2)
        assert achieved == pytest.approx(bures_angle(rho1, rho2), abs=1e-10)


def test_optimal_projectors_match_outer_products_exactly(rng):
    for dim in range(1, 9):
        rho1 = random_invertible_density_matrix(dim, rng)
        rho2 = random_invertible_density_matrix(dim, rng)
        _, vectors = eig_hermitian(fuchs_caves_operator(rho1, rho2))
        outers = [np.outer(v, v.conj()) for v in vectors.T]
        elements = optimal_measurement(rho1, rho2)
        assert len(elements) == dim
        assert all(np.array_equal(e, o) for e, o in zip(elements, outers))


def test_no_random_povm_beats_the_quantum_angle(rng):
    rho1 = random_invertible_density_matrix(3, rng)
    rho2 = random_invertible_density_matrix(3, rng)
    bound = bures_angle(rho1, rho2)
    for _ in range(50):
        elements = random_povm(3, 5, rng)
        assert povm_classical_angle(elements, rho1, rho2) <= bound + 1e-9


def test_qubit_povm_search_commuting_pair():
    rho1 = np.diag([0.7, 0.3]).astype(complex)
    rho2 = np.diag([0.4, 0.6]).astype(complex)
    report = qubit_povm_search(rho1, rho2, grid_resolution=80)
    assert report["best_angle"] == pytest.approx(
        bures_angle(rho1, rho2), abs=1e-7
    )
    # optimal axis is the z axis, up to canonical sign
    assert abs(report["best_axis"][2]) == pytest.approx(1.0, abs=1e-5)
    assert not report["non_unique"]


def test_qubit_povm_search_flags_pure_pairs():
    rho1 = qubit_state(0.0, 0.0, 1.0)
    rho2 = qubit_state(math.sin(1.0), 0.0, math.cos(1.0))
    report = qubit_povm_search(rho1, rho2, grid_resolution=60)
    assert report["non_unique"]
    assert report["best_angle"] == pytest.approx(0.5, abs=1e-6)


def test_qubit_povm_search_rejects_non_qubits(rng):
    rho = random_invertible_density_matrix(3, rng)
    with pytest.raises(DimensionMismatchError):
        qubit_povm_search(rho, rho)


def test_pure_state_angle_inside_and_outside():
    theta = 1.2
    # diameter through the arc, tilted by theta_a from the nearer state
    assert pure_state_qubit_angle(theta, 0.25, inside=True) == pytest.approx(
        0.35, abs=1e-15
    )
    # any diameter outside the arc is optimal
    assert pure_state_qubit_angle(theta, 0.3, inside=False) == pytest.approx(
        0.6, abs=1e-15
    )
    assert pure_state_qubit_angle(theta, 0.0, inside=True) == pytest.approx(
        0.6, abs=1e-15
    )


def test_pure_state_angle_matches_explicit_measurement():
    # cross-check both branches against an explicit projective measurement
    theta = 1.2
    rho1 = qubit_state(0.0, 0.0, 1.0)
    rho2 = qubit_state(math.sin(theta), 0.0, math.cos(theta))

    def diameter_projectors(beta):
        axis = np.array([math.sin(beta), 0.0, math.cos(beta)])
        up = qubit_state(*axis)
        return [up, np.eye(2, dtype=complex) - up]

    inside = povm_classical_angle(diameter_projectors(0.25), rho1, rho2)
    assert inside == pytest.approx(
        pure_state_qubit_angle(theta, 0.25, inside=True), abs=1e-12
    )
    outside = povm_classical_angle(diameter_projectors(-0.3), rho1, rho2)
    assert outside == pytest.approx(
        pure_state_qubit_angle(theta, 0.3, inside=False), abs=1e-12
    )


def test_pure_state_angle_domain_errors():
    with pytest.raises(DomainError):
        pure_state_qubit_angle(0.0, 0.0)
    with pytest.raises(DomainError):
        pure_state_qubit_angle(1.0, 0.6, inside=True)  # beyond theta/2
    with pytest.raises(DomainError):
        pure_state_qubit_angle(3.0, 0.2, inside=False)  # beyond (pi-theta)/2
    with pytest.raises(DomainError):
        pure_state_qubit_angle(1.0, -0.1)


def _povm_reference(elements):
    """povm checked one element at a time: the stacked check must match it."""
    if len(elements) == 0:
        raise ValidationError("a POVM needs at least one element")
    checked = []
    for k, e in enumerate(elements):
        e = np.asarray(e, dtype=complex)
        if e.shape != np.shape(elements[0]):
            raise DimensionMismatchError("POVM elements must share one shape")
        if not is_hermitian(e):
            raise ValidationError(f"POVM element {k} is not Hermitian")
        e = hermitian_part(e)
        if min_eigenvalue(e) < -1e-12:
            raise ValidationError(f"POVM element {k} is not positive semidefinite")
        checked.append(e)
    total = sum(checked)
    if np.max(np.abs(total - np.eye(total.shape[0]))) > 1e-10:
        raise ValidationError("POVM elements must sum to the identity")
    return checked


def _induced_reference(elements, rho):
    """induced_distribution with one trace per element."""
    elements = _povm_reference(elements)
    rho = density_matrix(rho)
    if elements[0].shape != rho.shape:
        raise DimensionMismatchError(
            f"POVM acts on dim {elements[0].shape[0]}, state has dim {rho.shape[0]}"
        )
    return probability_vector([float(np.trace(e @ rho).real) for e in elements])


def test_stacked_povm_matches_element_loop_exactly():
    rng = np.random.default_rng(41)
    for dim in (2, 3, 4, 5, 8, 16, 32):
        for trial in range(4):
            rho1 = random_invertible_density_matrix(dim, rng)
            rho2 = random_invertible_density_matrix(dim, rng)
            if trial % 2 == 0:
                elements = optimal_measurement(rho1, rho2)
            else:
                elements = random_povm(dim, int(rng.integers(1, 2 * dim + 2)), rng)
            checked, reference = povm(elements), _povm_reference(elements)
            assert len(checked) == len(reference)
            assert all(np.array_equal(e, r) for e, r in zip(checked, reference))
            p = _induced_reference(elements, rho1)
            q = _induced_reference(elements, rho2)
            assert np.array_equal(induced_distribution(elements, rho1), p)
            assert np.array_equal(induced_distribution(elements, rho2), q)
            angle = povm_classical_angle(elements, rho1, rho2)
            assert angle == fr_geodesic_distance(p, q)


_NON_HERMITIAN = np.array([[0.0, 1.0], [0.0, 0.0]])
_NEGATIVE = np.diag([-0.5, 0.0])


@pytest.mark.parametrize(
    "elements, error, message",
    [
        ([], ValidationError, "a POVM needs at least one element"),
        (
            [_NON_HERMITIAN, np.eye(3)],
            ValidationError,
            "POVM element 0 is not Hermitian",
        ),
        (
            [np.diag([1.5, 1.0]), _NEGATIVE, _NON_HERMITIAN],
            ValidationError,
            "POVM element 1 is not positive semidefinite",
        ),
        (
            [np.diag([1.5, 1.0]), _NEGATIVE, np.full((2, 2), np.nan)],
            ValidationError,
            "POVM element 1 is not positive semidefinite",
        ),
        (
            [np.diag([1.5, 1.0]), _NEGATIVE, [[1.0, 0.0], [0.0]]],
            ValidationError,
            "POVM element 1 is not positive semidefinite",
        ),
        (
            [np.eye(2), np.eye(3)],
            DimensionMismatchError,
            "POVM elements must share one shape",
        ),
        (
            [np.ones((2, 3)), np.ones((2, 3))],
            DimensionMismatchError,
            "matrix must be square, got shape (2, 3)",
        ),
        (
            [np.eye(2), np.eye(2)],
            ValidationError,
            "POVM elements must sum to the identity",
        ),
    ],
)
def test_povm_errors_keep_element_order(elements, error, message):
    # the lowest-index offending element wins, and within one element the
    # shape check precedes Hermiticity, which precedes positivity
    for check in (povm, _povm_reference):
        with pytest.raises(error) as caught:
            check(elements)
        assert type(caught.value) is error
        assert str(caught.value) == message


def _outcome(check, elements):
    try:
        check(elements)
    except ValidationError as exc:
        return str(exc)
    return "valid"


def test_stacked_hermiticity_keeps_the_element_bound():
    # the batched test accepts and rejects exactly where is_hermitian does,
    # at 1e-10 of each element's own norm (or of 1), and names the same element
    base = random_povm(3, 4, np.random.default_rng(43))
    upper = np.triu(np.ones((3, 3)), 1)
    seen = set()
    for gain in (1.0, 1e3):  # 1e3 lifts every norm, and the bound with it
        for size in (1e-13, 2e-11, 6e-11, 1e-9, 1e-7):
            for k in range(4):
                elements = [gain * e for e in base]
                elements[k] = elements[k] + size * upper
                outcome = _outcome(povm, elements)
                assert outcome == _outcome(_povm_reference, elements)
                seen.add(outcome)
    assert {"valid", "POVM element 2 is not Hermitian",
            "POVM elements must sum to the identity"} <= seen


def test_povm_state_dimension_mismatch():
    elements = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    rho = np.eye(3, dtype=complex) / 3
    for call in (
        lambda: induced_distribution(elements, rho),
        lambda: _induced_reference(elements, rho),
        lambda: povm_classical_angle(elements, np.eye(2) / 2, rho),
    ):
        with pytest.raises(DimensionMismatchError) as caught:
            call()
        assert str(caught.value) == "POVM acts on dim 2, state has dim 3"


@pytest.mark.parametrize("outcomes", [3, 8, 32])
def test_classical_angle_certifies_the_povm_with_one_cholesky(lapack_calls, outcomes):
    # one batched Cholesky proves every element positive and one eigvalsh
    # checks each state; a batched eigvalsh of the elements used to take the
    # Cholesky's place, and checking element by element 2K + 2 eigvalsh
    rng = np.random.default_rng(outcomes)
    elements = random_povm(3, outcomes, rng)
    rho1 = random_invertible_density_matrix(3, rng)
    rho2 = random_invertible_density_matrix(3, rng)
    calls = lapack_calls("eigh", "eigvalsh", "cholesky")
    povm_classical_angle(elements, rho1, rho2)
    assert calls == {"eigvalsh": 2, "cholesky": 1}


@pytest.mark.parametrize(
    "elements, calls, outcome",
    [
        ([np.eye(32)], {"cholesky": 1}, "valid"),
        (random_povm(32, 40, np.random.default_rng(47)), {"cholesky": 1}, "valid"),
        # tr I = 64 puts the Cholesky rounding bound past the budget
        ([np.eye(64)], {"eigvalsh": 1}, "valid"),
        (
            [np.diag([1.5, 1.0]), _NEGATIVE],
            {"cholesky": 1, "eigvalsh": 1},
            "POVM element 1 is not positive semidefinite",
        ),
        (
            [np.eye(2) / 2, np.full((2, 2), np.nan)],
            {"eigvalsh": 1},
            "POVM element 1 is not Hermitian",
        ),
    ],
    ids=["identity-32", "random-povm-32", "identity-64", "negative", "nan"],
)
def test_povm_positivity_certificate_or_fallback(lapack_calls, elements, calls, outcome):
    # the Cholesky certificate replaces the batched eigvalsh only for a
    # Hermitian stack within its rounding budget, and only when it succeeds
    counts = lapack_calls("eigh", "eigvalsh", "cholesky")
    assert _outcome(povm, elements) == outcome
    assert counts == calls


def _hermitian_with_least(n, least, top, rng):
    """Random Hermitian matrix with eigenvalues ``least`` and n - 1 in [0, top)."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, _ = np.linalg.qr(z)
    spectrum = np.concatenate([[least], top * rng.uniform(size=n - 1)])
    return hermitian_part((q * spectrum) @ q.conj().T)


def test_positivity_certificate_never_over_accepts(lapack_calls):
    # single-element POVMs straddling the -1e-12 floor: the certificate
    # (no eigvalsh run) may only accept what element-wise eigvalsh accepts,
    # so povm and the reference reach the same error.  Elements of norm 1e4
    # fall outside the Cholesky rounding budget and must take the fallback.
    rng = np.random.default_rng(53)
    counts = lapack_calls("eigvalsh")
    certified, outcomes = 0, set()
    for n in (2, 3, 4, 8, 16, 32):
        for top in (1.0, 1e4):
            for _ in range(10):
                for least in (
                    -1e-12 * (1.0 + 0.9 * rng.uniform(-1.0, 1.0)),
                    -5e-13 * (1.0 + 0.1 * rng.uniform(-1.0, 1.0)),
                    0.0,
                    -1e-16,
                ):
                    element = _hermitian_with_least(n, least, top, rng)
                    counts.clear()
                    outcome = _outcome(povm, [element])
                    certified += counts["eigvalsh"] == 0
                    assert outcome == _outcome(_povm_reference, [element])
                    outcomes.add(outcome)
    assert certified >= 100
    assert outcomes == {
        "POVM element 0 is not positive semidefinite",
        "POVM elements must sum to the identity",
    }
