"""POVMs, induced distributions, and optimal state discrimination."""

import itertools
import math

import numpy as np
import pytest

from statgeom import (
    DimensionMismatchError,
    DomainError,
    SingularError,
    ValidationError,
    bloch_vector,
    bures_angle,
    density_matrix,
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
    random_unitary,
    substream,
)
from statgeom.acceptance import _mixed_state  # criterion 8's draw
from statgeom.measurement import _axis_cosine, _resolving_identity


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
        # eigh's own eigenvectors, unphased, of M's Hermitian part
        _, vectors = np.linalg.eigh(fuchs_caves_operator(rho1, rho2))
        outers = [hermitian_part(np.outer(v, v.conj())) for v in vectors.T]
        elements = optimal_measurement(rho1, rho2)
        assert len(elements) == dim
        assert all(np.array_equal(e, o) for e, o in zip(elements, outers))


def _rotated(spectrum, u):
    return hermitian_part((u * (spectrum / spectrum.sum())) @ u.conj().T)


@pytest.mark.parametrize("dim", range(2, 33))
def test_povm_accepts_the_optimal_projectors_as_they_are(dim):
    """povm_classical_angle skips validating the optimal projectors; this is why.

    Each is the Hermitian part of fl(v v†) with |v| = 1 + O(N u), so it is
    its own Hermitian part and its least eigenvalue is -O(u).  Validating
    them as any POVM must pass and return their Hermitian part, byte for
    byte, for generic pairs, rho1 with an eigenvalue of 1e-11, singular rho2
    and degenerate M.
    """
    rng = np.random.default_rng(400 + dim)
    for _ in range(2):
        u, w = random_unitary(dim, rng), random_unitary(dim, rng)
        p, q = rng.uniform(0.1, 1.0, dim), rng.uniform(0.1, 1.0, dim)
        tiny = p.copy()
        tiny[0] = 1e-11 * p.sum()
        singular = q.copy()
        singular[0] = 0.0
        repeated = p * np.repeat(rng.uniform(0.5, 2.0, (dim + 1) // 2), 2)[:dim]
        generic = [random_invertible_density_matrix(dim, rng) for _ in range(2)]
        pairs = [
            tuple(generic),
            (_rotated(tiny, u), _rotated(q, w)),
            (_rotated(p, u), _rotated(singular, w)),
            (_rotated(p, u), _rotated(repeated, u)),  # M = sqrt of the ratios, repeated
        ]
        for rho1, rho2 in pairs:
            elements = optimal_measurement(rho1, rho2)
            expected = hermitian_part(np.stack(elements))
            assert np.stack(povm(elements)).tobytes() == expected.tobytes()


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
    report = qubit_povm_search(rho1, rho2)
    assert report["best_angle"] == pytest.approx(
        bures_angle(rho1, rho2), abs=1e-12
    )
    # optimal axis is the z axis, up to canonical sign
    assert abs(report["best_axis"][2]) == pytest.approx(1.0, abs=1e-12)
    assert not report["non_unique"]


def test_qubit_povm_search_flags_pure_pairs():
    rho1 = qubit_state(0.0, 0.0, 1.0)
    rho2 = qubit_state(math.sin(1.0), 0.0, math.cos(1.0))
    report = qubit_povm_search(rho1, rho2)
    assert report["non_unique"]
    assert report["best_angle"] == pytest.approx(0.5, abs=1e-11)


def test_qubit_povm_search_rejects_non_qubits(rng):
    rho = random_invertible_density_matrix(3, rng)
    with pytest.raises(DimensionMismatchError):
        qubit_povm_search(rho, rho)


_QUTRIT = np.eye(3) / 3
_QUBIT = np.diag([0.7, 0.3])
_TRACE_TWO = np.diag([1.2, 0.8])
_RECT = np.ones((2, 3)) / 2


@pytest.mark.parametrize(
    "rho1, rho2, error, message",
    [
        # the states first: an invalid second state of a qubit pair ...
        (_QUBIT, _TRACE_TWO, ValidationError, "trace is 2.0"),
        # ... but the pair's shapes before its states' checks, and then the
        # qubit check
        (_QUTRIT, _TRACE_TWO, DimensionMismatchError, "qubits only"),
        # two square states of different shapes: the qubit check, not the pair's
        (_QUBIT, _QUTRIT, DimensionMismatchError, "qubits only"),
        (_QUTRIT, _QUBIT, DimensionMismatchError, "qubits only"),
        # a state that is not square: the pair's own error, not the qubit check
        (_RECT, _QUBIT, DimensionMismatchError, r"must be square, got shape \(2, 3\)"),
        (_QUBIT, _RECT, DimensionMismatchError, r"must be square, got shape \(2, 3\)"),
    ],
    ids=["state-first", "state-then-shape", "qubit-qutrit", "qutrit-qubit", "rect-qubit",
         "qubit-rect"],
)
def test_qubit_povm_search_reports_the_state_then_the_shape(
    rho1, rho2, error, message
):
    # the order the povm-search command reports its errors in
    with pytest.raises(error, match=message) as info:
        qubit_povm_search(rho1, rho2)
    assert type(info.value) is error


def test_qubit_povm_search_axis_stays_within_one():
    # the report's schema bounds each component by 1; at the pure state's
    # axis, the circle's orthonormal basis gave 1 + 2^-52
    rho1 = qubit_state(0.0, 0.3, math.sqrt(0.5))
    report = qubit_povm_search(rho1, qubit_state(1.0, 0.0, 0.0))
    assert np.abs(report["best_axis"]).max() <= 1.0
    assert report["best_axis"][0] == 1.0


def test_qubit_povm_search_axis_has_no_negative_zero():
    # the canonical sign flip negated +0 components, which printed as -0
    units = [np.array(v) / np.linalg.norm(v) for v in itertools.product((-1, 0, 1), repeat=3)
             if any(v)]
    for v, w in itertools.product(units, repeat=2):
        report = qubit_povm_search(qubit_state(*(0.5 * v)), qubit_state(*(0.9 * w)))
        axis = report["best_axis"]
        assert not np.signbit(axis[axis == 0.0]).any()


def _sphere_search(rho1, rho2, grid_resolution):
    """Reference: the largest classical angle found over the whole sphere.

    A Fibonacci grid of grid_resolution^2 axes, then 60 rounds of a
    shrinking 8-neighbour compass search in spherical coordinates.
    """
    r1, r2 = bloch_vector(rho1), bloch_vector(rho2)

    def cosine(axes):
        p = np.clip(0.5 * (1.0 + axes @ r1), 0.0, 1.0)
        q = np.clip(0.5 * (1.0 + axes @ r2), 0.0, 1.0)
        return np.sqrt(p * q) + np.sqrt((1.0 - p) * (1.0 - q))

    def axis(theta, phi):
        s = np.sin(theta)
        return np.array([s * np.cos(phi), s * np.sin(phi), np.cos(theta)])

    count = grid_resolution * grid_resolution
    i = np.arange(count) + 0.5
    cos_theta = 1.0 - 2.0 * i / count
    sin_theta = np.sqrt(np.clip(1.0 - cos_theta**2, 0.0, None))
    phi = np.pi * (1.0 + np.sqrt(5.0)) * i
    axes = np.stack([sin_theta * np.cos(phi), sin_theta * np.sin(phi), cos_theta], axis=1)
    cosines = cosine(axes)
    best = int(np.argmin(cosines))
    best_cos = float(cosines[best])
    theta = float(np.arccos(np.clip(axes[best, 2], -1.0, 1.0)))
    phi = float(np.arctan2(axes[best, 1], axes[best, 0]))
    step = 4.0 / grid_resolution
    for _ in range(60):
        moved = False
        for dt, dp in ((step, 0.0), (-step, 0.0), (0.0, step), (0.0, -step),
                       (step, step), (step, -step), (-step, step), (-step, -step)):
            c = float(cosine(axis(theta + dt, phi + dp)[None, :])[0])
            if c < best_cos:
                best_cos, theta, phi, moved = c, theta + dt, phi + dp, True
        if not moved:
            step *= 0.5
    return float(np.arccos(np.clip(best_cos, 0.0, 1.0)))


def test_qubit_povm_search_is_not_beaten_on_the_sphere():
    # an optimal axis lies in the plane of the Bloch vectors: over criterion
    # 8's pairs, the whole sphere finds no larger angle beyond rounding
    rng = substream(1729, "acceptance-8")
    for _ in range(30):
        rho1 = _mixed_state(2, rng)
        rho2 = _mixed_state(2, rng)
        circle = qubit_povm_search(rho1, rho2)["best_angle"]
        assert circle >= _sphere_search(rho1, rho2, 200) - 1e-13


def _circle_search(rho1, rho2, grid_resolution):
    """Reference: the largest classical angle found on the circle of axes
    in the plane of the Bloch vectors, and an axis attaining it.

    grid_resolution^2 equally spaced angles in [0, pi), then a golden-section
    search of the best one's cell that keeps the best point it meets.
    """
    plane, coords = np.linalg.qr(np.column_stack([bloch_vector(rho1), bloch_vector(rho2)]))
    polars = [(np.hypot(x, y), np.arctan2(y, x)) for x, y in coords.T]
    count = grid_resolution * grid_resolution
    phis = np.pi / count * np.arange(count)
    cosines = _axis_cosine(phis, polars)
    best = int(np.argmin(cosines))
    best_phi, best_cos = phis[best], cosines[best]
    shrink = 0.5 * (np.sqrt(5.0) - 1.0)
    lo, hi = best_phi - np.pi / count, best_phi + np.pi / count
    while hi - lo > 1e-12:
        inner = np.array([hi - shrink * (hi - lo), lo + shrink * (hi - lo)])
        values = _axis_cosine(inner, polars)
        k = int(np.argmin(values))
        if values[k] < best_cos:
            best_phi, best_cos = inner[k], values[k]
        lo, hi = (lo, inner[1]) if k == 0 else (inner[0], hi)
    axis = plane @ np.array([np.cos(best_phi), np.sin(best_phi)])
    return float(np.arccos(np.clip(best_cos, 0.0, 1.0))), axis


def _criterion_8_pairs(count):
    rng = substream(1729, "acceptance-8")
    return [(_mixed_state(2, rng), _mixed_state(2, rng)) for _ in range(count)]


@pytest.mark.parametrize(
    "rho1, rho2",
    [
        *_criterion_8_pairs(5),
        (qubit_state(0.0, 0.0, 1.0), qubit_state(0.3, -0.2, 0.5)),  # a kink at r1
        (qubit_state(0.5, 0.1, -0.2), qubit_state(-0.3, 0.25, 0.4)),
        (np.diag([0.7, 0.3]), np.diag([0.4, 0.6])),
    ],
    ids=[*(f"criterion-8-{k}" for k in range(5)), "pure-r1", "mixed", "commuting"],
)
def test_the_stationary_equation_finds_the_circle_search_optimum(rho1, rho2):
    # the grid and golden-section search the roots of the quintic replace:
    # the same angle to rounding, and an axis the search agrees with to its
    # own accuracy (B is flat to second order at the optimum)
    report = qubit_povm_search(rho1, rho2)
    angle, axis = _circle_search(rho1, rho2, 200)
    assert report["best_angle"] == pytest.approx(angle, abs=1e-14)
    assert abs(report["best_axis"] @ axis) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "r1, r2, non_unique",
    [
        ((0.0, 0.0, 0.0), (0.3, -0.2, 0.5), False),
        ((0.1, 0.6, -0.2), (0.0, 0.0, 0.0), False),
        ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), False),  # angle 0
        ((0.2, 0.4, 0.1), (0.4, 0.8, 0.2), False),
        ((0.2, 0.4, 0.1), (-0.4, -0.8, -0.2), False),
        ((0.0, 0.0, 1.0), (0.0, 0.0, -1.0), True),  # orthogonal pure states
    ],
    ids=["r1-zero", "r2-zero", "both-zero", "parallel", "antiparallel", "orthogonal-pure"],
)
def test_qubit_povm_search_when_the_bloch_vectors_span_no_plane(r1, r2, non_unique):
    rho1, rho2 = qubit_state(*r1), qubit_state(*r2)
    report = qubit_povm_search(rho1, rho2)
    assert report["best_angle"] == pytest.approx(bures_angle(rho1, rho2), abs=1e-14)
    assert report["non_unique"] is non_unique
    assert np.linalg.norm(report["best_axis"]) == pytest.approx(1.0, abs=1e-15)


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
    """povm checked one element at a time within each check, the checks in
    order: the stacked check must match it."""
    if len(elements) == 0:
        raise ValidationError("a POVM needs at least one element")
    for e in elements:
        is_hermitian(e)  # converts it; DimensionMismatchError if it is not square
    elements = [np.asarray(e, dtype=complex) for e in elements]
    for e in elements:
        if e.shape != elements[0].shape:
            raise DimensionMismatchError(
                f"POVM elements have shapes {elements[0].shape} and {e.shape}"
            )
    for k, e in enumerate(elements):
        if not is_hermitian(e):
            raise ValidationError(f"POVM element {k} is not Hermitian")
    checked = [hermitian_part(e) for e in elements]
    for k, e in enumerate(checked):
        if min_eigenvalue(e) < -1e-12:
            raise ValidationError(f"POVM element {k} is not positive semidefinite")
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


def _gamma(n):
    """Higham's gamma_n = n u / (1 - n u), u the unit roundoff."""
    u = np.finfo(float).eps / 2
    return n * u / (1 - n * u)


def test_stacked_povm_matches_element_loop_exactly():
    """The stacked POVM check repeats the element loop exactly, and the
    distribution is exactly one matrix-vector product of the stack, which a
    loop of traces repeats to within rounding.

    Each complex dot product of n terms rounds to within
    gamma_{n+2} sum |x_i||y_i| of its value (Higham, Accuracy and Stability
    of Numerical Algorithms, section 3.6).  The product sums the N^2 terms
    (E_k)_ij rho_ji of p_k in one; a trace of E_k rho sums N dot products of
    N terms, within gamma_{2N+1} <= gamma_{N^2+2} of the same sum of moduli
    s_k.  So the two routes differ by at most 2 gamma_{N^2+2} s_k.
    """
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
            stack = np.stack(checked)
            distributions = []
            for rho in map(density_matrix, (rho1, rho2)):
                sums = stack.reshape(len(stack), -1) @ rho.T.ravel()
                p = probability_vector(sums.real)
                assert np.array_equal(induced_distribution(elements, rho), p)
                traces = np.array([np.trace(e @ rho) for e in reference])
                moduli = np.sum(np.abs(stack) * np.abs(rho.T), axis=(1, 2))
                assert np.all(np.abs(sums - traces) <= 2 * _gamma(dim * dim + 2) * moduli)
                distributions.append(p)
            angle = povm_classical_angle(elements, rho1, rho2)
            assert angle == fr_geodesic_distance(*distributions)


_NON_HERMITIAN = np.array([[0.0, 1.0], [0.0, 0.0]])
_NEGATIVE = np.diag([-0.5, 0.0])
_RAGGED = [[1.0, 0.0], [0.0]]


def _conversion_message(a):
    try:
        np.asarray(a, dtype=complex)
    except ValueError as error:
        return str(error)
    raise AssertionError("converts")


@pytest.mark.parametrize(
    "elements, error, message",
    [
        ([], ValidationError, "a POVM needs at least one element"),
        (
            [_NON_HERMITIAN, np.eye(3)],
            DimensionMismatchError,
            "POVM elements have shapes (2, 2) and (3, 3)",
        ),
        (
            [np.diag([1.5, 1.0]), _NEGATIVE, _NON_HERMITIAN],
            ValidationError,
            "POVM element 2 is not Hermitian",
        ),
        (
            [np.diag([1.5, 1.0]), _NEGATIVE, np.full((2, 2), np.nan)],
            ValidationError,
            "POVM element 2 is not Hermitian",
        ),
        pytest.param(
            [np.diag([1.5, 1.0]), _NEGATIVE, _RAGGED],
            ValueError,
            _conversion_message(_RAGGED),  # numpy's own
            id="elements4-ValueError-ragged",
        ),
        (
            [np.eye(2), np.eye(3)],
            DimensionMismatchError,
            "POVM elements have shapes (2, 2) and (3, 3)",
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
        pytest.param(
            [np.eye(2), np.ones((2, 3)), np.eye(3)],
            DimensionMismatchError,
            "matrix must be square, got shape (2, 3)",
            id="elements8-square-before-shape",
        ),
    ],
)
def test_povm_errors_keep_element_order(elements, error, message):
    # check by check over all elements: conversion and squareness in element
    # order, then the first element's shape, Hermiticity, positivity, the
    # sum; within a check the lowest-index offending element wins
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
    ):
        with pytest.raises(DimensionMismatchError) as caught:
            call()
        assert str(caught.value) == "POVM acts on dim 2, state has dim 3"
    # the states come from the Bures pair, which checks them before the POVM
    with pytest.raises(DimensionMismatchError) as caught:
        povm_classical_angle(elements, np.eye(2) / 2, rho)
    assert str(caught.value) == "states have shapes (2, 2) and (3, 3)"


@pytest.mark.parametrize("outcomes", [3, 8, 32])
def test_classical_angle_runs_one_stacked_eigvalsh(lapack_calls, outcomes):
    # rho1's eigh and rho2's eigvalsh check the pair of states (one stacked
    # eigh did) and one batched eigvalsh every element; it was one eigvalsh
    # per state, a shifted Cholesky once took the elements' place, and
    # checking element by element took 2K + 2
    rng = np.random.default_rng(outcomes)
    elements = random_povm(3, outcomes, rng)
    rho1 = random_invertible_density_matrix(3, rng)
    rho2 = random_invertible_density_matrix(3, rng)
    calls = lapack_calls("eigh", "eigvalsh", "cholesky")
    povm_classical_angle(elements, rho1, rho2)
    assert calls == {"eigh": 1, "eigvalsh": 2}


@pytest.mark.parametrize(
    "elements, outcome",
    [
        ([np.eye(32)], "valid"),
        (random_povm(32, 40, np.random.default_rng(47)), "valid"),
        ([np.eye(64)], "valid"),
        ([np.diag([1.5, 1.0]), _NEGATIVE], "POVM element 1 is not positive semidefinite"),
        ([np.eye(2) / 2, np.full((2, 2), np.nan)], "POVM element 1 is not Hermitian"),
    ],
    ids=["identity-32", "random-povm-32", "identity-64", "negative", "nan"],
)
def test_povm_positivity_certificate_or_fallback(lapack_calls, elements, outcome):
    # the batched eigvalsh is the one positivity check, made once every
    # element is Hermitian (the name is that of the shifted-Cholesky
    # certificate this once pinned)
    counts = lapack_calls("eigh", "eigvalsh", "cholesky")
    assert _outcome(povm, elements) == outcome
    assert counts == ({} if outcome.endswith("not Hermitian") else {"eigvalsh": 1})


def _hermitian_with_least(n, least, top, rng):
    """Random Hermitian matrix with eigenvalues ``least`` and n - 1 in [0, top)."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, _ = np.linalg.qr(z)
    spectrum = np.concatenate([[least], top * rng.uniform(size=n - 1)])
    return hermitian_part((q * spectrum) @ q.conj().T)


def test_positivity_floor_matches_the_element_loop():
    # single-element POVMs straddling the -1e-12 floor, of norm up to 1e4:
    # povm accepts exactly what element-wise eigvalsh accepts, so povm and
    # the reference reach the same error
    rng = np.random.default_rng(53)
    outcomes = set()
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
                    outcome = _outcome(povm, [element])
                    assert outcome == _outcome(_povm_reference, [element])
                    outcomes.add(outcome)
    assert outcomes == {
        "POVM element 0 is not positive semidefinite",
        "POVM elements must sum to the identity",
    }


def _resolves_identity_reference(stack):
    """The sum test as it was written before I was taken off in place."""
    total = np.sum(stack, axis=0)
    return not np.max(np.abs(total - np.eye(total.shape[0]))) > 1e-10


@pytest.mark.parametrize("n", [1, 2, 3, 8, 16])
def test_the_identity_test_keeps_its_verdict(n):
    rng = np.random.default_rng(n)
    projectors = optimal_measurement(_mixed_state(n, rng), _mixed_state(n, rng))
    exact = np.stack(projectors)
    off = [exact.copy() for _ in range(5)]
    off[0][0, 0, 0] += 2e-10
    off[1][-1, -1, 0] += 5e-11j
    off[2][0, 0, 0] = math.nan
    off[3][0] = -0.0
    off[4][:] = np.eye(n) / len(exact) * (1.0 + 1e-9)
    for stack in (exact, *off):
        before = stack.copy()
        verdict = _resolves_identity_reference(stack)
        if verdict:
            assert _resolving_identity(stack) is stack
        else:
            with pytest.raises(ValidationError, match="must sum to the identity"):
                _resolving_identity(stack)
        assert stack.tobytes() == before.tobytes()  # the sum is a new array


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_equal_states_give_the_identity_and_the_standard_basis(dim):
    # M = I for coincident states, as F = 1; its eigenbasis was one that
    # rounding picked, and optimal_measurement printed it
    rho = random_invertible_density_matrix(dim, substream(dim, "equal-states"))
    m = fuchs_caves_operator(rho, rho.copy())
    assert np.array_equal(m, np.eye(dim))
    projectors = optimal_measurement(rho, rho.copy())
    basis = np.eye(dim)
    assert all(np.array_equal(e, np.outer(b, b)) for e, b in zip(projectors, basis))
    with pytest.raises(SingularError):  # rho1 must still be invertible
        fuchs_caves_operator(np.diag([1.0, 0.0]), np.diag([1.0, 0.0]))
