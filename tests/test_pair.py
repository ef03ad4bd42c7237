"""The remembered state pair: calls in a row on one pair share its work.

The Bures views (fidelity, bures_angle, fuchs_caves_operator,
horizontal_lift, geodesic, optimal_measurement, verify_billiard_theorem and
qubit_povm_search) validate a pair once and keep F, M, sqrt(rho1), the
geodesic, eig(M) and the projectors of the optimal measurement for the next
call on the same pair; povm_classical_angle takes its states from it too,
and takes those projectors without validating them again when it is
given those very (read-only) arrays.
What is kept must never show: results are the bits a fresh pair gives,
whatever callers do to the arrays they get back.
"""

import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from statgeom import (
    DegenerateError,
    DimensionMismatchError,
    SingularError,
    ValidationError,
    bures_angle,
    fidelity,
    fuchs_caves_operator,
    geodesic,
    horizontal_lift,
    optimal_measurement,
    povm_classical_angle,
    qubit_povm_search,
    random_invertible_density_matrix,
    random_povm,
    random_unitary,
    verify_billiard_theorem,
)
from statgeom import bures, measurement, monotone
from statgeom.linalg import hermitian_part, matrix_inv_sqrt, matrix_sqrt
from statgeom.monotone import density_matrix


def _states(count, dim, seed):
    rng = np.random.default_rng(seed)
    return [random_invertible_density_matrix(dim, rng, min_eig=0.02) for _ in range(count)]


def _views(rho1, rho2, spoil=False):
    """Every public view of the pair, in call order, as arrays of their bits.

    With ``spoil``, each array a view returns is overwritten with NaN as soon
    as it is recorded, before the next view is called; the projectors of the
    optimal measurement are read-only, and writing to them must raise.
    """
    out = []

    def keep(value, read_only=False):
        arrays = value if isinstance(value, list) else [value]
        out.append([np.array(a, copy=True) for a in arrays])
        if spoil:
            for a in arrays:
                if not isinstance(a, np.ndarray):
                    continue
                if read_only:
                    with pytest.raises(ValueError, match="read-only"):
                        a[...] = np.nan
                else:
                    a[...] = np.nan
        return value

    keep(fidelity(rho1, rho2))
    keep(bures_angle(rho1, rho2))
    keep(fuchs_caves_operator(rho1, rho2))
    keep(horizontal_lift(rho1, rho2))
    path = geodesic(rho1, rho2)
    keep([path.e1, path.e2, path.t_star, path.state(path.t_star / 2)])
    keep(optimal_measurement(rho1, rho2), read_only=True)
    keep(povm_classical_angle(out[-1], rho1, rho2))  # the recorded projectors
    report = verify_billiard_theorem(rho1, rho2)
    keep([report["m_eigenvalues"], *report["kernel_states"], report["max_infidelity"]])
    return out


def _forget():
    """Replace the remembered pair by one of another shape than any below."""
    fidelity(np.eye(6) / 6, np.diag([0.5, 0.5, 0.0, 0.0, 0.0, 0.0]))


def _assert_same_bits(got, expected):
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert len(g) == len(e)
        for a, b in zip(g, e):
            assert a.shape == b.shape and a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()


def test_state_pairs_request_makes_four_lapack_calls(lapack_calls):
    # rho1's eigh validates it and gives sqrt(rho1) and rho1^(-1/2), rho2's
    # eigvalsh validates it, 1 eigh of the core gives both F and M, and 1
    # eig(M); the pair's own projectors need no Cholesky to certify them as a
    # POVM, as they once did.  It was 7 calls: 2 validating eigvalsh, and one
    # eigh each of rho1 and rho2; then 4, with an eigvalsh of
    # sqrt(rho2) rho1 sqrt(rho2) for F; then 3, with one stacked eigh of
    # rho1 and rho2, whose rho2 eigenvectors nothing read
    rho1, rho2 = _states(2, 4, 11)
    calls = lapack_calls("eigvalsh", "eigh", "cholesky")
    fidelity(rho1, rho2)
    angle = bures_angle(rho1, rho2)
    elements = optimal_measurement(rho1, rho2)
    classical = povm_classical_angle(elements, rho1, rho2)
    path = geodesic(rho1, rho2)
    path.state(path.t_star / 2)
    assert dict(calls) == {"eigh": 3, "eigvalsh": 1}
    assert classical == pytest.approx(angle, abs=1e-9)
    assert path.t_star == pytest.approx(angle, abs=1e-9)


def test_the_qubit_search_shares_the_pair_with_the_bures_views(lapack_calls):
    # the search validates through the pair (rho1's eigh and rho2's
    # eigvalsh, where 1 stacked eigh was), bures_angle adds the core that
    # gives F and M (1 eigh), and fuchs_caves_operator forms M from it
    # (none; it was 1 eigvalsh for F and 1 eigh for M)
    rho1, rho2 = _states(2, 2, 23)
    calls = lapack_calls("eigvalsh", "eigh")
    qubit_povm_search(rho1, rho2)
    pair = bures._pairs.entry[1]
    bures_angle(rho1, rho2)
    fuchs_caves_operator(rho1, rho2)
    assert bures._pair(rho1, rho2) is pair is bures._pairs.entry[1] is not None
    assert dict(calls) == {"eigh": 2, "eigvalsh": 1}


def test_the_projectors_sum_is_checked_once_per_pair(monkeypatch):
    rho1, rho2 = _states(2, 3, 29)
    checked = []
    check = measurement._resolving_identity
    monkeypatch.setattr(
        measurement, "_resolving_identity", lambda stack: checked.append(stack) or check(stack)
    )
    elements = optimal_measurement(rho1, rho2)
    first = povm_classical_angle(elements, rho1, rho2)
    assert povm_classical_angle(elements, rho1, rho2) == first
    assert len(checked) == 1


def test_a_projectors_sum_that_fails_raises_on_every_call():
    rho1, rho2 = _states(2, 3, 30)
    elements = optimal_measurement(rho1, rho2)
    stack = elements[0].base  # the kept stack, spoiled: its sum is not I
    stack.flags.writeable = True
    stack[0] *= 1.5
    stack.flags.writeable = False
    messages = []
    for _ in range(2):
        with pytest.raises(ValidationError, match="sum to the identity") as info:
            povm_classical_angle(elements, rho1, rho2)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


def test_a_classical_angle_leaves_its_pair_to_the_bures_angle(lapack_calls):
    # povm_classical_angle validates the states through the pair (rho1's
    # eigh and rho2's eigvalsh, where 1 stacked eigh was) and the POVM (1
    # eigvalsh); bures_angle adds the core (1 eigh, where F took 1
    # eigvalsh).  It was 4 eigvalsh, with one per state before the pair was
    # made
    rho1, rho2 = _states(2, 3, 27)
    elements = random_povm(3, 5, np.random.default_rng(27))
    calls = lapack_calls("eigvalsh", "eigh")
    excess = povm_classical_angle(elements, rho1, rho2) - bures_angle(rho1, rho2)
    assert dict(calls) == {"eigh": 2, "eigvalsh": 2}
    assert excess <= 1e-9


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 8, 16, 32])
def test_one_stacked_decomposition_gives_the_bits_of_one_per_state(dim):
    """sqrt(rho1), the core, M and F from the pair's eigh of rho1 (once a
    stacked eigh of both states) have the bytes of one decomposition per
    state: matrix_sqrt and matrix_inv_sqrt of rho1, eigh of
    sqrt(rho1) rho2 sqrt(rho1), M formed from its clamped spectrum (the
    identity for equal states), and F summed from it above the pair's noise
    floor.  Its smallest eigenvalues, from eigh of rho1 and eigvalsh of
    rho2, are within the N u |rho| <= N u that a backward stable eigvalsh is
    of the exact ones."""
    for rho1, rho2 in zip(*[iter(_states(20, dim, 60 + dim))] * 2):
        pair = bures._StatePair(rho1, rho2)
        a, b = density_matrix(rho1), density_matrix(rho2)
        root1, inv_root1 = matrix_sqrt(a), matrix_inv_sqrt(a)
        core = np.linalg.eigh(hermitian_part(root1 @ b @ root1))
        noise = 8 * 2.0**-53 * np.linalg.eigvalsh(a)[-1] * np.linalg.eigvalsh(b)[-1]  # 8u
        w = core.eigenvalues
        root_sum = float(np.sum(np.sqrt(w[w > noise])))
        m = inv_root1 @ matrix_sqrt(root1 @ b @ root1) @ inv_root1
        if (a == b).all():  # as at d = 1, where every state is [[1]]: M is I exactly
            m = np.eye(dim, dtype=complex)
        fid = min(1.0, root_sum * root_sum)
        expected = [root1, *core, m, np.array(fid)]
        got = [pair.root, *pair.core, pair.m, np.array(pair.fidelity)]
        _assert_same_bits([got], [expected])
        for low, state in zip(pair.lows, (a, b)):
            assert abs(low - np.linalg.eigvalsh(state)[0]) <= dim * np.finfo(float).eps


@pytest.mark.parametrize("p, q", [
    ((1 - 1e-9, 1e-9), (1 - 2e-9, 2e-9)),
    ((1 - 3e-9, 1e-9, 2e-9), (1 - 5e-9, 2e-9, 3e-9)),
])
def test_m_keeps_core_eigenvalues_below_the_fidelity_noise_floor(p, q):
    """Commuting invertible states with eigenvalues near 1e-9 have exact core
    eigenvalues p_i q_i near 1e-18, under the 8u floor F counts as rounding.
    M = rho1^(-1/2) sqrt(core) rho1^(-1/2) scales their roots back to O(1),
    so M keeps them: M = diag(sqrt(q/p)), M(rho1, rho2) M(rho2, rho1) = I, and
    no contact of the billiard falls on the endpoint t*."""
    rho1, rho2 = np.diag(p).astype(complex), np.diag(q).astype(complex)
    m12 = fuchs_caves_operator(rho1, rho2)
    np.testing.assert_allclose(m12, np.diag(np.sqrt(np.divide(q, p))), rtol=0, atol=1e-14)
    np.testing.assert_allclose(m12 @ fuchs_caves_operator(rho2, rho1), np.eye(len(p)), rtol=0, atol=1e-14)
    report = verify_billiard_theorem(rho1, rho2)
    t_star = geodesic(rho1, rho2).t_star
    assert report["matched"]
    assert min(abs(t - t_star) for t in report["bounce_ts"]) > 1.0


def test_an_invalid_pair_does_not_replace_the_remembered_one(lapack_calls):
    rho1, rho2 = _states(2, 3, 12)
    expected = fidelity(rho1, rho2)
    with pytest.raises(ValidationError):
        fidelity(rho1, 2.0 * rho2)  # trace 2
    calls = lapack_calls("eigvalsh", "eigh")
    assert fidelity(rho1, rho2) == expected
    assert not calls


def _conversion_error(a):
    """The type and message of numpy's error converting ``a`` to a complex array."""
    return _first_error(lambda: np.asarray(a, dtype=complex))


def test_unconvertible_input_keeps_its_error_and_precedence():
    rho1, rho2 = _states(2, 2, 13)
    ragged = [[1.0, 0.0], [0.0]]
    fidelity(rho1, rho2)
    expected = _conversion_error(ragged)
    assert expected[0] is ValueError
    assert _first_error(lambda: fidelity(ragged, rho2)) == expected
    # each state converts before any state is checked
    assert _first_error(lambda: fidelity(2.0 * rho1, ragged)) == expected


# unit trace and Hermitian, but with eigenvalue -0.2
_NEGATIVE = np.diag([1.2, -0.2]).astype(complex)
_SECONDS = {
    "non-Hermitian": np.array([[0.5, 0.3], [0.0, 0.5]]),
    "trace 2": np.diag([1.2, 0.8]),
    "ragged": [[1.0, 0.0], [0.0]],
    "another shape": np.eye(3) / 3,
}


@pytest.mark.parametrize("second", list(_SECONDS))
@pytest.mark.parametrize("call", [fidelity, geodesic])
def test_the_first_states_negative_eigenvalue_is_reported_first(call, second):
    # check by check: conversion, the shared shape, Hermiticity and the trace
    # all come before positivity, so each fault of the second state is the
    # one reported
    expected = {
        "non-Hermitian": (ValidationError, "density matrix must be Hermitian"),
        "trace 2": (ValidationError, "density matrix trace is 2.0, expected 1"),
        "ragged": _conversion_error(_SECONDS["ragged"]),
        "another shape": (DimensionMismatchError, "states have shapes (2, 2) and (3, 3)"),
    }[second]
    assert _first_error(lambda: call(_NEGATIVE, _SECONDS[second])) == expected
    assert _first_error(lambda: call(_NEGATIVE, np.eye(2) / 2)) == (
        ValidationError, "density matrix has a negative eigenvalue")


_STATES = {
    "valid": np.eye(2) / 2,
    "another shape": np.eye(3) / 3,
    "non-square": np.ones((2, 3)) / 2,
    "non-Hermitian": _SECONDS["non-Hermitian"],
    "trace off": _SECONDS["trace 2"],
    "negative eigenvalue": _NEGATIVE,
    "NaN": np.diag([np.nan, 0.5]),
    "ragged": _SECONDS["ragged"],
}


def _first_error(*calls):
    """The type and message of the first call that raises, or None."""
    for call in calls:
        try:
            call()
        except Exception as error:  # any error is a result here
            return type(error), str(error)
    return None


# density_matrix's checks after conversion, in the order the pair makes them
_CHECKS = ("must be square", "must be Hermitian", "trace is", "negative eigenvalue")


def _check_rank(error):
    """The place of density_matrix's error in the order of the checks."""
    if error[0] is ValueError:  # conversion, before the square check
        return -1
    return next(k for k, check in enumerate(_CHECKS) if check in error[1])


@pytest.mark.parametrize("second", list(_STATES))
@pytest.mark.parametrize("first", list(_STATES))
def test_the_pair_raises_what_density_matrix_raises(first, second):
    """The pair checks check by check: each state converts and is square, in
    argument order; then the two share one shape; then Hermitian, unit trace
    and PSD, each over both states, rho1 first.  Each error is the one
    density_matrix raises on the state that fails; a pair with one fault
    raises exactly density_matrix's error, or the shape error."""
    rho1, rho2 = _STATES[first], _STATES[second]
    errors = [e for e in map(_first_error, (lambda: density_matrix(rho1),
                                            lambda: density_matrix(rho2))) if e]
    per_argument = [e for e in errors if _check_rank(e) <= 0]
    if per_argument:
        expected = per_argument[0]
    elif np.shape(rho1) != np.shape(rho2):
        expected = (
            DimensionMismatchError,
            f"states have shapes {np.shape(rho1)} and {np.shape(rho2)}",
        )
    else:  # the first check either state fails; rho1 first on a tie
        expected = min(errors, key=_check_rank, default=None)
    got = _first_error(lambda: bures._StatePair(rho1, rho2))
    assert got == expected
    if len(errors) == 1 and (per_argument or np.shape(rho1) == np.shape(rho2)):
        assert got == errors[0]  # one fault: density_matrix's error on its state


def _limit_pair(dim, rng):
    """rho1 nearly pure, spectrum (1 - 1e-11, 1e-11 / (d - 1)), and rho2 with
    eigenvalue -1e-12 along rho1's top eigenvector: each at the edge of what
    validation allows, with the core sqrt(rho1) rho2 sqrt(rho1) within
    rounding of -1e-12 along it."""
    u = random_unitary(dim, rng)
    v = u.copy()
    v[:, 1:] = u[:, 1:] @ random_unitary(dim - 1, rng)  # rho2's other eigenvectors
    rest = rng.random(dim - 1)
    p = np.concatenate(([1.0 - 1e-11], np.full(dim - 1, 1e-11 / (dim - 1))))
    q = np.concatenate(([-1e-12], (1.0 + 1e-12) * rest / rest.sum()))
    return (u * p) @ u.conj().T, (v * q) @ v.conj().T


@pytest.mark.parametrize("dim", range(2, 9))
def test_the_views_accept_what_density_matrix_accepts_at_the_limit(dim):
    """fidelity, fuchs_caves_operator and geodesic reject a pair exactly when
    density_matrix rejects one of its states, with its error, and never raise
    DomainError: M clamps the core as F does.  geodesic raises SingularError
    on every valid pair, since rho2 is singular."""
    rng = np.random.default_rng((900, dim))
    outcomes = set()
    for _ in range(20):
        rho1, rho2 = _limit_pair(dim, rng)
        expected = _first_error(lambda: density_matrix(rho1), lambda: density_matrix(rho2))
        for call in (fidelity, fuchs_caves_operator, geodesic):
            got = _first_error(lambda: call(rho1, rho2))
            if expected is not None or call is not geodesic:
                assert got == expected
            else:
                assert got is not None and got[0] is SingularError
        outcomes.add(expected is None)
    assert outcomes == {True, False}  # both sides of the limit were drawn


def _rotated(spectrum, rng):
    """A Hermitian matrix with ``spectrum`` in a Haar-random basis."""
    u = random_unitary(len(spectrum), rng)
    return (u * spectrum) @ u.conj().T


def _state_with_least(low, dim, rng):
    """A state with least eigenvalue ``low``, the rest uniform on the simplex."""
    rest = rng.random(dim - 1)
    return _rotated(np.concatenate(([low], (1.0 - low) * rest / rest.sum())), rng)


def test_eigvalsh_and_eigh_round_within_a_quarter_of_the_band():
    """The pair may take rho2's eigenvalues from eigvalsh away from -1e-12 and
    +1e-12 because the two solvers round an eigenvalue apart by less than
    the band.  HS states, states with least eigenvalue +-1e-12, 0 or -2e-12
    and indefinite spectra up to 1e6, at d = 2..33: the gap stays below a
    quarter of the band.  It reached 2.55 n u max|lambda| (u = 2^-53) over
    4,800 such matrices, and 2.4 over 9,600 at two other seeds; a quarter
    of the band is 4 n u max|lambda|."""
    rng = np.random.default_rng(4800)
    for dim in range(2, 34):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        indefinite = rng.standard_normal(dim) * 10.0 ** rng.uniform(0.0, 6.0)
        matrices = [g @ g.conj().T / np.trace(g @ g.conj().T).real, _rotated(indefinite, rng)]
        matrices += [_state_with_least(low, dim, rng) for low in (1e-12, -1e-12, 0.0, -2e-12)]
        for h in map(hermitian_part, matrices):
            w, exact = np.linalg.eigvalsh(h), np.linalg.eigh(h)[0]
            band = monotone._EIGVALSH_BAND * dim * max(abs(exact[0]), abs(exact[-1]))
            assert np.abs(w - exact).max() < band / 4


@pytest.mark.parametrize("threshold", [-1e-12, 1e-12])
def test_a_rho2_that_straddles_a_threshold_gets_eighs_verdict(lapack_calls, threshold):
    """rho2 with least eigenvalue at the state check's -1e-12 or the geodesic
    endpoint's +1e-12, drawn until eigvalsh and eigh of it give opposite
    verdicts there: fidelity and fuchs_caves_operator raise exactly what
    density_matrix raises, geodesic adds SingularError exactly when eigh's
    least eigenvalue is at most 1e-12, and the pair takes rho2's eigenvalues
    from eigh each time."""
    rng = np.random.default_rng((41, threshold > 0))
    fails = (lambda low: low < threshold) if threshold < 0 else (lambda low: low <= threshold)
    calls = lapack_calls("eigh", "eigvalsh")
    straddles = 0
    for draw in range(2000):
        dim = 2 + draw % 7
        rho1 = _states(1, dim, draw)[0]
        rho2 = _state_with_least(threshold, dim, rng)
        h = hermitian_part(rho2)
        low = np.linalg.eigh(h)[0][0]
        if fails(np.linalg.eigvalsh(h)[0]) == fails(low):
            continue
        straddles += 1
        calls.clear()
        _first_error(lambda: bures._StatePair(rho1, rho2))
        assert calls == {"eigh": 2, "eigvalsh": 1}  # rho1's eigh, and eigh's for rho2
        expected = _first_error(lambda: density_matrix(rho1), lambda: density_matrix(rho2))
        for call in (bures._StatePair, fidelity, fuchs_caves_operator):
            assert _first_error(lambda: call(rho1, rho2)) == expected
        if expected is None and low <= 1e-12:
            expected = (
                SingularError,
                f"geodesic endpoint has eigenvalue {low:.3e}; "
                "both endpoints must be strictly positive",
            )
        assert _first_error(lambda: geodesic(rho1, rho2)) == expected
        if straddles == 12:
            break
    assert straddles == 12


def _rho2_eigenvalues(rho):
    """The eigenvalues the pair reads of a valid rho2: eigvalsh's, or eigh's
    where eigvalsh's least lies in the band around -1e-12 or +1e-12."""
    w = np.linalg.eigvalsh(rho)
    if abs(abs(w[0]) - 1e-12) <= monotone._EIGVALSH_BAND * len(w) * max(abs(w[0]), w[-1]):
        return np.linalg.eigh(rho)[0]
    return w


@pytest.mark.parametrize("dim", range(1, 34))
def test_the_pair_holds_the_bits_of_the_per_state_route(dim):
    """rho1, rho2, rho1's spectrum and its extremes equal density_matrix and
    eigh of each state alone, byte for byte; rho2's extremes equal those of
    eigvalsh of rho2 alone, or of eigh where the pair falls back to it."""
    rng = np.random.default_rng(dim)
    for _ in range(4):
        states = []
        for _ in range(2):
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            rho = g @ g.conj().T / np.trace(g @ g.conj().T).real
            states.append(rho + 1e-14 * rng.standard_normal((dim, dim)))  # off-Hermitian noise
        pair = bures._StatePair(*states)
        expected = [density_matrix(rho) for rho in states]
        _assert_same_bits([[pair.rho1, pair.rho2]], [expected])
        spectrum = np.linalg.eigh(expected[0])
        _assert_same_bits([pair.spectrum], [spectrum])
        extremes = [(w[0], w[-1]) for w in (spectrum[0], _rho2_eigenvalues(expected[1]))]
        assert (pair.lows, pair.highs) == tuple(zip(*extremes))


def test_spoiled_results_do_not_reach_later_calls():
    rho1, rho2 = _states(2, 4, 14)
    _views(rho1, rho2, spoil=True)
    remembered = _views(rho1, rho2, spoil=True)
    _forget()
    _assert_same_bits(remembered, _views(rho1, rho2))


def test_an_input_changed_in_place_is_a_new_pair():
    rho1, rho2, other = _states(3, 3, 15)
    _views(rho1, rho2)
    rho1[...] = other  # the same array object, with another state in it
    moved = _views(rho1, rho2)
    _forget()
    _assert_same_bits(moved, _views(other.copy(), rho2.copy()))


@pytest.mark.parametrize(
    "case, call, error",
    [
        ("singular", geodesic, SingularError),
        ("singular", fuchs_caves_operator, SingularError),
        ("singular", optimal_measurement, SingularError),
        ("singular", verify_billiard_theorem, SingularError),
        ("coincident", geodesic, DegenerateError),
        ("coincident", verify_billiard_theorem, DegenerateError),
    ],
)
def test_a_failed_quantity_raises_the_same_message_again(case, call, error):
    rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
    rho1 = np.diag([0.5, 0.5, 0.0]).astype(complex) if case == "singular" else rho.copy()
    rho2 = rho
    messages = []
    for _ in range(2):
        with pytest.raises(error) as info:
            call(rho1, rho2)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert 0.0 <= fidelity(rho1, rho2) <= 1.0  # the pair itself stays usable


def test_threads_on_distinct_pairs_match_serial_results():
    pairs = [tuple(_states(2, dim, 17 + dim)) for dim in (2, 3, 4, 5)]
    serial = [_views(*pair) for pair in pairs]

    def repeat(pair):
        return [_views(*pair) for _ in range(20)]

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, mid-call
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            runs = list(pool.map(repeat, pairs, timeout=120))
    finally:
        sys.setswitchinterval(switch)
    for expected, results in zip(serial, runs):
        for got in results:
            _assert_same_bits(got, expected)


@pytest.mark.parametrize("dim", range(2, 9))
def test_root_fidelity_is_the_trace_of_rho1_m(dim):
    """sqrt(F) = tr(rho1 M), since tr(rho1 M) = tr sqrt(sqrt(rho1) rho2 sqrt(rho1)).

    Both sides are sums over the spectrum of one core: sqrt(F) of d square
    roots of eigenvalues that a backward-stable eigh gives to about
    u = 2.2e-16, and tr(rho1 M) through the rho1^(-1/2) factors of M, which
    magnify that error by at most kappa(rho1) <= 1 / lambda_min(rho1).  The
    tolerance d u / lambda_min(rho1) is at most 8 * 2.2e-16 * 50 = 9e-14 for
    these states (lambda_min >= 0.02); the largest defect seen over 200 pairs
    at each d = 2..8 was 2.4e-15 (4.3e-15 when F was summed from the
    spectrum of sqrt(rho2) rho1 sqrt(rho2)).
    """
    rng = np.random.default_rng(100 + dim)
    for _ in range(20):
        rho1 = random_invertible_density_matrix(dim, rng, min_eig=0.02)
        rho2 = random_invertible_density_matrix(dim, rng, min_eig=0.02)
        trace = np.trace(rho1 @ fuchs_caves_operator(rho1, rho2))
        tol = dim * np.finfo(float).eps / np.linalg.eigvalsh(rho1)[0]
        assert abs(trace - np.sqrt(fidelity(rho1, rho2))) <= tol


def _classical(elements, rho1, rho2):
    """repr of povm_classical_angle, or the type and message of its error."""
    try:
        return repr(povm_classical_angle(elements, rho1, rho2))
    except (ValidationError, DimensionMismatchError) as exc:
        return f"{type(exc).__name__}: {exc}"


def test_the_pairs_own_projectors_are_not_validated_again(lapack_calls):
    rho1, rho2 = _states(2, 8, 21)
    elements = optimal_measurement(rho1, rho2)
    calls = lapack_calls("eigvalsh", "eigh", "cholesky")
    angle = _classical(elements, rho1, rho2)
    assert not calls  # no Cholesky or eigvalsh for the POVM, the states are kept
    _forget()
    calls.clear()
    # validated as any POVM, with a fresh pair: rho1's eigh and rho2's
    # eigvalsh for the states (one eigvalsh each before they came from the
    # pair, then one stacked eigh), one eigvalsh for the elements
    assert _classical(elements, rho1, rho2) == angle
    assert calls == {"eigh": 1, "eigvalsh": 2}


def _entered(call):
    """(the names of the functions ``call()`` enters, Python and C, its result)."""
    names = []

    def profile(frame, event, arg):
        if event == "call":
            names.append(frame.f_code.co_name)
        elif event == "c_call":
            names.append(getattr(arg, "__name__", ""))

    sys.setprofile(profile)
    try:
        result = call()
    finally:
        sys.setprofile(None)
    return names, result


def test_the_pairs_own_projectors_are_matched_by_identity_alone():
    # the kept path compares no bytes: tobytes() makes only the states' key
    rho1, rho2 = _states(2, 32, 25)
    elements = optimal_measurement(rho1, rho2)
    assert not any(e.flags.writeable for e in elements)
    assert optimal_measurement(rho1, rho2)[3] is elements[3]  # one list of views
    keyed, _ = _entered(lambda: bures._pair(rho1, rho2))
    entered, angle = _entered(lambda: povm_classical_angle(elements, rho1, rho2))
    assert "_resolving_identity" in entered and "_povm_stack" not in entered
    assert entered.count("tobytes") == keyed.count("tobytes") == 2
    assert not {"array_equal", "array_equiv", "allclose"} & set(entered)
    assert angle == pytest.approx(bures_angle(rho1, rho2), abs=1e-9)


def test_the_optimal_measurement_allocates_one_projector_stack():
    # on a fresh d = 32 pair with eig(M) made: the (32, 32, 32) stack of 512 KB
    # and temporaries of a 64 KB block; a second whole stack (a Hermitian part
    # made whole, or a copy handed out) would pass the bound
    rho1, rho2 = _states(2, 32, 26)
    bures._pair(rho1, rho2).eig_m
    tracemalloc.start()
    try:
        elements = optimal_measurement(rho1, rho2)
        povm_classical_angle(elements, rho1, rho2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 32**3 * 16


def _on_a_copy(k, write):
    """A fallback case applying ``write`` to a copy of element k, in its place:
    the pair's own element is read-only, and writing to it raises."""

    def fallback(elements, other):
        with pytest.raises(ValueError, match="read-only"):
            write(elements[k])
        elements[k] = elements[k].copy()
        write(elements[k])
        return elements

    return fallback


def _scale_entry(e):
    e[0, 0] *= 1.0 + 2.0**-40  # still a POVM to 1e-10


def _negate_a_zero(e):
    parts = e.view(float)
    k = np.flatnonzero(parts == 0.0)[0]
    parts[k] = -parts[k]  # +0.0 becomes -0.0: equal values, other bytes


def _fill_with_nan(e):
    e[...] = np.nan


_FALLBACKS = {
    "entry changed in place": _on_a_copy(1, _scale_entry),
    "signed zero flipped": _on_a_copy(0, _negate_a_zero),
    "reordered": lambda elements, other: elements[::-1],
    "element dropped": lambda elements, other: elements[:-1],
    "nested lists": lambda elements, other: [e.tolist() for e in elements],
    "another pair's projectors": lambda elements, other: other,
    "element overwritten with NaN": _on_a_copy(1, _fill_with_nan),
    "byte-equal copies": lambda elements, other: [e.copy() for e in elements],
}


@pytest.mark.parametrize("case", list(_FALLBACKS))
def test_other_elements_are_validated_as_any_povm(monkeypatch, case):
    if case == "signed zero flipped":  # commuting states: projectors with zeros
        rho1, rho2 = np.diag([0.5, 0.3, 0.2]), np.diag([0.2, 0.3, 0.5])
        others = _states(2, 3, 22)
    else:
        rho1, rho2, *others = _states(4, 4, 22)
    other = optimal_measurement(*others)
    elements = _FALLBACKS[case](optimal_measurement(rho1, rho2), other)
    validated = []

    def povm_stack(elements):
        validated.append(len(elements))
        return stack(elements)

    stack = measurement._povm_stack
    monkeypatch.setattr(measurement, "_povm_stack", povm_stack)
    outcome = _classical(elements, rho1, rho2)
    assert validated
    if case == "byte-equal copies":
        # hermitian_part is idempotent: validated, they give the kept path's
        # bits, so a thread whose views lost a race to be kept (cached_property
        # has no lock from Python 3.12 on) pays only the validation
        count = len(validated)
        assert _classical(optimal_measurement(rho1, rho2), rho1, rho2) == outcome
        assert len(validated) == count  # that call took the kept path
    _forget()
    assert _classical(elements, rho1, rho2) == outcome  # as with no pair kept
    if case == "element overwritten with NaN":
        assert outcome == "ValidationError: POVM element 1 is not Hermitian"
