"""The remembered state pair: calls in a row on one pair share its work.

The Bures views (fidelity, bures_angle, fuchs_caves_operator,
horizontal_lift, geodesic, optimal_measurement, verify_billiard_theorem)
validate a pair once and keep F, M, sqrt(rho1), the geodesic and eig(M)
for the next call on the same pair; povm_classical_angle reads the
validated states from it.  What is kept must never show: results are the
bits a fresh pair gives, whatever callers do to the arrays they get back.
"""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from statgeom import (
    DegenerateError,
    SingularError,
    ValidationError,
    bures_angle,
    fidelity,
    fuchs_caves_operator,
    geodesic,
    horizontal_lift,
    optimal_measurement,
    povm_classical_angle,
    random_invertible_density_matrix,
    verify_billiard_theorem,
)


def _states(count, dim, seed):
    rng = np.random.default_rng(seed)
    return [random_invertible_density_matrix(dim, rng, min_eig=0.02) for _ in range(count)]


def _views(rho1, rho2, spoil=False):
    """Every public view of the pair, in call order, as arrays of their bits.

    With ``spoil``, each array a view returns is overwritten with NaN as soon
    as it is recorded, before the next view is called.
    """
    out = []

    def keep(value):
        arrays = value if isinstance(value, list) else [value]
        out.append([np.array(a, copy=True) for a in arrays])
        if spoil:
            for a in arrays:
                if isinstance(a, np.ndarray):
                    a[...] = np.nan
        return value

    keep(fidelity(rho1, rho2))
    keep(bures_angle(rho1, rho2))
    keep(fuchs_caves_operator(rho1, rho2))
    keep(horizontal_lift(rho1, rho2))
    path = geodesic(rho1, rho2)
    keep([path.e1, path.e2, path.t_star, path.state(path.t_star / 2)])
    keep(optimal_measurement(rho1, rho2))
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


def test_state_pairs_request_makes_eight_lapack_calls(lapack_calls):
    # 2 eigvalsh validate the pair, 1 eigh + 1 eigvalsh give F, 2 eigh give M
    # and sqrt(rho1), 1 eigh gives eig(M), 1 Cholesky certifies the POVM
    rho1, rho2 = _states(2, 4, 11)
    calls = lapack_calls("eigvalsh", "eigh", "cholesky")
    fidelity(rho1, rho2)
    angle = bures_angle(rho1, rho2)
    elements = optimal_measurement(rho1, rho2)
    classical = povm_classical_angle(elements, rho1, rho2)
    path = geodesic(rho1, rho2)
    path.state(path.t_star / 2)
    assert dict(calls) == {"eigvalsh": 3, "eigh": 4, "cholesky": 1}
    assert classical == pytest.approx(angle, abs=1e-9)
    assert path.t_star == pytest.approx(angle, abs=1e-9)


def test_an_invalid_pair_does_not_replace_the_remembered_one(lapack_calls):
    rho1, rho2 = _states(2, 3, 12)
    expected = fidelity(rho1, rho2)
    with pytest.raises(ValidationError):
        fidelity(rho1, 2.0 * rho2)  # trace 2
    calls = lapack_calls("eigvalsh", "eigh")
    assert fidelity(rho1, rho2) == expected
    assert not calls


def test_unconvertible_input_keeps_its_error_and_precedence():
    rho1, rho2 = _states(2, 2, 13)
    ragged = [[1.0, 0.0], [0.0]]
    fidelity(rho1, rho2)
    with pytest.raises(ValueError):
        fidelity(ragged, rho2)
    with pytest.raises(ValidationError, match="trace"):
        fidelity(2.0 * rho1, ragged)  # the first state is checked first


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
