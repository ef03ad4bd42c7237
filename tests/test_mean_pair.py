"""The remembered operand pair: the means called in a row on one pair share its work.

operator_mean, harmonic_mean, geometric_mean and arithmetic_mean validate a
pair once and keep (sqrt(A), A^(-1/2)) and the spectrum of the core
A^(-1/2) B A^(-1/2) for the next mean of the same pair.  What is kept must
never show: results are the bits a fresh pair gives, whatever callers do to
the arrays they pass or get back.
"""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from statgeom import (
    DimensionMismatchError,
    DomainError,
    SingularError,
    ValidationError,
    arithmetic_mean,
    geometric_mean,
    harmonic_mean,
    operator_mean,
    random_psd,
)
from statgeom import means
from statgeom.linalg import hermitian_part, matrix_function, matrix_inv_sqrt, matrix_sqrt


def _operands(count, dim, seed):
    rng = np.random.default_rng(seed)
    return [random_psd(dim, rng) + 0.05 * np.eye(dim) for _ in range(count)]


def _means(a, b, spoil=False):
    """Every mean of the pair, in call order, as copies of their bits.

    With ``spoil``, each array a mean returns is overwritten with NaN as soon
    as it is recorded, before the next mean is called.
    """
    out = []
    for mean in (
        harmonic_mean,
        geometric_mean,
        arithmetic_mean,
        lambda a, b: operator_mean(a, b, "arithmetic"),
        lambda a, b: operator_mean(a, b, lambda t: t ** 0.3),
    ):
        value = mean(a, b)
        out.append(value.copy())
        if spoil:
            value[...] = np.nan
    return out


def _forget():
    """Replace the remembered pair by one of another shape than any below."""
    arithmetic_mean(np.eye(7), np.eye(7))


def _assert_same_bits(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


def _reference_means(a, b):
    """:func:`_means` by the route each mean once took on its own: copies of
    A and B, the roots of A, then f of the core A^(-1/2) B A^(-1/2), each
    by one public matrix function."""
    a, b = np.array(a, dtype=complex), np.array(b, dtype=complex)
    root, inv_root = matrix_sqrt(a), matrix_inv_sqrt(a)
    core = inv_root @ b @ inv_root

    def mean(f):
        return hermitian_part(root @ matrix_function(core, f, domain_floor=0.0) @ root)

    fs = (lambda t: 2.0 * t / (1.0 + t), np.sqrt, lambda t: 0.5 * (1.0 + t))
    harmonic, geometric, arithmetic = (mean(f) for f in fs)
    return [harmonic, geometric, 0.5 * (a + b), arithmetic, mean(lambda t: t ** 0.3)]


def _layouts(a):
    """a as given, real-typed (its real part), as a strided view, with a
    negative zero in every zero part, and off-Hermitian within the check."""
    strided = np.repeat(np.repeat(a, 2, axis=0), 2, axis=1)[::2, ::2]
    signed = np.array(a, dtype=complex)
    signed.imag[np.eye(len(a), dtype=bool)] = -0.0
    signed.real[signed.real == 0.0] = -0.0
    skewed = a + 1e-13j * np.triu(np.ones_like(a), 1)
    return [a, a.real.copy(), strided, signed, skewed]


@pytest.mark.parametrize("dim", range(1, 17))
def test_the_means_keep_the_bits_of_the_route_they_replace(dim):
    a, b = _operands(2, dim, 40 + dim)
    diagonal = np.diag(np.linspace(1.0, 2.0, dim))  # every off-diagonal part is zero
    for x, y in [*zip(_layouts(a), _layouts(b)), *zip(_layouts(diagonal), _layouts(b))]:
        _forget()
        _assert_same_bits(_means(x, y), _reference_means(x, y))


def test_the_trio_on_one_pair_makes_two_lapack_calls(lapack_calls):
    # 1 stacked eigh of (A, B) checks B and gives both roots of A, 1 eigh
    # gives the core; it was 3 calls, with an eigvalsh of B to check it
    a, b = _operands(2, 4, 21)
    calls = lapack_calls("eigvalsh", "eigh")
    harmonic = harmonic_mean(a, b)
    geometric = geometric_mean(a, b)
    arithmetic = arithmetic_mean(a, b)
    assert dict(calls) == {"eigh": 2}
    for low, high in ((harmonic, geometric), (geometric, arithmetic)):
        assert np.linalg.eigvalsh(high - low)[0] >= -1e-12


def test_spoiled_results_do_not_reach_later_calls():
    a, b = _operands(2, 4, 22)
    _means(a, b, spoil=True)
    remembered = _means(a, b, spoil=True)
    _forget()
    _assert_same_bits(remembered, _means(a, b))


def test_an_input_changed_in_place_is_a_new_pair():
    a, b, other = _operands(3, 3, 23)
    _means(a, b)
    a[...] = other  # the same array object, with another operand in it
    moved = _means(a, b)
    _forget()
    _assert_same_bits(moved, _means(other.copy(), b.copy()))


def test_an_input_changed_after_the_call_does_not_reach_the_pair():
    a, b, other = (x.astype(complex) for x in _operands(3, 3, 24))
    harmonic_mean(a, b)  # remembers the pair, keyed by the bytes a has now
    a_before = a.copy()
    a[...] = other
    remembered = [arithmetic_mean(a_before, b), geometric_mean(a_before, b)]
    _forget()
    _assert_same_bits(remembered, [arithmetic_mean(a_before, b), geometric_mean(a_before, b)])


def test_an_f_that_writes_to_its_argument_does_not_reach_the_pair():
    a, b = _operands(2, 3, 27)

    def doubled(t):
        t *= 2.0
        return t

    operator_mean(a, b, doubled)
    remembered = _means(a, b)
    _forget()
    _assert_same_bits(remembered, _means(a, b))


@pytest.mark.parametrize(
    "case, error, message",
    [
        ("non-hermitian", ValidationError, "Hermitian operands"),
        ("ragged", ValueError, None),
        ("mismatched", DimensionMismatchError, "shapes"),
    ],
    ids=["non-hermitian", "ragged", "mismatched"],
)
def test_an_invalid_pair_is_never_remembered(case, error, message, lapack_calls):
    a, b = _operands(2, 3, 25)
    expected = geometric_mean(a, b)
    bad = {
        "non-hermitian": lambda: geometric_mean(a + np.triu(np.ones((3, 3)), 1), b),
        "ragged": lambda: geometric_mean([[1.0, 0.0], [0.0]], b),
        "mismatched": lambda: geometric_mean(a, np.eye(2)),
    }[case]
    messages = []
    for _ in range(2):
        with pytest.raises(error, match=message) as info:
            bad()
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    calls = lapack_calls("eigvalsh", "eigh")
    assert geometric_mean(a, b).tobytes() == expected.tobytes()
    assert not calls  # the valid pair is still the remembered one


@pytest.mark.parametrize(
    "case, error, calls_per_try",
    [
        # one stacked eigh of (A, B) on the first try (it was an eigvalsh of
        # B, and then an eigh of A); a B that fails it is not kept, so each
        # try makes it again, while a singular A fails only A^(-1/2), after
        # the valid spectrum is kept
        ("b-not-psd", ValidationError, [{"eigh": 1}, {"eigh": 1}]),
        ("singular-a", SingularError, [{"eigh": 1}, {}]),
    ],
    ids=["b-not-psd", "singular-a"],
)
def test_a_failed_quantity_raises_the_same_message_again(
    case, error, calls_per_try, lapack_calls
):
    a, b = np.diag([0.5, 0.3, 0.2]), np.diag([0.2, 0.3, 0.5])
    if case == "b-not-psd":
        b = b - 0.25 * np.eye(3)
    else:
        a = np.diag([0.5, 0.5, 0.0])
    calls = lapack_calls("eigvalsh", "eigh")
    messages = []
    for expected_calls in calls_per_try:
        calls.clear()
        with pytest.raises(error) as info:
            harmonic_mean(a, b)
        assert dict(calls) == expected_calls  # nothing of the failure was kept
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    # the pair itself stays usable where no root is needed
    assert np.array_equal(arithmetic_mean(a, b), 0.5 * (a + b))


def test_the_means_of_one_pair_clamp_its_core_once(monkeypatch):
    # _floored runs once for sqrt(A) and once for the core, not once per mean
    floors = []
    floored = means._floored
    monkeypatch.setattr(means, "_floored", lambda *args: floors.append(args[1]) or floored(*args))
    a, b = _operands(2, 4, 28)
    expected = _reference_means(a, b)
    _assert_same_bits(_means(a, b), expected)
    assert floors == [0.0, 0.0]


def test_an_operand_core_below_the_floor_raises_on_every_mean():
    # B passes at its -1e-12 limit; the core A^(-1/2) B A^(-1/2) = 100 B does not
    a, b = 0.01 * np.eye(2), np.diag([1.0, -1e-12])
    messages = []
    for mean in (harmonic_mean, geometric_mean, harmonic_mean):
        with pytest.raises(DomainError, match="below domain floor") as info:
            mean(a, b)
        messages.append(str(info.value))
    assert len(set(messages)) == 1


@pytest.mark.parametrize(
    "a, b, f, error, message",
    [
        ([[1.0, 0.0], [0.0]], np.eye(3), "quadratic", ValidationError, "unknown mean"),
        (np.eye(2), np.eye(3), "harmonic", DimensionMismatchError, "shapes"),
        ([[1.0, 1.0], [0.0, 1.0]], -np.eye(2), "harmonic", ValidationError, "Hermitian"),
        (np.diag([1.0, 0.0]), -np.eye(2), "harmonic", ValidationError, "semidefinite"),
        (np.diag([1.0, 0.0]), np.eye(2), "harmonic", SingularError, "invertible"),
    ],
    ids=["name", "shape", "hermitian", "psd", "singular"],
)
def test_errors_keep_their_precedence(a, b, f, error, message):
    # unknown name, then shape and Hermiticity, then B not PSD, then singular A
    for _ in range(2):
        with pytest.raises(error, match=message):
            operator_mean(a, b, f)


def test_threads_on_distinct_pairs_match_serial_results():
    pairs = [tuple(_operands(2, dim, 26 + dim)) for dim in (2, 3, 4, 6)]
    serial = [_means(*pair) for pair in pairs]

    def repeat(pair):
        return [_means(*pair) for _ in range(50)]

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
