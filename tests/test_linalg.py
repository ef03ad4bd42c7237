"""Hermitian matrix kernel: eigensystems, functions, square roots, order."""

import math
import warnings

import numpy as np
import pytest

from statgeom import (
    DimensionMismatchError,
    DomainError,
    SingularError,
    ValidationError,
    eig_hermitian,
    fidelity,
    fix_phases,
    fuchs_caves_operator,
    geodesic,
    geometric_mean,
    harmonic_mean,
    hermitian_part,
    horizontal_lift,
    hs_inner,
    hs_norm,
    is_hermitian,
    matrix_function,
    matrix_inv_sqrt,
    matrix_sqrt,
    min_eigenvalue,
    density_matrix,
    monotone_ds2,
    operator_mean,
    povm,
    povm_classical_angle,
    psd_order_geq,
    purify,
    random_density_matrix,
    tangent_perturbation,
)
from statgeom.linalg import (
    EigenSystem,
    _apply_spectrum,
    _eig,
    _floored,
    _hermitian,
    _hermitian_checked,
    _invertible_root,
    _square_stack,
)
from statgeom.means import _Pair

A2 = np.array([[2.0, 1.0], [1.0, 2.0]])  # eigenvalues 1 and 3


def test_hermitian_part_symmetrizes():
    m = np.array([[1.0, 2.0 + 1j], [0.0, 3.0]])
    h = hermitian_part(m)
    assert np.allclose(h, h.conj().T)
    assert np.allclose(h, [[1.0, 1.0 + 0.5j], [1.0 - 0.5j, 3.0]])


def test_is_hermitian():
    assert is_hermitian(A2)
    assert not is_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    # tolerance is relative to scale
    assert is_hermitian(A2 + 1e-14 * np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eig_hermitian_ascending_and_reconstructs(rng):
    h = hermitian_part(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
    w, v = eig_hermitian(h)
    assert np.all(np.diff(w) >= 0)
    assert np.allclose((v * w) @ v.conj().T, h, atol=1e-12)
    assert np.allclose(v.conj().T @ v, np.eye(5), atol=1e-12)


def test_eig_hermitian_phase_convention(rng):
    h = hermitian_part(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    columns = list(eig_hermitian(h).eigenvectors.T)
    # the matrix functions take eigh's vectors as they come; the ones
    # eig_hermitian returns, of a matrix or of each slice of a stack, keep
    # the convention of fix_phases
    for n in range(1, 17):
        g = rng.normal(size=(3, n, n)) + 1j * rng.normal(size=(3, n, n))
        columns += [*eig_hermitian(g[0]).eigenvectors.T]
        columns += [*eig_hermitian(g).eigenvectors.swapaxes(-1, -2).reshape(3 * n, n)]
    for col in columns:
        pivot = col[np.argmax(np.abs(col))]
        assert pivot.real > 0.0
        assert abs(pivot.imag) < 1e-12


@pytest.mark.parametrize("n", range(1, 17))
def test_a_matrix_function_does_not_see_the_phases_of_its_eigenvectors(rng, n):
    """V f(w) V† is unchanged, to rounding, when each column of V takes a unit
    phase: what lets the matrix functions skip fix_phases."""
    g = rng.normal(size=(3, n, n)) + 1j * rng.normal(size=(3, n, n))
    w, v = np.linalg.eigh(hermitian_part(g @ g.conj().swapaxes(-1, -2)) + 0.1 * np.eye(n))
    phases = np.exp(2j * np.pi * rng.uniform(size=(3, 1, n)))
    for f in (np.sqrt, lambda w: 1.0 / np.sqrt(w), np.log, lambda w: 2.0 * w / (1.0 + w)):
        expected = _apply_spectrum(EigenSystem(w, v), f)
        got = _apply_spectrum(EigenSystem(w, v * phases), f)
        scale = np.abs(f(w)).max(axis=-1)[:, None, None]
        assert np.all(np.abs(got - expected) <= 8 * n * np.finfo(float).eps * scale)
        single = _apply_spectrum(EigenSystem(w[0], v[0] * phases[0]), f)
        assert np.all(np.abs(single - expected[0]) <= 8 * n * np.finfo(float).eps * scale[0])


def test_fix_phases_is_idempotent(rng):
    v = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    fixed = fix_phases(v)
    assert np.allclose(fix_phases(fixed), fixed)
    # columns only change by a phase
    assert np.allclose(np.abs(fixed), np.abs(v))


def _fix_phases_reference(vectors):
    """Column-by-column phase fixing, the definition fix_phases vectorizes."""
    out = np.array(vectors, dtype=complex, copy=True)
    for k in range(out.shape[1]):
        col = out[:, k]
        pivot = col[int(np.argmax(np.abs(col)))]
        if np.abs(pivot) > 0:
            out[:, k] = col * (np.abs(pivot) / pivot)
    return out


def test_fix_phases_matches_column_loop_exactly(rng):
    for shape in [(2, 1), (2, 2), (3, 5), (8, 8), (16, 4)]:
        v = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        assert np.array_equal(fix_phases(v), _fix_phases_reference(v))
    # One row with one nonzero column is the one case where numpy multiplies
    # a single-element 2-D block without the fused multiply-add of its 1-D
    # loop, so the imaginary roundoff of the real result may differ.
    v = rng.normal(size=(1, 1)) + 1j * rng.normal(size=(1, 1))
    ulps = 4.0 * np.finfo(float).eps * np.abs(v)
    assert np.all(np.abs(fix_phases(v) - _fix_phases_reference(v)) <= ulps)
    assert np.all(np.abs(fix_phases(v) - np.abs(v)) <= ulps)
    h = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    _, v = np.linalg.eigh(hermitian_part(h))
    assert np.array_equal(fix_phases(v), _fix_phases_reference(v))
    # column 0: two entries of equal modulus, the lower row index wins;
    # column 1: all zero, left unchanged; column 2: real negative pivot
    v = np.array([[0.0, 0.0, 0.1], [1j, 0.0, -2.0], [-1.0, 0.0, 0.3j]])
    fixed = fix_phases(v)
    assert np.array_equal(fixed, _fix_phases_reference(v))
    assert fixed[1, 0] == 1.0 and fixed[2, 0] == 1j
    assert np.array_equal(fixed[:, 1], np.zeros(3))
    assert fixed[1, 2] == 2.0
    # a NaN pivot, like a zero column, leaves its column as it is
    v = np.array([[np.nan, 1j], [1.0, 0.0]])
    expected = np.array([[np.nan, 1.0], [1.0, 0.0]], dtype=complex)
    assert fix_phases(v).tobytes() == expected.tobytes()
    # a (K, n, n) stack is fixed slice by slice, ties and zero columns included;
    # n >= 2, as the 1 x 1 roundoff above differs between loop shapes
    for n in range(2, 9):
        stack = rng.normal(size=(5, n, n)) + 1j * rng.normal(size=(5, n, n))
        stack[1] = np.round(stack[1])  # integer entries tie in modulus
        stack[2, :, 0] = 0.0
        stack[3, :2, :] = [[1.0, 1j, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0][:n]] * 2
        fixed = fix_phases(stack)
        for k in range(5):
            assert np.array_equal(fixed[k], _fix_phases_reference(stack[k]))


def _kernel_stack(rng, n):
    """(8, n, n) inputs: random, Hermitian, tied moduli and a zero column."""
    stack = rng.normal(size=(8, n, n)) + 1j * rng.normal(size=(8, n, n))
    stack[1] = hermitian_part(stack[1])
    stack[2] = np.round(stack[2])
    stack[3] = np.eye(n)[::-1]  # exchange matrix: eigenvectors of tied moduli
    stack[4, :, 0] = 0.0
    stack[5] = 0.0
    stack[6] = np.diag(np.arange(n, 0, -1))
    stack[7] = np.ones((n, n))  # degenerate: one eigenvalue n, the rest 0
    return stack


@pytest.mark.parametrize("n", range(1, 33))
def test_stacked_kernels_match_each_slice_exactly(rng, n):
    stack = _kernel_stack(rng, n)
    sym = hermitian_part(stack)
    w, v = eig_hermitian(stack)
    low = min_eigenvalue(stack)
    assert low.shape == (8,)
    for k in range(8):
        assert np.array_equal(sym[k], hermitian_part(stack[k]))
        assert np.array_equal(sym[k], (stack[k] + stack[k].conj().T) / 2)
        wk, vk = eig_hermitian(stack[k])
        assert np.array_equal(w[k], wk) and np.array_equal(v[k], vk)
        assert low[k] == min_eigenvalue(stack[k])
    assert isinstance(min_eigenvalue(stack[0]), float)
    assert min_eigenvalue(stack[None]).shape == (1, 8)


def _layouts(rng, shape):
    """One complex array of ``shape``: C-ordered, F-ordered, strided and reversed."""
    wide = rng.normal(size=(*shape[:-1], 2 * shape[-1]))
    wide = wide + 1j * rng.normal(size=wide.shape)
    a = np.ascontiguousarray(wide[..., ::2])
    return {
        "C": a, "F": np.asfortranarray(a), "strided": wide[..., ::2], "reversed": a[..., ::-1, :]
    }


def _positive_definite(rng, n):
    """(3, n, n) positive definite inputs with -0.0 off-diagonal real parts:
    as they are, off-Hermitian by roundoff, and with subnormal real parts."""
    skew = rng.uniform(-0.25, 0.25, size=(n, n))
    a = np.diag(np.arange(n, 2.0 * n)) + 1j * (skew - skew.T)  # Gershgorin: > 0
    a.real[~np.eye(n, dtype=bool)] = -0.0
    noisy = a + 1e-13 * rng.normal(size=(n, n))
    tiny = a + 1e-310 * rng.normal(size=(n, n))
    return np.stack([a, noisy, tiny])


def _symmetrization_inputs(rng, n):
    """Stacks with signed zeros and subnormals, and a generic one, in every layout."""
    specials = [_kernel_stack(rng, n), 1e-310 * _kernel_stack(rng, n), _positive_definite(rng, n)]
    return specials + list(_layouts(rng, (4, n, n)).values())


@pytest.mark.parametrize("n", range(1, 33))
def test_hermitian_part_bits(rng, n):
    """hermitian_part is (conj(Aᵀ) + A) / 2, C-contiguous, and returns its
    own output unchanged to the byte, signed zeros and subnormals included."""
    for stack in _symmetrization_inputs(rng, n):
        for a in [stack, *stack]:
            h = hermitian_part(a)
            assert h.flags.c_contiguous
            assert np.array_equal(h, (np.conj(a.swapaxes(-1, -2)) + a) / 2)
            assert hermitian_part(h).tobytes() == h.tobytes()


@pytest.mark.parametrize("n", range(1, 33))
def test_one_hermitian_test_for_a_matrix_or_a_stack(rng, n):
    """_hermitian_checked gives the bytes of hermitian_part and, slice by
    slice, the verdict |A - A†| <= 1e-10 max(|A|, 1), in every layout."""
    for stack in _symmetrization_inputs(rng, n):
        for a in [stack, *stack]:
            part, verdict = _hermitian_checked(a)
            assert part.tobytes() == hermitian_part(a).tobytes()
            gap = np.linalg.norm(a - np.conj(a.swapaxes(-1, -2)), axis=(-2, -1))
            scale = np.maximum(np.linalg.norm(a, axis=(-2, -1)), 1.0)
            assert np.array_equal(verdict, gap <= 1e-10 * scale)


def _hermitian_verdict_reference(a):
    """The verdict of _hermitian_checked as written before its fast path for
    an exactly Hermitian input."""
    h = a.swapaxes(-1, -2).astype(complex, order="C")
    np.conjugate(h, out=h)
    diff = np.subtract(a, h, order="C").view(float)
    parts = h.view(float)
    norms = np.sqrt(np.einsum("...ij,...ij->...", diff, diff))
    scale = np.maximum(np.sqrt(np.einsum("...ij,...ij->...", parts, parts)), 1.0)
    return norms <= 1e-10 * scale


def _hermitian_check_cases(rng):
    """(stack, exactly Hermitian) cases for the fast path of _hermitian_checked."""
    exact = hermitian_part(rng.normal(size=(2, 3, 3)) + 1j * rng.normal(size=(2, 3, 3)))
    signed = np.array([[0.6, complex(-0.0, 0.2)], [complex(0.0, -0.2), 0.4]])  # -0.0 vs +0.0
    ulp, nan, inf = exact.copy(), exact.copy(), exact.copy()
    ulp[1, 0, 1] = complex(np.nextafter(ulp[1, 0, 1].real, math.inf), ulp[1, 0, 1].imag)
    nan[0, 1, 1] = math.nan
    inf[1, 0, 0] = math.inf
    return [
        (exact, True), (exact[1], True), (signed, True), (np.zeros((0, 3, 3), complex), True),
        (np.zeros((0, 0), complex), True), (ulp, False), (ulp[1], False), (nan, False),
        (inf, False), (np.array([[0.0, 1.0], [0.0, 0.0]], complex), False),
    ]


def test_exactly_hermitian_input_skips_the_norms(rng, monkeypatch):
    """The fast path gives the verdict of the full test, and takes no norm
    exactly when A - A† is zero to the bit."""
    einsums = []
    einsum = np.einsum
    monkeypatch.setattr(np, "einsum", lambda *args: einsums.append(1) or einsum(*args))
    for a, exact in _hermitian_check_cases(rng):
        with np.errstate(invalid="ignore"):  # inf - inf in the infinite case
            expected = _hermitian_verdict_reference(a)
            einsums.clear()
            part, verdict = _hermitian_checked(a)
        assert part.tobytes() == _hermitian_part_reference(a).tobytes()
        assert verdict.dtype == bool and verdict.shape == expected.shape
        assert np.array_equal(verdict, expected)
        assert (not einsums) is exact


_INFINITE = {  # an infinity that meets its own conjugate in A - A†
    "diagonal": np.diag([math.inf, 0.5]),
    "off-diagonal": np.array([[0.5, math.inf], [math.inf, 0.5]]),
    "imaginary": np.array([[0.5, complex(0.0, math.inf)], [complex(0.0, -math.inf), 0.5]]),
}


@pytest.mark.parametrize("entry", _INFINITE)
@pytest.mark.parametrize(
    "call, message",
    [
        (density_matrix, "density matrix must be Hermitian"),
        (lambda m: operator_mean(m, np.eye(2), "geometric"),
         "operator means need Hermitian operands"),
        (lambda m: povm([m, np.eye(2)]), "POVM element 0 is not Hermitian"),
        (tangent_perturbation, "perturbation must be Hermitian"),
        (is_hermitian, None),  # returns False
    ],
    ids=["density_matrix", "operator_mean", "povm", "tangent_perturbation", "is_hermitian"],
)
def test_an_infinite_entry_is_not_hermitian_and_does_not_warn(call, message, entry):
    # inf - inf in A - A† warned "invalid value encountered in subtract"
    # before the verdict, which a RuntimeWarning filter turned into the error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if message is None:
            assert call(_INFINITE[entry]) is False
        else:
            with pytest.raises(ValidationError, match=message):
                call(_INFINITE[entry])


def test_hermitian_part_keeps_negative_zeros():
    a = np.array([[1.0, complex(-0.0, 0.3)], [complex(-0.0, -0.3), 2.0]])
    h = hermitian_part(a)
    assert [math.copysign(1.0, x) for x in (h[0, 1].real, h[1, 0].real)] == [-1.0, -1.0]
    assert hermitian_part(h).tobytes() == h.tobytes()


@pytest.mark.parametrize("n", range(1, 33))
def test_eigh_of_hermitian_part_is_eig_hermitian(rng, n):
    """Every kernel that symmetrizes its input gives the same bytes on a as
    on hermitian_part(a), so no caller needs to skip or repeat that step."""
    for stack in _symmetrization_inputs(rng, n):
        h = hermitian_part(stack)
        for kernel in (eig_hermitian, min_eigenvalue):
            assert _bytes(kernel(stack)) == _bytes(kernel(h))
        for a, ha in zip(stack, h):
            for kernel in (eig_hermitian, min_eigenvalue, lambda m: matrix_function(m, np.exp)):
                assert _bytes(kernel(a)) == _bytes(kernel(ha))
    for a in _positive_definite(rng, n):
        for kernel in (matrix_sqrt, matrix_inv_sqrt):
            assert _bytes(kernel(a)) == _bytes(kernel(hermitian_part(a)))


def _bytes(result) -> bytes:
    """The bytes of a kernel result: an array, a float, or a tuple of arrays."""
    parts = result if isinstance(result, tuple) else (result,)
    return b"".join(np.asarray(part).tobytes() for part in parts)


@pytest.mark.parametrize("n", range(1, 33))
def test_fix_phases_of_leading_columns_is_a_slice(rng, n):
    """Fixing the phases of the first k columns alone gives the bits of
    fixing them all, so a caller may fix only the columns it reads."""
    _, vectors = np.linalg.eigh(hermitian_part(_kernel_stack(rng, n)))
    raw = _kernel_stack(rng, n)  # ties in modulus and an all-zero column
    for v in (vectors, vectors[0], raw, raw[4]):
        fixed = fix_phases(v)
        for k in range(1, n + 1):
            assert fix_phases(v[..., :k]).tobytes() == fixed[..., :k].tobytes()


def _assert_same_phases(got, expected, single):
    """Equal bytes; on a 1 x 1 matrix, equal to 4 ulps of the entry, the
    roundoff that differs between numpy's loop shapes there."""
    if not single:
        assert got.tobytes() == expected.tobytes()
        return
    ulps = 4.0 * np.finfo(float).eps * np.abs(expected)
    assert np.all((np.abs(got - expected) <= ulps) | (np.isnan(got) & np.isnan(expected)))


@pytest.mark.parametrize("n", range(1, 34))
def test_fix_phases_bits_in_every_layout(rng, n):
    """fix_phases gives the column loop's bits on a matrix and the matrix
    call's bits on each slice of a stack, in every layout, with all-zero
    columns and NaN pivots, in a new array that leaves its input as it was."""
    for k in (0, 1, 2, n):
        for stack in _layouts(rng, (2, 3, n, k)).values():
            if k:
                stack[0, 1, :, 0] = 0.0
                stack[1, 2, 0, k - 1] = np.nan  # the column's pivot
            before = stack.copy()
            fixed = fix_phases(stack)
            assert fixed.shape == stack.shape and not np.shares_memory(fixed, stack)
            assert stack.tobytes() == before.tobytes()
            for index in np.ndindex(stack.shape[:-2]):
                matrix = stack[index]
                one = fix_phases(matrix)
                _assert_same_phases(one, _fix_phases_reference(matrix), (n, k) == (1, 1))
                _assert_same_phases(fixed[index], one, (n, k) == (1, 1))
            three = fix_phases(stack[1])  # a (3, n, k) stack
            for index in range(3):
                _assert_same_phases(three[index], fixed[1, index], (n, k) == (1, 1))


@pytest.mark.parametrize("n", range(1, 34))
def test_roots_have_the_bits_of_one_matrix_function_each(rng, n):
    """sqrt(H) and H^(-1/2), as an operand pair keeps them from its stacked
    eigh, have the bits of one matrix_function call each on H."""
    states = [hermitian_part(g @ g.conj().T) for g in _layouts(rng, (6, n, n))["C"]]
    for h in [*states, *_positive_definite(rng, n)]:
        pair = _Pair(h, h)
        root, inv_root = pair.root, pair.inv_root
        assert root.tobytes() == matrix_function(h, np.sqrt, domain_floor=0.0).tobytes()
        assert inv_root.tobytes() == matrix_function(h, lambda w: 1.0 / np.sqrt(w)).tobytes()


def _clipped_square(w):
    return np.square(np.clip(w, 0.0, None))


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize(
    "f", [np.sqrt, lambda w: 1.0 / np.sqrt(w), _clipped_square],
    ids=["sqrt", "inv-sqrt", "clipped-square"],
)
def test_a_stacked_spectrum_has_the_bits_of_each_slice(rng, n, f):
    """V f(w) V† of a stack, in one call, is that of each slice bit for bit."""
    stack = _positive_definite(rng, n)
    if f is _clipped_square:  # indefinite, zero and degenerate spectra too
        stack = np.concatenate([stack, hermitian_part(_kernel_stack(rng, n))])
    w, v = _eig(_hermitian(stack))
    applied = _apply_spectrum(EigenSystem(w, v), f)
    assert applied.shape == stack.shape and applied.flags.c_contiguous
    for k in range(len(stack)):
        assert applied[k].tobytes() == _apply_spectrum(EigenSystem(w[k], v[k]), f).tobytes()


def test_a_constant_f_scales_every_column():
    # an f that ignores its argument gives a 0-d f(w), and V 2 V† = 2 I
    assert np.allclose(matrix_function(A2, lambda w: 2.0), 2.0 * np.eye(2), atol=1e-15)


@pytest.mark.parametrize(
    "kernel",
    [is_hermitian, matrix_sqrt, matrix_inv_sqrt, lambda a: psd_order_geq(a, a)],
)
def test_one_matrix_kernels_reject_stacks(kernel):
    with pytest.raises(DimensionMismatchError, match=r"square, got shape \(2, 2, 2\)"):
        kernel(np.stack([A2, A2]))


def test_one_decomposition_per_root_pair(lapack_calls):
    """sqrt(A) and A^(-1/2) come from one eigh; M and the lift share it.

    Each call gets a pair of its own, so none finds the last pair's M kept.
    """
    calls = lapack_calls("eigh")
    rng = np.random.default_rng(5)
    cases = {
        "operator_mean": lambda r1, r2: operator_mean(A2, np.diag([3.0, 1.0]), "geometric"),
        "fuchs_caves_operator": fuchs_caves_operator,
        "geodesic": geodesic,
        "horizontal_lift": horizontal_lift,
    }
    counts = {}
    for name, call in cases.items():
        rho1 = random_density_matrix(3, rng)
        rho2 = random_density_matrix(3, rng)
        calls.clear()
        call(rho1, rho2)
        counts[name] = calls["eigh"]
    assert counts == dict.fromkeys(cases, 2)


def test_matrix_sqrt_frozen_2x2():
    # sqrt of [[2,1],[1,2]] has entries (sqrt(3) +/- 1)/2
    root = matrix_sqrt(A2)
    d = (math.sqrt(3.0) + 1.0) / 2.0
    o = (math.sqrt(3.0) - 1.0) / 2.0
    assert np.allclose(root, [[d, o], [o, d]], atol=1e-14)
    assert np.allclose(root @ root, A2, atol=1e-13)


def test_matrix_inv_sqrt_frozen_2x2():
    inv_root = matrix_inv_sqrt(A2)
    d = 0.5 + 1.0 / (2.0 * math.sqrt(3.0))
    o = 1.0 / (2.0 * math.sqrt(3.0)) - 0.5
    assert np.allclose(inv_root, [[d, o], [o, d]], atol=1e-14)
    assert np.allclose(inv_root @ A2 @ inv_root, np.eye(2), atol=1e-13)


def test_matrix_inv_sqrt_rejects_singular():
    with pytest.raises(SingularError):
        matrix_inv_sqrt(np.diag([1.0, 0.0]))


def test_matrix_function_matches_expm(rng):
    scipy_linalg = pytest.importorskip("scipy.linalg")
    h = hermitian_part(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    assert np.allclose(matrix_function(h, np.exp), scipy_linalg.expm(h), atol=1e-12)


def test_matrix_function_clamps_roundoff_negatives():
    # an eigenvalue a hair below the floor is clamped, not a domain error
    h = np.diag([1.0, -1e-13])
    root = matrix_function(h, np.sqrt, domain_floor=0.0)
    assert np.all(np.isfinite(root))


def test_min_eigenvalue():
    assert min_eigenvalue(A2) == pytest.approx(1.0, abs=1e-12)
    assert min_eigenvalue(np.diag([3.0, -0.5])) == pytest.approx(-0.5, abs=1e-12)


def test_psd_order():
    assert psd_order_geq(A2, np.eye(2))
    assert not psd_order_geq(np.eye(2), A2)
    assert psd_order_geq(A2, A2)


def test_hs_inner_and_norm():
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    sy = np.array([[0.0, -1j], [1j, 0.0]])
    assert hs_inner(sx, sy) == pytest.approx(0.0, abs=1e-15)
    assert hs_inner(sx, sx) == pytest.approx(2.0, abs=1e-15)
    assert hs_norm(sy) == pytest.approx(math.sqrt(2.0), abs=1e-15)
    # conjugate linearity in the first slot
    a = np.array([[1j, 0.0], [0.0, 0.0]])
    assert hs_inner(a, sx) == pytest.approx(np.trace(a.conj().T @ sx))
    with pytest.raises(DimensionMismatchError):
        hs_inner(sx, np.eye(3))


def test_matrix_sqrt_of_density_matrix(rng):
    rho = random_density_matrix(4, rng)
    root = matrix_sqrt(rho)
    assert np.allclose(root @ root.conj().T, rho, atol=1e-12)
    assert is_hermitian(root)


def test_matrix_function_domain_floor_rejects_real_negatives():
    with pytest.raises(DomainError):
        matrix_function(np.diag([1.0, -0.5]), np.sqrt, domain_floor=0.0)


_RAGGED = [[1.0, 0.0], [0.0]]
_NOT_SQUARE = "{name} must be square, got shape (2, 3)"

# the public routines that stack a pair through linalg._square_stack, with
# the noun of its shape error and the name of its square error
_STACKING = {
    "states": (fidelity, "states", "density matrix"),
    "operands": (geometric_mean, "operands", "matrix"),
    "psd-order": (psd_order_geq, "operands", "matrix"),
    "povm": (lambda x, y: povm([x, y]), "POVM elements", "matrix"),
}


@pytest.mark.parametrize("routine", list(_STACKING))
@pytest.mark.parametrize(
    "x, y, error, message",
    [
        (_RAGGED, np.eye(3), ValueError, "inhomogeneous"),
        # each argument converts and is square, in order, before any shape is
        # compared: the first one's square error comes before the second's faults
        (np.ones((2, 3)), _RAGGED, DimensionMismatchError, _NOT_SQUARE),
        (np.ones((2, 3)), np.eye(3), DimensionMismatchError, _NOT_SQUARE),
        (np.ones(3), np.eye(3), DimensionMismatchError, "{name} must be square, got shape (3,)"),
        (np.ones((2, 3)), np.ones((2, 3)), DimensionMismatchError, "square, got shape (2, 3)"),
        (np.ones((2, 2, 2)), np.ones((2, 2, 2)), DimensionMismatchError, "square, got shape (2, 2,"),
        (np.eye(3), np.ones((2, 3)), DimensionMismatchError, _NOT_SQUARE),
        (np.eye(2), np.eye(3), DimensionMismatchError, "{noun} have shapes (2, 2) and (3, 3)"),
    ],
    ids=["ragged-first", "ragged-second", "shape", "vector-shape", "square", "not-a-stack",
         "square-second", "shapes"],
)
def test_the_pair_check_raises_ragged_then_shape_then_square(routine, x, y, error, message):
    # state pairs, operand pairs and POVMs are stacked by one routine, so
    # each public entry raises the same error for the same inputs
    call, noun, name = _STACKING[routine]
    with pytest.raises(error) as caught:
        call(x, y)
    assert message.format(noun=noun, name=name) in str(caught.value)


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_the_pair_check_owns_one_stack_and_checks_each_slice(rng, n):
    x = rng.normal(size=(n, n))
    y = hermitian_part(x + 1j * rng.normal(size=(n, n)))
    stack = _square_stack((x, y), "operands")
    part, verdict = _hermitian_checked(stack)
    assert stack.shape == (2, n, n) and stack.dtype == complex and stack.flags.owndata
    assert stack[0].tobytes() == x.astype(complex).tobytes()
    assert stack[1].tobytes() == y.tobytes() and not np.shares_memory(stack, y)
    assert part.tobytes() == hermitian_part(stack).tobytes()
    assert verdict.tolist() == [is_hermitian(x), True]


# The spectral passes as they were written before their fast paths: each
# fast path must give these bits, or the same exception and message.


def _hermitian_part_reference(a):
    a = np.asarray(a, dtype=complex)
    h = a.swapaxes(-1, -2).copy()
    np.conjugate(h, out=h)
    h += a
    halves = h.view(float)
    halves *= 0.5
    return h


def _floored_reference(spectrum, domain_floor):
    w, v = spectrum
    if np.any(w < domain_floor - 1e-12):
        raise DomainError(f"eigenvalue {w.min():.3e} below domain floor {domain_floor:.3e}")
    if domain_floor > -math.inf:
        w = np.maximum(w, domain_floor)
    return EigenSystem(eigenvalues=w, eigenvectors=v)


def _roots_reference(spectrum):
    w, v = spectrum
    scale = float(np.max(np.abs(w))) if w.size else 0.0
    if scale == 0.0 or float(w.min()) <= 1e-12 * scale:
        raise SingularError(
            f"matrix not invertible: min eigenvalue {w.min():.3e} vs scale {scale:.3e}"
        )
    root = np.sqrt(w)
    # one product per root: a stacked one gives NaNs of other signs on a NaN spectrum
    return tuple(
        _hermitian_part_reference((v * np.asarray(f, dtype=complex)) @ v.conj().T)
        for f in (root, 1.0 / root)
    )


def _root_pair(spectrum):
    """(sqrt(H), H^(-1/2)) from the spectrum eig_hermitian gave H, by the
    routes of matrix_sqrt and matrix_inv_sqrt; H^(-1/2) first, so a singular
    H raises as matrix_inv_sqrt does."""
    inv_root = _apply_spectrum(_floored(spectrum, -math.inf), lambda w: 1.0 / _invertible_root(w))
    return _apply_spectrum(_floored(spectrum, 0.0), np.sqrt), inv_root


def _outcome(call, *args):
    """The bytes of what ``call`` returns, or its exception's type and message."""
    try:
        return "returned", _bytes(tuple(call(*args)))
    except Exception as exc:  # noqa: BLE001 - any exception is an outcome to compare
        return type(exc), str(exc)


def _spectra(rng, n):
    """Ascending spectra of length n, as eigh gives them: positive, mixed,
    negative definite, ill-conditioned and scaled toward the subnormals."""
    base = np.sort(rng.normal(size=n))
    return [
        np.sort(rng.uniform(0.1, 2.0, size=n)),
        base,
        -np.sort(rng.uniform(0.1, 2.0, size=n))[::-1],
        np.sort(np.abs(base)) * np.logspace(-14, 0, n),
        1e-300 * np.sort(rng.uniform(0.1, 2.0, size=n)),
    ]


_EDGE_SPECTRA = {
    "negative-zero": [-0.0, 0.5, 1.0],
    "zeros-of-both-signs": [-0.0, 0.0, 1.0],
    "within-the-band": [-5e-13, -1e-300, 0.25, 1.0],
    "below-the-band": [-2e-12, 0.5, 1.0],
    "nan-first": [math.nan, 0.5, 1.0],
    "nan-inside": [0.25, math.nan, 1.0],
    "nan-last": [0.25, 0.5, math.nan],
    "all-zero": [0.0, 0.0, 0.0],
    "negative-definite": [-3.0, -2.0, -1.0],
    "tiny-against-scale": [1e-13, 0.5, 1.0],
    "infinite": [0.5, 1.0, math.inf],
    "empty": [],
}


@pytest.mark.parametrize("n", range(1, 17))
def test_floored_has_the_bits_of_the_full_clamp(rng, n):
    vectors = eig_hermitian(_positive_definite(rng, n)[0]).eigenvectors
    for w in _spectra(rng, n):
        for floor in (0.0, -math.inf, float(w[0]), float(w[-1])):
            spectrum = EigenSystem(w, vectors)
            expected = _outcome(_floored_reference, spectrum, floor)
            assert _outcome(_floored, spectrum, floor) == expected
            if expected[0] == "returned":
                assert _floored(spectrum, floor).eigenvectors is vectors


@pytest.mark.parametrize("name", _EDGE_SPECTRA)
@pytest.mark.parametrize("floor", [0.0, -math.inf])
def test_floored_edge_spectra_reach_the_full_clamp(name, floor):
    w = np.array(_EDGE_SPECTRA[name])
    spectrum = EigenSystem(w, np.eye(len(w), dtype=complex))
    expected = _outcome(_floored_reference, spectrum, floor)
    assert _outcome(_floored, spectrum, floor) == expected
    if name in ("negative-zero", "zeros-of-both-signs") and floor == 0.0:
        # the clamp turns -0.0 into +0.0 here: the fast path must not skip it
        assert np.signbit(_floored(spectrum, floor).eigenvalues).tolist() == [False] * 3


@pytest.mark.parametrize("n", range(1, 17))
def test_roots_have_the_bits_of_the_full_test(rng, n):
    for a in _positive_definite(rng, n):
        spectrum = eig_hermitian(a)
        assert _bytes(_root_pair(spectrum)) == _bytes(_roots_reference(spectrum))
    vectors = spectrum.eigenvectors
    for w in _spectra(rng, n):
        spectrum = EigenSystem(w, vectors)
        assert _outcome(_root_pair, spectrum) == _outcome(_roots_reference, spectrum)


@pytest.mark.parametrize("name", _EDGE_SPECTRA)
def test_roots_edge_spectra_reach_the_full_test(name):
    w = np.array(_EDGE_SPECTRA[name])
    spectrum = EigenSystem(w, np.eye(len(w), dtype=complex))
    with np.errstate(invalid="ignore", divide="ignore"):
        assert _outcome(_root_pair, spectrum) == _outcome(_roots_reference, spectrum)


def test_a_negative_definite_spectrum_is_singular_with_its_old_message():
    spectrum = EigenSystem(np.array([-3.0, -1.0]), np.eye(2, dtype=complex))
    with pytest.raises(SingularError) as caught:
        _root_pair(spectrum)
    assert str(caught.value) == "matrix not invertible: min eigenvalue -3.000e+00 vs scale 3.000e+00"


@pytest.mark.parametrize("n", range(1, 17))
def test_matrix_inv_sqrt_alone_has_the_bits_of_the_root_pair(rng, n):
    """H^(-1/2), formed without sqrt(H), has the bits of the full test's
    reference on eigh's own eigenvectors, on a matrix and on a slice of a stack."""
    stack = _positive_definite(rng, n)
    for h in (*stack, stack[1], stack[:, ::-1, ::-1][2], stack.swapaxes(-1, -2)[0]):
        expected = _roots_reference(EigenSystem(*np.linalg.eigh(hermitian_part(h))))[1]
        got = matrix_inv_sqrt(h)
        assert got.tobytes() == expected.tobytes()
        assert got.flags.c_contiguous and got.flags.owndata


def test_matrix_inv_sqrt_of_a_singular_matrix_keeps_its_message():
    with pytest.raises(SingularError, match="min eigenvalue 0.000e.00 vs scale 1.000e.00"):
        matrix_inv_sqrt(np.diag([0.0, 1.0]))


def test_an_empty_matrix_function_raises_as_before():
    """A 0 x 0 matrix is rejected once, where the input is made square, with
    its shape: matrix_function raises as eig_hermitian does, and so does every
    public entry.  Each raised IndexError, or numpy's ValueError from an empty
    argmax, which matrix_function's own guard repeated; hermitian_part and
    is_hermitian returned an empty array and True.  The state and
    perturbation checks let 0 x 0 through to a trace or a shape error, or
    returned an empty array."""
    empty = np.zeros((0, 0))
    with pytest.raises(DimensionMismatchError) as old:
        _floored_reference(eig_hermitian(empty), 0.0)
    with pytest.raises(DimensionMismatchError) as new:
        matrix_function(empty, np.sqrt, domain_floor=0.0)
    message = "matrix must not be empty, got shape (0, 0)"
    assert str(new.value) == str(old.value) == message
    rho, drho = np.diag([0.5, 0.5]), np.diag([0.1, -0.1])
    for call, expected in [
        (matrix_sqrt, message),
        (matrix_inv_sqrt, message),
        (min_eigenvalue, message),
        (hermitian_part, message),
        (is_hermitian, message),
        (lambda h: psd_order_geq(h, h), message),
        (lambda h: geometric_mean(h, h), message),
        (lambda h: harmonic_mean(h, h), message),
        (lambda h: operator_mean(h, h, "arithmetic"), message),
        (lambda h: povm([h]), message),
        (lambda h: hermitian_part(h[None]), "matrix must not be empty, got shape (1, 0, 0)"),
        (density_matrix, "density " + message),
        (purify, "density " + message),
        (tangent_perturbation, message.replace("matrix", "perturbation")),
        (lambda h: monotone_ds2(h, drho), "density " + message),
        (lambda h: monotone_ds2(rho, h), message.replace("matrix", "perturbation")),
        (lambda h: fidelity(h, rho), "density " + message),
        (lambda h: fidelity(rho, h), "density " + message),
        (lambda h: povm_classical_angle([h], rho, rho), message),
    ]:
        with pytest.raises(DimensionMismatchError) as caught:
            call(empty)
        assert str(caught.value) == expected


def test_a_stack_of_no_matrices_is_not_empty_matrices():
    none = np.zeros((0, 3, 3))
    assert hermitian_part(none).shape == (0, 3, 3)
    assert min_eigenvalue(none).shape == (0,)
    assert eig_hermitian(none).eigenvectors.shape == (0, 3, 3)


@pytest.mark.parametrize("n", range(1, 17))
def test_private_cores_have_the_bits_of_the_public_kernels(rng, n):
    for stack in _symmetrization_inputs(rng, n):
        h = _hermitian(stack)
        assert h.tobytes() == _hermitian_part_reference(stack).tobytes()
        assert h.tobytes() == hermitian_part(stack).tobytes()
        assert _bytes(_eig(h)) == _bytes(eig_hermitian(stack))
    real = rng.normal(size=(n, n))
    assert _hermitian(real).dtype == complex
    assert _hermitian(real).tobytes() == hermitian_part(real).tobytes()


def test_the_fidelity_sum_has_the_bits_of_the_clipped_sum(rng):
    for w in [*_spectra(rng, 9), np.array([-0.0, 0.0, -1e-17, 0.5]), np.array([math.nan, 1.0])]:
        expected = float(np.sum(np.sqrt(np.clip(w, 0.0, None))))
        got = float(np.sqrt(np.maximum(w, 0.0)).sum())
        assert np.float64(got).tobytes() == np.float64(expected).tobytes()
