"""Hermitian matrix kernel: eigensystems, functions, square roots, order."""

import math

import numpy as np
import pytest
import scipy.linalg

from statgeom import (
    DimensionMismatchError,
    DomainError,
    SingularError,
    eig_hermitian,
    fix_phases,
    fuchs_caves_operator,
    geodesic,
    hermitian_part,
    horizontal_lift,
    hs_inner,
    hs_norm,
    is_hermitian,
    matrix_function,
    matrix_inv_sqrt,
    matrix_sqrt,
    min_eigenvalue,
    operator_mean,
    psd_order_geq,
    random_density_matrix,
)

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
    _, v = eig_hermitian(h)
    for col in v.T:
        pivot = col[np.argmax(np.abs(col))]
        assert pivot.real > 0.0
        assert abs(pivot.imag) < 1e-12


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
    h = hermitian_part(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    assert np.allclose(matrix_function(h, np.exp), scipy.linalg.expm(h), atol=1e-12)


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


def test_matrix_sqrt_of_density_matrix(rng):
    rho = random_density_matrix(4, rng)
    root = matrix_sqrt(rho)
    assert np.allclose(root @ root.conj().T, rho, atol=1e-12)
    assert is_hermitian(root)


def test_matrix_function_domain_floor_rejects_real_negatives():
    with pytest.raises(DomainError):
        matrix_function(np.diag([1.0, -0.5]), np.sqrt, domain_floor=0.0)
