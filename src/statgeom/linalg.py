"""Hermitian matrix kernel: eigendecomposition, matrix functions, the
positive-semidefinite order, and the Hilbert-Schmidt inner product.

Every matrix-valued routine accepts plain complex ``numpy`` arrays.
Inputs that are Hermitian up to floating-point noise are symmetrized with
:func:`hermitian_part` before use, so downstream code never sees a matrix
that is off-Hermitian by more than representation error.

The result of :func:`hermitian_part` is its own Hermitian part, bit for bit
(signed zeros and subnormals included), so symmetrizing an input twice costs
time but never changes an output.

:func:`hermitian_part`, :func:`fix_phases`, :func:`eig_hermitian` and
:func:`min_eigenvalue` also map over a ``(..., n, n)`` stack, with the bits of
the 2-D call on each slice (bar an ulp in :func:`fix_phases` on 1 x 1 slices).
So does the private :func:`_apply_spectrum`, the one place V f(w) V† is
formed; :func:`matrix_function`, :func:`matrix_sqrt` and
:func:`matrix_inv_sqrt`, built on it, take one matrix.

Phases are fixed only where eigenvectors leave the library (:func:`_eig`, the
billiard's kernels, M's eigenvectors in the CLI and the billiard): V f(w) V†
and a projector v v† are blind to column phases, so they take eigh's own.

The public functions convert and check their input; the private cores
:func:`_hermitian` and :func:`_eig` take arrays the library made, already
complex and square, and skip that.  A fast path may skip only a pass whose
output would equal its input bit for bit, and only behind a guard that
sends an empty array, a NaN and a signed zero on to the full expression.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .errors import DimensionMismatchError, DomainError, SingularError

__all__ = [
    "EigenSystem",
    "hermitian_part",
    "is_hermitian",
    "eig_hermitian",
    "fix_phases",
    "matrix_function",
    "matrix_sqrt",
    "matrix_inv_sqrt",
    "psd_order_geq",
    "min_eigenvalue",
    "hs_inner",
    "hs_norm",
]


class EigenSystem(NamedTuple):
    """Eigendecomposition of a Hermitian matrix, or of each in a stack.

    ``eigenvalues`` are real and ascending; ``eigenvectors`` holds the
    matching orthonormal eigenvectors as columns.  Those returned to a caller
    have phases fixed by :func:`fix_phases`; private spectra keep eigh's.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _as_square(a: np.ndarray, name: str = "matrix", stack: bool = False) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or (a.ndim > 2 and not stack) or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatchError(f"{name} must be square, got shape {a.shape}")
    if not a.shape[-1]:
        raise DimensionMismatchError(f"{name} must not be empty, got shape {a.shape}")
    return a


def _square_stack(arrays, noun: str, name: str = "matrix") -> np.ndarray:
    """An owned (K, n, n) complex stack of ``arrays``, checked check by check:
    each converts and is square (:func:`_as_square`, named ``name``), in
    order, then each shares the first one's shape (naming the ``noun``)."""
    squares = [_as_square(a, name) for a in arrays]
    first = squares[0].shape
    for square in squares[1:]:
        if square.shape != first:
            raise DimensionMismatchError(f"{noun} have shapes {first} and {square.shape}")
    return np.array(squares)


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """Return (A + A†)/2, C-contiguous, for one matrix or each matrix of a stack.

    For finite input the result is its own Hermitian part, bit for bit.
    """
    return _hermitian(_as_square(a, stack=True))


def _hermitian(a: np.ndarray) -> np.ndarray:
    """:func:`hermitian_part` of a square matrix or stack, not checked."""
    # A† in one new complex C-ordered buffer: a plain copy of the transposed
    # view, conjugated in place, is faster than a ufunc reading that view
    h = a.swapaxes(-1, -2).astype(complex, order="C")
    return _half_sum(np.conjugate(h, out=h), a)


def _half_sum(h: np.ndarray, a: np.ndarray) -> np.ndarray:
    """(h + a) / 2, written into h: :func:`hermitian_part` of ``a`` when h is
    A† in a new C-ordered array."""
    h += a
    # halve the real and imaginary parts as floats; complex division by 2
    # adds 0*y to a real part x, which turns x = -0 into +0 on one side of a pair
    halves = h.view(float)
    halves *= 0.5
    return h


def is_hermitian(a: np.ndarray) -> bool:
    """True if A equals A† within 1e-10 relative to its HS norm."""
    return bool(_hermitian_checked(_as_square(a))[1])


def _hermitian_checked(a: np.ndarray) -> tuple:
    """(hermitian_part(a), the verdict of :func:`is_hermitian` on each slice)
    for a square matrix or a ``(..., n, n)`` stack, from one A†.

    A slice passes if |A - A†| <= 1e-10 max(|A|, 1); a NaN there fails, as
    inf - inf does.  Every caller has made ``a`` complex and square.
    """
    h = a.swapaxes(-1, -2).astype(complex, order="C")  # A†, as in hermitian_part
    np.conjugate(h, out=h)
    # A = A† exactly and |A| finite: an infinity equals its conjugate
    if not (a != h).any() and math.isfinite(np.vdot(a, a).real):
        return _half_sum(h, a), np.ones(a.shape[:-2], dtype=bool)
    with np.errstate(invalid="ignore"):  # inf - inf, inf + -inf: quiet NaNs
        # HS norms over the real and imaginary parts side by side, of C-ordered
        # arrays; |A†| = |A|
        diff = np.subtract(a, h, order="C").view(float)
        parts = h.view(float)
        norms = np.sqrt(np.einsum("...ij,...ij->...", diff, diff))
        scale = np.maximum(np.sqrt(np.einsum("...ij,...ij->...", parts, parts)), 1.0)
        return _half_sum(h, a), norms <= 1e-10 * scale


def fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column's phase so its largest-modulus entry is real > 0.

    Makes eigenvector output deterministic for a fixed input; ties between
    equal moduli resolve to the lowest row index.
    """
    v = np.asarray(vectors, dtype=complex)
    if v.ndim == 2:  # one matrix, the usual case
        pivot = v[np.abs(v).argmax(axis=0), np.arange(v.shape[1])]
    else:
        flat = v.reshape(math.prod(v.shape[:-2]), *v.shape[-2:])  # one matrix per slice
        rows = np.abs(flat).argmax(axis=1)
        pivot = flat[np.arange(len(flat))[:, None], rows, np.arange(v.shape[-1])]
        pivot = pivot.reshape(*v.shape[:-2], 1, v.shape[-1])
    size = np.abs(pivot)
    keep = size > 0  # False for an all-zero column, and for a NaN pivot
    if keep.all():  # the usual case, which needs no mask
        return v * (size / pivot)  # a new array: the input is left as it is
    pivot[~keep] = 1.0  # no 0/0 for an all-zero column, which stays as it is
    return np.multiply(v, size / pivot, out=v.copy(order="K"), where=keep)


def eig_hermitian(h: np.ndarray) -> EigenSystem:
    """Eigendecomposition of a Hermitian matrix, or of each in a stack.

    The input is symmetrized first, eigenvalues come back ascending, and
    eigenvector phases are fixed per :func:`fix_phases`.
    """
    return _eig(hermitian_part(h))


def _eig(h: np.ndarray) -> EigenSystem:
    """:func:`eig_hermitian` of a matrix or stack that is its own Hermitian part."""
    w, v = np.linalg.eigh(h)
    return EigenSystem(eigenvalues=w, eigenvectors=fix_phases(v))


def matrix_function(
    h: np.ndarray,
    fn: Callable[[np.ndarray], np.ndarray],
    domain_floor: float = -math.inf,
) -> np.ndarray:
    """Apply a scalar function to a Hermitian matrix through its spectrum.

    Returns V f(w) V† for the eigendecomposition h = V diag(w) V†.
    Eigenvalues below ``domain_floor`` by more than 1e-12 raise
    :class:`DomainError`; values within that band are clamped to the floor
    so that e.g. a square root never sees -1e-15.
    """
    h = _hermitian(_as_square(h))
    return _apply_spectrum(_floored(EigenSystem(*np.linalg.eigh(h)), domain_floor), fn)


def _floored(spectrum: EigenSystem, domain_floor: float) -> EigenSystem:
    """The first step of :func:`matrix_function` after eig(h): the spectrum
    checked against and clamped to ``domain_floor``.  Keep it to apply
    several f to one h."""
    w, v = spectrum
    if w.size and w.min() > domain_floor:  # nothing to reject or clamp
        return spectrum
    if np.any(w < domain_floor - 1e-12):
        raise DomainError(
            f"eigenvalue {w.min():.3e} below domain floor {domain_floor:.3e}"
        )
    if domain_floor > -math.inf:
        w = np.maximum(w, domain_floor)
    return EigenSystem(eigenvalues=w, eigenvectors=v)


def _apply_spectrum(spectrum: EigenSystem, fn) -> np.ndarray:
    """The second step of :func:`matrix_function`: V f(w) V†, Hermitian, for
    one matrix or each of a stack, with the bits of the 2-D call on each slice.

    ``fn`` gets a copy of w, so a kept spectrum survives an f that writes
    to its argument.
    """
    w, v = spectrum
    fw = np.asarray(fn(w.copy()), dtype=complex)
    if fw.ndim:  # a constant f may give a 0-d f(w), which scales every column
        fw = fw[..., None, :]
    return _hermitian((v * fw) @ v.conj().swapaxes(-1, -2))


def matrix_sqrt(h: np.ndarray) -> np.ndarray:
    """Principal square root of a PSD Hermitian matrix."""
    return matrix_function(h, np.sqrt, domain_floor=0.0)


def _invertible_root(w: np.ndarray) -> np.ndarray:
    """sqrt(w) of an ascending spectrum, as eigh gives it; raises as
    :func:`matrix_inv_sqrt` does."""
    # ascending w > 0 has scale w[-1] and minimum w[0]; an empty, a NaN or a
    # nonpositive spectrum takes the full test
    if not (w.size and w[0] > 0.0 and w[0] > 1e-12 * w[-1]):
        scale = float(np.max(np.abs(w))) if w.size else 0.0
        if scale == 0.0 or float(w.min()) <= 1e-12 * scale:
            raise SingularError(
                f"matrix not invertible: min eigenvalue {w.min():.3e} vs scale {scale:.3e}"
            )
    return np.sqrt(w)  # as complex, it repeats matrix_sqrt bit for bit


def matrix_inv_sqrt(h: np.ndarray) -> np.ndarray:
    """Inverse square root of a positive-definite Hermitian matrix.

    Raises :class:`SingularError` when the smallest eigenvalue is at most
    1e-12 times the largest eigenvalue magnitude.
    """
    return matrix_function(h, lambda w: 1.0 / _invertible_root(w))


def min_eigenvalue(h: np.ndarray):
    """Smallest eigenvalue of the Hermitian part of ``h``; an array for a stack."""
    low = np.linalg.eigvalsh(hermitian_part(h))[..., 0]
    return float(low) if low.ndim == 0 else low


def psd_order_geq(a: np.ndarray, b: np.ndarray, tol: float = 1e-9) -> bool:
    """True iff A >= B in the PSD order, i.e. min eig(A - B) >= -tol."""
    a, b = _square_stack((a, b), "operands")
    return min_eigenvalue(a - b) >= -tol


def hs_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product <A|B> = Tr(B A†).

    Antilinear in the first argument, so ``hs_inner(a, a)`` is real >= 0.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"shape mismatch: {a.shape} vs {b.shape}")
    return complex(np.sum(np.conj(a) * b))


def hs_norm(a: np.ndarray) -> float:
    """Hilbert-Schmidt (Frobenius) norm."""
    return float(np.linalg.norm(np.asarray(a)))


class _PairSlot:
    """The value built from the most recent valid pair of arrays, remembered.

    ``build(x, y)`` validates the pair and returns an object that owns its
    arrays, since callers may later change theirs in place.  The key is the
    (shape, bytes) of both arguments as complex arrays; a pair where one does
    not convert (e.g. a ragged nested list) skips the slot, so ``build``
    raises as it would without it, and a pair ``build`` rejects is never
    kept.  One tuple assignment replaces ``entry``, so a reader always
    compares against the key stored with the value it gets.
    """

    def __init__(self, build):
        self.build = build
        self.entry = (None, None)

    def get(self, x, y):
        """The value for x and y: the remembered one, or a new one, kept."""
        try:
            a, b = np.asarray(x, dtype=complex), np.asarray(y, dtype=complex)
        except (TypeError, ValueError):
            return self.build(x, y)
        key = (a.shape, a.tobytes(), b.shape, b.tobytes())
        last_key, value = self.entry
        if key != last_key:
            value = self.build(x, y)
            self.entry = (key, value)
        return value
