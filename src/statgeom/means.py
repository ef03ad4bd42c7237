"""Operator means of positive matrices.

A mean is built from an operator-monotone function f on (0, inf) with
f(1) = 1 via the congruence recipe

    M_f(A, B) = sqrt(A) f(A^(-1/2) B A^(-1/2)) sqrt(A).

The classical trio is arithmetic f = (1+t)/2, geometric f = sqrt(t), and
harmonic f = 2t/(1+t), ordered harmonic <= geometric <= arithmetic in the
positive-semidefinite sense.  Only f differs between the means of one
pair, so each is a view of one private pair object: it validates A and B
once, and computes sqrt(A), A^(-1/2) and the spectrum of the core
A^(-1/2) B A^(-1/2) once, on first use.  The last pair is remembered, so
the trio on one pair decomposes (A, B), stacked, and the core once between
them; returned arrays are always new.  Switched to states, the same object
gives the Bures operator M = rho1^(-1) # rho2.  The module also carries a
randomized operator-monotonicity tester and the standard 2x2 witness that
t -> t^2 fails it.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import DomainError, ValidationError
from .linalg import (
    EigenSystem,
    _PairSlot,
    _apply_spectrum,
    _floored,
    _hermitian,
    _hermitian_checked,
    _invertible_root,
    _square_stack,
    hs_norm,
    min_eigenvalue,
    psd_order_geq,
)
from .sampling import _random_psd, random_psd, random_unitary, substream

__all__ = [
    "mean_function",
    "operator_mean",
    "arithmetic_mean",
    "geometric_mean",
    "harmonic_mean",
    "mean_axioms_check",
    "operator_monotone_test",
    "square_monotonicity_counterexample",
]

_MEAN_FUNCTIONS = {
    "arithmetic": lambda t: 0.5 * (1.0 + t),
    "geometric": np.sqrt,
    "harmonic": lambda t: 2.0 * t / (1.0 + t),
}


def mean_function(name: str):
    """Return the representing function f for a named mean."""
    try:
        return _MEAN_FUNCTIONS[name]
    except KeyError:
        known = ", ".join(sorted(_MEAN_FUNCTIONS))
        raise ValidationError(f"unknown mean {name!r}; expected one of {known}") from None


class _Pair:
    """A validated pair (X, Y), and the congruence outer f(core) outer of its means.

    As operands (A, B), M_f(A, B) = sqrt(A) f(A^(-1/2) B A^(-1/2)) sqrt(A), with
    A and B Hermitian and B positive semidefinite on first use: X and Y are
    views of one owned stack, whose Hermitian part's one eigh gives X's
    spectrum and B's least eigenvalue.  The core is inner Y inner and each
    mean outer f(core) outer, with ``inner`` X^(-1/2) and ``outer`` sqrt(X).
    As states (the subclass in bures validates them and sets the spectrum),
    M = rho1^(-1) # rho2 is the geometric mean of (rho1^(-1), rho2), whose
    A^(-1/2) is sqrt(rho1) and sqrt(A) is rho1^(-1/2): the subclass swaps them.
    sqrt(X) and X^(-1/2), by the routes of matrix_sqrt and matrix_inv_sqrt,
    and the core inner Y inner, unclamped and clamped, are each made on first
    use from eigh's eigenvectors as they come, since no column phase changes
    V f(w) V†; one that raises is not kept.
    """

    def __init__(self, x, y):
        stack = _square_stack((x, y), "operands")
        self.hermitian_stack, valid = _hermitian_checked(stack)
        if not valid.all():
            raise ValidationError("operator means need Hermitian operands")
        self.x, self.y = stack

    @cached_property
    def spectrum(self) -> EigenSystem:
        w, v = np.linalg.eigh(self.hermitian_stack)  # each slice has the bits of a 2-D eigh
        if w[1, 0] < -1e-12:
            raise ValidationError("second operand is not positive semidefinite")
        return EigenSystem(w[0], v[0])

    @cached_property
    def root(self) -> np.ndarray:
        """sqrt(X), as matrix_sqrt forms it; X may be singular."""
        return _apply_spectrum(_floored(self.spectrum, 0.0), np.sqrt)

    @cached_property
    def inv_root(self) -> np.ndarray:
        """X^(-1/2), as matrix_inv_sqrt forms it; SingularError if X is singular."""
        return _apply_spectrum(self.spectrum, lambda w: 1.0 / _invertible_root(w))

    inner = property(lambda self: self.inv_root)
    outer = property(lambda self: self.root)

    @cached_property
    def core(self) -> EigenSystem:
        """eig(inner Y inner), unclamped."""
        return EigenSystem(*np.linalg.eigh(_hermitian(self.inner @ self.y @ self.inner)))

    @cached_property
    def clamped_core(self) -> EigenSystem:
        """The core clamped at 0; an eigenvalue below -1e-12 raises DomainError."""
        return _floored(self.core, 0.0)

    def congruence(self, f) -> np.ndarray:
        """outer f(core) outer, unsymmetrized."""
        return self.outer @ _apply_spectrum(self.clamped_core, f) @ self.outer

    def mean(self, f) -> np.ndarray:
        def finite(w):
            fw = f(w)
            if not np.isfinite(fw).all():
                raise DomainError("f is not finite on the spectrum of A^(-1/2) B A^(-1/2)")
            return fw
        return _hermitian(self.congruence(finite))


# The most recent valid operand pair, so the means called in a row on one
# pair share its validation, roots and core.
_pairs = _PairSlot(_Pair)


def operator_mean(a: np.ndarray, b: np.ndarray, f) -> np.ndarray:
    """Mean of positive matrices a and b built from the function f.

    ``f`` is either a mean name ("arithmetic", "geometric", "harmonic") or a
    callable applied to the eigenvalues of A^(-1/2) B A^(-1/2).  ``a`` must be
    positive definite; ``b`` positive semidefinite.  Raises DomainError if f
    is not finite on those eigenvalues.
    """
    if isinstance(f, str):
        f = mean_function(f)
    return _pairs.get(a, b).mean(f)


def arithmetic_mean(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(A + B) / 2, computed directly (no invertibility needed)."""
    pair = _pairs.get(a, b)
    return 0.5 * (pair.x + pair.y)


def geometric_mean(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Geometric mean A # B = sqrt(A) sqrt(A^(-1/2) B A^(-1/2)) sqrt(A).

    Symmetric in its arguments, equal to the entrywise geometric mean of
    eigenvalues when the operands commute, and the unique positive solution
    G of the Riccati equation G A^(-1) G = B.
    """
    return operator_mean(a, b, np.sqrt)


def harmonic_mean(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Harmonic mean 2 (A^(-1) + B^(-1))^(-1), via its congruence form."""
    return operator_mean(a, b, _MEAN_FUNCTIONS["harmonic"])


def _shrink_below(a: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Random strictly positive C with C <= A, for the mixed-monotone axiom."""
    dim = a.shape[0]
    bump = random_psd(dim, rng)
    top = float(np.linalg.eigvalsh(bump)[-1])
    room = min_eigenvalue(a)
    return np.asarray(a, dtype=complex) - (0.4 * room / top) * bump


def mean_axioms_check(f, seed: int, trials: int) -> dict:
    """Randomized check of the four mean axioms for the function f.

    On random strictly positive 3 x 3 pairs (A, B) it verifies
      a) idempotence        M(A, A) = A,
      b) homogeneity        M(aA, aB) = a M(A, B) for random a > 0,
      c) mixed monotonicity A >= C, B >= D  =>  M(A, B) >= M(C, D),
      d) unitary covariance M(UAU*, UBU*) = U M(A, B) U*.

    Equality axioms are checked in Hilbert-Schmidt norm to 1e-8 (relative),
    the order axiom with a -1e-8 eigenvalue tolerance.  Returns per-axiom
    violation counts plus the total.  The named trio passes; feeding the
    formula f(t) = t^2 produces axiom-c violations.
    """
    if isinstance(f, str):
        f = mean_function(f)
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    rng = substream(seed, "mean-axioms")
    counts = {"a": 0, "b": 0, "c": 0, "d": 0}
    for _ in range(trials):
        a, b = _random_psd((2,), 3, rng) + 0.05 * np.eye(3)
        m = operator_mean(a, b, f)
        scale = max(1.0, hs_norm(m))

        if hs_norm(operator_mean(a, a, f) - a) > 1e-8 * max(1.0, hs_norm(a)):
            counts["a"] += 1

        alpha = float(rng.uniform(0.2, 5.0))
        if hs_norm(operator_mean(alpha * a, alpha * b, f) - alpha * m) > 1e-8 * alpha * scale:
            counts["b"] += 1

        c = _shrink_below(a, rng)
        d = _shrink_below(b, rng)
        if not psd_order_geq(m, operator_mean(c, d, f), tol=1e-8):
            counts["c"] += 1

        u = random_unitary(3, rng)
        covariant = operator_mean(u @ a @ u.conj().T, u @ b @ u.conj().T, f)
        if hs_norm(covariant - u @ m @ u.conj().T) > 1e-8 * scale:
            counts["d"] += 1
    counts["violations"] = sum(counts.values())
    counts["trials"] = trials
    return counts


# trials drawn and tested as one stack by operator_monotone_test: its memory
# stays that of one block however many trials it runs
_MONOTONE_BLOCK = 256


def operator_monotone_test(f, dim: int, seed: int, trials: int) -> dict:
    """Search for a counterexample to operator monotonicity of f.

    Samples pairs A >= B >= 0 of ``dim`` x ``dim`` matrices, B and A - B
    each a unit-HS-norm Hilbert-Schmidt draw (random_psd), and tests whether
    f(A) >= f(B) in the positive-semidefinite order.  Each block of up to
    256 trials is drawn as one stack, in trial order, so the report is that
    of a trial-by-trial loop.  Returns a report with the first counterexample
    found (or None), the most negative ordering eigenvalue seen, and the
    number of pairs checked.  f acts elementwise: it is applied to the
    spectra of a whole block at once.

    Raises DomainError if f is undefined (non-finite) on a sampled spectrum.
    """
    if dim < 2:
        raise ValidationError("dim must be >= 2")
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    rng = substream(seed, "operator-monotone")
    worst = np.inf
    counterexample = None
    for start in range(0, trials, _MONOTONE_BLOCK):
        # trial k draws B, then A - B: slices [k, 0] and [k, 1] of one stack
        draws = _random_psd((min(_MONOTONE_BLOCK, trials - start), 2), dim, rng)
        lower = draws[:, 0]
        upper = lower + draws[:, 1]
        # f(A) - f(B) is exactly Hermitian, so eigvalsh needs no hermitian_part
        diff = _apply_scalar(f, upper) - _apply_scalar(f, lower)
        gaps = np.linalg.eigvalsh(diff)[:, 0]
        worst = min(worst, float(gaps.min()))
        negative = np.flatnonzero(gaps < -1e-9)
        if negative.size and counterexample is None:
            k = negative[0]
            a, b = upper[k].copy(), lower[k].copy()  # owned, not views of the block
            counterexample = {"a": a, "b": b, "min_eigenvalue": float(gaps[k])}
    return {
        "counterexample": counterexample,
        "min_gap": float(worst),
        "trials": trials,
    }


def _apply_scalar(f, h: np.ndarray) -> np.ndarray:
    """f lifted to each matrix of a stack the library made exactly Hermitian,
    with a finiteness check on f(spectrum)."""
    def clipped(w):
        fw = np.asarray(f(np.clip(w, 0.0, None)), dtype=float)
        if not np.all(np.isfinite(fw)):
            raise DomainError("f is undefined on part of the sampled spectrum")
        return fw
    return _apply_spectrum(EigenSystem(*np.linalg.eigh(h)), clipped)


def square_monotonicity_counterexample() -> dict:
    """Explicit 2x2 pair with A >= B >= 0 but A^2 not >= B^2.

    Returns the pair, the difference of squares, and its minimum eigenvalue
    (negative, certifying that t -> t^2 is not operator monotone and hence
    never generates an operator mean).
    """
    a = np.array([[2.0, 1.0], [1.0, 1.0]])
    b = np.array([[1.0, 0.0], [0.0, 0.0]])
    diff_sq = a @ a - b @ b
    return {
        "a": a,
        "b": b,
        "a_minus_b_min_eigenvalue": min_eigenvalue(a - b),
        "square_diff": diff_sq,
        "square_diff_min_eigenvalue": min_eigenvalue(diff_sq),
    }
