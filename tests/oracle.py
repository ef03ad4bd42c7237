"""A 50-digit fidelity oracle in the standard library's decimal.

Each closed form is evaluated on the float entries exactly as given: a float
converts to Decimal without rounding, and every later step rounds at 50
digits, so the oracle is good to about 1e-50, far below float64's 1e-16.
Each form reads the Hermitian part of its arguments, (A + A*)/2, taken
exactly, as the library's state check takes it in floats.

- ``qubit_fidelity``: F = Tr rho sigma + 2 sqrt(det rho det sigma) of two
  2 x 2 positive semidefinite matrices, which is (Tr sqrt A)^2 = Tr A +
  2 sqrt(det A) for A = sqrt(rho) sigma sqrt(rho).
- ``diagonal_fidelity``: F = (sum_i sqrt(p_i q_i))^2 of two diagonal ones.
- ``qubit_m``: M = rho1^(-1) # rho2 of two 2 x 2 positive definite
  matrices, by Bhatia's 2 x 2 form of the geometric mean (Positive Definite
  Matrices, 2007, Prop. 4.1.12): with alpha = sqrt(det A) and
  beta = sqrt(det B), A # B = sqrt(alpha beta) S / sqrt(det S) for
  S = A/alpha + B/beta.  A = rho1^(-1) is adj(rho1) / det(rho1), so M takes
  four square roots of scalars and no eigensolver.
- ``qubit_m_spectrum``: M's eigenvalues mu_-, mu_+ from its trace and
  determinant, and its projectors P_+- = (M - mu_-+ I) / (mu_+- - mu_-+).

Hermitian 2 x 2 results are (a, d, x, y) for [[a, x + iy], [x - iy, d]], as
``qubit_parts`` reads a float matrix; ``product`` multiplies them out.  No
form assumes unit trace.
"""

from decimal import Decimal, localcontext

import numpy as np

PRECISION = 50


def qubit_parts(rho):
    """The Hermitian part of a 2 x 2 matrix, exactly: its two diagonal
    entries and the real and imaginary parts of its (0, 1) entry."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError(f"qubit form needs a 2 x 2 matrix, got shape {rho.shape}")
    re = [[Decimal(float(x)) for x in row] for row in rho.real]
    im = [[Decimal(float(x)) for x in row] for row in rho.imag]
    with localcontext() as ctx:
        ctx.prec = PRECISION
        return re[0][0], re[1][1], (re[0][1] + re[1][0]) / 2, (im[0][1] - im[1][0]) / 2


def qubit_fidelity(rho, sigma) -> Decimal:
    """Tr rho sigma + 2 sqrt(det rho det sigma), at 50 digits."""
    with localcontext() as ctx:
        ctx.prec = PRECISION
        a1, d1, x1, y1 = qubit_parts(rho)
        a2, d2, x2, y2 = qubit_parts(sigma)
        overlap = a1 * a2 + d1 * d2 + 2 * (x1 * x2 + y1 * y2)
        dets = (a1 * d1 - x1 * x1 - y1 * y1) * (a2 * d2 - x2 * x2 - y2 * y2)
        return overlap + 2 * max(dets, Decimal(0)).sqrt()


def diagonal_fidelity(rho, sigma) -> Decimal:
    """(sum_i sqrt(p_i q_i))^2 over the diagonals, at 50 digits; the
    off-diagonal entries must be zero."""
    rho, sigma = np.asarray(rho, dtype=complex), np.asarray(sigma, dtype=complex)
    for m in (rho, sigma):
        if np.count_nonzero(m - np.diag(np.diag(m))):
            raise ValueError("diagonal form needs diagonal matrices")
    with localcontext() as ctx:
        ctx.prec = PRECISION
        root_sum = sum(
            (Decimal(float(p)) * Decimal(float(q))).sqrt()
            for p, q in zip(np.diag(rho).real, np.diag(sigma).real)
        )
        return root_sum * root_sum


def _det(h):
    a, d, x, y = h
    return a * d - x * x - y * y


def qubit_m(rho1, rho2) -> tuple:
    """M = rho1^(-1) # rho2 as (a, d, x, y), at 50 digits; both positive definite."""
    with localcontext() as ctx:
        ctx.prec = PRECISION
        a1, d1, x1, y1 = qubit_parts(rho1)
        h2 = qubit_parts(rho2)
        det1, det2 = _det((a1, d1, x1, y1)), _det(h2)
        if not (det1 > 0 and det2 > 0 and a1 > 0 and h2[0] > 0):
            raise ValueError("M's closed form needs positive definite matrices")
        # A / alpha = adj(rho1) / sqrt(det rho1), B / beta = rho2 / sqrt(det rho2)
        root1, root2 = det1.sqrt(), det2.sqrt()
        s = tuple(p / root1 + q / root2 for p, q in zip((d1, a1, -x1, -y1), h2))
        scale = (root2 / root1).sqrt() / _det(s).sqrt()  # sqrt(alpha beta) / sqrt(det S)
        return tuple(scale * p for p in s)


def qubit_m_spectrum(rho1, rho2) -> tuple:
    """((mu_-, mu_+), (P_-, P_+)) of M = qubit_m(rho1, rho2), at 50 digits;
    M's eigenvalues must be distinct."""
    m = qubit_m(rho1, rho2)
    with localcontext() as ctx:
        ctx.prec = PRECISION
        a, d, x, y = m
        half_gap = ((a - d) * (a - d) / 4 + x * x + y * y).sqrt()  # sqrt(tr^2/4 - det)
        mus = ((a + d) / 2 - half_gap, (a + d) / 2 + half_gap)
        projectors = tuple(
            tuple(part / (mu - other) for part in (a - other, d - other, x, y))
            for mu, other in zip(mus, mus[::-1])
        )
        return mus, projectors


def _entries(h):
    """(a, d, x, y) as a 2 x 2 list of (real, imaginary) pairs."""
    a, d, x, y = h
    zero = Decimal(0)
    return [[(a, zero), (x, y)], [(x, y.copy_negate()), (d, zero)]]  # exact, in any context


def product(*factors):
    """The product of Hermitian (a, d, x, y) matrices, at 50 digits, as a
    2 x 2 list of (real, imaginary) pairs."""
    with localcontext() as ctx:
        ctx.prec = PRECISION
        out = _entries(factors[0])
        for factor in factors[1:]:
            m = _entries(factor)
            out = [
                [
                    (
                        sum(p * r - q * s for (p, q), (r, s) in zip(row, col)),
                        sum(p * s + q * r for (p, q), (r, s) in zip(row, col)),
                    )
                    for col in zip(*m)
                ]
                for row in out
            ]
        return out
