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

Neither form assumes unit trace.
"""

from decimal import Decimal, localcontext

import numpy as np

PRECISION = 50


def _qubit(rho):
    """The Hermitian part of a 2 x 2 matrix, exactly: its two diagonal
    entries and the real and imaginary parts of its (0, 1) entry."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError(f"qubit form needs a 2 x 2 matrix, got shape {rho.shape}")
    re = [[Decimal(float(x)) for x in row] for row in rho.real]
    im = [[Decimal(float(x)) for x in row] for row in rho.imag]
    return re[0][0], re[1][1], (re[0][1] + re[1][0]) / 2, (im[0][1] - im[1][0]) / 2


def qubit_fidelity(rho, sigma) -> Decimal:
    """Tr rho sigma + 2 sqrt(det rho det sigma), at 50 digits."""
    with localcontext() as ctx:
        ctx.prec = PRECISION
        a1, d1, x1, y1 = _qubit(rho)
        a2, d2, x2, y2 = _qubit(sigma)
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
