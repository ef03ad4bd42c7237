"""Seeded random generators for states, unitaries, and measurements.

All experiment entry points take a single integer seed.  Independent
sub-streams are derived by hashing a purpose label into the seed sequence,
so parallel or re-ordered consumers draw from uncorrelated, reproducible
streams.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .linalg import hermitian_part, min_eigenvalue

__all__ = [
    "substream",
    "random_unitary",
    "random_psd",
    "random_density_matrix",
    "random_invertible_density_matrix",
    "random_traceless_hermitian",
    "random_probability_vector",
    "random_stochastic_matrix",
    "random_povm",
]


def substream(seed: int, label: str) -> np.random.Generator:
    """Generator for the sub-stream identified by (seed, label)."""
    import hashlib  # here, not at the top: a plain import of statgeom skips it
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    key = int.from_bytes(digest[:8], "little")
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(key,)))


def _ginibre(shape: tuple, rng: np.random.Generator) -> np.ndarray:
    """Complex Gaussian matrices of ``shape``, the matrix axes last: each
    matrix draws its real part, then its imaginary part."""
    z = rng.standard_normal((*shape[:-2], 2, *shape[-2:]))
    return z[..., 0, :, :] + 1j * z[..., 1, :, :]


def _gram(shape: tuple, dim: int, rng: np.random.Generator) -> np.ndarray:
    """G G† for a ``dim`` x ``dim`` Ginibre G at each index of ``shape``."""
    if dim < 1:
        raise ValidationError(f"dim must be >= 1, got {dim}")
    g = _ginibre((*shape, dim, dim), rng)
    return g @ g.conj().swapaxes(-1, -2)


def _unit_hs(m: np.ndarray) -> np.ndarray:
    """Each matrix of ``m`` scaled to unit HS norm.

    Each 2-D slice takes its own np.linalg.norm, since one norm over the
    stack sums in another order, and is multiplied by 1 / norm, since
    m / norm rounds differently: the seeded draws keep their bits.
    """
    norms = np.array([np.linalg.norm(s) for s in m.reshape(-1, *m.shape[-2:])])
    return m * (1.0 / norms).reshape(*m.shape[:-2], 1, 1)


def _random_psd(shape: tuple, dim: int, rng: np.random.Generator) -> np.ndarray:
    """random_psd at each index of ``shape``, drawn in one call: slice k has
    the bits of the k-th of that many random_psd calls, in C order."""
    return hermitian_part(_unit_hs(_gram(shape, dim, rng)))


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Gaussian matrix."""
    return _haar_isometry(dim, dim, rng)


def random_psd(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random PSD matrix G G† with unit HS norm."""
    return _random_psd((), dim, rng)


def random_density_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random density matrix from the Hilbert-Schmidt ensemble."""
    m = _gram((), dim, rng)
    return hermitian_part(m / np.trace(m).real)


def random_invertible_density_matrix(
    dim: int, rng: np.random.Generator, min_eig: float = 1e-3
) -> np.ndarray:
    """Random density matrix with all eigenvalues >= ``min_eig``.

    Rejection-samples the HS ensemble; after 8 misses mixes the last draw
    toward the maximally mixed state by the least weight that lifts its
    smallest eigenvalue a hair (1e-14) above ``min_eig``.
    ``min_eig`` above 1/dim, which no state meets, raises before any draw.
    """
    if dim >= 1 and not min_eig <= 1.0 / dim:  # NaN fails
        raise ValidationError(f"min_eig must be <= 1/dim = {1.0 / dim!r}, got {min_eig!r}")
    for _ in range(8):
        rho = random_density_matrix(dim, rng)
        low = min_eigenvalue(rho)
        if low >= min_eig:
            return rho
    # (1 - alpha) low + alpha / dim is the mixture's smallest eigenvalue
    alpha = min(1.0, (min_eig + 1e-14 - low) / (1.0 / dim - low))
    mixed = (1 - alpha) * rho + alpha * np.eye(dim) / dim
    return hermitian_part(mixed)


def random_traceless_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random traceless Hermitian matrix with unit HS norm; ``dim`` >= 2,
    since the only traceless 1 x 1 Hermitian matrix is 0."""
    if dim < 2:
        raise ValidationError(f"traceless unit-norm sampling needs dim >= 2, got {dim}")
    h = hermitian_part(_ginibre((dim, dim), rng))
    h -= np.trace(h) / dim * np.eye(dim)
    return _unit_hs(h)


def random_probability_vector(n: int, rng: np.random.Generator) -> np.ndarray:
    """Flat-Dirichlet point of the (n-1)-simplex; ``n`` >= 1."""
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    return rng.dirichlet(np.ones(n))


def random_stochastic_matrix(
    n_out: int, n_in: int, rng: np.random.Generator
) -> np.ndarray:
    """Column-stochastic matrix with each column flat-Dirichlet; sizes >= 1."""
    if min(n_out, n_in) < 1:
        raise ValidationError(f"sizes must be >= 1, got {n_out} x {n_in}")
    return rng.dirichlet(np.ones(n_out), size=n_in).T


def _haar_isometry(
    dim_in: int, dim_out: int, rng: np.random.Generator
) -> np.ndarray:
    """Haar-random isometry C^dim_in -> C^dim_out (dim_out >= dim_in >= 1)."""
    if min(dim_in, dim_out) < 1:
        raise ValidationError(f"dims must be >= 1, got C^{dim_in} -> C^{dim_out}")
    q, r = np.linalg.qr(_ginibre((dim_out, dim_in), rng))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_povm(
    dim: int, n_outcomes: int, rng: np.random.Generator
) -> np.ndarray:
    """Random POVM with ``n_outcomes`` elements on C^dim.

    Partitions the rows of a Haar-random isometry V: C^dim -> C^(k*dim)
    into k blocks B_i; the elements E_i = B_i† B_i resolve the identity by
    construction.
    """
    v = _haar_isometry(dim, dim * n_outcomes, rng)
    blocks = v.reshape(n_outcomes, dim, dim)
    return hermitian_part(np.conj(np.swapaxes(blocks, -1, -2)) @ blocks)
