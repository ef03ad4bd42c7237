"""Random pure states and channels, for the tests alone.

The library never draws a pure state or a channel, so these live beside
the tests that use them; each builds on the library's Haar isometry.
"""

import numpy as np

from statgeom import hermitian_part
from statgeom.errors import ValidationError
from statgeom.sampling import _haar_isometry


def random_pure_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unit vector in C^dim; ``dim`` >= 1."""
    if dim < 1:
        raise ValidationError(f"dim must be >= 1, got {dim}")
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_kraus_channel(
    dim: int, rng: np.random.Generator, env_dim: int | None = None
) -> np.ndarray:
    """Kraus operators of a random CPTP map (Stinespring dilation).

    The environment dimension defaults to ``dim``.  Returns an array of
    shape (env_dim, dim, dim) with sum_i K_i† K_i = identity.
    """
    if env_dim is None:
        env_dim = dim
    v = _haar_isometry(dim, dim * env_dim, rng)
    return v.reshape(env_dim, dim, dim)


def apply_channel(kraus: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Apply a channel given by Kraus operators: sum_i K_i rho K_i†."""
    terms = kraus @ rho @ np.conj(np.swapaxes(kraus, -1, -2))
    return hermitian_part(np.sum(terms, axis=0))
