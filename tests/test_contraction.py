"""Quantum contraction: monotone metrics and the Bures angle under channels.

A Riemannian metric on density matrices is monotone exactly when its line
element contracts under every completely positive trace-preserving map
(Petz 1996); the Bures angle, the geodesic distance of the arithmetic
member, contracts likewise.  Both are also unitarily invariant.  Each
property is checked on 200 seeded draws at dimensions 2-4 with random
Stinespring channels.  The family is ordered too: every admissible f lies
between the harmonic and the arithmetic function, so the Bures metric is
the smallest monotone metric and the harmonic one the largest.
"""

import numpy as np
import pytest

from statgeom import (
    apply_channel,
    bures_angle,
    monotone_ds2,
    random_kraus_channel,
    random_invertible_density_matrix,
    random_traceless_hermitian,
    random_unitary,
    substream,
)

DRAWS = 200
MEANS = ("arithmetic", "geometric", "harmonic")


def _wigner_yanase(t):
    return ((1.0 + np.sqrt(t)) / 2.0) ** 2


def _kubo_mori(t):
    """(t - 1)/ln t, with its limit 1 at t = 1; t - 1 is exact near 1."""
    t = np.asarray(t, dtype=float)
    return np.divide(t - 1.0, np.log(t), out=np.ones_like(t), where=t != 1.0)


# monotone_ds2 takes a mean name or a callable; the ds^2 they give grow in this order
FAMILY = {
    "arithmetic": "arithmetic",
    "wigner-yanase": _wigner_yanase,
    "kubo-mori": _kubo_mori,
    "geometric": "geometric",
    "harmonic": "harmonic",
}


def _draws(label):
    """Yield (dim, rng) for DRAWS deterministic draws cycling dims 2, 3, 4."""
    rng = substream(20260819, label)
    for k in range(DRAWS):
        yield 2 + k % 3, rng


def _state(dim, rng):
    return random_invertible_density_matrix(dim, rng, min_eig=0.02)


def _conjugate(u, m):
    return u @ m @ u.conj().T


@pytest.mark.parametrize("name", FAMILY)
def test_monotone_ds2_contracts_under_channels(name):
    f = FAMILY[name]
    worst = -np.inf
    for dim, rng in _draws(f"contraction-ds2-{name}"):
        rho = _state(dim, rng)
        drho = random_traceless_hermitian(dim, rng)
        kraus = random_kraus_channel(dim, rng)
        before = monotone_ds2(rho, drho, f)
        after = monotone_ds2(apply_channel(kraus, rho), apply_channel(kraus, drho), f)
        worst = max(worst, (after - before) / before)
    assert worst <= 1e-10, f"{name}: line element grew by a relative {worst:.3e}"


def test_monotone_family_is_ordered():
    rng = substream(20260819, "ordering-ds2")
    for k in range(DRAWS):
        dim = 2 + k % 4
        rho = _state(dim, rng)
        drho = random_traceless_hermitian(dim, rng)
        ds2 = [monotone_ds2(rho, drho, f) for f in FAMILY.values()]
        for i, (low, high) in enumerate(zip(FAMILY, list(FAMILY)[1:])):
            assert ds2[i] <= ds2[i + 1] * (1.0 + 1e-12), f"d={dim}: {low} above {high}"


def test_bures_angle_contracts_under_channels():
    worst = -np.inf
    for dim, rng in _draws("contraction-angle"):
        rho1, rho2 = _state(dim, rng), _state(dim, rng)
        kraus = random_kraus_channel(dim, rng)
        after = bures_angle(apply_channel(kraus, rho1), apply_channel(kraus, rho2))
        worst = max(worst, after - bures_angle(rho1, rho2))
    assert worst <= 1e-10, f"Bures angle grew by {worst:.3e}"


@pytest.mark.parametrize("f", MEANS)
def test_monotone_ds2_is_unitarily_invariant(f):
    for dim, rng in _draws(f"invariance-ds2-{f}"):
        rho = _state(dim, rng)
        drho = random_traceless_hermitian(dim, rng)
        u = random_unitary(dim, rng)
        moved = monotone_ds2(_conjugate(u, rho), _conjugate(u, drho), f)
        assert moved == pytest.approx(monotone_ds2(rho, drho, f), rel=1e-9)


def test_bures_angle_is_unitarily_invariant():
    for dim, rng in _draws("invariance-angle"):
        rho1, rho2 = _state(dim, rng), _state(dim, rng)
        u = random_unitary(dim, rng)
        moved = bures_angle(_conjugate(u, rho1), _conjugate(u, rho2))
        assert moved == pytest.approx(bures_angle(rho1, rho2), abs=1e-10)
