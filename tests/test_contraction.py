"""Quantum contraction: monotone metrics and the Bures angle under channels.

A Riemannian metric on density matrices is monotone exactly when its line
element contracts under every completely positive trace-preserving map
(Petz 1996); the Bures angle, the geodesic distance of the arithmetic
member, contracts likewise.  Both are also unitarily invariant.  Each
property is checked on 200 seeded draws at dimensions 2-4 with random
Stinespring channels.  The family is ordered too: every admissible f lies
between the harmonic and the arithmetic function, so the Bures metric is
the smallest monotone metric and the harmonic one the largest.  The maps
that can be undone give equality: Markov embeddings preserve the
Fisher-Rao metric and move the other sum dp^2/p^alpha (Chentsov), and
appending an ancilla preserves fidelity and every monotone metric (Petz).
"""

import numpy as np
import pytest

from statgeom import (
    apply_stochastic,
    bures_angle,
    fidelity,
    fisher_rao_ds2,
    fr_geodesic_distance,
    monotone_ds2,
    random_invertible_density_matrix,
    random_probability_vector,
    random_traceless_hermitian,
    random_unitary,
    substream,
)

from samplers import apply_channel, random_kraus_channel

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


# Equality cases.  Contraction alone would also pass a metric shrunk by some
# embedding-dependent factor below 1; the maps that can be undone must leave
# the metric as it was.  Classically these are the Markov embeddings, which
# split each outcome into pieces with fixed weights: Fisher-Rao is, up to
# scale, the only metric they all preserve (Cencov 1972; Campbell 1986).
# Quantum mechanically, rho -> rho (x) sigma, undone by the partial trace,
# preserves every monotone metric (Petz 1996).


def _markov_embeddings(label):
    """Yield (p, q, dp, T, split) for DRAWS draws at n = 2..5: T splits each
    of the n outcomes into 1-3 pieces with flat-Dirichlet weights, and
    ``split`` says whether any outcome has more than one piece."""
    rng = substream(20260819, label)
    for k in range(DRAWS):
        n = 2 + k % 4
        p, q = random_probability_vector(n, rng), random_probability_vector(n, rng)
        dp = rng.standard_normal(n)
        dp -= dp.mean()
        pieces = rng.integers(1, 4, size=n)
        t = np.zeros((int(pieces.sum()), n))
        rows = np.repeat(np.arange(n), pieces)
        for i in range(n):
            t[rows == i, i] = rng.dirichlet(np.ones(pieces[i]))
        yield p, q, dp, t, bool(pieces.max() > 1)


def _power_ds2(p, dp, alpha):
    """sum dp_i^2 / p_i^alpha: Fisher-Rao (times 4) only at alpha = 1."""
    return float(np.sum(dp * dp / p**alpha))


def test_markov_embeddings_preserve_the_fisher_rao_metric():
    worst_ds2 = worst_distance = 0.0
    for p, q, dp, t, _ in _markov_embeddings("chentsov"):
        before = fisher_rao_ds2(p, dp)
        after = fisher_rao_ds2(apply_stochastic(t, p), t @ dp)
        worst_ds2 = max(worst_ds2, abs(after - before) / before)
        moved = fr_geodesic_distance(apply_stochastic(t, p), apply_stochastic(t, q))
        worst_distance = max(worst_distance, abs(moved - fr_geodesic_distance(p, q)))
    assert worst_ds2 <= 1e-14
    assert worst_distance <= 1e-11


@pytest.mark.parametrize("alpha", [0.5, 1.5])
def test_markov_embeddings_move_every_other_power_metric(alpha):
    # the negative control: an outcome split with weights w_j scales the
    # form's entry along it by sum_j w_j^(2 - alpha), which is 1 only at
    # alpha = 1.  The embedded form is diagonal too, since T's columns have
    # disjoint supports, so comparing it on the coordinate vectors e_i
    # compares the whole form; a random tangent can miss a split outcome.
    splits = 0
    for p, _, _, t, split in _markov_embeddings("chentsov"):
        if split:
            splits += 1
            moves = [
                abs(_power_ds2(t @ p, t[:, i], alpha) / _power_ds2(p, e, alpha) - 1.0)
                for i, e in enumerate(np.eye(len(p)))
            ]
            assert max(moves) > 1e-3
    assert splits > DRAWS // 2


def test_appending_an_ancilla_preserves_fidelity_and_the_monotone_metrics():
    worst_fidelity = worst_ds2 = 0.0
    for dim, rng in _draws("petz-ancilla"):
        rho1, rho2 = _state(dim, rng), _state(dim, rng)
        drho = random_traceless_hermitian(dim, rng)
        sigma = _state(2, rng)
        before = fidelity(rho1, rho2)
        worst_fidelity = max(
            worst_fidelity, abs(fidelity(np.kron(rho1, sigma), np.kron(rho2, sigma)) - before)
        )
        for f in MEANS:
            before = monotone_ds2(rho1, drho, f)
            after = monotone_ds2(np.kron(rho1, sigma), np.kron(drho, sigma), f)
            worst_ds2 = max(worst_ds2, abs(after - before) / before)
    assert worst_fidelity <= 1e-12
    assert worst_ds2 <= 1e-13
