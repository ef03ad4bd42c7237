"""Seeded random ensembles: determinism and structural guarantees."""

import numpy as np
import pytest

from statgeom import (
    hermitian_part,
    random_density_matrix,
    random_invertible_density_matrix,
    random_povm,
    random_probability_vector,
    random_psd,
    random_stochastic_matrix,
    random_traceless_hermitian,
    random_unitary,
    substream,
)
from statgeom.errors import ValidationError
from statgeom.sampling import _haar_isometry, _random_psd

from samplers import apply_channel, random_kraus_channel, random_pure_state


def test_substream_is_deterministic():
    a = substream(42, "alpha").normal(size=8)
    b = substream(42, "alpha").normal(size=8)
    assert np.array_equal(a, b)


def test_substream_labels_are_independent():
    a = substream(42, "alpha").normal(size=8)
    b = substream(42, "beta").normal(size=8)
    assert not np.allclose(a, b)


def test_random_unitary(rng):
    u = random_unitary(5, rng)
    assert np.allclose(u.conj().T @ u, np.eye(5), atol=1e-12)


def test_random_pure_state(rng):
    psi = random_pure_state(6, rng)
    assert psi.shape == (6,)
    assert np.linalg.norm(psi) == 1.0 or abs(np.linalg.norm(psi) - 1.0) < 1e-12


def test_random_psd(rng):
    a = random_psd(4, rng)
    assert np.allclose(a, a.conj().T)
    assert np.linalg.eigvalsh(a)[0] >= -1e-12


def test_random_density_matrix(rng):
    rho = random_density_matrix(5, rng)
    assert abs(np.trace(rho).real - 1.0) < 1e-12
    assert abs(np.trace(rho).imag) < 1e-14
    assert np.allclose(rho, rho.conj().T)
    assert np.linalg.eigvalsh(rho)[0] >= -1e-12


def test_random_invertible_density_matrix(rng):
    for _ in range(50):
        rho = random_invertible_density_matrix(4, rng, min_eig=1e-3)
        assert np.linalg.eigvalsh(rho)[0] >= 1e-3 * (1.0 - 1e-9)
        assert abs(np.trace(rho).real - 1.0) < 1e-12


@pytest.mark.parametrize("dim", [25, 26, 32])
def test_random_invertible_density_matrix_mixes_in_the_least_identity(dim):
    # every draw at these sizes misses min_eig = 0.02, and the mixture was
    # exactly I/dim; now it lifts the last draw's least eigenvalue just to
    # min_eig, after the same 8 draws
    rng, again = np.random.default_rng(dim), np.random.default_rng(dim)
    for _ in range(4):
        rho = random_invertible_density_matrix(dim, rng, min_eig=0.02)
        for _ in range(8):
            random_density_matrix(dim, again)
        assert rng.bit_generator.state == again.bit_generator.state
        assert not np.array_equal(rho, np.eye(dim) / dim)
        assert 0.02 <= np.linalg.eigvalsh(rho)[0] <= 0.02 + 1e-12
        assert abs(np.trace(rho).real - 1.0) < 1e-12


def test_random_traceless_hermitian(rng):
    h = random_traceless_hermitian(4, rng)
    assert np.allclose(h, h.conj().T)
    assert abs(np.trace(h)) < 1e-12


@pytest.mark.parametrize("dim", [1, 0])
def test_random_traceless_hermitian_rejects_dim_below_two_before_drawing(dim):
    """The only traceless 1 x 1 Hermitian matrix is 0, which has no unit-norm
    rescaling; the generator is left as it was."""
    rng = substream(7, "traceless")
    state = rng.bit_generator.state
    with pytest.raises(ValidationError, match="dim >= 2"):
        random_traceless_hermitian(dim, rng)
    assert rng.bit_generator.state == state


def test_random_probability_vector(rng):
    p = random_probability_vector(7, rng)
    assert np.all(p >= 0.0)
    assert abs(p.sum() - 1.0) < 1e-12


def test_random_stochastic_matrix_is_column_stochastic(rng):
    t = random_stochastic_matrix(3, 5, rng)
    assert t.shape == (3, 5)
    assert np.all(t >= 0.0)
    assert np.allclose(t.sum(axis=0), 1.0, atol=1e-12)


def test_random_povm_resolves_identity(rng):
    elements = random_povm(3, 5, rng)
    assert elements.shape == (5, 3, 3)
    total = np.zeros((3, 3), dtype=complex)
    for e in elements:
        assert np.allclose(e, e.conj().T)
        assert np.linalg.eigvalsh(e)[0] >= -1e-12
        total += e
    assert np.allclose(total, np.eye(3), atol=1e-10)


def test_random_kraus_channel_preserves_states(rng):
    kraus = random_kraus_channel(3, rng, env_dim=4)
    total = sum(k.conj().T @ k for k in kraus)
    assert np.allclose(total, np.eye(3), atol=1e-10)
    rho = random_density_matrix(3, rng)
    out = apply_channel(kraus, rho)
    assert abs(np.trace(out).real - 1.0) < 1e-10
    assert np.linalg.eigvalsh(out)[0] >= -1e-12


@pytest.mark.parametrize(
    "dim, min_eig", [(2, 0.9), (2, np.nextafter(0.5, 1.0)), (3, 0.34), (2, np.nan)]
)
def test_random_invertible_density_matrix_rejects_min_eig_above_one_over_dim(dim, min_eig):
    # (2, 0.9) returned I/2, whose eigenvalues are 0.5
    rng = substream(7, "sizes")
    state = rng.bit_generator.state
    with pytest.raises(ValidationError, match="min_eig must be <= 1/dim"):
        random_invertible_density_matrix(dim, rng, min_eig=min_eig)
    assert rng.bit_generator.state == state
    rho = random_invertible_density_matrix(dim, rng, min_eig=1.0 / dim)  # I/dim meets it
    assert np.linalg.eigvalsh(rho)[0] >= 1.0 / dim - 1e-15


def _rejects_before_drawing(draw):
    """``draw(rng)`` raises ValidationError and leaves the generator as it was."""
    rng = substream(7, "sizes")
    state = rng.bit_generator.state
    with pytest.raises(ValidationError, match=">= 1"):
        draw(rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("n", [0, -1])
def test_random_probability_vector_rejects_sizes_below_one(n):
    # [] is no probability vector: probability_vector rejects it
    _rejects_before_drawing(lambda rng: random_probability_vector(n, rng))
    rng, raw = substream(7, "sizes"), substream(7, "sizes")
    assert np.array_equal(random_probability_vector(1, rng), raw.dirichlet(np.ones(1)))


@pytest.mark.parametrize("n_out, n_in", [(0, 2), (2, 0), (-1, 3)])
def test_random_stochastic_matrix_rejects_sizes_below_one(n_out, n_in):
    # n_out = 0 gave columns summing to 0
    _rejects_before_drawing(lambda rng: random_stochastic_matrix(n_out, n_in, rng))
    rng, raw = substream(7, "sizes"), substream(7, "sizes")
    t = random_stochastic_matrix(1, 2, rng)
    assert np.array_equal(t, raw.dirichlet(np.ones(1), size=2).T)


@pytest.mark.parametrize("dim, n_outcomes", [(2, 0), (0, 2), (3, -1)])
def test_random_povm_rejects_sizes_below_one(dim, n_outcomes):
    # (2, 0) gave a (0, 2, 2) stack, (0, 2) a (2, 0, 0) one: neither is a POVM
    _rejects_before_drawing(lambda rng: random_povm(dim, n_outcomes, rng))
    rng, raw = substream(7, "sizes"), substream(7, "sizes")
    assert np.array_equal(random_povm(1, 1, rng), _random_povm_loop(1, 1, raw))


@pytest.mark.parametrize("dim, env_dim", [(2, 0), (0, None), (0, 2), (2, -1)])
def test_random_kraus_channel_rejects_sizes_below_one(dim, env_dim):
    # env_dim = 0 gave no Kraus operators
    _rejects_before_drawing(lambda rng: random_kraus_channel(dim, rng, env_dim=env_dim))
    rng, raw = substream(7, "sizes"), substream(7, "sizes")
    assert np.array_equal(random_kraus_channel(1, rng), _haar_isometry(1, 1, raw)[None])


@pytest.mark.parametrize("dim", [0, -1])
@pytest.mark.parametrize(
    "generator",
    [random_pure_state, random_psd, random_density_matrix, random_invertible_density_matrix],
)
def test_state_generators_reject_sizes_below_one(generator, dim):
    # dim 0 gave [], a (0, 0) array, a divide-by-zero RuntimeWarning, and an
    # IndexError; -1 a numpy ValueError
    _rejects_before_drawing(lambda rng: generator(dim, rng))


def test_state_generators_keep_their_draws_at_valid_sizes():
    rng, raw = substream(7, "sizes"), substream(7, "sizes")
    v = raw.standard_normal(2) + 1j * raw.standard_normal(2)
    assert np.array_equal(random_pure_state(2, rng), v / np.linalg.norm(v))
    g = raw.standard_normal((2, 2)) + 1j * raw.standard_normal((2, 2))
    m = g @ g.conj().T
    assert np.array_equal(random_density_matrix(2, rng), hermitian_part(m / np.trace(m).real))
    # random_psd and random_traceless_hermitian as they were written per call,
    # before the stacked sampler: the same bits, not just close values
    for d in range(1, 7):
        g = raw.standard_normal((d, d)) + 1j * raw.standard_normal((d, d))
        m = g @ g.conj().T
        oracle = hermitian_part(m * (1.0 / np.linalg.norm(m)))
        assert random_psd(d, rng).tobytes() == oracle.tobytes()
    for d in range(2, 7):
        g = raw.standard_normal((d, d)) + 1j * raw.standard_normal((d, d))
        h = hermitian_part(g)
        h -= np.trace(h) / d * np.eye(d)
        oracle = h * (1.0 / np.linalg.norm(h))
        assert random_traceless_hermitian(d, rng).tobytes() == oracle.tobytes()
    assert rng.bit_generator.state == raw.bit_generator.state


@pytest.mark.parametrize("dim", range(1, 7))
@pytest.mark.parametrize("shape", [(), (5,), (256, 2)])
def test_the_psd_stack_has_the_bits_of_consecutive_calls(shape, dim):
    # operator_monotone_test draws its blocks as (n, 2) stacks
    rng, again = substream(dim, "psd-stack"), substream(dim, "psd-stack")
    stack = _random_psd(shape, dim, rng)
    assert stack.shape == (*shape, dim, dim)
    for index in np.ndindex(shape):
        assert stack[index].tobytes() == random_psd(dim, again).tobytes()
    assert rng.bit_generator.state == again.bit_generator.state


def _random_povm_loop(dim, n_outcomes, rng):
    """random_povm as one hermitian_part per block, the reference it batches."""
    v = _haar_isometry(dim, dim * n_outcomes, rng)
    blocks = v.reshape(n_outcomes, dim, dim)
    return np.stack([hermitian_part(b.conj().T @ b) for b in blocks])


def _apply_channel_loop(kraus, rho):
    """apply_channel as a running sum over the Kraus operators."""
    out = np.zeros_like(np.asarray(rho, dtype=complex))
    for k in kraus:
        out += k @ rho @ k.conj().T
    return hermitian_part(out)


def test_batched_povm_and_channel_match_their_loops_exactly():
    for dim in range(1, 9):
        for count in (1, 2, 3, dim + 2):
            seed = 100 * dim + count
            stacked = random_povm(dim, count, np.random.default_rng(seed))
            looped = _random_povm_loop(dim, count, np.random.default_rng(seed))
            assert np.array_equal(stacked, looped)
            rng = np.random.default_rng(seed)
            kraus = random_kraus_channel(dim, rng, env_dim=count)
            for rho in (random_density_matrix(dim, rng), np.eye(dim) / dim):
                assert np.array_equal(
                    apply_channel(kraus, rho), _apply_channel_loop(kraus, rho)
                )
