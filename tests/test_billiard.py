"""Boundary contacts of geodesic great circles and the bounce theorem."""

import math
import types
import warnings

import numpy as np
import pytest

from statgeom import (
    GeodesicPath,
    ScanFailureError,
    eig_hermitian,
    fidelity,
    fuchs_caves_operator,
    geodesic,
    random_invertible_density_matrix,
    random_unitary,
    substream,
    verify_billiard_theorem,
)
from statgeom import billiard, bures


def _diag_pair(p, q):
    return np.diag(p).astype(complex), np.diag(q).astype(complex)


def _predicted_diagonal_bounces(p, q):
    """Zeros of each diagonal chord channel, solved by plain trigonometry."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    t_star = math.acos(float(np.sum(np.sqrt(p * q))))
    w = (np.sqrt(q) - math.cos(t_star) * np.sqrt(p)) / math.sin(t_star)
    # c cos t + w sin t = R cos(t - delta) vanishes at delta + pi/2 (mod pi)
    deltas = np.arctan2(w, np.sqrt(p))
    return np.sort((deltas + math.pi / 2.0) % math.pi)


def test_commuting_qubit_bounces_match_trigonometry():
    p, q = [0.7, 0.3], [0.4, 0.6]
    report = verify_billiard_theorem(*_diag_pair(p, q))
    predicted = _predicted_diagonal_bounces(p, q)
    assert len(report["bounce_ts"]) == 2
    assert report["multiplicities"] == [1, 1]
    assert np.allclose(report["bounce_ts"], predicted, atol=1e-9)
    # kernels of a diagonal chord are the basis vectors
    for kernel in report["kernel_states"]:
        weights = np.abs(kernel)
        assert weights.max() == pytest.approx(1.0, abs=1e-8)


def test_commuting_bounces_match_trigonometry_to_roundoff():
    for p, q in (
        ([0.7, 0.3], [0.4, 0.6]),
        ([0.5, 0.3, 0.2], [0.3, 0.2, 0.5]),
        ([0.4, 0.3, 0.2, 0.1], [0.1, 0.2, 0.3, 0.4]),
    ):
        report = verify_billiard_theorem(*_diag_pair(p, q))
        assert report["multiplicities"] == [1] * len(p)
        predicted = _predicted_diagonal_bounces(p, q)
        assert np.allclose(report["bounce_ts"], predicted, rtol=0.0, atol=1e-12)


def test_bounce_ts_match_the_spectrum_of_m():
    # t_i = atan2(s, c - mu_i) mod pi, with c = sqrt(F), s = sqrt(1 - F)
    rng = substream(5, "billiard-tests")
    for dim in range(2, 13):
        for _ in range(3):
            rho1 = random_invertible_density_matrix(dim, rng)
            rho2 = random_invertible_density_matrix(dim, rng)
            ts = verify_billiard_theorem(rho1, rho2)["bounce_ts"]
            mu = np.linalg.eigvalsh(fuchs_caves_operator(rho1, rho2))
            f = fidelity(rho1, rho2)
            predicted = np.sort(
                np.arctan2(math.sqrt(1.0 - f), math.sqrt(f) - mu) % math.pi
            )
            assert len(ts) == dim
            assert np.allclose(ts, predicted, rtol=0.0, atol=1e-10)


def _near_coincident_pair():
    # two likelihood ratios 1e-3 apart put two contacts 6.9e-4 apart
    p = np.array([0.5, 0.3, 0.2])
    q = p * np.array([0.5, 0.5 * (1.0 + 1e-3), 3.0])
    q /= q.sum()
    u = random_unitary(3, substream(7, "billiard-tests"))
    return u @ np.diag(p) @ u.conj().T, u @ np.diag(q) @ u.conj().T


def _frame_contacts(e1, e2, kappa, t_star=math.pi / 4):
    """billiard._contacts of a hand-built frame whose e1^-1 e2 has the real
    eigenvalues ``kappa``.  On a geodesic() path e1^-1 e2 is similar to
    (M - cos t*) / sin t*, so the frame's M has mu = cos t* + sin t* kappa,
    passed in ascending order as eig(M) gives it."""
    path = GeodesicPath(e1=np.asarray(e1, complex), e2=np.asarray(e2, complex), t_star=t_star)
    mu = math.cos(t_star) + math.sin(t_star) * np.sort(np.asarray(kappa, dtype=float))
    return billiard._contacts(path, mu)


def _straddling_contacts():
    # roots at pi - 1e-8 and 1e-8 are 2e-8 apart on the pi-periodic circle
    return _frame_contacts(np.diag([1e-8, 1e-8, 1.0]), np.diag([1.0, -1.0, 1.0]),
                           [1e8, -1e8, 1.0])


def _geodesic_contacts(rho1, rho2):
    """billiard._contacts of the geodesic through a pair, from the pair's M."""
    pair = bures._pair(rho1, rho2)
    return billiard._contacts(pair.path, pair.eig_m.eigenvalues)


def test_near_coincident_contacts_are_resolved():
    # well above the merge tolerance: three simple contacts, none flagged
    report = verify_billiard_theorem(*_near_coincident_pair())
    assert report["multiplicities"] == [1, 1, 1]
    assert min(np.diff(report["bounce_ts"])) == pytest.approx(6.9e-4, rel=0.01)
    assert report["matched"]
    assert not report["flagged"]


def test_bounce_points_lie_on_the_boundary(rng):
    rho1 = random_invertible_density_matrix(3, rng)
    rho2 = random_invertible_density_matrix(3, rng)
    path = geodesic(rho1, rho2)
    report = verify_billiard_theorem(rho1, rho2)
    ts = report["bounce_ts"]
    assert len(ts) == 3
    for t, low, kernel in zip(ts, path.min_eigenvalue(np.array(ts)), report["kernel_states"]):
        assert 0.0 < t < math.pi
        assert abs(low) <= 1e-10
        # the kernel state is annihilated by the state at the contact
        assert np.linalg.norm(path.state(t) @ kernel) < 1e-8
        assert np.linalg.norm(kernel) == pytest.approx(1.0, abs=1e-12)


def _contact_groups_reference(ts):
    """The general clustering of billiard._contact_groups, without its fast
    path for well-separated roots, carrying each root's index in ``ts``."""
    index = np.argsort(ts, kind="stable")
    ts = ts[index]
    ends = np.flatnonzero(np.diff(ts, append=ts[:1] + np.pi) > billiard._MERGE_TOL)
    starts = np.roll(ends + 1, 1) % ts.size
    sizes = (ends - starts) % ts.size + 1
    order = np.argsort(ts[starts])
    return ts[starts][order], sizes[order], index[starts][order]


def test_contact_groups_fast_path_matches_the_general_path(rng):
    cases = [
        np.array([]),
        np.array([1.0]),
        np.array([0.0, math.pi - 1e-7]),
        np.array([2.0, 1.0, 2.0, 0.5]),  # equal roots: the lower index comes first
    ]
    for size in range(1, 13):
        for _ in range(20):
            cases.append(rng.uniform(0.0, math.pi, size))
        ts = rng.uniform(0.0, math.pi, size)
        ts[-1] = ts[0] + 0.5e-6  # one pair closer than the merge tolerance
        cases.append(ts % math.pi)
    fast = 0
    for ts in cases:
        got, want = billiard._contact_groups(ts), _contact_groups_reference(ts)
        for x, y in zip(got, want):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
        # each cluster's index names its first root
        assert ts[got[2]].tobytes() == got[0].tobytes()
        fast += bool(np.all(got[1] == 1))
    assert 0 < fast < len(cases)  # both paths ran
    _, sizes, index = billiard._contact_groups(np.array([2.0, 1.0, 2.0, 0.5]))
    assert sizes.tolist() == [1, 1, 2] and index.tolist() == [3, 1, 0]


@pytest.mark.parametrize("dim", [2, 3, 4, 8, 12])
def test_kernel_states_are_eig_hermitian_column_zero(dim):
    """The contacts phase-fix only the column they read, with the bits of
    eig_hermitian on the contact states: the kernels leave the library, so
    each has a real, positive entry of largest modulus."""
    rng = substream(dim, "billiard-kernels")
    for _ in range(5):
        rho1 = random_invertible_density_matrix(dim, rng)
        rho2 = random_invertible_density_matrix(dim, rng)
        report = verify_billiard_theorem(rho1, rho2)
        ts = report["bounce_ts"]
        _, vectors = eig_hermitian(geodesic(rho1, rho2).state(np.array(ts)))
        for t, size, kernel, v in zip(ts, report["multiplicities"], report["kernel_states"],
                                      vectors):
            assert type(t) is float and type(size) is int
            assert kernel.tobytes() == v[:, 0].tobytes()
            pivot = kernel[np.abs(kernel).argmax()]
            assert pivot.real > 0.0 and abs(pivot.imag) < 1e-12


def test_bounce_ts_are_sorted_and_distinct(rng):
    rho1 = random_invertible_density_matrix(4, rng)
    rho2 = random_invertible_density_matrix(4, rng)
    ts = verify_billiard_theorem(rho1, rho2)["bounce_ts"]
    assert ts == sorted(ts)
    assert min(np.diff(ts)) > 1e-6


def test_verify_theorem_on_random_states(rng):
    for dim in (2, 3, 4, 5):
        rho1 = random_invertible_density_matrix(dim, rng)
        rho2 = random_invertible_density_matrix(dim, rng)
        report = verify_billiard_theorem(rho1, rho2)
        assert report["dim"] == dim
        assert report["matched"], report
        assert not report["flagged"]
        assert report["max_infidelity"] <= 1e-6
        assert len(report["bounce_ts"]) == dim
        assert sorted(p["eigenvector"] for p in report["pairings"]) == list(range(dim))


def test_closed_form_pairing_matches_best_assignment():
    # the pairing read off atan2(sin t*, cos t* - mu_j) is the assignment
    # that maximizes the total squared overlap, found here by scipy alone
    linear_sum_assignment = pytest.importorskip("scipy.optimize").linear_sum_assignment
    rng = substream(6, "billiard-tests")
    for dim in range(2, 13):
        for _ in range(5):
            rho1 = random_invertible_density_matrix(dim, rng)
            rho2 = random_invertible_density_matrix(dim, rng)
            report = verify_billiard_theorem(rho1, rho2)
            assert not report["flagged"]
            _, vectors = eig_hermitian(fuchs_caves_operator(rho1, rho2))
            kernels = np.stack(report["kernel_states"])
            overlap2 = np.abs(kernels.conj() @ vectors) ** 2
            rows, cols = linear_sum_assignment(-overlap2)
            oracle = [
                {
                    "bounce": int(i),
                    "t": report["bounce_ts"][i],
                    "eigenvector": int(j),
                    "overlap2": float(overlap2[i, j]),
                }
                for i, j in zip(rows, cols)
            ]
            assert report["pairings"] == oracle
            assert report["matched"]


def test_pairing_is_circular_in_t():
    # kappa = 1e17 puts a contact at pi - 1e-17, which rounds to pi and is
    # reported at t = 0, first, yet keeps the eigenvector of the largest mu:
    # rank order would give it the 3pi/4 eigenvector
    ts, sizes, _, columns = _frame_contacts(np.diag([1e-17, 1.0]), np.eye(2), [1.0, 1e17])
    assert ts.tolist() == pytest.approx([0.0, 0.75 * math.pi], abs=1e-15)
    assert ts[0] == 0.0 and sizes.tolist() == [1, 1]
    assert columns.tolist() == [1, 0]


def test_matched_needs_a_one_to_one_pairing(monkeypatch):
    # a contact list that repeats one contact has N entries, each with full
    # overlap, but covers only one eigenvector of M
    rho1, rho2 = _diag_pair([0.7, 0.3], [0.4, 0.6])
    assert verify_billiard_theorem(rho1, rho2)["matched"]
    contacts = _geodesic_contacts(rho1, rho2)
    first_twice = tuple(array[[0, 0]] for array in contacts)
    monkeypatch.setattr(billiard, "_contacts", lambda path, mu: first_twice)
    report = verify_billiard_theorem(rho1, rho2)
    assert [p["eigenvector"] for p in report["pairings"]] == [0, 0]
    assert report["max_infidelity"] <= 1e-12
    assert not report["matched"]


def test_verify_theorem_builds_m_once(lapack_calls):
    # M comes from the geodesic: building it again through
    # fuchs_caves_operator cost 2 more eigh and 2 validating eigvalsh, and
    # the endpoint spectra were computed twice (6 eigh, 6 eigvalsh before).
    # One stacked eigh validates the pair and gives sqrt(rho1); the 2
    # validating eigvalsh and the eigh of rho1 were 3 calls (4 eigh and 2
    # eigvalsh before).  The contacts come from eig(M), with no solve and no
    # general eigvals of e1^-1 e2 (one of each before)
    rng = np.random.default_rng(4)
    rho1 = random_invertible_density_matrix(4, rng)
    rho2 = random_invertible_density_matrix(4, rng)
    calls = lapack_calls("eigh", "eigvalsh", "eigvals", "solve")
    report = verify_billiard_theorem(rho1, rho2)
    assert calls == {"eigh": 4}
    m_eigenvalues = eig_hermitian(fuchs_caves_operator(rho1, rho2)).eigenvalues
    assert np.array_equal(report["m_eigenvalues"], m_eigenvalues)


def _swap_two_eigenvalues(pair, rng):
    w, v = pair.eig_m
    return pair.path, (w[[1, 0, *range(2, w.size)]], v)


def _rotate_eigenvectors(pair, rng):
    # a fixed unitary of angle 1e-2: a rotation in the plane of columns 0, 1
    w, v = pair.eig_m
    rotation = np.eye(w.size, dtype=complex)
    c, s = math.cos(1e-2), math.sin(1e-2)
    rotation[:2, :2] = [[c, -s], [s, c]]
    return pair.path, (w, v @ rotation)


def _perturb_e2(pair, rng):
    # e2 moved off the geodesic frame by 1e-2 in Hilbert-Schmidt norm
    path = pair.path
    x = rng.standard_normal(path.e2.shape) + 1j * rng.standard_normal(path.e2.shape)
    e2 = path.e2 + 1e-2 * x / np.linalg.norm(x)
    return GeodesicPath(e1=path.e1, e2=e2, t_star=path.t_star), pair.eig_m


@pytest.mark.parametrize("mutate", [_swap_two_eigenvalues, _rotate_eigenvectors, _perturb_e2])
def test_a_mutated_pair_is_rejected(monkeypatch, mutate):
    # the contacts are read off eig(M), so the overlap check and the contact
    # check must still catch an eig(M) or a path that break the theorem
    rng = substream(9, "billiard-mutants")
    original = billiard._pair

    def mutant(rho1, rho2):
        path, eig_m = mutate(original(rho1, rho2), rng)
        return types.SimpleNamespace(path=path, eig_m=eig_m)

    monkeypatch.setattr(billiard, "_pair", mutant)
    for dim in range(2, 13):
        for _ in range(3):
            rho1 = random_invertible_density_matrix(dim, rng)
            rho2 = random_invertible_density_matrix(dim, rng)
            if mutate is _perturb_e2:
                try:
                    assert not verify_billiard_theorem(rho1, rho2)["matched"]
                except ScanFailureError:
                    pass
            else:
                assert not verify_billiard_theorem(rho1, rho2)["matched"]


def test_verify_theorem_commuting_case():
    rho1, rho2 = _diag_pair([0.5, 0.3, 0.2], [0.3, 0.2, 0.5])
    report = verify_billiard_theorem(rho1, rho2)
    assert report["matched"]
    m = fuchs_caves_operator(rho1, rho2)
    w, _ = eig_hermitian(m)
    assert np.allclose(report["m_eigenvalues"], w, atol=1e-12)


def test_degenerate_contact_is_flagged_and_merged():
    # equal likelihood ratios in two channels make two contacts coincide
    rho1, rho2 = _diag_pair([0.5, 0.3, 0.2], [0.25, 0.15, 0.6])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # reported as flagged, with no warning
        report = verify_billiard_theorem(rho1, rho2)
    assert len(report["bounce_ts"]) == 2
    assert sorted(report["multiplicities"]) == [1, 2]
    assert report["flagged"]
    assert not report["matched"]  # two contacts cannot cover three eigenvectors


def test_contacts_straddling_the_period_merge():
    ts, sizes, _, columns = _straddling_contacts()
    assert sizes.tolist() == [1, 2]
    assert ts.tolist() == pytest.approx([0.75 * math.pi, math.pi], abs=1e-7)
    # the merged contact keeps the column of its first root, pi - 1e-8
    assert columns.tolist() == [1, 2]


def _merged(contacts):
    """Whether ``contacts`` include one of multiplicity above 1."""
    return bool((contacts[1] > 1).any())


def test_flagged_means_a_merged_contact():
    # verify_billiard_theorem flags a pair exactly when its geodesic has a
    # contact of multiplicity above 1
    assert _merged(_straddling_contacts())
    for pair, flagged in (
        (_near_coincident_pair(), False),
        (_diag_pair([0.5, 0.3, 0.2], [0.25, 0.15, 0.6]), True),
    ):
        assert _merged(_geodesic_contacts(*pair)) is flagged
        assert verify_billiard_theorem(*pair)["flagged"] is flagged


def test_verify_theorem_passes_other_warnings_through(monkeypatch):
    # verify_billiard_theorem raises no warning of its own on a flagged
    # pair, and a warning raised inside it still shows
    original = billiard._contacts

    def noisy(path, mu):
        warnings.warn("unrelated", RuntimeWarning)
        return original(path, mu)

    monkeypatch.setattr(billiard, "_contacts", noisy)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = verify_billiard_theorem(*_diag_pair([0.5, 0.3, 0.2], [0.25, 0.15, 0.6]))
    assert report["flagged"]
    assert [w.category for w in caught] == [RuntimeWarning]


def _nearest_eigenvector(ts, t_star, mu):
    """For each t_i, the j whose atan2(sin t*, cos t* - mu_j) is nearest mod pi."""
    predicted = np.arctan2(np.sin(t_star), np.cos(t_star) - mu)
    gaps = np.abs(np.subtract.outer(ts, predicted))
    return np.argmin(np.minimum(gaps, np.pi - gaps), axis=1)


def _report_contact_by_contact(rho1, rho2):
    """verify_billiard_theorem's report assembled one contact at a time: each
    kernel state from eig_hermitian of the state at its contact, each
    pairing the eigenvector of M whose predicted contact is nearest."""
    pair = bures._pair(rho1, rho2)
    path = pair.path
    m_eigenvalues, m_vectors = pair.eig_m
    ts, sizes = billiard._contacts(path, m_eigenvalues)[:2]
    ts, sizes = [float(t) for t in ts], [int(size) for size in sizes]
    kernels = [eig_hermitian(path.state(t)).eigenvectors[:, 0] for t in ts]
    cols = _nearest_eigenvector(ts, path.t_star, m_eigenvalues)
    overlap2 = np.abs(np.stack(kernels).conj() @ m_vectors) ** 2
    pairings = [
        {
            "bounce": i,
            "t": ts[i],
            "eigenvector": int(j),
            "overlap2": float(overlap2[i, j]),
        }
        for i, j in enumerate(cols)
    ]
    return {
        "dim": path.dim,
        "matched": bool(
            len(set(cols.tolist())) == path.dim
            and all(p["overlap2"] >= 1.0 - 1e-6 for p in pairings)
        ),
        "flagged": any(size > 1 for size in sizes),
        "pairings": pairings,
        "max_infidelity": float(max(1.0 - p["overlap2"] for p in pairings)),
        "bounce_ts": ts,
        "multiplicities": sizes,
        "kernel_states": kernels,
        "m_eigenvalues": m_eigenvalues.copy(),
    }


def _bits(value):
    """A value with every float and array replaced by its type and bytes."""
    if isinstance(value, dict):
        return {key: _bits(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_bits(item) for item in value]
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, float):
        return float, value.hex()
    return type(value), value


@pytest.mark.parametrize("dim", range(2, 13))
def test_report_has_the_bits_of_the_bounce_point_route(dim):
    rng = substream(dim, "billiard-report")
    pairs = [
        (random_invertible_density_matrix(dim, rng), random_invertible_density_matrix(dim, rng))
        for _ in range(8)
    ]
    pairs.append(_diag_pair([0.5, 0.3, 0.2], [0.25, 0.15, 0.6]))  # flagged
    for rho1, rho2 in pairs:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the report warns of nothing
            report = verify_billiard_theorem(rho1, rho2)
        assert _bits(report) == _bits(_report_contact_by_contact(rho1, rho2))
    assert report["flagged"] and not report["matched"]


def test_merged_contacts_carry_their_multiplicity():
    # two pairs of equal likelihood ratios give two contacts of multiplicity 2
    p = np.array([0.4, 0.3, 0.2, 0.1])
    q = p * np.array([0.5, 0.5, 2.0, 2.0])
    for contacts, multiplicities in (
        (_geodesic_contacts(*_diag_pair(p, q / q.sum())), [2, 2]),
        (_geodesic_contacts(*_diag_pair([0.5, 0.3, 0.2], [0.25, 0.15, 0.6])), [1, 2]),
        (_straddling_contacts(), [1, 2]),
        (_geodesic_contacts(*_near_coincident_pair()), [1, 1, 1]),
    ):
        assert sorted(contacts[1].tolist()) == multiplicities


def test_scan_failure_when_circle_avoids_boundary():
    # a hand-built frame whose chord is unitary for every t: e1^-1 e2 has
    # eigenvalues +-i, and no real spectrum (their real parts 0, 0 first)
    # predicts a contact the frame makes
    e2 = np.array([[0.0, -1.0], [1.0, 0.0]])
    for kappa in ([0.0, 0.0], [-1.0, 1.0], [0.3, 20.0]):
        with pytest.raises(ScanFailureError, match="verified 0 vanishing eigenvalues"):
            _frame_contacts(np.eye(2), e2, kappa)


def _grid_scan(path, bounce_ts):
    """An oracle that shares no code with billiard._contacts: det C(t) on a
    2048-point grid over [0, pi), as (its sign changes, its largest relative
    imaginary part, its largest relative magnitude at ``bounce_ts``).

    det C(t) = det(e1) prod_i (cos t + kappa_i sin t) is real (up to
    roundoff) on a horizontal circle, and flips sign at each contact of odd
    multiplicity, unless another lies within the same grid step.
    """
    dets = np.linalg.det(path.chord(np.linspace(0.0, math.pi, 2048, endpoint=False)))
    scale = np.abs(dets).max()
    real = dets.real[np.abs(dets.real) > 1e-9 * scale]
    sign_changes = int(np.sum(np.sign(real[1:]) != np.sign(real[:-1])))
    at_contacts = np.abs(np.linalg.det(path.chord(np.array(bounce_ts)))).max()
    return sign_changes, np.abs(dets.imag).max() / scale, at_contacts / scale


def test_real_roots_check():
    # the grid sees as many sign changes as the report has contacts of odd
    # multiplicity, on random pairs and on a pair with a double contact
    rng = substream(8, "billiard-oracle")
    pairs = [
        (random_invertible_density_matrix(dim, rng), random_invertible_density_matrix(dim, rng))
        for dim in range(2, 13)
    ]
    pairs.append(_diag_pair([0.5, 0.3, 0.2], [0.25, 0.15, 0.6]))
    for rho1, rho2 in pairs:
        report = verify_billiard_theorem(rho1, rho2)
        sign_changes, complex_residual, contact_residual = _grid_scan(
            geodesic(rho1, rho2), report["bounce_ts"]
        )
        assert sign_changes == sum(size % 2 for size in report["multiplicities"])
        assert complex_residual < 1e-9
        assert contact_residual < 1e-6


def test_bounce_count_statistics():
    # the contact count equals the dimension for generic seeded pairs
    rng = substream(33, "billiard-tests")
    for _ in range(10):
        rho1 = random_invertible_density_matrix(3, rng)
        rho2 = random_invertible_density_matrix(3, rng)
        assert len(verify_billiard_theorem(rho1, rho2)["bounce_ts"]) == 3
