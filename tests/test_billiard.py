"""Boundary contacts of geodesic great circles and the bounce theorem."""

import math
import warnings

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from statgeom import (
    DegenerateRootWarning,
    GeodesicPath,
    ScanFailureError,
    bounce_points,
    eig_hermitian,
    fidelity,
    fuchs_caves_operator,
    geodesic,
    random_invertible_density_matrix,
    random_unitary,
    real_roots_check,
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
    path = geodesic(*_diag_pair(p, q))
    points = bounce_points(path)
    predicted = _predicted_diagonal_bounces(p, q)
    assert len(points) == 2
    assert [pt.multiplicity for pt in points] == [1, 1]
    assert np.allclose([pt.t for pt in points], predicted, atol=1e-9)
    # kernels of a diagonal chord are the basis vectors
    for pt in points:
        weights = np.abs(pt.kernel_state)
        assert weights.max() == pytest.approx(1.0, abs=1e-8)


def test_commuting_bounces_match_trigonometry_to_roundoff():
    for p, q in (
        ([0.7, 0.3], [0.4, 0.6]),
        ([0.5, 0.3, 0.2], [0.3, 0.2, 0.5]),
        ([0.4, 0.3, 0.2, 0.1], [0.1, 0.2, 0.3, 0.4]),
    ):
        points = bounce_points(geodesic(*_diag_pair(p, q)))
        assert [pt.multiplicity for pt in points] == [1] * len(p)
        predicted = _predicted_diagonal_bounces(p, q)
        assert np.allclose([pt.t for pt in points], predicted, rtol=0.0, atol=1e-12)


def test_bounce_ts_match_the_spectrum_of_m():
    # t_i = atan2(s, c - mu_i) mod pi, with c = sqrt(F), s = sqrt(1 - F)
    rng = substream(5, "billiard-tests")
    for dim in range(2, 13):
        for _ in range(3):
            rho1 = random_invertible_density_matrix(dim, rng)
            rho2 = random_invertible_density_matrix(dim, rng)
            ts = [pt.t for pt in bounce_points(geodesic(rho1, rho2))]
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


def _straddling_path():
    # roots at pi - 1e-8 and 1e-8 are 2e-8 apart on the pi-periodic circle
    e1 = np.diag([1e-8, 1e-8, 1.0]).astype(complex)
    e2 = np.diag([1.0, -1.0, 1.0]).astype(complex)
    return GeodesicPath(e1=e1, e2=e2, t_star=math.pi / 4)


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
    points = bounce_points(path)
    assert len(points) == 3
    for pt in points:
        assert 0.0 < pt.t < math.pi
        assert abs(pt.min_eigenvalue) <= 1e-10
        # the kernel state is annihilated by the state at the contact
        assert np.linalg.norm(path.state(pt.t) @ pt.kernel_state) < 1e-8
        assert np.linalg.norm(pt.kernel_state) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(pt.rho_b, path.state(pt.t), atol=1e-12)


def _contact_groups_reference(ts):
    """The general clustering of billiard._contact_groups, without its fast
    path for well-separated roots."""
    ts = np.sort(ts)
    ends = np.flatnonzero(np.diff(ts, append=ts[:1] + np.pi) > billiard._MERGE_TOL)
    starts = np.roll(ends + 1, 1) % ts.size
    sizes = (ends - starts) % ts.size + 1
    order = np.argsort(ts[starts])
    return ts[starts][order], sizes[order]


def test_contact_groups_fast_path_matches_the_general_path(rng):
    cases = [np.array([]), np.array([1.0]), np.array([0.0, math.pi - 1e-7])]
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
        fast += bool(np.all(got[1] == 1))
    assert 0 < fast < len(cases)  # both paths ran


@pytest.mark.parametrize("dim", [2, 3, 4, 8, 12])
def test_kernel_states_are_eig_hermitian_column_zero(dim):
    """bounce_points phase-fixes only the column it reads, with the bits of
    eig_hermitian on the contact states."""
    rng = substream(dim, "billiard-kernels")
    for _ in range(5):
        path = geodesic(random_invertible_density_matrix(dim, rng),
                        random_invertible_density_matrix(dim, rng))
        points = bounce_points(path)
        _, vectors = eig_hermitian(np.stack([pt.rho_b for pt in points]))
        for pt, v in zip(points, vectors):
            assert type(pt.t) is float and type(pt.multiplicity) is int
            assert pt.kernel_state.tobytes() == v[:, 0].tobytes()


def test_bounce_ts_are_sorted_and_distinct(rng):
    rho1 = random_invertible_density_matrix(4, rng)
    rho2 = random_invertible_density_matrix(4, rng)
    ts = [pt.t for pt in bounce_points(geodesic(rho1, rho2))]
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
    # reported at t = 0, while its eigenvector's prediction stays near pi:
    # rank order or plain |t_i - t_j| would give it the 3pi/4 eigenvector
    e1 = np.diag([1e-17, 1.0]).astype(complex)
    e2 = np.eye(2, dtype=complex)
    path = GeodesicPath(e1=e1, e2=e2, t_star=math.pi / 4)
    ts = [pt.t for pt in bounce_points(path)]
    assert ts == pytest.approx([0.0, 0.75 * math.pi], abs=1e-15)
    # on a geodesic() path M = cos(t*) I + sin(t*) e1^-1 e2
    kappa = np.array([1.0, 1e17])
    mu = math.cos(path.t_star) + math.sin(path.t_star) * kappa
    assert billiard._pair_contacts(ts, path.t_star, mu).tolist() == [1, 0]


def test_matched_needs_a_one_to_one_pairing(monkeypatch):
    # a contact list that repeats one contact has N entries, each with full
    # overlap, but covers only one eigenvector of M
    rho1, rho2 = _diag_pair([0.7, 0.3], [0.4, 0.6])
    assert verify_billiard_theorem(rho1, rho2)["matched"]
    contacts = billiard._contacts(geodesic(rho1, rho2))
    first_twice = tuple(array[[0, 0]] for array in contacts)
    monkeypatch.setattr(billiard, "_contacts", lambda path: first_twice)
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
    # eigvalsh before)
    rng = np.random.default_rng(4)
    rho1 = random_invertible_density_matrix(4, rng)
    rho2 = random_invertible_density_matrix(4, rng)
    calls = lapack_calls("eigh", "eigvalsh")
    report = verify_billiard_theorem(rho1, rho2)
    assert calls == {"eigh": 4}
    m_eigenvalues = eig_hermitian(fuchs_caves_operator(rho1, rho2)).eigenvalues
    assert np.array_equal(report["m_eigenvalues"], m_eigenvalues)


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
    path = geodesic(rho1, rho2)
    with pytest.warns(DegenerateRootWarning):
        points = bounce_points(path)
    assert len(points) == 2
    assert sorted(pt.multiplicity for pt in points) == [1, 2]
    # verify_billiard_theorem reports it as flagged, with no warning
    report = verify_billiard_theorem(rho1, rho2)
    assert report["flagged"]
    assert not report["matched"]  # two contacts cannot cover three eigenvectors


def test_contacts_straddling_the_period_merge():
    with pytest.warns(DegenerateRootWarning):
        points = bounce_points(_straddling_path())
    assert [pt.multiplicity for pt in points] == [1, 2]
    assert [pt.t for pt in points] == pytest.approx([0.75 * math.pi, math.pi], abs=1e-7)


def _warned_and_merged(path):
    """Whether bounce_points warns, and whether it returns a multiple contact."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        points = bounce_points(path)
    warned = any(issubclass(w.category, DegenerateRootWarning) for w in caught)
    return warned, any(pt.multiplicity > 1 for pt in points)


def test_flagged_means_a_merged_contact():
    # bounce_points warns exactly when it returns a contact of multiplicity
    # above 1, which is what verify_billiard_theorem reports as flagged
    assert _warned_and_merged(_straddling_path()) == (True, True)
    for pair, flagged in (
        (_near_coincident_pair(), False),
        (_diag_pair([0.5, 0.3, 0.2], [0.25, 0.15, 0.6]), True),
    ):
        assert _warned_and_merged(geodesic(*pair)) == (flagged, flagged)
        assert verify_billiard_theorem(*pair)["flagged"] is flagged


def test_verify_theorem_passes_other_warnings_through(monkeypatch):
    # verify_billiard_theorem raises no DegenerateRootWarning of its own,
    # and any other warning still shows
    original = billiard._contacts

    def noisy(path):
        warnings.warn("unrelated", RuntimeWarning)
        return original(path)

    monkeypatch.setattr(billiard, "_contacts", noisy)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = verify_billiard_theorem(*_diag_pair([0.5, 0.3, 0.2], [0.25, 0.15, 0.6]))
    assert report["flagged"]
    assert [w.category for w in caught] == [RuntimeWarning]


def _report_from_bounce_points(rho1, rho2):
    """verify_billiard_theorem's report assembled from the BouncePoint list
    and the pair's eig(M), one contact at a time."""
    pair = bures._pair(rho1, rho2)
    path = pair.path
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateRootWarning)
        points = bounce_points(path)
    m_eigenvalues, m_vectors = pair.eig_m
    cols = billiard._pair_contacts([p.t for p in points], path.t_star, m_eigenvalues)
    kernels = np.stack([p.kernel_state for p in points])
    overlap2 = np.abs(kernels.conj() @ m_vectors) ** 2
    pairings = [
        {
            "bounce": i,
            "t": float(points[i].t),
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
        "flagged": any(p.multiplicity > 1 for p in points),
        "pairings": pairings,
        "max_infidelity": float(max(1.0 - p["overlap2"] for p in pairings)),
        "bounce_ts": [float(p.t) for p in points],
        "multiplicities": [int(p.multiplicity) for p in points],
        "kernel_states": [p.kernel_state for p in points],
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
        assert _bits(report) == _bits(_report_from_bounce_points(rho1, rho2))
    assert report["flagged"] and not report["matched"]


def test_bounce_points_warns_once_per_merged_contact():
    # two pairs of equal likelihood ratios give two contacts of multiplicity 2
    p = np.array([0.4, 0.3, 0.2, 0.1])
    q = p * np.array([0.5, 0.5, 2.0, 2.0])
    for path, multiplicities in (
        (geodesic(*_diag_pair(p, q / q.sum())), [2, 2]),
        (geodesic(*_diag_pair([0.5, 0.3, 0.2], [0.25, 0.15, 0.6])), [1, 2]),
        (_straddling_path(), [1, 2]),
        (geodesic(*_near_coincident_pair()), [1, 1, 1]),
    ):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            points = bounce_points(path)
        assert sorted(pt.multiplicity for pt in points) == multiplicities
        assert [str(w.message) for w in caught] == [
            f"{pt.multiplicity} contacts within 1e-06 of t = {pt.t:.9f} merged as a multiple root"
            for pt in points
            if pt.multiplicity > 1
        ]
        assert {w.category for w in caught} <= {DegenerateRootWarning}


def test_scan_failure_when_circle_avoids_boundary():
    # a hand-built frame whose chord is unitary for every t: no contacts
    e1 = np.eye(2, dtype=complex)
    e2 = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)
    path = GeodesicPath(e1=e1, e2=e2, t_star=math.pi / 4)
    with pytest.raises(ScanFailureError):
        bounce_points(path)


def test_real_roots_check(rng):
    rho1 = random_invertible_density_matrix(4, rng)
    rho2 = random_invertible_density_matrix(4, rng)
    path = geodesic(rho1, rho2)
    ts = [pt.t for pt in bounce_points(path)]
    report = real_roots_check(path, bounce_ts=ts)
    assert report["sign_changes"] == 4
    assert report["complex_det_residual"] < 1e-9
    assert report["bounce_det_residual"] < 1e-6


def test_bounce_count_statistics():
    # the contact count equals the dimension for generic seeded pairs
    rng = substream(33, "billiard-tests")
    for _ in range(10):
        rho1 = random_invertible_density_matrix(3, rng)
        rho2 = random_invertible_density_matrix(3, rng)
        points = bounce_points(geodesic(rho1, rho2))
        assert len(points) == 3
