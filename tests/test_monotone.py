"""Monotone-metric family on density matrices."""

import math

import numpy as np
import pytest

from statgeom import (
    BoundaryError,
    DomainError,
    ValidationError,
    density_matrix,
    f_conditions_check,
    fisher_rao_ds2,
    monotone_ds2,
    qubit_bures_ds2,
    qubit_perturbation,
    qubit_state,
    random_density_matrix,
    random_traceless_hermitian,
    substream,
    tangent_perturbation,
)


def test_density_matrix_validation():
    rho = density_matrix(np.diag([0.5, 0.5]))
    assert rho.dtype == complex
    with pytest.raises(ValidationError):
        density_matrix(np.diag([0.6, 0.6]))  # trace 1.2
    with pytest.raises(ValidationError):
        density_matrix(np.array([[0.5, 0.5], [0.0, 0.5]]))  # not Hermitian
    with pytest.raises(ValidationError):
        density_matrix(np.diag([1.5, -0.5]))  # negative eigenvalue


def test_tangent_perturbation_validation():
    ok = tangent_perturbation(np.diag([0.1, -0.1]))
    assert np.allclose(ok, np.diag([0.1, -0.1]))
    with pytest.raises(ValidationError):
        tangent_perturbation(np.diag([0.1, 0.1]))  # trace 0.2
    with pytest.raises(ValidationError):
        tangent_perturbation(np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_off_diagonal_hand_values():
    # rho = diag(l1, l2), drho = x (|1><2| + |2><1|):
    # ds^2 = x^2 / (2 l2 f(l1/l2))
    rho = np.diag([0.6, 0.4])
    x = 0.1
    drho = np.array([[0.0, x], [x, 0.0]])
    assert monotone_ds2(rho, drho, "arithmetic") == pytest.approx(
        x**2 / (0.6 + 0.4), rel=1e-12
    )
    assert monotone_ds2(rho, drho, "geometric") == pytest.approx(
        0.5 * x**2 / math.sqrt(0.6 * 0.4), rel=1e-12
    )
    assert monotone_ds2(rho, drho, "harmonic") == pytest.approx(
        0.25 * x**2 * (0.6 + 0.4) / (0.6 * 0.4), rel=1e-12
    )


def test_diagonal_sector_reduces_to_fisher_rao():
    p = np.array([0.5, 0.3, 0.2])
    dp = np.array([0.02, -0.015, -0.005])
    classical = fisher_rao_ds2(p, dp)
    for name in ("arithmetic", "geometric", "harmonic"):
        quantum = monotone_ds2(np.diag(p), np.diag(dp), name)
        assert quantum == pytest.approx(classical, rel=1e-12)


def test_bures_is_smallest_of_the_family(rng):
    # larger f means smaller metric: arithmetic <= geometric <= harmonic
    for _ in range(20):
        rho = 0.7 * random_density_matrix(3, rng) + 0.3 * np.eye(3) / 3
        drho = 0.01 * random_traceless_hermitian(3, rng)
        bures = monotone_ds2(rho, drho, "arithmetic")
        geo = monotone_ds2(rho, drho, "geometric")
        harm = monotone_ds2(rho, drho, "harmonic")
        assert bures <= geo + 1e-15
        assert geo <= harm + 1e-15


def test_arithmetic_matches_qubit_closed_form(rng):
    for _ in range(20):
        r = rng.uniform(-0.5, 0.5, size=3)
        dr = rng.uniform(-0.01, 0.01, size=3)
        via_family = monotone_ds2(
            qubit_state(*r), qubit_perturbation(*dr), "arithmetic"
        )
        via_bloch = qubit_bures_ds2(*r, *dr)
        assert via_family == pytest.approx(via_bloch, rel=1e-10)


def test_monotone_ds2_rejects_boundary_states():
    with pytest.raises(BoundaryError):
        monotone_ds2(np.diag([1.0, 0.0]), np.diag([0.1, -0.1]), "geometric")


def test_monotone_ds2_shape_mismatch():
    with pytest.raises(ValidationError):
        monotone_ds2(np.eye(3) / 3, np.diag([0.1, -0.1]))


def test_monotone_ds2_decomposes_the_state_once(lapack_calls):
    # one eigh validates rho, positivity included, and gives the metric its
    # eigenbasis; it was an eigvalsh to check positivity, then that eigh
    rng = np.random.default_rng(31)
    rho = random_density_matrix(4, rng)
    drho = random_traceless_hermitian(4, rng)
    calls = lapack_calls("eigh", "eigvalsh")
    monotone_ds2(rho, drho, "geometric")
    assert dict(calls) == {"eigh": 1}
    # the state, positivity included, is still checked before the perturbation
    with pytest.raises(ValidationError, match="negative eigenvalue"):
        monotone_ds2(np.diag([1.2, -0.2]), np.array([[0.0, 1.0], [0.0, 0.0]]))


def _wigner_yanase(t):
    return ((1.0 + np.sqrt(t)) / 2.0) ** 2


def _kubo_mori(t):
    """(t - 1)/ln t, with its limit 1 at t = 1."""
    t = np.asarray(t, dtype=float)
    return np.divide(t - 1.0, np.log(t), out=np.ones_like(t), where=t != 1.0)


def test_f_conditions_named_trio():
    for f, divergent in (
        ("arithmetic", False),
        ("geometric", True),
        ("harmonic", True),
        (_wigner_yanase, False),  # f(0) = 1/4
        (_kubo_mori, True),  # f(0) = 0, though f(1e-14) = 0.031
    ):
        report = f_conditions_check(f)
        assert report["all_pass"], report
        assert report["operator_monotone"]
        assert report["witness"] is None
        assert report["symmetric"]
        assert report["normalized"]
        assert report["boundary_divergent"] is divergent


# Löwner's verdicts on functions the metric family is and is not built from;
# the exponents of t^1.001 and t^-0.01 miss [0, 1] by little
LOWNER_VERDICTS = {
    "arithmetic": ("arithmetic", True),
    "geometric": ("geometric", True),
    "harmonic": ("harmonic", True),
    "wigner-yanase": (_wigner_yanase, True),
    "kubo-mori": (_kubo_mori, True),
    "log1p": (np.log1p, True),
    "t^0.3": (lambda t: t**0.3, True),
    "constant": (np.ones_like, True),  # f' = 0: the diagonal is left unscaled
    "t^2": (np.square, False),
    "t^1.5": (lambda t: t**1.5, False),
    "rms": (lambda t: np.sqrt((1.0 + t * t) / 2.0), False),
    "t^1.1": (lambda t: t**1.1, False),
    "t^1.01": (lambda t: t**1.01, False),
    "t^1.001": (lambda t: t**1.001, False),
    "t^-0.01": (lambda t: t**-0.01, False),
}


@pytest.mark.parametrize("name", LOWNER_VERDICTS)
def test_f_conditions_operator_monotone_verdicts(name):
    f, monotone = LOWNER_VERDICTS[name]
    report = f_conditions_check(f)
    assert report["operator_monotone"] is monotone
    assert (report["witness"] is None) is monotone


def test_f_conditions_rejects_f_undefined_on_the_grid():
    with pytest.raises(DomainError):
        f_conditions_check(lambda t: np.log(t - 0.5))  # NaN below t = 0.5


def test_f_conditions_flag_normalization_and_symmetry():
    report = f_conditions_check(lambda t: (1.0 + t) / 2.0)
    assert report["normalized"] and report["symmetric"]
    report = f_conditions_check(lambda t: t)  # f(1) = 1 but not symmetric
    assert report["normalized"] and not report["symmetric"]
    report = f_conditions_check(lambda t: 2.0 * t / (1.0 + t) + 0.1)  # f(1) != 1
    assert not report["normalized"] and not report["symmetric"]


def test_f_conditions_flag_or_reject_nan():
    with np.errstate(divide="ignore", invalid="ignore"):
        # (t - 1)/ln t is 0/0 = NaN at t = 1, which the Löwner grid misses
        report = f_conditions_check(lambda t: (t - 1.0) / np.log(t))
        assert report["operator_monotone"]
        assert not report["normalized"] and not report["symmetric"]  # NaN fails both
        assert not report["all_pass"]
        for f in (lambda t: t * np.nan, lambda t: np.where(t == 1.0, 1.0, np.nan)):
            with pytest.raises(DomainError, match="not finite"):
                f_conditions_check(f)


def test_f_conditions_is_deterministic():
    first = f_conditions_check(lambda t: t**1.001)
    assert f_conditions_check(lambda t: t**1.001) == first


def test_f_conditions_reject_square():
    report = f_conditions_check(lambda t: t**2)
    assert not report["all_pass"]
    assert not report["operator_monotone"]
    # the Löwner matrix of t^2 is [x_i + x_j]; on the witness points alone it
    # already has a negative eigenvalue
    x = np.array(report["witness"])
    assert x.size >= 2 and np.all((x >= 1e-3) & (x <= 1e3))
    assert np.linalg.eigvalsh(x[:, None] + x)[0] < 0.0
    assert not report["symmetric"]
    assert report["normalized"]  # f(1) = 1 still holds


def test_f_conditions_reject_asymmetric():
    # monotone and normalized, but fails the f(1/t) = f(t)/t identity
    report = f_conditions_check(lambda t: t**0.3)
    assert report["operator_monotone"]
    assert not report["symmetric"]
    assert not report["all_pass"]
