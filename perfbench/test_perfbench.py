"""Self-tests of the benchmark's arithmetic and tracer.

Run with: python -m pytest perfbench
"""

from __future__ import annotations

import sys
import types

import pytest

from metrics import class_median, op_metrics, self_times, spread, tail
from tracing import Tracer


def test_self_time_subtracts_direct_children_only():
    spans = [
        (0.0, 10.0, -1),  # root
        (1.0, 4.0, 0),    # child of root
        (2.0, 3.0, 1),    # grandchild: counted against span 1, not the root
        (5.0, 9.0, 0),    # second child of root
    ]
    assert self_times(spans) == pytest.approx([10 - 3 - 4, 3 - 1, 1, 4])


def test_self_times_sum_to_root_duration():
    spans = [(0.0, 8.0, -1), (0.5, 6.0, 0), (1.0, 2.0, 1), (2.5, 5.5, 1), (6.5, 7.0, 0)]
    assert sum(self_times(spans)) == pytest.approx(8.0)


def test_tail_has_ten_samples_beyond():
    xs = list(range(100, 0, -1))  # 1..100, unsorted
    value, percentile, beyond, n = tail(xs)
    assert value == 90 and sum(x > value for x in xs) == 10
    assert (percentile, beyond, n) == (90.0, 10, 100)


def test_tail_at_eleven_samples_is_the_minimum():
    value, percentile, beyond, n = tail([float(x) for x in range(11)])
    assert value == 0.0 and beyond == 10 and percentile == pytest.approx(100 / 11)


def test_tail_below_eleven_samples_falls_back_to_the_maximum():
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0, 3)
    with pytest.raises(ValueError):
        tail([])


def test_small_and_large_split_by_dimension():
    by_dim = {
        2: [1.0, 1.0, 9.0],
        4: [3.0, 3.0, 3.0],
        8: [5.0, 6.0, 7.0],
        16: [20.0, 20.0, 20.0],
        32: [40.0, 40.0, 50.0],
    }
    metrics, tail_info = op_metrics(by_dim, (2, 4), (16, 32))
    assert metrics["op_p50_ms.small"] == pytest.approx(1e3 * (1.0 + 3.0) / 2)
    assert metrics["op_p50_ms.large"] == pytest.approx(1e3 * (20.0 + 40.0) / 2)
    assert metrics["op_p50_ms"] == pytest.approx(6.0e3)
    assert metrics["ops_per_s"] == pytest.approx(5 / (1.0 + 3.0 + 6.0 + 20.0 + 40.0))
    assert metrics["ops_per_s.mean"] == pytest.approx(15 / 228.0)
    scaled, _ = op_metrics(by_dim, (2, 4), (16, 32), scale=0.5)
    assert scaled["op_p50_ms.large"] == pytest.approx(metrics["op_p50_ms.large"] / 2)
    assert scaled["ops_per_s"] == pytest.approx(2 * metrics["ops_per_s"])
    assert tail_info == {"percentile": pytest.approx(100 * 5 / 15), "beyond": 10, "samples": 15}


def test_class_median_ignores_the_gap_between_equal_classes():
    # Pooled, the median of two disjoint equal classes is set by the largest
    # sample of one and the smallest of the other: (4 + 100) / 2 here.
    by_dim = {2: [1.0, 2.0, 4.0], 8: [100.0, 110.0, 120.0]}
    assert class_median(by_dim) == pytest.approx((2.0 + 110.0) / 2)
    assert class_median(by_dim, (2, 3)) == 2.0
    with pytest.raises(ValueError):
        class_median(by_dim, (3,))


def test_spread_is_interquartile_share_of_median():
    assert spread([10.0] * 5) == 0.0
    assert spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx((4.5 - 1.5) / 3.0)


LINALG = """
__all__ = ["square", "fail", "helper"]

def square(x):
    return x * x

def fail(x):
    raise ValueError(x)

def helper(x):
    return square(x)
"""

BURES = """
from fakepkg.linalg import fail, helper, square

__all__ = ["angle"]

def angle(x):
    try:
        fail(x)
    except ValueError:
        pass
    return square(x) + helper(x)
"""


@pytest.fixture
def fake_package(monkeypatch):
    """A two-layer package whose ``bures`` imports copies from ``linalg``."""
    modules = []
    for name, source in (("fakepkg", ""), ("fakepkg.linalg", LINALG), ("fakepkg.bures", BURES)):
        module = types.ModuleType(name)
        monkeypatch.setitem(sys.modules, name, module)
        exec(source, module.__dict__)
        modules.append(module)
    pkg, linalg, bures = modules
    pkg.__all__ = ["angle"]
    pkg.angle = bures.angle
    return pkg, linalg, bures


def test_tracer_wraps_copies_counts_layers_and_restores(fake_package):
    pkg, linalg, bures = fake_package
    originals = (pkg.angle, bures.square, linalg.square)
    tracer = Tracer()
    tracer.install(package="fakepkg")
    try:
        assert pkg.angle is not originals[0] and bures.square is not originals[1]
        assert pkg.angle(3) == 18
    finally:
        tracer.remove()
    assert (pkg.angle, bures.square, linalg.square) == originals
    assert [s[0] for s in tracer.spans] == ["angle", "fail", "square", "helper", "square"]
    metrics = tracer.layer_metrics()
    assert metrics["bures.calls"] == 1 and metrics["linalg.calls"] == 4
    # fail's exception leaves linalg for bures: one error, at the boundary.
    assert metrics["linalg.errors"] == 1 and metrics["bures.errors"] == 0
    # Layers the package lacks, and billiard's absent scan, read zero.
    assert metrics["billiard.calls"] == 0 and tracer.counters["billiard.refinements"] == 0
    total = tracer.spans[0][3] - tracer.spans[0][2]
    assert metrics["bures.self_ms"] + metrics["linalg.self_ms"] == pytest.approx(total * 1e3)


@pytest.fixture
def sg(monkeypatch):
    """The library from this checkout's ``src``, as the worker imports it."""
    from pathlib import Path

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "src"))
    import statgeom
    import statgeom.serialize  # noqa: F401

    return statgeom


def test_inputs_repeat_for_a_seed_and_differ_between_requests():
    from workloads import PAIR_WORKLOADS

    workload = PAIR_WORKLOADS["state_pairs"]
    rho1, rho2, _ = workload.inputs(7, 3, 4)
    again1, again2, _ = workload.inputs(7, 3, 4)
    assert (rho1 == again1).all() and (rho2 == again2).all()
    for other in ((7, 4, 4), (8, 3, 4)):
        assert not (workload.inputs(*other)[0] == rho1).all()


def test_means_classical_check_passes_the_library_and_catches_a_wrong_order(sg):
    from workloads import PAIR_WORKLOADS

    workload = PAIR_WORKLOADS["means_classical"]
    for dim in workload.dims:
        args = workload.inputs(1729, 0, dim)
        out = workload.request(sg, *args)
        assert workload.check(sg, args[0], args[1], out)
        harmonic, geometric, arithmetic, *rest = out
        assert not workload.check(sg, args[0], args[1], (arithmetic, geometric, harmonic, *rest))
