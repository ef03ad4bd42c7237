"""Summary statistics shared by run.py, its worker and the self-tests.

Standard library only.
"""

from __future__ import annotations

import statistics

# The tail is the highest percentile with at least this many samples above it.
TAIL_BEYOND = 10


def tail(samples) -> tuple[float, float, int, int]:
    """Highest percentile of ``samples`` with at least ten samples beyond it.

    Returns ``(value, percentile, beyond, n)``.  With n samples sorted
    ascending, the value at 0-based rank n - 11 has exactly ten samples
    above it when there are no ties, so its percentile is 100 (n - 10) / n.
    Below eleven samples no percentile qualifies; the maximum is returned
    as percentile 100 with the true (smaller) count beyond it, 0.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("tail of an empty sample")
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, 0, n
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND, n


def class_median(by_class: dict, classes=None) -> float:
    """Median of per-class medians over ``classes`` (all classes by default).

    A workload mixes request classes (dimensions, or acceptance criteria)
    in equal shares.  When the classes do not overlap and their number is
    even, the plain median of the pooled samples falls in the gap between
    the two middle classes and is set by their extreme samples; the median
    of the class medians is set by their centres instead.
    """
    keys = list(by_class) if classes is None else [c for c in classes if c in by_class]
    medians = [statistics.median(by_class[k]) for k in keys if by_class[k]]
    if not medians:
        raise ValueError("no samples in the requested classes")
    return statistics.median(medians)


def spread(values) -> float:
    """Interquartile distance of ``values`` as a share of their median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus its direct children's.

    ``spans`` is a sequence of ``(start, end, parent)`` where ``parent``
    is the index of the enclosing span or -1.  Spans come from one thread
    and nest strictly, so the direct children of a span cover disjoint
    parts of it and their durations can simply be summed.
    """
    covered = [0.0] * len(spans)
    for start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - c for (start, end, _), c in zip(spans, covered)]


def op_metrics(by_class: dict, small, large, scale: float = 1.0) -> tuple[dict, dict]:
    """The end-to-end op metrics of one closed-loop run.

    ``by_class`` maps each request class to its latencies in seconds.
    ``ops_per_s`` is the rate of a loop that issues one request of each
    class at that class's median latency; ``ops_per_s.mean`` divides the
    requests by their total time instead.  Making inputs and checking
    outputs count in neither.  Every time is multiplied by ``scale`` (see
    probe.py).  Returns the metrics and the tail's percentile and sample
    counts.
    """
    samples = [x for xs in by_class.values() for x in xs]
    value, percentile, beyond, n = tail(samples)
    medians = [statistics.median(xs) for xs in by_class.values() if xs]
    metrics = {
        "ops_per_s": len(medians) / (sum(medians) * scale),
        "ops_per_s.mean": n / (sum(samples) * scale),
        "op_p50_ms": class_median(by_class) * scale * 1e3,
        "op_tail_ms": value * scale * 1e3,
        "op_p50_ms.small": class_median(by_class, small) * scale * 1e3,
        "op_p50_ms.large": class_median(by_class, large) * scale * 1e3,
    }
    return metrics, {"percentile": percentile, "beyond": beyond, "samples": n}
