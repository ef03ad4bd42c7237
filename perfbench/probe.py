"""Machine-speed probe: converts wall times to nominal-speed times.

On a machine shared with other tenants the same code runs up to twice as
fast in one second as in the next, and the average over a run of half a
minute still moves by 15-20% from run to run.  The probe times a fixed
reference op -- eigendecompositions of eight 8x8 complex matrices plus a
short Python loop, a mix like the library's own -- that is independent of
statgeom.  A run's times are multiplied by ``NOMINAL_S`` divided by the
median reference time measured during that run, so they read as times at
a fixed nominal machine speed.  The ratio of the library's time to the
reference time stays within about 3% while both move by 20%.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# The reference op's time at nominal speed, the unit of all scaled times.
NOMINAL_S = 250e-6

_rng = np.random.default_rng(0)
_GINIBRE = _rng.standard_normal((8, 8, 8)) + 1j * _rng.standard_normal((8, 8, 8))
_MATRICES = [g @ g.conj().T for g in _GINIBRE]
_eigh = np.linalg.eigh  # bound here, so a traced run's wrappers never see it


def reference() -> float:
    """Wall time in seconds of one reference op."""
    start = perf_counter()
    total = 0.0
    for m in _MATRICES:
        w, _ = _eigh(m)
        total += float(np.sqrt(np.abs(w)).sum())
        for k in range(50):
            total += k * 0.5
    return perf_counter() - start


def speed_scale(samples: int = 20) -> float:
    """Factor turning wall times measured now into nominal-speed times:
    ``NOMINAL_S`` over the median of ``samples`` reference ops."""
    return NOMINAL_S / statistics.median(reference() for _ in range(samples))


class SpeedProbe:
    """Reference-op samples taken during a timed region.

    The caller takes a sample between requests, outside their timing, at
    a steady pace through the region (once per round in the closed
    loops), so the samples follow the machine's speed as the work saw it.
    """

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> None:
        self.samples.append(reference())

    def scale(self) -> float:
        """Factor turning this region's wall times into nominal-speed times."""
        while len(self.samples) < 5:
            self.sample()
        return NOMINAL_S / statistics.median(self.samples)
