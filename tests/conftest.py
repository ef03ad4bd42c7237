"""Shared fixtures and the end-of-run acceptance scoreboard."""

from collections import Counter

import numpy as np
import pytest

from statgeom import bures

# one line per acceptance criterion, filled in by tests/test_acceptance.py
ACCEPTANCE_LINES = []


@pytest.fixture(autouse=True)
def empty_pair_memo():
    """Start each test with no remembered state pair, as a new process does.

    The Bures views remember the last pair they validated; without this a
    call count would depend on which test ran before.
    """
    bures._last = (None, None)


@pytest.fixture
def rng():
    """Fresh deterministic generator for a single test."""
    return np.random.default_rng(20260819)


@pytest.fixture
def lapack_calls(monkeypatch):
    """Count calls of ``np.linalg`` routines for the rest of the test.

    ``counts = lapack_calls("eigh", "eigvalsh")`` wraps each named routine
    and returns one Counter that they all add to; clear it between calls.
    """
    counts = Counter()

    def counted(name):
        routine = getattr(np.linalg, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return routine(*args, **kwargs)

        return wrapper

    def install(*names):
        for name in names:
            monkeypatch.setattr(np.linalg, name, counted(name))
        return counts

    return install


@pytest.fixture(scope="session")
def scoreboard():
    return ACCEPTANCE_LINES


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
