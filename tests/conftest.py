"""Shared fixtures and the end-of-run acceptance scoreboard."""

import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from statgeom import bures, means

# one line per acceptance criterion, filled in by tests/test_acceptance.py
ACCEPTANCE_LINES = []
# the comparison mode of each test that used the golden corpus
GOLDEN_MODES = []


def _load_golden():
    """tests/golden/record.py, loaded by path, since tests/ is not a package."""
    spec = importlib.util.spec_from_file_location(
        "golden_record", Path(__file__).resolve().parent / "golden" / "record.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GOLDEN = _load_golden()


@pytest.fixture(autouse=True)
def empty_pair_memo():
    """Start each test with no remembered pair, as a new process does.

    The Bures views and the operator means each remember the last pair they
    validated; without this a call count would depend on which test ran
    before.
    """
    bures._pairs.entry = (None, None)
    means._pairs.entry = (None, None)


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


@pytest.fixture
def golden():
    """The recorded CLI corpus (tests/golden/record.py); the terminal summary
    names the comparison mode that ran."""
    GOLDEN_MODES.append(GOLDEN.mode())
    return GOLDEN


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
    if GOLDEN_MODES:
        terminalreporter.section("golden corpus")
        terminalreporter.write_line(
            f"stdout compared in {GOLDEN_MODES[0]} mode; fingerprint {GOLDEN.fingerprint()}"
        )
