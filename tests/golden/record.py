"""Record the golden CLI corpus that ``tests/test_golden.py`` replays.

    PYTHONPATH=src python tests/golden/record.py

writes ``inputs/`` (seeded with numpy's own generator, so the files do not
depend on statgeom), then runs every argv list of :func:`cases` in-process
through ``statgeom.cli.main`` from this directory and stores its exit code
and stdout in ``cli.json``, with the fingerprint of the numpy and BLAS that
made the bytes.  ``verify-all --seed S`` goes to ``verify-all-S.txt`` for
each S of :data:`VERIFY_ALL_SEEDS`; ``tests/test_acceptance.py`` compares
seed 1729 through the reports it computes, and

    PYTHONPATH=src python tests/golden/record.py --compare SEED FILE

compares a saved ``verify-all --seed SEED`` stdout with its golden file
(exit 1 if it differs), as CI does for every seed.  After recording,

    PYTHONPATH=src python tests/golden/record.py --diff OLD/cli.json

prints, for each command, how many cases moved against a copy of the corpus
as it was, and the largest change of each numeric field (a JSON key path,
or ``(text)`` for CSV and other stdout), then the argv and the old and new
exit code and stdout of each case that moved in more than numbers (an error
that changed, say); then how many cases were added, and likewise for each
``verify-all-S.txt`` found next to OLD/cli.json.  The tests reach this
module through the ``golden`` fixture of ``tests/conftest.py``.

Exact bytes are compared only where numpy, its BLAS and the machine match
the recorded fingerprint, since eigensolvers round differently elsewhere.
Otherwise exit codes and each stdout with every number literal masked must
match: keys, strings, structure and the count of numbers.  Strings are
masked too, because error messages carry computed floats, and a float that
prints as 0 cannot be told from an integer.

Record only to make a deliberate output change, and show the diff of these
files next to its CHANGES.md entry.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import re
import sys
from pathlib import Path

import numpy as np

from statgeom.cli import main as cli_main

HERE = Path(__file__).resolve().parent
# the seeds whose verify-all stdout is recorded; each must pass
VERIFY_ALL_SEEDS = (1729, 1, 2)
_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")


def fingerprint() -> dict:
    """What the exact bytes depend on: numpy, its BLAS, and the machine."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
    }


def corpus() -> dict:
    """The recorded fingerprint and cases of ``cli.json``."""
    return json.loads((HERE / "cli.json").read_text())


def mode() -> str:
    """'exact' where this platform matches the recorded fingerprint, else 'masked'."""
    return "exact" if corpus()["fingerprint"] == fingerprint() else "masked"


def masked(text: str) -> str:
    """``text`` with each number literal replaced by '#'."""
    return _NUMBER.sub("#", text)


def same_stdout(got: str, expected: str, how: str) -> bool:
    """Compare in the mode :func:`mode` gives (see the module docstring)."""
    return got == expected if how == "exact" else masked(got) == masked(expected)


def run(argv: list[str]) -> tuple[int, str]:
    """(exit code, stdout) of one CLI call, made in-process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(argv)
    return code, out.getvalue()


def _matrix(m) -> list:
    """Rows of reals, or [re, im] where an entry is complex."""
    m = np.asarray(m, dtype=complex)
    return [[z.real if z.imag == 0 else [z.real, z.imag] for z in row.tolist()] for row in m]


def _state(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    rho = 0.85 * rho / np.trace(rho).real + 0.15 * np.eye(dim) / dim
    return (rho + rho.conj().T) / 2


def write_inputs() -> None:
    rng = np.random.default_rng(20261018)
    states = {f"s{dim}{tag}": _state(dim, rng) for dim in (2, 3, 4) for tag in "ab"}
    # drawn after the small states, so those keep their values
    states.update({f"s{dim}{tag}": _state(dim, rng) for dim in (8, 16) for tag in "ab"})
    files = {name: _matrix(rho) for name, rho in states.items()}
    files.update(
        pure2=[[1, 0], [0, 0]],
        singular3=[[0.5, 0, 0], [0, 0.5, 0], [0, 0, 0]],
        diag3=[[0.5, 0, 0], [0, 0.3, 0], [0, 0, 0.2]],
        nonherm2=[[0.5, 0.3], [0.0, 0.5]],
        trace2=[[1.2, 0.0], [0.0, 0.8]],
        negative2=[[1.1, 0.0], [0.0, -0.1]],
        ragged=[[1, 0], [0]],
        rect=[[0.5, 0, 0], [0, 0.5, 0]],
        bool2=[[True, 0], [0, 1]],
        pd2a=[[2, 1], [1, 2]],
        pd2b=[[3, [0, 1]], [[0, -1], 1]],
        pd3a=_matrix(states["s3a"] * 3),
        pd3b=_matrix(states["s3b"] * 2),
        notpsd2=[[1, 0], [0, -0.5]],
        drho2=[[0.01, [0.002, -0.001]], [[0.002, 0.001], -0.01]],
        drho3=[[0.01, 0, 0.003], [0, -0.004, 0], [0.003, 0, -0.006]],
        badtrace_drho2=[[0.01, 0], [0, 0.01]],
        p3=[0.2, 0.3, 0.5],
        q3=[0.4, 0.4, 0.2],
        p4=[0.1, 0.2, 0.3, 0.4],
        pneg=[1.2, -0.2, 0.0],
        psum=[0.2, 0.2, 0.2],
        pbool=[0.5, True],
        pstr=[0.5, "0.5"],
        pempty=[],
        p500=[0.002] * 500,
        # off-diagonal entries with -0.0 real parts, the signed zeros that
        # hermitian_part must keep on both sides of each conjugate pair
        negzero2=[[0.6, [-0.0, 0.2]], [[-0.0, -0.2], 0.4]],
        negzero3=[[0.5, [-0.0, 0.1], [-0.0, -0.05]],
                  [[-0.0, -0.1], 0.3, [-0.0, 0.08]],
                  [[-0.0, 0.05], [-0.0, -0.08], 0.2]],
    )
    (HERE / "inputs").mkdir(exist_ok=True)
    for name, data in files.items():
        (HERE / "inputs" / f"{name}.json").write_text(json.dumps(data) + "\n")
    (HERE / "inputs" / "unparsable.json").write_text("{,}\n")
    (HERE / "inputs" / "nan2.json").write_text("[[NaN, 0], [0, 1]]\n")
    (HERE / "inputs" / "pnan.json").write_text("[NaN, 0.5, 0.5]\n")
    (HERE / "inputs" / "inf2.json").write_text("[[Infinity, 0], [0, 0.5]]\n")


def cases() -> list[list[str]]:
    """Every argv list: each subcommand, JSON and CSV, exits 0, 1 and 2."""
    f = lambda name: f"inputs/{name}.json"  # noqa: E731
    out = []
    pairs = [("s2a", "s2b"), ("s3a", "s3b"), ("s4a", "s4b"), ("s2b", "s2a"),
             ("diag3", "s3a"), ("s2a", "pure2"), ("pure2", "s2a"), ("singular3", "s3b"),
             ("diag3", "diag3"), ("s2a", "s3a")]
    for bad in ("nonherm2", "trace2", "negative2", "ragged", "rect", "bool2",
                "unparsable", "nan2", "missing"):
        pairs.append((bad, "s2a"))
        out.append(["fidelity", f("s2b"), f(bad)])
    for a, b in pairs:
        for command in ("fidelity", "bures-distance", "optimal-measurement"):
            out.append([command, f(a), f(b)])
        out.append(["geodesic", f(a), f(b), "--samples", "4"])
        out.append(["geodesic", f(a), f(b), "--samples", "3", "--format", "csv"])
        out.append(["povm-search", f(a), f(b), "--grid", "12"])
    for a, b in (("pd2a", "pd2b"), ("pd3a", "pd3b"), ("pd2b", "pd2a")):
        for mean in ("arithmetic", "geometric", "harmonic"):
            out.append(["mean", f(a), f(b), "--f", mean])
    for a, b in (("pd2a", "pd2b"), ("pure2", "pd2a"), ("pd2a", "notpsd2"),
                 ("nonherm2", "pd2a"), ("pd2a", "pd3a"), ("ragged", "pd2a")):
        out.append(["mean", f(a), f(b)])
    for metric in ("arithmetic", "geometric", "harmonic"):
        out.append(["monotone-metric", f("s2a"), f("drho2"), "--f", metric])
        out.append(["monotone-metric", f("s3a"), f("drho3"), "--f", metric])
    for rho, drho in (("pure2", "drho2"), ("s2a", "badtrace_drho2"), ("s2a", "drho3"),
                      ("trace2", "drho2")):
        out.append(["monotone-metric", f(rho), f(drho)])
    vectors = ("p3", "p4", "pneg", "psum", "pbool", "pstr", "pempty", "pnan",
               "unparsable", "missing")
    for p in vectors:
        out.append(["classical-distance", f(p), f("q3")])
        out.append(["jeffreys", f(p)])
        out.append(["multinomial-experiment", f(p), "--samples", "100", "--trials", "8",
                    "--seed", "3"])
    out.append(["classical-distance", f("q3"), f("p4")])
    out.append(["jeffreys", f("p500")])
    out.append(["multinomial-experiment", f("p3"), "--trials", "0"])
    out.append(["multinomial-experiment", f("p3"), "--samples", "50"])
    out.append(["monotone-stress", "--trials", "16", "--seed", "4"])
    out.append(["monotone-stress", "--trials", "16", "--seed", "4", "--tol", "0"])
    for dim in ("1", "2", "3"):
        for fmt in ("json", "csv"):
            out.append(["billiard", "--dim", dim, "--seed", "5", "--samples", "6",
                        "--format", fmt])
    # the contact report's bits above d = 3
    for dim in ("8", "12"):
        out.append(["billiard", "--dim", dim, "--seed", "5", "--samples", "6",
                    "--format", "json"])
    out += [
        ["verify-all", "--seed", "x"],
        ["verify-all", "--format", "csv"],
        ["fidelity", f("s2a")],
        ["geodesic", f("s2a"), f("s2b"), "--format", "xml"],
        ["nonsense"],
        [],
    ]
    # states with signed zeros, and a coincident pair that is not diagonal
    for a, b in (("negzero2", "s2a"), ("s2a", "negzero2"), ("negzero3", "s3a"),
                 ("s3a", "negzero3"), ("s3a", "s3a")):
        for command in ("fidelity", "bures-distance", "optimal-measurement"):
            out.append([command, f(a), f(b)])
        out.append(["geodesic", f(a), f(b), "--samples", "4"])
    for a, b, drho in (("negzero2", "s2a", "drho2"), ("negzero3", "s3a", "drho3")):
        for mean in ("arithmetic", "geometric", "harmonic"):
            out.append(["mean", f(a), f(b), "--f", mean])
        out.append(["monotone-metric", f(a), f(drho)])
    # larger states, where the optimal measurement has 8 and 16 projectors
    for a, b in (("s8a", "s8b"), ("s8b", "s8a"), ("s16a", "s16b"), ("s16b", "s16a")):
        for command in ("fidelity", "bures-distance", "optimal-measurement"):
            out.append([command, f(a), f(b)])
        out.append(["geodesic", f(a), f(b), "--samples", "4"])
    # pairs with two faults: which one is reported is the order of the checks
    for a, b in (("trace2", "nonherm2"), ("negative2", "nonherm2"), ("s3a", "nonherm2"),
                 ("nonherm2", "missing")):
        out.append(["fidelity", f(a), f(b)])
        out.append(["geodesic", f(a), f(b), "--samples", "4"])
    out.append(["povm-search", f("s3a"), f("trace2"), "--grid", "12"])
    # an infinite entry is not Hermitian: inf - inf is NaN in A - A†
    out.append(["fidelity", f("inf2"), f("inf2")])
    out.append(["mean", f("inf2"), f("pd2a")])
    out.append(["monotone-metric", f("inf2"), f("drho2")])
    return out


def compare(seed: str, path: str) -> int:
    """0 if the stdout saved at ``path`` matches ``verify-all-<seed>.txt``."""
    how = mode()
    same = same_stdout(Path(path).read_text(), (HERE / f"verify-all-{seed}.txt").read_text(), how)
    print(f"verify-all --seed {seed}: {'same' if same else 'CHANGED'} ({how})", file=sys.stderr)
    return 0 if same else 1


def numbers(text: str) -> dict:
    """{field: its numbers, in order} of one stdout: JSON numbers by key
    path (``[]`` marks a list), else every number literal under ``(text)``."""
    try:
        data = json.loads(text)
    except ValueError:
        return {"(text)": [float(x) for x in _NUMBER.findall(text)]}
    fields = {}

    def walk(node, path):
        if isinstance(node, dict):
            for key, value in node.items():
                walk(value, f"{path}.{key}" if path else key)
        elif isinstance(node, list):
            for value in node:
                walk(value, path + "[]")
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            fields.setdefault(path, []).append(float(node))

    walk(data, "")
    return fields


def reshaped_case(before, after) -> bool:
    """True when (exit code, stdout) moved in more than numbers."""
    return before[0] != after[0] or masked(before[1]) != masked(after[1])


def _brief(stdout: str) -> str:
    text = stdout.strip()
    return text if len(text) <= 200 else text[:197] + "..."


def moves(pairs) -> str:
    """'m of n moved' for pairs of (exit code, stdout), old and new, with the
    largest change per numeric field."""
    pairs = list(pairs)
    moved = [(a, b) for a, b in pairs if a != b]
    largest, reshaped = {}, 0
    for (exit_a, a), (exit_b, b) in moved:
        if reshaped_case((exit_a, a), (exit_b, b)):
            reshaped += 1
            continue
        new = numbers(b)
        for field, values in numbers(a).items():
            change = max(abs(x - y) for x, y in zip(values, new[field]))
            largest[field] = max(largest.get(field, 0.0), change)
    text = f"{len(moved)} of {len(pairs)} moved"
    if reshaped:
        text += f", {reshaped} in more than numbers"
    changes = [f"{field} {v:.2g}" for field, v in sorted(largest.items()) if v]
    return text + ("; largest change: " + ", ".join(changes) if changes else "")


def diff(old_path: str) -> None:
    """Print what moved from the corpus at ``old_path`` to the recorded one."""
    old_cases = json.loads(Path(old_path).read_text())["cases"]
    old = {tuple(case["argv"]): case for case in old_cases}
    by_command, added = {}, 0
    for case in corpus()["cases"]:
        before = old.get(tuple(case["argv"]))
        if before is None:
            added += 1
            continue
        pair = ((before["exit"], before["stdout"]), (case["exit"], case["stdout"]))
        by_command.setdefault(case["argv"][0] if case["argv"] else "(none)", []).append(
            (case["argv"], pair))
    for command, cases in by_command.items():
        print(f"{command}: {moves(pair for _, pair in cases)}")
        for argv, (before, after) in cases:
            if reshaped_case(before, after):
                print(f"  {' '.join(argv)}")
                print(f"    old: exit {before[0]}, {_brief(before[1])}")
                print(f"    new: exit {after[0]}, {_brief(after[1])}")
    if added:
        print(f"{added} cases added")
    for seed in VERIFY_ALL_SEEDS:
        before = Path(old_path).parent / f"verify-all-{seed}.txt"
        if before.exists():
            after = (HERE / f"verify-all-{seed}.txt").read_text()
            print(f"verify-all --seed {seed}: {moves([((0, before.read_text()), (0, after))])}")


def main() -> None:
    if sys.argv[1:2] == ["--compare"]:
        raise SystemExit(compare(*sys.argv[2:4]))
    if sys.argv[1:2] == ["--diff"]:
        return diff(sys.argv[2])
    write_inputs()
    os.chdir(HERE)
    recorded = []
    for argv in cases():
        code, stdout = run(argv)
        recorded.append({"argv": argv, "exit": code, "stdout": stdout})
    text = json.dumps({"fingerprint": fingerprint(), "cases": recorded}, indent=1)
    (HERE / "cli.json").write_text(text + "\n")
    for seed in VERIFY_ALL_SEEDS:
        code, stdout = run(["verify-all", "--seed", str(seed)])
        if code != 0:
            raise SystemExit(f"verify-all must pass at seed {seed}")
        (HERE / f"verify-all-{seed}.txt").write_text(stdout)
    exits = sorted({case["exit"] for case in recorded})
    print(f"{len(recorded)} cases, exits {exits}", file=sys.stderr)


if __name__ == "__main__":
    main()
