"""Command-line interface: payload schemas, determinism, exit codes."""

import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from statgeom.cli import _build_parser, main
from statgeom.serialize import parse_complex_matrix

ROOT = Path(__file__).resolve().parent.parent
SCHEMAS = resources.files("statgeom").joinpath("schemas")


def _schema(name):
    return json.loads(SCHEMAS.joinpath(f"{name}.schema.json").read_text())


def _validate(name, payload):
    jsonschema.validate(payload, _schema(name), cls=jsonschema.Draft202012Validator)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-inputs")

    def write(name, data):
        path = root / name
        path.write_text(json.dumps(data))
        return str(path)

    return {
        "p": write("p.json", [0.2, 0.3, 0.5]),
        "q": write("q.json", [0.4, 0.4, 0.2]),
        "a": write("a.json", [[2, 1], [1, 2]]),
        "b": write("b.json", [[3, 0], [0, 1]]),
        "rho1": write("rho1.json", [[0.6, [0.1, 0.05]], [[0.1, -0.05], 0.4]]),
        "rho2": write("rho2.json", [[0.5, 0], [0, 0.5]]),
        "drho": write("drho.json", [[0.01, 0], [0, -0.01]]),
        "pure": write("pure.json", [[1, 0], [0, 0]]),
        "nonherm": write("nonherm.json", [[0.5, 0.3], [0.0, 0.5]]),
        "trace2": write("trace2.json", [[1.2, 0.0], [0.0, 0.8]]),
        "qutrit": write("qutrit.json", [[0.5, 0, 0], [0, 0.3, 0], [0, 0, 0.2]]),
        "negative": write("negative.json", [[1.2, 0], [0, -0.2]]),
        "ragged": write("ragged.json", [[1, 0], [0]]),
        "rect": write("rect.json", [[0.5, 0, 0], [0, 0.5, 0]]),
        "missing": str(root / "missing.json"),
        "dir": str(root),
    }


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_json(capsys, name, *argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0, out
    payload = json.loads(out)
    _validate(name, payload)
    return payload


def test_classical_distance(capsys, files):
    payload = run_json(
        capsys, "classical-distance", "classical-distance", files["p"], files["q"]
    )
    assert 0.0 < payload["distance"] < 1.0


def test_jeffreys(capsys, files):
    payload = run_json(capsys, "jeffreys", "jeffreys", files["p"])
    assert payload["density"] > 0.0


def test_multinomial_experiment(capsys, files):
    payload = run_json(
        capsys,
        "multinomial-experiment",
        "multinomial-experiment",
        files["p"],
        "--samples", "1000",
        "--trials", "400",
        "--seed", "5",
    )
    assert payload["max_rel_err"] < 0.5
    assert payload["trials"] == 400


def test_monotone_stress(capsys, files):
    payload = run_json(
        capsys, "monotone-stress", "monotone-stress", "--trials", "200", "--seed", "5"
    )
    assert payload["violations"] == 0


def test_mean(capsys, files):
    payload = run_json(capsys, "mean", "mean", files["a"], files["b"])
    assert payload["f"] == "geometric"
    assert len(payload["mean"]) == 2


def test_monotone_metric(capsys, files):
    payload = run_json(
        capsys, "monotone-metric", "monotone-metric",
        files["rho1"], files["drho"], "--f", "harmonic",
    )
    assert payload["ds2"] > 0.0
    assert payload["f"] == "harmonic"


def test_fidelity(capsys, files):
    payload = run_json(capsys, "fidelity", "fidelity", files["rho1"], files["rho2"])
    assert 0.0 < payload["fidelity"] <= 1.0


def test_bures_distance(capsys, files):
    payload = run_json(
        capsys, "bures-distance", "bures-distance", files["rho1"], files["rho2"]
    )
    assert payload["angle"] > 0.0


def test_geodesic_json(capsys, files):
    payload = run_json(
        capsys, "geodesic", "geodesic",
        files["rho1"], files["rho2"], "--samples", "7",
    )
    assert len(payload["samples"]) == 7
    assert payload["samples"][0]["t"] == 0.0
    assert payload["samples"][-1]["t"] == pytest.approx(payload["t_star"])


def test_geodesic_csv(capsys, files):
    code, out = run_cli(
        capsys, "geodesic", files["rho1"], files["rho2"],
        "--samples", "5", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 6
    assert lines[0] == "t,re_0_0,im_0_0,re_0_1,im_0_1,re_1_0,im_1_0,re_1_1,im_1_1,lambda_min"


def test_optimal_measurement(capsys, files):
    payload = run_json(
        capsys, "optimal-measurement", "optimal-measurement",
        files["rho1"], files["rho2"],
    )
    assert payload["classical_angle"] == pytest.approx(
        payload["bures_angle"], abs=1e-9
    )


@pytest.mark.parametrize("dim", [2, 3, 4, 8, 16])
def test_m_eigenvectors_have_a_real_positive_largest_entry(capsys, dim):
    """eig(M) leaves the library here, so its phases are fixed: the entry of
    largest modulus of each column is real and positive."""
    inputs = Path(__file__).resolve().parent / "golden" / "inputs"
    for a, b in ("ab", "ba"):
        payload = run_json(
            capsys, "optimal-measurement", "optimal-measurement",
            str(inputs / f"s{dim}{a}.json"), str(inputs / f"s{dim}{b}.json"),
        )
        vectors = parse_complex_matrix(payload["m_eigenvectors"])
        for column in vectors.T:
            pivot = column[np.abs(column).argmax()]
            assert pivot.real > 0.0 and abs(pivot.imag) < 1e-12


def test_povm_search(capsys, files):
    payload = run_json(
        capsys, "povm-search", "povm-search",
        files["rho1"], files["rho2"],
    )
    assert payload["best_angle"] == pytest.approx(payload["bures_angle"], abs=1e-12)
    assert not payload["non_unique"]


def test_billiard_json(capsys, files):
    payload = run_json(capsys, "billiard", "billiard", "--dim", "3", "--seed", "11")
    assert payload["dim"] == 3
    assert payload["matched"]
    assert len(payload["bounce_ts"]) == 3
    assert payload["flags"] == []


def test_billiard_csv(capsys, files):
    code, out = run_cli(
        capsys, "billiard", "--dim", "2", "--seed", "11",
        "--format", "csv", "--samples", "64",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,lambda_min"
    assert len(lines) == 65


def test_output_is_byte_identical(capsys, files):
    _, first = run_cli(capsys, "billiard", "--dim", "3", "--seed", "7")
    _, second = run_cli(capsys, "billiard", "--dim", "3", "--seed", "7")
    assert first == second
    _, third = run_cli(capsys, "povm-search", files["rho1"], files["rho2"])
    _, fourth = run_cli(capsys, "povm-search", files["rho1"], files["rho2"])
    assert third == fourth


def test_out_flag_writes_file(capsys, files, tmp_path):
    target = tmp_path / "report.json"
    code, out = run_cli(
        capsys, "fidelity", files["rho1"], files["rho2"], "--out", str(target)
    )
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    _validate("fidelity", payload)


def test_verify_all_stub_passes(capsys, files, monkeypatch):
    def fake_run_all(seed):
        return [
            {
                "criterion": k,
                "name": f"stub-{k}",
                "seed": seed,
                "passed": True,
                "details": {"note": "stub"},
                "runtime_s": 0.0,
            }
            for k in range(1, 11)
        ]

    monkeypatch.setattr("statgeom.cli.run_all", fake_run_all)
    code = main(["verify-all", "--seed", "3"])
    captured = capsys.readouterr()
    assert code == 0
    payload = json.loads(captured.out)
    _validate("verify-all", payload)
    assert payload["all_passed"] is True
    assert payload["seed"] == 3
    assert "runtime_s" not in payload["criteria"][0]
    progress = [line for line in captured.err.splitlines() if "criterion" in line]
    assert len(progress) == 10
    assert all("PASS" in line for line in progress)


def test_verify_all_stub_failure_exits_2(capsys, files, monkeypatch):
    def fake_run_all(seed):
        reports = [
            {
                "criterion": k,
                "name": f"stub-{k}",
                "seed": seed,
                "passed": k != 4,
                "details": {},
                "runtime_s": 0.0,
            }
            for k in range(1, 11)
        ]
        return reports

    monkeypatch.setattr("statgeom.cli.run_all", fake_run_all)
    code, out = run_cli(capsys, "verify-all")
    assert code == 2
    payload = json.loads(out)
    _validate("verify-all", payload)
    assert payload["all_passed"] is False


@pytest.mark.parametrize(
    "argv",
    [
        ["classical-distance", "/nonexistent/p.json", "/nonexistent/q.json"],
        ["no-such-command"],
        ["mean", "a", "b", "--f", "quadratic"],
        ["monotone-stress", "--trials", "0"],
        ["fidelity"],
    ],
)
def test_validation_failures_exit_1(capsys, files, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 1
    payload = json.loads(out)
    _validate("error", payload)


def test_bad_tolerance_exits_1(capsys, files):
    code, out = run_cli(capsys, "monotone-stress", "--trials", "10", "--tol", "0")
    assert code == 1
    assert json.loads(out)["error"] == {
        "type": "ValidationError", "message": "--tol must be positive"
    }


@pytest.mark.parametrize(
    "argv, option",
    [
        # a numpy traceback, with nothing on stdout
        (["geodesic", "rho1", "rho2", "--samples", "-1"], "--samples"),
        # exit 0 with an empty "samples" list, which the schema forbids
        (["geodesic", "rho1", "rho2", "--samples", "0"], "--samples"),
        (["billiard", "--format", "csv", "--samples", "-1"], "--samples"),  # a traceback
        (["billiard", "--samples", "0"], "--samples"),  # unread by the JSON report
        (["billiard", "--dim", "-1"], "--dim"),  # a traceback
        (["billiard", "--dim", "0"], "--dim"),
    ],
)
def test_counts_below_one_exit_1(capsys, files, argv, option):
    code, out = run_cli(capsys, *(files.get(a, a) for a in argv))
    assert code == 1
    payload = json.loads(out)
    _validate("error", payload)
    assert payload["error"] == {"type": "ValidationError", "message": f"{option} must be >= 1"}


def test_negative_probability_exits_1(capsys, files, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("[0.5, -0.2, 0.7]")
    code, out = run_cli(capsys, "classical-distance", str(bad), files["p"])
    assert code == 1
    assert json.loads(out)["error"]["type"] == "ValidationError"


@pytest.mark.parametrize(
    "command", ["classical-distance", "jeffreys", "multinomial-experiment"]
)
@pytest.mark.parametrize("entries, total", [("NaN", "nan"), ("Infinity", "inf")])
def test_non_finite_probabilities_exit_1(capsys, files, tmp_path, command, entries, total):
    # classical-distance used to print pi/2 with exit 0, jeffreys a serializer
    # error or a BoundaryError, and multinomial-experiment a traceback
    bad = tmp_path / "bad.json"
    bad.write_text(f"[{entries}, 0.5, 0.5]")
    others = [files["p"]] if command == "classical-distance" else []
    code, out = run_cli(capsys, command, str(bad), *others)
    assert code == 1
    assert json.loads(out)["error"] == {
        "type": "ValidationError", "message": f"probability vector sums to {total}"
    }


def test_numerical_failures_exit_2(capsys, files):
    # geodesic from a singular endpoint
    code, out = run_cli(capsys, "geodesic", files["pure"], files["rho2"])
    assert code == 2
    payload = json.loads(out)
    _validate("error", payload)
    assert payload["error"]["type"] == "SingularError"

    # geodesic between identical states is direction-free
    code, out = run_cli(capsys, "geodesic", files["rho2"], files["rho2"])
    assert code == 2
    assert json.loads(out)["error"]["type"] == "DegenerateError"

    # likelihood-ratio operator needs an invertible first state
    code, out = run_cli(capsys, "optimal-measurement", files["pure"], files["rho2"])
    assert code == 2
    assert json.loads(out)["error"]["type"] == "SingularError"


def test_jeffreys_overflow_exits_2(capsys, tmp_path):
    point = tmp_path / "p500.json"
    p = np.random.default_rng(7).dirichlet(np.ones(500))
    point.write_text(json.dumps(p.tolist()))
    code, out = run_cli(capsys, "jeffreys", str(point))
    assert code == 2
    payload = json.loads(out)
    _validate("error", payload)
    assert payload["error"]["type"] == "NumericalError"


# each subcommand's positional files, as keys of the `files` fixture
_POSITIONAL = {
    "classical-distance": ["p", "q"],
    "jeffreys": ["p"],
    "multinomial-experiment": ["p"],
    "monotone-stress": [],
    "mean": ["a", "b"],
    "monotone-metric": ["rho1", "drho"],
    "fidelity": ["rho1", "rho2"],
    "bures-distance": ["rho1", "rho2"],
    "geodesic": ["rho1", "rho2"],
    "optimal-measurement": ["rho1", "rho2"],
    "povm-search": ["rho1", "rho2"],
    "billiard": [],
    "verify-all": [],
}
_SEEDED = {"multinomial-experiment", "monotone-stress", "billiard", "verify-all"}


@pytest.mark.parametrize("command", sorted(set(_POSITIONAL) - {"geodesic", "billiard"}))
def test_format_is_a_usage_error_where_unread(capsys, files, command):
    argv = [command, *(files[k] for k in _POSITIONAL[command]), "--format", "csv"]
    code, out = run_cli(capsys, *argv)
    assert code == 1
    payload = json.loads(out)
    _validate("error", payload)
    assert "--format" in payload["error"]["message"]


@pytest.mark.parametrize(
    "command, option",
    [(c, "--tol") for c in sorted(_POSITIONAL) if c != "monotone-stress"]
    + [(c, "--seed") for c in sorted(_POSITIONAL) if c not in _SEEDED],
)
def test_tol_and_seed_are_usage_errors_where_unread(capsys, files, command, option):
    argv = [command, *(files[k] for k in _POSITIONAL[command]), option, "3"]
    code, out = run_cli(capsys, *argv)
    assert code == 1
    payload = json.loads(out)
    _validate("error", payload)
    assert payload["error"]["message"] == f"unrecognized arguments: {option} 3"


def test_one_parser_serves_every_call(capsys, files):
    """main parses with one parser per process; a usage error, a failed
    command or another subcommand's defaults do not carry into the next call."""
    parser = _build_parser()
    first = run_cli(capsys, "geodesic", files["rho1"], files["rho2"], "--samples", "3")
    assert run_cli(capsys, "geodesic", files["rho1"])[0] == 1
    assert run_cli(capsys, "fidelity", files["rho1"], files["missing"])[0] == 1
    assert run_cli(capsys, "mean", files["a"], files["b"], "--f", "harmonic")[0] == 0
    assert run_cli(capsys, "geodesic", files["rho1"], files["rho2"], "--samples", "3") == first
    assert json.loads(run_cli(capsys, "mean", files["a"], files["b"])[1])["f"] == "geometric"
    assert _build_parser() is parser


def test_every_option_is_read_by_its_command():
    sub = next(a for a in _build_parser()._actions if a.choices)
    options = {
        name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
        for name, p in sub.choices.items()
    }
    assert options == {
        "classical-distance": {"--out"},
        "jeffreys": {"--out"},
        "multinomial-experiment": {"--out", "--seed", "--samples", "--trials"},
        "monotone-stress": {"--out", "--seed", "--trials", "--tol"},
        "mean": {"--out", "--f"},
        "monotone-metric": {"--out", "--f"},
        "fidelity": {"--out"},
        "bures-distance": {"--out"},
        "geodesic": {"--out", "--format", "--samples"},
        "optimal-measurement": {"--out"},
        "povm-search": {"--out"},
        "billiard": {"--out", "--format", "--seed", "--dim", "--samples"},
        "verify-all": {"--out", "--seed"},
    }
    assert sum(map(len, options.values())) == 28


def test_console_script_entry_point(files):
    result = subprocess.run(
        [sys.executable, "-m", "statgeom.cli", "fidelity", files["rho1"], files["rho2"]],
        capture_output=True,
        text=True,
        check=True,
    )
    payload = json.loads(result.stdout)
    _validate("fidelity", payload)


def _load_toml(path):
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with path.open("rb") as fh:
        return tomllib.load(fh)


def test_installed_script(files, tmp_path):
    """The declared `statgeom` console script runs by name and prints valid JSON.

    The script is built from the checkout's `[project.scripts]` table
    exactly as an installer writes it, so no install is needed. The test
    fails when the entry point is missing or misnamed, or when `main` no
    longer reads `sys.argv`.
    """
    scripts = _load_toml(ROOT / "pyproject.toml")["project"]["scripts"]
    assert "statgeom" in scripts
    bindir = tmp_path / "bin"
    bindir.mkdir()
    script = bindir / "statgeom"
    script.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        "from importlib.metadata import EntryPoint\n"
        f"entry = EntryPoint('statgeom', {scripts['statgeom']!r}, 'console_scripts')\n"
        "sys.exit(entry.load()())\n"
    )
    script.chmod(0o755)

    env = dict(os.environ)
    env["PATH"] = os.pathsep.join([str(bindir), env.get("PATH", "")])
    paths = [str(ROOT / "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    result = subprocess.run(
        ["statgeom", "bures-distance", files["rho1"], files["rho2"]],
        env=env,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    _validate("bures-distance", json.loads(result.stdout))


_STATE_COMMANDS = [
    ["fidelity"],
    ["bures-distance"],
    ["geodesic"],
    ["geodesic", "--format", "csv"],
    ["optimal-measurement"],
]
_MISSING = "cannot read {missing}: [Errno 2] No such file or directory: '{missing}'"


@pytest.mark.parametrize("command", _STATE_COMMANDS)
@pytest.mark.parametrize(
    "a, b, error",
    [
        ("nonherm", "rho2", ("ValidationError", "density matrix must be Hermitian")),
        (
            "rho1", "trace2",
            ("ValidationError", "density matrix trace is 2.0, expected 1"),
        ),
        (
            "rho1", "qutrit",
            ("DimensionMismatchError", "states have shapes (2, 2) and (3, 3)"),
        ),
        # both files are read before either is validated
        ("nonherm", "missing", ("ParseError", _MISSING)),
    ],
)
def test_state_commands_reject_bad_inputs(capsys, files, command, a, b, error):
    code, out = run_cli(capsys, *command, files[a], files[b])
    assert code == 1
    envelope = {"error": {"type": error[0], "message": error[1].format(**files)}}
    assert out == json.dumps(envelope, sort_keys=True) + "\n"


_AFTER_NEGATIVE = {
    # the second state's fault comes earlier in the checks than positivity
    "nonherm": ("ValidationError", "density matrix must be Hermitian"),
    "trace2": ("ValidationError", "density matrix trace is 2.0, expected 1"),
    # the second file is read before the first state is validated
    "ragged": ("ParseError", "{ragged}[1]: row has 1 entries, expected 2"),
    "qutrit": ("DimensionMismatchError", "states have shapes (2, 2) and (3, 3)"),
    "missing": ("ParseError", _MISSING),
}


@pytest.mark.parametrize("b", ["nonherm", "trace2", "ragged", "qutrit", "missing"])
def test_a_negative_first_state_is_reported_before_the_second_file(capsys, files, b):
    # the pair is checked check by check, and positivity is the last check:
    # a negative first state is reported only when nothing else is wrong
    code, out = run_cli(capsys, "fidelity", files["negative"], files[b])
    assert code == 1
    kind, message = _AFTER_NEGATIVE[b]
    envelope = {"error": {"type": kind, "message": message.format(**files)}}
    assert out == json.dumps(envelope, sort_keys=True) + "\n"


_NOT_SQUARE = "density matrix must be square, got shape (2, 3)"


@pytest.mark.parametrize(
    "a, b, error",
    [
        ("nonherm", "rho2", ("ValidationError", "density matrix must be Hermitian")),
        ("rho1", "trace2", ("ValidationError", "density matrix trace is 2.0, expected 1")),
        # the Bloch-vector check, not the shape check of the other commands
        ("rho1", "qutrit", ("DimensionMismatchError", "Bloch vector is defined for qubits only")),
        ("qutrit", "rho1", ("DimensionMismatchError", "Bloch vector is defined for qubits only")),
        # both files are read before the states are validated
        ("nonherm", "missing", ("ParseError", _MISSING)),
        # a state that is not square keeps the pair's error
        ("rect", "rho1", ("DimensionMismatchError", _NOT_SQUARE)),
        ("rho1", "rect", ("DimensionMismatchError", _NOT_SQUARE)),
    ],
)
def test_povm_search_rejects_bad_inputs(capsys, files, a, b, error):
    code, out = run_cli(capsys, "povm-search", files[a], files[b])
    assert code == 1
    envelope = {"error": {"type": error[0], "message": error[1].format(**files)}}
    assert out == json.dumps(envelope, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "command, expected",
    [
        # rho1's eigh and rho2's eigvalsh validate both files (one stacked
        # eigh did, whose rho2 eigenvectors nothing read), then what each
        # command computes; each command used to validate the files again
        # inside the library, then validated them with 2 eigvalsh and
        # decomposed them again for sqrt(rho1) and sqrt(rho2); F is summed
        # from the eigh of the core that M is formed from, where it took an
        # eigvalsh of its own
        (["fidelity"], {"eigh": 2, "eigvalsh": 1}),  # 5 eigvalsh, then 3 and 1 eigh, then 2
        (["bures-distance"], {"eigh": 2, "eigvalsh": 1}),  # as fidelity
        # 7 eigvalsh, then 3 and 2 eigh, then 2 eigh and the samples' eigvalsh
        (["geodesic", "--samples", "5"], {"eigh": 2, "eigvalsh": 2}),
        # 13 eigvalsh, then 4 before the Cholesky, then 3 and 4 eigh, then
        # 1 and 3, then 3 eigh
        (["optimal-measurement"], {"eigh": 3, "eigvalsh": 1}),
        # 7, then 3 and 1, then 1 and 1, then 2 eigh
        (["povm-search"], {"eigh": 2, "eigvalsh": 1}),
    ],
    ids=["fidelity", "bures-distance", "geodesic", "optimal-measurement", "povm-search"],
)
def test_state_commands_validate_each_file_once(
    capsys, files, lapack_calls, command, expected
):
    calls = lapack_calls("eigh", "eigvalsh", "cholesky")
    code, _ = run_cli(capsys, *command, files["rho1"], files["rho2"])
    assert code == 0
    # none validates a POVM: optimal-measurement reads the pair's own
    # projectors, which used to be proved positive by one Cholesky
    assert calls == expected


@pytest.mark.parametrize(
    "argv, expected",
    [
        # the library validates the sampled pair once, by rho1's eigh and
        # rho2's eigvalsh (one stacked eigh before); the CLI used to as well,
        # and then by one eigvalsh per state
        # 4 eigvalsh, then 2 and 4 eigh, then 4 eigh
        (["--dim", "3", "--seed", "0"], {"eigh": 4, "eigvalsh": 1}),
        # 5 eigvalsh, then 3 and 2 eigh, then 2 eigh and the scan's eigvalsh
        (["--dim", "3", "--seed", "0", "--format", "csv"], {"eigh": 2, "eigvalsh": 2}),
    ],
    ids=["json", "csv"],
)
def test_billiard_validates_the_sampled_pair_once(capsys, lapack_calls, argv, expected):
    calls = lapack_calls("eigh", "eigvalsh")
    code, _ = run_cli(capsys, "billiard", *argv)
    assert code == 0
    assert calls == expected
