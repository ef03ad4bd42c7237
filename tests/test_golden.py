"""The stdout contract: replay the golden CLI corpus under tests/golden/.

Each recorded argv list runs in-process through ``cli.main`` from the corpus
directory, so the input paths in error messages match.  Bytes are compared
exactly or with number literals masked, by the platform's fingerprint; see
tests/golden/record.py.  The terminal summary names the mode that ran.
"""

import json
from importlib import resources

import jsonschema

SCHEMAS = resources.files("statgeom").joinpath("schemas")


def test_cli_replays_the_golden_corpus(golden, monkeypatch):
    monkeypatch.chdir(golden.HERE)
    cases, mode = golden.corpus()["cases"], golden.mode()
    changed = []
    for case in cases:
        code, stdout = golden.run(case["argv"])
        if code != case["exit"] or not golden.same_stdout(stdout, case["stdout"], mode):
            changed.append(" ".join(case["argv"]))
    assert not changed, f"{len(changed)} of {len(cases)} changed ({mode}): {changed[:5]}"


def test_every_recorded_json_stdout_validates(golden):
    # a failing call prints the error envelope; a passing one its command's
    # schema, or CSV where asked for
    validators = {}
    for case in golden.corpus()["cases"]:
        if case["exit"] == 0 and "csv" in case["argv"]:
            continue
        name = case["argv"][0] if case["exit"] == 0 else "error"
        if name not in validators:
            schema = json.loads(SCHEMAS.joinpath(f"{name}.schema.json").read_text())
            validators[name] = jsonschema.Draft202012Validator(schema)
        validators[name].validate(json.loads(case["stdout"]))


def test_masking_keeps_everything_but_numbers(golden):
    assert golden.masked('{"t": -1.5e-07, "n": [0, 12]}') == '{"t": #, "n": [#, #]}'
    assert golden.masked("t,re_0_0\n0,0.25\n") == "t,re_#_#\n#,#\n"
    assert golden.masked('{"a": true}') != golden.masked('{"b": true}')


def test_diff_counts_moved_cases_and_the_largest_change_per_field(golden):
    pairs = [
        ((0, '{"a": 1.0, "b": [2.0, 3.0]}\n'), (0, '{"a": 1.0, "b": [2.0, 3.5]}\n')),
        ((0, "same\n"), (0, "same\n")),
        ((1, "t,v\n0,0.25\n"), (1, "t,v\n0,0.5\n")),  # no JSON: every number, in order
        ((0, '{"a": 1}\n'), (1, '{"a": 1}\n')),  # another exit code
    ]
    assert golden.moves(pairs) == (
        "3 of 4 moved, 1 in more than numbers; largest change: (text) 0.25, b[] 0.5"
    )
    assert golden.moves(pairs[1:2]) == "0 of 1 moved"
