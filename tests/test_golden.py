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
