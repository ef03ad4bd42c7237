"""The stdout contract: replay the golden CLI corpus under tests/golden/.

Each recorded argv list runs in-process through ``cli.main`` from the corpus
directory, so the input paths in error messages match.  Bytes are compared
exactly or with number literals masked, by the platform's fingerprint; see
tests/golden/record.py.  The terminal summary names the mode that ran.
"""


def test_cli_replays_the_golden_corpus(golden, monkeypatch):
    monkeypatch.chdir(golden.HERE)
    cases, mode = golden.corpus()["cases"], golden.mode()
    changed = []
    for case in cases:
        code, stdout = golden.run(case["argv"])
        if code != case["exit"] or not golden.same_stdout(stdout, case["stdout"], mode):
            changed.append(" ".join(case["argv"]))
    assert not changed, f"{len(changed)} of {len(cases)} changed ({mode}): {changed[:5]}"


def test_masking_keeps_everything_but_numbers(golden):
    assert golden.masked('{"t": -1.5e-07, "n": [0, 12]}') == '{"t": #, "n": [#, #]}'
    assert golden.masked("t,re_0_0\n0,0.25\n") == "t,re_#_#\n#,#\n"
    assert golden.masked('{"a": true}') != golden.masked('{"b": true}')
