"""Wall-clock fields are opt-in, so plain --json output is deterministic."""

import json

from dvlg.cli import main

SENTENCE = "forall v:G. exists b:G. b + b = v"


def run_json(capsys, *extra):
    code = main(["decide", "--json", *extra, SENTENCE])
    return code, capsys.readouterr().out


def test_json_without_timings_has_no_clock(capsys):
    code, out = run_json(capsys)
    assert code == 0 and json.loads(out)["stats"]["elapsed_ms"] is None
    assert run_json(capsys) == (code, out)


def test_timings_reports_elapsed(capsys):
    code, out = run_json(capsys, "--timings")
    elapsed = json.loads(out)["stats"]["elapsed_ms"]
    assert code == 0 and isinstance(elapsed, int) and elapsed >= 0
