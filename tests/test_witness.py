"""Witness search in the periodic model: candidates and budget."""

import json
import sys

import pytest

from dvlg import selfcheck
from dvlg.cli import main
from dvlg.corpus import load_known_answers
from dvlg.errors import NotSentence, ResourceLimit, UnsupportedFragment
from dvlg.parser import parse

NO_WITNESS = "exists a:G. a + a = a & ~(a = 0)"


class TestWitnessSearch:
    def test_known_answers_candidates(self, monkeypatch):
        calls = []
        evaluate = selfcheck.eval_qf_periodic

        def counted(env, phi):
            calls.append(env)
            return evaluate(env, phi)

        monkeypatch.setattr(selfcheck, "eval_qf_periodic", counted)
        found = 0
        for entry in load_known_answers():
            phi = parse(entry["formula"])
            if entry["expected_ec"] and selfcheck.is_purely_existential_g(phi):
                assert selfcheck.periodic_witness_search(phi) is not None
                found += 1
        # the matrix evaluation recurses with the same env; count envs
        assert (found, len({id(env) for env in calls})) == (6, 17)

    def test_budget_raises(self, monkeypatch):
        monkeypatch.setattr(selfcheck, "WITNESS_MAX_CANDIDATES", 50)
        with pytest.raises(ResourceLimit, match="cap 50 reached at period exponent 2"):
            selfcheck.periodic_witness_search(parse(NO_WITNESS))

    def test_period_bound_without_cap(self):
        # 6 + 36 candidates at exponents 0 and 1, all below the cap
        assert selfcheck.periodic_witness_search(parse(NO_WITNESS), 1) is None

    def test_default_cap_ends_search(self):
        with pytest.raises(ResourceLimit, match="period exponent 3"):
            selfcheck.periodic_witness_search(parse(NO_WITNESS))


def test_cli_no_witness_exits_resource_limit(capsys):
    code = main(["model", "--op", "witness", NO_WITNESS])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert "candidate cap" in captured.err


def test_cli_witness_under_a_run_of_unary_minus(capsys):
    # eval_term keeps its own stack, so 1,000 nested Neg nodes cost no
    # Python frames
    assert sys.getrecursionlimit() == 1000
    code = main(["model", "--op", "witness", "exists a:G. " + "-" * 1000 + "a = a"])
    captured = capsys.readouterr()
    assert code == 0
    assert json.loads(captured.out) == {"a": {"k": 0, "vals": ["-2"]}}


def test_cli_empty_prefix_prints_empty_witness(capsys):
    # a true sentence with no group prefix has the empty witness
    code = main(["model", "--op", "witness", "0 <= 0"])
    captured = capsys.readouterr()
    assert code == 0 and captured.out.strip() == "{}"


@pytest.mark.parametrize("text", [
    "forall a:G. a <= a",
    "exists a:G. exists l:L. P(a) = l",
])
def test_quantified_matrix_unsupported(text, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(selfcheck, "eval_qf_periodic", lambda env, phi: calls.append(env))
    with pytest.raises(UnsupportedFragment):
        selfcheck.periodic_witness_search(parse(text))
    assert calls == []  # raised before the first candidate
    code = main(["model", "--op", "witness", text])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("unsupported fragment:")


def test_free_variable_not_a_sentence(capsys):
    text = "exists a:G. a <= b"
    with pytest.raises(NotSentence, match="b"):
        selfcheck.periodic_witness_search(parse(text))
    code = main(["model", "--op", "witness", text])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1
