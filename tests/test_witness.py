"""Witness search in the periodic model: candidates and budget."""

import json
import random
import sys

import pytest

from dvlg import oracle, selfcheck
from dvlg.cli import main
from dvlg.corpus import load_known_answers
from dvlg.errors import NotSentence, ResourceLimit, UnsupportedFragment
from dvlg.parser import parse
from dvlg.standard import FinStdStructure, GroupVector
from dvlg.syntax import print_formula

# false at every stage: a + a = a gives a = 0
NO_WITNESS = "exists a:G. a + a = a & ~(a = 0)"
# true at every stage, but no grid candidate has b = 3*a nonzero
NO_GRID_WITNESS = "exists a:G. exists b:G. 3*a = b & ~(b = 0)"


def _counted_oracle(monkeypatch):
    """The ground sizes of the search's decide_prepared calls."""
    sizes = []
    decide = selfcheck.decide_prepared

    def counted(struct, *args):
        sizes.append(struct.ground_size)
        return decide(struct, *args)

    monkeypatch.setattr(selfcheck, "decide_prepared", counted)
    return sizes


class TestWitnessSearch:
    def test_known_answers_candidates(self, monkeypatch):
        calls = []
        evaluate = selfcheck.eval_qf_periodic

        def counted(env, phi):
            calls.append(env)
            return evaluate(env, phi)

        monkeypatch.setattr(selfcheck, "eval_qf_periodic", counted)
        sizes = _counted_oracle(monkeypatch)
        found = 0
        for entry in load_known_answers():
            phi = parse(entry["formula"])
            if entry["expected_ec"] and selfcheck.is_purely_existential_g(phi):
                assert selfcheck.periodic_witness_search(phi) is not None
                found += 1
        # the matrix evaluation recurses with the same env; count envs.
        # Each witness lies in a stage that fits, so no oracle call.
        assert (found, len({id(env) for env in calls})) == (6, 17)
        assert sizes == []

    def test_budget_raises(self, monkeypatch):
        # 36 candidates at exponent 0; the oracle finds exponent 1 true
        monkeypatch.setattr(selfcheck, "WITNESS_MAX_CANDIDATES", 50)
        with pytest.raises(ResourceLimit, match="cap 50 reached at period exponent 1"):
            selfcheck.periodic_witness_search(parse(NO_GRID_WITNESS))

    def test_period_bound_without_cap(self):
        # 6 + 36 candidates at exponents 0 and 1, all below the cap
        assert selfcheck.periodic_witness_search(parse(NO_WITNESS), 1) is None

    def test_default_cap_ends_search(self):
        with pytest.raises(ResourceLimit, match="cap 10000 reached at period exponent 2"):
            selfcheck.periodic_witness_search(parse(NO_GRID_WITNESS))

    def test_oracle_ends_search_without_witness(self, monkeypatch):
        # exponents 0..2 fit in the cap (6 + 36 + 1,296 candidates); the
        # oracle finds each later stage up to WITNESS_EXACT_MAX_EXP false
        sizes = _counted_oracle(monkeypatch)
        assert selfcheck.periodic_witness_search(parse(NO_WITNESS)) is None
        assert sizes == [8, 16, 32, 64]

    @pytest.mark.parametrize("verdict", [True, ResourceLimit("oracle: DNF cap")])
    def test_search_as_before_unless_all_stages_false(self, monkeypatch, verdict):
        # exponent 2 (1,296 candidates) does not fit in 50 - 42; the
        # oracle finds 4 points false and then 8 points true or cannot
        # decide them, so the search enumerates from exponent 2 as it
        # would without the oracle
        sizes = []

        def oracle_at(struct, *args):
            sizes.append(struct.ground_size)
            if struct.ground_size == 4:
                return False
            if isinstance(verdict, Exception):
                raise verdict
            return verdict

        monkeypatch.setattr(selfcheck, "WITNESS_MAX_CANDIDATES", 50)
        monkeypatch.setattr(selfcheck, "decide_prepared", oracle_at)
        with pytest.raises(ResourceLimit, match="cap 50 reached at period exponent 2"):
            selfcheck.periodic_witness_search(parse(NO_WITNESS))
        assert sizes == [4, 8]

    def test_no_oracle_above_exact_max_exp(self, monkeypatch):
        # stages above WITNESS_EXACT_MAX_EXP are not decided, so no
        # verdict covers a search that reaches them
        sizes = _counted_oracle(monkeypatch)
        with pytest.raises(ResourceLimit, match="cap 10000 reached at period exponent 3"):
            selfcheck.periodic_witness_search(
                parse(NO_WITNESS), selfcheck.WITNESS_EXACT_MAX_EXP + 1
            )
        assert sizes == []


def test_cli_no_witness_exits_resource_limit(capsys):
    code = main(["model", "--op", "witness", NO_GRID_WITNESS])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert "candidate cap" in captured.err


def test_cli_no_witness_prints_false(capsys):
    code = main(["model", "--op", "witness", NO_WITNESS])
    captured = capsys.readouterr()
    assert code == 1 and captured.out.strip() == "false"
    assert captured.err == ""


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


# --- the oracle's verdict against the grid, on random sentences ---

def _gterm(rng, names, depth):
    if depth == 0 or rng.random() < 0.35:
        return rng.choice(names + ["0"])
    op = rng.randrange(5)
    a = _gterm(rng, names, depth - 1)
    if op == 0:
        return f"-({a})"
    if op == 1:
        return f"{rng.randint(2, 3)}*({a})"
    b = _gterm(rng, names, depth - 1)
    return f"({a}) {('+', 'meet', 'join')[op - 2]} ({b})"


def _lterm(rng, names):
    p = f"P({_gterm(rng, names, 2)})"
    op = rng.randrange(4)
    if op < 2:
        return f"compl({p})" if op else p
    return f"({p}) {('cap', 'cup')[op - 2]} (P({_gterm(rng, names, 1)}))"


def _atom(rng, names):
    kind = rng.randrange(4)
    if kind < 2:
        rel = ("<=", "=")[kind]
        return f"{_gterm(rng, names, 2)} {rel} {_gterm(rng, names, 2)}"
    rel = ("<<", "=")[kind - 2]
    return f"{_lterm(rng, names)} {rel} {_lterm(rng, names)}"


def _matrix(rng, names, depth):
    if depth == 0 or rng.random() < 0.3:
        a = _atom(rng, names)
        return f"~({a})" if rng.random() < 0.4 else f"({a})"
    op = rng.choice(["&", "&", "|"])
    return f"({_matrix(rng, names, depth - 1)}) {op} ({_matrix(rng, names, depth - 1)})"


def random_existential(rng) -> str:
    """A purely existential sentence in one to three group variables:
    group atoms over + - meet join n*, lattice atoms over P terms."""
    names = ["a", "b", "c"][: rng.randint(1, 3)]
    prefix = " ".join(f"exists {v}:G." for v in names)
    return f"{prefix} {_matrix(rng, names, 2)}"


def test_oracle_never_skips_a_stage_with_a_grid_witness():
    """The search skips a stage when decide_prepared finds it false, so
    a grid witness at a stage must come with a True verdict there. The
    search up to the last stage whose grid fits in 1,296 candidates
    (no oracle call) finds the first stage j with a grid witness; that
    witness, lifted, is a witness at every later stage, so the oracle,
    called as the search calls it, must find each stage from j up to
    WITNESS_EXACT_MAX_EXP true. The lifted witness must also hold at
    each of those stages under oracle.eval_qf, which shares no code
    with the search."""
    rng = random.Random(20261022)
    grid = len(selfcheck.WITNESS_GRID)
    checked = witnesses = 0
    for _ in range(300):
        phi = parse(random_existential(rng))
        names, matrix = selfcheck._existential_g_prefix(phi)
        last = max(k for k in range(3) if grid ** ((1 << k) * len(names)) <= 1296)
        witness = selfcheck.periodic_witness_search(phi, last)
        if witness is None:
            continue
        witnesses += 1
        first = max(f.k for f in witness.values())
        prepared = oracle.prepare(phi)
        for k in range(first, selfcheck.WITNESS_EXACT_MAX_EXP + 1):
            genv = {v: GroupVector(f.lift(k)) for v, f in witness.items()}
            assert oracle.eval_qf(
                FinStdStructure(1 << k), oracle.Assignment(genv, {}), matrix
            ), (print_formula(phi), k)
            try:
                verdict = oracle.decide_prepared(
                    FinStdStructure(1 << k), prepared, oracle.Assignment(),
                    {"max_n": 1 << k, "max_dnf": selfcheck.WITNESS_EXACT_MAX_DNF},
                )
            except ResourceLimit:
                break
            assert verdict, (print_formula(phi), k)
            checked += 1
    assert checked >= 1000 and witnesses >= 200
