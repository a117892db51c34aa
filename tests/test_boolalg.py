"""Atomless-Boolean-algebra engine and the bounded checker interval_check."""

import random
import sys

import pytest

from dvlg import boolalg
from dvlg import syntax as S
from dvlg.boolalg import (
    _BDD,
    _conj,
    _dnf,
    _exists,
    ba_decide,
    ba_qe,
    interval_check,
)
from dvlg.cli import main
from dvlg.corpus import gen_lattice_corpus
from dvlg.errors import DepthExceeded, NotLatticeSorted, ResourceLimit
from dvlg.parser import parse
from dvlg.reduction import reduce
from dvlg.syntax import free_vars

ATOMLESS = (
    "forall x:L. (~(x = bot)) -> "
    "(exists y:L. ~(y = bot) & y << x & ~(y = x))"
)


def _equivalent(phi, psi, var="l"):
    """Closed equivalence sentence decided in the atomless theory."""
    both = S.And(S.Implies(phi, psi), S.Implies(psi, phi))
    return ba_decide(S.Forall(var, S.L, both))


class TestBaQe:
    def test_strict_subelement(self):
        phi = parse("exists y:L. y << l & ~(y = bot) & ~(y = l)", {"l": S.L})
        out = ba_qe(phi)
        assert not any(isinstance(n, (S.Exists, S.Forall)) for n in S.nodes(out))
        assert set(free_vars(out)) <= {"l"}
        expected = parse("~(l = bot)", {"l": S.L})
        assert _equivalent(out, expected)

    def test_complement_exists(self):
        phi = parse("exists y:L. y cap l = bot & y cup l = top", {"l": S.L})
        assert _equivalent(ba_qe(phi), S.TRUE)

    def test_trivial_witness(self):
        phi = parse("exists y:L. y = l", {"l": S.L})
        assert _equivalent(ba_qe(phi), S.TRUE)

    def test_quantifier_free_output_everywhere(self):
        phi = parse(
            "forall y:L. exists z:L. z << y cap l & (y = bot -> z = bot)",
            {"l": S.L},
        )
        out = ba_qe(phi)
        assert not any(isinstance(n, (S.Exists, S.Forall)) for n in S.nodes(out))
        assert set(free_vars(out)) <= {"l"}

    def test_shadowed_names(self):
        # the inner y is top and the outer one is not; l is free outside
        assert ba_decide(parse("exists y:L. ~(y = top) & (exists y:L. y = top)"))
        phi = parse("l = top & (forall l:L. l cup compl(l) = top)", {"l": S.L})
        assert _equivalent(ba_qe(phi), parse("l = top", {"l": S.L}))

    def test_group_atoms_rejected(self):
        with pytest.raises(NotLatticeSorted):
            ba_qe(parse("exists a:G. a <= 0"))

    def test_cap_names_phase_and_size(self, monkeypatch):
        # three two-way disjunctions over six bases: 8 distinct conjunctions
        phi = parse(
            "(a = bot | b = bot) & (c = bot | d = bot) & (e = bot | f = bot)",
            dict.fromkeys("abcdef", S.L),
        )
        monkeypatch.setattr(boolalg, "QE_MAX_CONJUNCTIONS", 8)
        ba_qe(phi)  # exactly at the cap: no error
        monkeypatch.setattr(boolalg, "QE_MAX_CONJUNCTIONS", 4)
        with pytest.raises(ResourceLimit, match=(
            r"^ba_qe: minterm DNF cap 4 reached at \d+ conjunctions "
            r"over 6 bases$"
        )):
            ba_qe(phi)


def _store(width):
    """A store with the bases b0..b(width-1) placed, b0 lowest."""
    bdd = _BDD()
    for j in range(width):
        bdd.place(S.LVar(f"b{j}"))
    return bdd


def _random_term(rng, bases, depth=4):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([*bases, S.Bot(), S.Top()])
    kind = rng.choice([S.LMeet, S.LJoin, S.Compl])
    if kind is S.Compl:
        return S.Compl(_random_term(rng, bases, depth - 1))
    return kind(_random_term(rng, bases, depth - 1),
                _random_term(rng, bases, depth - 1))


def _holds(t, bases, i):
    """Whether minterm i lies inside term t: minterm i of bases
    b_0..b_m-1 lies inside b_j exactly when bit j of i is set."""
    if isinstance(t, S.LVar):
        return bool(i >> bases.index(t) & 1)
    if isinstance(t, (S.Bot, S.Top)):
        return isinstance(t, S.Top)
    if isinstance(t, S.Compl):
        return not _holds(t.arg, bases, i)
    left, right = _holds(t.left, bases, i), _holds(t.right, bases, i)
    return left and right if isinstance(t, S.LMeet) else left or right


def _table(bdd, u):
    """The truth table of node u as a mask over the minterms, read by
    walking the node from its root for each minterm."""
    mask = 0
    for i in range(1 << len(bdd.bases)):
        v = u
        while v > 1:
            level, lo, hi = bdd.nodes[v]
            v = hi if i >> level & 1 else lo
        mask |= v << i
    return mask


def _from_table(bdd, mask):
    """The node of the join of the minterms in mask, built with node()."""
    bases = bdd.bases
    minterms = [
        [b if i >> j & 1 else S.Compl(b) for j, b in enumerate(bases)]
        for i in range(1 << len(bases)) if mask >> i & 1
    ]
    term = S.Bot()
    for lits in minterms:
        m = S.Top()
        for lit in lits:
            m = S.LMeet(m, lit)
        term = S.LJoin(term, m)
    return bdd.node(term)


def _restrict(mask, width, j, bit):
    """The truth table with base j fixed to bit."""
    return sum((mask >> (i & ~(1 << j) | bit << j) & 1) << i
               for i in range(1 << width))


def _check_smooth(bdd, u, mask, j):
    """smooth of node u, whose truth table is mask, at base j: the meet
    and the join of its two cofactors there."""
    width = len(bdd.bases)
    lo, hi = (_restrict(mask, width, j, bit) for bit in (0, 1))
    assert _table(bdd, bdd.smooth(u, j, 0)) == lo & hi
    assert _table(bdd, bdd.smooth(u, j, 1)) == lo | hi


class TestBddKernels:
    """The BDD operations against per-minterm truth tables."""

    def test_term_nodes_match_minterms(self):
        rng = random.Random(20261018)
        for width in range(7):
            bdd = _store(width)
            for _ in range(40):
                t = _random_term(rng, bdd.bases)
                ref = sum(_holds(t, bdd.bases, i) << i for i in range(1 << width))
                assert _table(bdd, bdd.node(t)) == ref

    def test_canonical(self):
        rng = random.Random(3)
        for width in range(7):
            bdd = _store(width)
            ids = {}
            for _ in range(200):
                u = bdd.node(_random_term(rng, bdd.bases, depth=5))
                ids.setdefault(_table(bdd, u), set()).add(u)
            # one id per truth table, and one truth table per id
            assert all(len(us) == 1 for us in ids.values())
            assert len(set().union(*ids.values())) == len(ids)

    def test_exists_projection(self):
        rng = random.Random(5)
        for width in range(1, 7):
            bdd = _store(width)
            for j in range(width):
                for _ in range(12):
                    e = rng.getrandbits(1 << width) & rng.getrandbits(1 << width)
                    ns = [rng.getrandbits(1 << width) for _ in range(rng.randint(0, 3))]
                    nodes = [_from_table(bdd, n) for n in ns]
                    conj = _conj(bdd, _from_table(bdd, e), nodes)
                    for m, u in zip([e, *ns], [_from_table(bdd, e), *nodes]):
                        _check_smooth(bdd, u, m, j)
                    out = _exists(bdd, j, _dnf([conj]))
                    if conj is None:
                        assert out == _dnf([])
                        continue

                    def halves(i):
                        return i & ~(1 << j), i | 1 << j

                    idx = range(1 << width)
                    forced = sum(all(e >> h & 1 for h in halves(i)) << i for i in idx)
                    negs = [
                        sum(any(n >> h & 1 and not e >> h & 1
                                for h in halves(i)) << i for i in idx)
                        for n in ns
                    ]
                    ref = _conj(bdd, _from_table(bdd, forced),
                                [_from_table(bdd, n) for n in negs])
                    assert out == _dnf([ref])

    def test_memo_tables_apart(self):
        # an ite key (f, g, h) and a smooth key (f, level, join) can be
        # equal tuples: fill the ite memo, then check every abstraction
        bdd = _store(4)
        us = [bdd.node(b) for b in bdd.bases]
        us += [bdd.ite(f, g, h) for f in us for g in us for h in (0, 1)]
        for u in us:
            for j in range(4):
                _check_smooth(bdd, u, _table(bdd, u), j)

    def test_render_round_trip(self):
        rng = random.Random(7)
        for width in range(7):
            bdd = _store(width)
            for _ in range(40):
                u = _from_table(bdd, rng.getrandbits(1 << width))
                term = bdd.term(u)
                assert bdd.node(term) == u
                assert _depth(term) <= 2 * width + 1


class TestBaDecide:
    def test_atomless(self):
        assert ba_decide(parse(ATOMLESS)) is True

    def test_no_atoms_exist(self):
        phi = parse(
            "exists x:L. ~(x = bot) & "
            "(forall y:L. y << x -> y = bot | y = x)"
        )
        assert ba_decide(phi) is False

    def test_nontrivial(self):
        assert ba_decide(parse("top = bot")) is False

    def test_complementation(self):
        phi = parse("forall a:L. a cup compl(a) = top & a cap compl(a) = bot")
        assert ba_decide(phi) is True

    def test_distributivity(self):
        phi = parse(
            "forall x:L. forall y:L. forall z:L. "
            "x cap (y cup z) = (x cap y) cup (x cap z)"
        )
        assert ba_decide(phi) is True


# Lattice sentences of quantifier depth at most 3 that reach each case of
# a quantifier block in _BDD.block, with their truth and whether the
# block is eliminated by _bucket. Every block is, a block of one
# variable included: _BDD.block has no other elimination path.
BLOCKS = [
    # an exists-block over a conjunction
    ("exists x:L. exists y:L. ~(x = bot) & x cap y = bot & ~(y = bot)",
     True, True),
    # forall-blocks over a disjunction and over an implication
    ("forall x:L. forall y:L. x << y | y << x", False, True),
    ("forall x:L. forall y:L. x << y -> x cap compl(y) = bot", True, True),
    # through a negation, for each kind of block
    ("forall x:L. forall y:L. ~(x cap y = bot & ~(x = bot) & x << y)",
     True, True),
    ("exists x:L. exists y:L. ~(x = bot | y = bot | ~(x cap y = bot))",
     True, True),
    # a name repeated inside a block: the outer y is vacuous
    ("exists y:L. exists y:L. ~(y = bot) & ~(y = top)", True, True),
    ("forall y:L. forall y:L. forall z:L. y << z | z << y", False, True),
    # a vacuous variable never met, and one whose base an outer w placed
    ("exists x:L. exists w:L. exists y:L. ~(x = bot) & x = compl(y)",
     True, True),
    ("exists w:L. w = top & (exists w:L. exists y:L. ~(y = bot) & ~(y = top))",
     True, True),
    # a part that mentions no block variable
    ("forall z:L. exists x:L. exists y:L. x << z & y << compl(z) & ~(z = top)",
     False, True),
    ("forall z:L. exists x:L. exists y:L. "
     "x cup y = z & x cap y = bot & (z = bot | ~(z = bot))", True, True),
    # one variable, and several variables over one part
    ("forall x:L. exists y:L. y << x & ~(y = x)", False, True),
    ("exists x:L. exists y:L. exists z:L. x cap y cap z = top", True, True),
    ("forall x:L. forall y:L. ~(x cup y = bot)", False, True),
]


class TestBlocks:
    @pytest.mark.parametrize("text, truth, bucket", BLOCKS)
    def test_block_cases(self, text, truth, bucket, monkeypatch):
        calls = []

        def spy(*args):
            calls.append(args)
            return original(*args)

        original = boolalg._bucket
        monkeypatch.setattr(boolalg, "_bucket", spy)
        phi = parse(text)
        assert ba_decide(phi) is truth
        assert interval_check(phi, 3) is truth
        assert bool(calls) is bucket

    def test_agrees_with_interval_check(self):
        for seed, count, depth in [(7, 400, 3), (8, 100, 4)]:
            for text, phi in gen_lattice_corpus(seed, count, depth):
                assert ba_decide(phi) == interval_check(phi, depth), text

    # a group atom, a group quantifier alone, one inside a lattice block,
    # and a group atom among the parts of a block
    @pytest.mark.parametrize("text", [
        "exists a:G. a <= 0",
        "forall a:G. top = bot",
        "exists y:L. exists a:G. y << P(a)",
        "exists y:L. exists z:L. y = z & 0 <= 0",
    ])
    def test_group_sort_rejected(self, text):
        with pytest.raises(NotLatticeSorted):
            ba_decide(parse(text))


# Sentences on which ba_qe once built joins so deep that simplify raised
# RecursionError (3-way patching, the cyclic chain at k=5, the
# alternation chain at k=6), the cyclic chain at k=8 and k=10, which
# took seconds on minterm masks, whose size doubles with each base, and
# which BDDs decide in well under a second, and the alternation chain at
# k=16, which timed out while reduce still ran ba_qe at each crossing
# lattice quantifier. All are true. The depth bound is on the reduct chi,
# which keeps its lattice quantifiers for ba_decide.
PATCHING_3 = (
    "forall f1:G. forall f2:G. forall f3:G. "
    "forall c1:L. forall c2:L. forall c3:L. "
    "(c1 cap c2 << P(f1 - f2) cap P(f2 - f1) & "
    "c1 cap c3 << P(f1 - f3) cap P(f3 - f1) & "
    "c2 cap c3 << P(f2 - f3) cap P(f3 - f2)) -> "
    "(exists h:G. c1 << P(h - f1) cap P(f1 - h) & "
    "c2 << P(h - f2) cap P(f2 - h) & c3 << P(h - f3) cap P(f3 - h))"
)
CYCLIC_5 = (
    "forall l0:L. forall l1:L. forall l2:L. forall l3:L. forall l4:L. "
    "exists x0:G. exists x1:G. exists x2:G. exists x3:G. exists x4:G. "
    "l0 << P(x0 - x1) & l1 << P(x1 - x2) & l2 << P(x2 - x3) & "
    "l3 << P(x3 - x4) & l4 << P(x4 - x0)"
)
CHAIN_6 = (
    "forall l0:L. exists x0:G. forall l1:L. exists x1:G. "
    "forall l2:L. exists x2:G. forall l3:L. exists x3:G. "
    "forall l4:L. exists x4:G. forall l5:L. exists x5:G. "
    "l0 << P(x0) & l1 << P(x1) & l2 << P(x2) & l3 << P(x3) & "
    "l4 << P(x4) & l5 << P(x5) & P(x0) << l0 cup P(x1) & "
    "P(x1) << l1 cup P(x2) & P(x2) << l2 cup P(x3) & "
    "P(x3) << l3 cup P(x4) & P(x4) << l4 cup P(x5)"
)



def _patching(k):
    fs = [f"f{i}" for i in range(k)]
    cs = [f"c{i}" for i in range(k)]
    prefix = "".join(f"forall {f}:G. " for f in fs)
    prefix += "".join(f"forall {c}:L. " for c in cs)
    premise = [
        f"{cs[i]} cap {cs[j]} << P({fs[i]} - {fs[j]}) cap P({fs[j]} - {fs[i]})"
        for i in range(k) for j in range(i + 1, k)
    ]
    goal = " & ".join(f"{c} << P(h - {f}) cap P({f} - h)" for f, c in zip(fs, cs))
    return f"{prefix}({' & '.join(premise)}) -> (exists h:G. {goal})"


def _cyclic(k):
    prefix = "".join(f"forall l{i}:L. " for i in range(k))
    prefix += "".join(f"exists x{i}:G. " for i in range(k))
    return prefix + " & ".join(f"l{i} << P(x{i} - x{(i + 1) % k})" for i in range(k))


def _chain(k):
    prefix = "".join(f"forall l{i}:L. exists x{i}:G. " for i in range(k))
    below = [f"l{i} << P(x{i})" for i in range(k)]
    links = [f"P(x{i}) << l{i} cup P(x{i + 1})" for i in range(k - 1)]
    return prefix + " & ".join(below + links)


class TestDeepFamilies:
    @pytest.mark.parametrize("text", [
        PATCHING_3, CYCLIC_5, CHAIN_6,
        pytest.param(_cyclic(8), id="cyclic-8"),
        pytest.param(_cyclic(10), id="cyclic-10"),
        pytest.param(_chain(16), id="chain-16"),
    ])
    def test_decided_with_shallow_output(self, text):
        assert sys.getrecursionlimit() == 1000
        chi = reduce(parse(text), "ec").chi
        assert ba_decide(chi) is True
        assert _depth(chi) <= 64

    # chi is deeper here (91 to 544 levels), and ba_decide splits each
    # long block body into parts with its own stack
    @pytest.mark.parametrize("text", [
        pytest.param(_patching(5), id="patching-5"),
        pytest.param(_cyclic(16), id="cyclic-16"),
        pytest.param(_cyclic(32), id="cyclic-32"),
        pytest.param(_cyclic(64), id="cyclic-64"),
        # neither one_point nor occurs_free takes a frame per level of chi
        pytest.param(_cyclic(176), id="cyclic-176"),
        pytest.param(_chain(64), id="chain-64"),
        pytest.param(_chain(128), id="chain-128"),
        pytest.param(_chain(136), id="chain-136"),
        pytest.param(_chain(144), id="chain-144"),
        pytest.param(_chain(152), id="chain-152"),
        # every walk of reduce and ba_decide keeps its own stack; the
        # deepest recursion left, the BDD's ite, follows the number of
        # bases (about 510 frames here)
        pytest.param(_chain(256), id="chain-256"),
        # normalize adds up a run of unary minus with its own stack
        pytest.param("forall a:G. " + "-" * 1000 + "a <= a", id="minus-1000"),
        pytest.param(
            "forall a:G. forall b:G. " + "-" * 1000 + "(a meet b) <= b",
            id="minus-over-meet-1000",
        ),
        pytest.param(
            "forall l:L. " + " cap ".join(["l"] * 1000) + " = l", id="cap-1000"
        ),
        pytest.param(
            "forall a:G. " + " meet ".join(["a"] * 1000) + " <= a", id="meet-1000"
        ),
        pytest.param("forall l:L. " + " & ".join(["l = l"] * 1000), id="and-1000"),
    ])
    def test_decided_at_the_frontier(self, text):
        assert sys.getrecursionlimit() == 1000
        assert ba_decide(reduce(parse(text), "ec").chi) is True

    @pytest.mark.parametrize("text", [
        pytest.param("forall a:G. forall b:G. " + "-" * 1000 + "a <= b", id="minus-1000"),
        pytest.param("forall a:G. " + " + ".join(["a"] * 1000) + " <= a", id="sum-1000"),
        pytest.param("forall a:G. 0 <= " + "2*" * 300 + "a", id="scale-300"),
    ])
    def test_long_linear_terms_decided_false(self, text):
        assert sys.getrecursionlimit() == 1000
        assert ba_decide(reduce(parse(text), "ec").chi) is False

    # 2,016 premise conjuncts, 512 nested quantifiers, 1,000 unary minus
    # signs and 400 alternations of ~ and a quantifier: the parser reads
    # each run in one loop and checks sorts as it builds each node, so no
    # walk over the tree follows
    @pytest.mark.parametrize("text", [
        pytest.param(_patching(64), id="patching-64"),
        pytest.param(_chain(256), id="chain-256"),
        pytest.param("forall a:G. forall b:G. " + "-" * 1000 + "a <= b", id="minus-1000"),
        pytest.param("forall a:G. " + "~exists x:G. " * 400 + "x <= a", id="not-exists-400"),
    ])
    def test_parsed_past_the_recursion_limit(self, text):
        assert sys.getrecursionlimit() == 1000
        assert _depth(parse(text)) > 800

    # the parser takes a few frames per parenthesis, and ite one per base
    @pytest.mark.parametrize("text", [
        pytest.param("(" * 1000 + "top = top" + ")" * 1000, id="parens-1000"),
        pytest.param(_chain(512), id="chain-512"),
    ])
    def test_past_the_frontier_is_a_verdict_or_a_resource_limit(self, capsys, text):
        assert sys.getrecursionlimit() == 1000
        code = main(["decide", text])
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 4), err
        if code == 4:
            assert "recursion limit 1000" in err

    def test_cli_decides_patching(self, capsys):
        assert main(["decide", PATCHING_3]) == 0
        assert capsys.readouterr().out == "true\n"


class TestIntervalAlgebra:
    """interval_check in the periodic model's atomless Boolean algebra."""

    def test_checker_examples(self):
        assert interval_check(parse(ATOMLESS), 2) is True
        assert interval_check(parse("exists x:L. x cap compl(x) = bot"), 1) is True
        assert interval_check(parse("forall x:L. x = bot | x = top"), 1) is False

    def test_depth_exceeded(self):
        with pytest.raises(DepthExceeded):
            interval_check(parse(ATOMLESS), 5)

    @pytest.mark.parametrize("text", ["P(0) = top", "exists y:L. y << P(0)"])
    def test_refuses_group_terms(self, text):
        with pytest.raises(NotLatticeSorted):
            interval_check(parse(text), 1)

    def test_candidate_cap_raises(self, monkeypatch):
        monkeypatch.setattr(boolalg, "INTERVAL_MAX_CANDIDATES", 5)
        with pytest.raises(
            ResourceLimit, match="cap 5 reached at quantifier depth 2 \\(max 2\\)"
        ):
            interval_check(parse(ATOMLESS), 2)
        # the same sentence needs fewer than 10 candidates
        monkeypatch.setattr(boolalg, "INTERVAL_MAX_CANDIDATES", 10)
        assert interval_check(parse(ATOMLESS), 2) is True


def _depth(node):
    """Depth of a term or formula tree, counted without recursion."""
    deepest, todo = 0, [(node, 1)]
    while todo:
        n, d = todo.pop()
        deepest = max(deepest, d)
        todo.extend((c, d + 1) for c in S.children(n))
    return deepest
