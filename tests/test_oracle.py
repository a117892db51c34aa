"""Brute-force decision over finite standard structures."""

import gc
import sys
from fractions import Fraction
from itertools import product

import pytest

from dvlg import oracle
from dvlg import syntax as S
from dvlg.corpus import (
    gen_lattice_corpus, gen_tplus_corpus, load_known_answers, named_rng,
)
from dvlg.errors import ResourceLimit, UnboundVariable
from dvlg.linear import ALL_SIGNS, POS, Lin, LinConstraint, fm_eliminate
from dvlg.oracle import (
    DEFAULT_LIMITS, Assignment, _conj_dnf, _excluded, b_and, decide_finite,
    decide_prepared, eval_qf, prepare, prune_dnf, to_dnf,
)
from dvlg.parser import parse
from dvlg.standard import FinStdStructure, GroupVector, SubsetL
from test_boolalg import _chain, _cyclic, _patching
from test_fm import dnf_satisfiable_grid

CTX = {"f": S.G, "g": S.G, "c": S.L}


def count_atoms(phi: S.Formula) -> int:
    """The atoms of phi, by a scan of every node: the reference count
    for oracle.counts."""
    return sum(isinstance(n, S.ATOMS) for n in S.nodes(phi))


def gv(*vals):
    return GroupVector(tuple(Fraction(v) for v in vals))


def env3(**kw):
    genv, lenv = {}, {}
    for k, v in kw.items():
        if isinstance(v, GroupVector):
            genv[k] = v
        else:
            lenv[k] = v
    return Assignment(genv, lenv)


ATOMLESS = (
    "forall x:L. (bot << x & ~(x = bot)) -> "
    "(exists y:L. y << x & ~(y = bot) & ~(y = x))"
)


class TestEvalQf:
    def test_membership(self):
        phi = parse("P(f) << c", CTX)
        env = env3(f=gv(1, -1, 0), c=SubsetL.from_indices([0, 2], 3))
        assert eval_qf(FinStdStructure(3), env, phi) is True

    def test_leq_false(self):
        phi = parse("f <= g", CTX)
        env = env3(f=gv(1, 2, 3), g=gv(1, 2, 2))
        assert eval_qf(FinStdStructure(3), env, phi) is False

    def test_valuation_superadditivity(self):
        phi = parse("P(f) cap P(g) << P(f + g)", CTX)
        env = env3(f=gv(1, -1, 0), g=gv(-1, 1, 0))
        assert eval_qf(FinStdStructure(3), env, phi) is True

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariable):
            eval_qf(FinStdStructure(2), Assignment(), parse("f <= 0", CTX))


class TestDecideFinite:
    def test_valuation_surjective(self):
        phi = parse("forall l:L. exists a:G. P(a) = l")
        assert decide_finite(FinStdStructure(2), phi) is True

    def test_powerset_has_atoms(self):
        phi = parse(ATOMLESS)
        assert decide_finite(FinStdStructure(2), phi) is False

    def test_strictly_positive_element(self):
        phi = parse("exists a:G. 0 <= a & ~(a = 0)")
        assert decide_finite(FinStdStructure(1), phi) is True

    def test_divisibility(self):
        for n in (1, 2, 3):
            for d in (2, 3):
                phi = parse(f"forall a:G. exists b:G. {d}*b = a")
                assert decide_finite(FinStdStructure(n), phi) is True

    def test_boolean_complement(self):
        phi = parse("forall w:L. exists x:L. w cup x = top & w cap x = bot")
        for n in (1, 2, 3):
            assert decide_finite(FinStdStructure(n), phi) is True

    def test_patching(self):
        phi = parse(
            "forall f:G. forall g:G. forall c:L. forall d:L."
            " (c cap d << P(f - g) cap P(g - f)) ->"
            " (exists h:G. c << P(h - f) cap P(f - h)"
            " & d << P(h - g) cap P(g - h))"
        )
        for n in (1, 2):
            assert decide_finite(FinStdStructure(n), phi) is True

    def test_known_answers_expected_finite(self):
        checked = 0
        for entry in load_known_answers():
            phi = parse(entry["formula"])
            for n, expected in entry["expected_finite"].items():
                got = decide_finite(FinStdStructure(int(n)), phi)
                assert got == expected, (entry["name"], n)
                checked += 1
        assert checked == 42

    def test_agrees_with_eval_qf(self):
        # decide_finite compiles; eval_qf evaluates by syntax.holds
        rng = named_rng(9, "oracle-qf")
        struct = FinStdStructure(3)
        samples = [
            "f <= g | g <= f",
            "P(f meet g) = P(f) cap P(g)",
            "c << P(f) -> c << P(f join g)",
            "f + g <= f -> P(-g) = top",
        ]
        for text in samples:
            phi = parse(text, CTX)
            for _ in range(10):
                env = env3(
                    f=gv(*(rng.randint(-3, 3) for _ in range(3))),
                    g=gv(*(rng.randint(-3, 3) for _ in range(3))),
                    c=SubsetL(rng.randrange(8), 3),
                )
                assert decide_finite(struct, phi, env) == eval_qf(struct, env, phi)
        corpus = [
            (text, phi) for text, phi, _ in gen_tplus_corpus(1, 200)
            if "exists" not in text and "forall" not in text
        ]
        assert len(corpus) >= 20
        trues = 0
        for n in (1, 2, 3):
            struct = FinStdStructure(n)
            for text, phi in corpus:
                for _ in range(4):
                    env = env3(
                        a=gv(*(Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                               for _ in range(n))),
                        b=gv(*(rng.randint(-2, 2) for _ in range(n))),
                        l=SubsetL(rng.randrange(1 << n), n),
                        m=SubsetL(rng.randrange(1 << n), n),
                    )
                    got = decide_finite(struct, phi, env)
                    assert got == eval_qf(struct, env, phi), (text, n, env)
                    trues += got
        # both verdicts occur
        assert 0 < trues < 12 * len(corpus)

    def test_permutation_invariance(self):
        # reversing the ground points of every parameter leaves truth alone
        phi = parse("exists a:G. P(a) = c & f <= a", CTX)
        rng = named_rng(13, "oracle-perm")
        struct = FinStdStructure(3)
        for _ in range(10):
            vec = [rng.randint(-3, 3) for _ in range(3)]
            bits = rng.randrange(8)
            env = env3(f=gv(*vec), c=SubsetL(bits, 3))
            rbits = sum(((bits >> i) & 1) << (2 - i) for i in range(3))
            renv = env3(f=gv(*reversed(vec)), c=SubsetL(rbits, 3))
            assert decide_finite(struct, phi, env) == decide_finite(
                struct, phi, renv
            )


ALTERNATION_CHAIN_3 = (
    "forall l0:L. exists x0:G. forall l1:L. exists x1:G. "
    "forall l2:L. exists x2:G. l0 << P(x0) & l1 << P(x1) & l2 << P(x2) & "
    "P(x0) << l0 cup P(x1) & P(x1) << l1 cup P(x2)"
)


def _by_subsets(struct, phi, lenv):
    """Truth of a prenex lattice sentence in struct: each lattice
    quantifier expanded over all_subsets, the matrix evaluated by
    eval_qf. It shares no code with decide_finite's compiler."""
    if isinstance(phi, (S.Exists, S.Forall)) and phi.sort == S.L:
        values = (
            _by_subsets(struct, phi.body, {**lenv, phi.var: s})
            for s in struct.all_subsets()
        )
        return any(values) if isinstance(phi, S.Exists) else all(values)
    return eval_qf(struct, Assignment({}, lenv), phi)


# the scaling families at k <= 2 (cyclic chain, alternation chain,
# patching), each with its lattice quantifiers first; like quantifiers
# commute, so patching's lattice block moves ahead of its group block
OUTER_LATTICE_FAMILIES = [
    "forall l0:L. exists x0:G. l0 << P(x0 - x0)",
    "forall l0:L. forall l1:L. exists x0:G. exists x1:G. "
    "l0 << P(x0 - x1) & l1 << P(x1 - x0)",
    "forall l0:L. exists x0:G. l0 << P(x0)",
    "forall l0:L. exists x0:G. forall l1:L. exists x1:G. "
    "l0 << P(x0) & l1 << P(x1) & P(x0) << l0 cup P(x1)",
    "forall c1:L. forall f1:G. exists h:G. c1 << P(h - f1) cap P(f1 - h)",
    "forall c1:L. forall c2:L. forall f1:G. forall f2:G. "
    "(c1 cap c2 << P(f1 - f2) cap P(f2 - f1)) -> (exists h:G. "
    "c1 << P(h - f1) cap P(f1 - h) & c2 << P(h - f2) cap P(f2 - h))",
]


class TestLatticeBits:
    """A bound lattice variable is one unknown bit per point, removed by
    Shannon expansion; these check it against enumerating subsets."""

    def test_agrees_with_subset_expansion(self):
        for seed in (7, 8):
            for text, phi in gen_lattice_corpus(seed, 200, 3):
                for n in (1, 2, 3):
                    struct = FinStdStructure(n)
                    expected = _by_subsets(struct, phi, {})
                    assert decide_finite(struct, phi) == expected, (text, n)

    def test_outer_block_concrete_and_unknown_bits_agree(self):
        # the outer variable as a concrete subset against the same
        # variable as unknown bits
        texts = list(OUTER_LATTICE_FAMILIES)
        texts.append("exists x:L. ~(x = bot) & ~(x = top)")
        texts += [
            e["formula"] for e in load_known_answers()
            if e["formula"].split(".")[0].endswith(":L")
        ]
        texts += [text for text, _phi in gen_lattice_corpus(7, 200, 3)[:40]]
        for text, phi, _ctx in gen_tplus_corpus(1, 200)[:40]:
            free = sorted(S.free_vars(phi).items(), key=lambda vs: vs[1] != S.L)
            if free and free[0][1] == S.L:
                for q in ("forall", "exists"):
                    prefix = "".join(f"{q} {v}:{sort}. " for v, sort in free)
                    texts.append(f"{prefix}({text})")
        assert len(texts) >= 100
        trues = 0
        for text in texts:
            phi = parse(text)
            for n in (1, 2, 3):
                struct = FinStdStructure(n)
                values = (
                    decide_finite(struct, phi.body, Assignment({}, {phi.var: s}))
                    for s in struct.all_subsets()
                )
                expected = any(values) if isinstance(phi, S.Exists) else all(values)
                got = decide_finite(struct, phi)
                assert got == expected, (text, n)
                trues += got
        # both verdicts occur
        assert 0 < trues < 3 * len(texts)

    def test_no_group_quantifier_never_reaches_dnf(self):
        # with a DNF cap of 0 any call of to_dnf raises ResourceLimit
        for seed in (7, 8):
            for text, phi in gen_lattice_corpus(seed, 200, 3):
                for n in (1, 2, 3):
                    decide_finite(FinStdStructure(n), phi, limits={"max_dnf": 0})


class TestUnassignedVariables:
    # the free variables are checked on entry, so the verdict cannot
    # depend on whether evaluation reaches the unassigned one

    @pytest.mark.parametrize("text, ctx", [
        ("a <= 0 | true", None),
        ("true | a <= 0", None),
        ("l = bot | true", {"l": S.L}),
        ("true | l = bot", {"l": S.L}),
        ("false & a <= 0", None),
        ("exists x:L. x = top | x << l", {"l": S.L}),
    ])
    def test_raises_in_either_order(self, text, ctx):
        with pytest.raises(UnboundVariable):
            decide_finite(FinStdStructure(2), parse(text, ctx))

    def test_message_names_every_missing_variable(self):
        phi = parse("true | f <= g & c << P(f)", CTX)
        env = env3(f=gv(1, 2))
        with pytest.raises(UnboundVariable, match=r"^free variables not assigned: c, g$"):
            decide_finite(FinStdStructure(2), phi, env)

    def test_assigned_at_the_wrong_sort(self):
        # f is a group variable; a lattice value under its name does not
        # assign it
        env = Assignment({}, {"f": SubsetL(1, 2)})
        with pytest.raises(UnboundVariable):
            decide_finite(FinStdStructure(2), parse("true | f <= 0", CTX), env)


class TestAlternationChain:
    def test_chain_3_at_n3(self):
        # x_i = 0 is a witness; the product without deduplication ran over
        # the DNF cap here
        assert decide_finite(FinStdStructure(3), parse(ALTERNATION_CHAIN_3)) is True

    def test_prepared_agrees(self):
        phi = parse(ALTERNATION_CHAIN_3)
        prepared = prepare(phi)
        for n in (1, 2):
            struct = FinStdStructure(n)
            assert decide_prepared(struct, prepared) == decide_finite(struct, phi)


def _ge(mapping, rel=">="):
    return LinConstraint(Lin.make(mapping), rel)


def _truth(f, env) -> bool:
    if isinstance(f, bool):
        return f
    if isinstance(f, LinConstraint):
        return f.holds(env)
    if f[0] == "not":
        return not _truth(f[1], env)
    if f[0] == "and":
        return all(_truth(p, env) for p in f[1])
    return any(_truth(p, env) for p in f[1])


def _rand_bform(rng, names, depth):
    if depth == 0 or rng.random() < 0.3:
        mapping = {v: rng.randint(-2, 2) for v in names}
        mapping["1"] = rng.randint(-2, 2)
        return _ge(mapping, rng.choice([">=", ">", "="]))
    tag = rng.choice(["and", "or", "not"])
    if tag == "not":
        return ("not", _rand_bform(rng, names, depth - 1))
    return (tag, tuple(
        _rand_bform(rng, names, depth - 1) for _ in range(rng.randint(2, 3))
    ))


def _conj(store):
    return [LinConstraint.from_key(key, mask) for key, mask in store.items()]


def _pinned(store, env):
    """The store's constraints with the unknowns in env set to their values."""
    out = []
    for c in _conj(store):
        mapping = {"1": 0}
        for v, q in c.lhs.coeffs:
            if v in env:
                mapping["1"] += q * env[v]
            else:
                mapping[v] = mapping.get(v, 0) + q
        out.append(_ge(mapping, c.rel))
    return out


class TestDnfPipeline:
    def test_repeated_branches_stay_under_cap(self):
        a, b = _ge({"x": 1}), _ge({"y": 1, "1": -1})
        f = ("and", tuple(("or", (a, b)) for _ in range(12)))
        # without deduplication the product holds 2**12 stores; the
        # distinct ones are a, b and a & b, and a & b is subsumed
        assert len(to_dnf(f, 8)) == 2

    # a strict, a non-strict and an equality constraint under and, or
    # and not: x - y > 0 & (~(y >= 1) | x + y = 2)
    STRICT = _ge({"x": 1, "y": -1}, ">")
    WEAK = _ge({"y": 1, "1": -1})
    EQUAL = _ge({"x": 1, "y": 1, "1": -2}, "=")
    NESTED = ("and", (STRICT, ("or", (("not", WEAK), EQUAL))))

    def test_negation_read_by_polarity(self):
        # ~f written out: y - x >= 0 | (y >= 1 & (2 - x - y > 0 | 2 - x - y < 0)),
        # each disjunct in the order in which negated() gives it
        unequal = (
            _ge({"x": -1, "y": -1, "1": 2}, ">"), _ge({"x": 1, "y": 1, "1": -2}, ">"),
        )
        by_hand = ("or", (
            _ge({"x": -1, "y": 1}), ("and", (self.WEAK, ("or", unequal))),
        ))
        assert to_dnf(("not", self.NESTED), 100) == to_dnf(by_hand, 100)
        assert len(to_dnf(by_hand, 100)) == 3

    def test_leaves_no_garbage(self):
        # no call leaves a reference cycle for the collector to find
        gc.collect()
        gc.disable()
        try:
            for _ in range(100):
                to_dnf(("not", self.NESTED), 100)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("names", [["x", "y"], ["x", "y", "z"]])
    def test_fm_agrees_with_grid(self, names):
        # coefficients in [-2, 2] and integer pins give bounds on x that
        # are multiples of 1/2 in [-6, 6]; quarter steps meet any
        # nonempty interval
        x_grid = [Fraction(i, 4) for i in range(-28, 29)]
        small = [Fraction(v) for v in (-1, 0, 1)]
        rng = named_rng(21, f"oracle-dnf-{len(names)}")
        for _ in range(60):
            f = _rand_bform(rng, names, 3)
            dnf = to_dnf(f, 10_000)
            for point in product(small, repeat=len(names)):
                env = dict(zip(names, point))
                in_dnf = any(all(c.holds(env) for c in _conj(s)) for s in dnf)
                assert in_dnf == _truth(f, env), (f, env)
            reduced = prune_dnf(fm_eliminate("x", dnf))
            for point in product(small, repeat=len(names) - 1):
                env = dict(zip(names[1:], point))
                direct = dnf_satisfiable_grid(
                    [_pinned(store, env) for store in dnf], ["x"], x_grid
                )
                after = any(all(c.holds(env) for c in _conj(s)) for s in reduced)
                assert direct == after, (f, env)


def _prune_pairwise(dnf):
    """Reference pruning: drop a store whose excluded pairs strictly
    contain those of another, comparing every pair of distinct stores."""
    stores = {}
    for store in dnf:
        stores.setdefault(_excluded(store), store)
    keys = list(stores)
    if len(keys) > 800:
        return list(stores.values())
    return [
        stores[k] for k in keys if not any(j != k and j < k for j in keys)
    ]


class TestPruneDnf:
    def test_equals_the_pairwise_rule(self):
        rng = named_rng(23, "prune-dnf")
        pruned = 0
        for _ in range(300):
            keys = [f"k{i}" for i in range(rng.randint(1, 5))]
            dnf = [
                {k: rng.randint(1, 7) for k in keys if rng.random() < 0.6}
                for _ in range(rng.randint(1, 60))
            ]
            got = prune_dnf(dnf)
            assert got == _prune_pairwise(dnf)
            pruned += len(got) < len({_excluded(s) for s in dnf})
        assert pruned > 100

    def test_only_duplicates_go_above_800_stores(self):
        # {k: ALL_SIGNS} rules out nothing, so it subsumes every other store
        dnf = [{"k": ALL_SIGNS}] + [{f"k{i}": POS} for i in range(800)]
        assert prune_dnf(dnf + [{"k0": POS}]) == dnf
        assert prune_dnf(dnf[:800]) == [dnf[0]]


class TestPerCallMemos:
    def test_assignments_do_not_leak_between_calls(self):
        # the compiler memoizes per call; a second call with another value
        # of the free variable f must not reuse the first call's constraints
        phi = parse("exists b:G. 0 <= b & b <= f & ~(b = 0)", CTX)
        struct = FinStdStructure(2)
        yes, no = env3(f=gv(1, 2)), env3(f=gv(1, -1))
        for order in ((yes, no), (no, yes)):
            got = [decide_finite(struct, phi, env) for env in order]
            assert got == [env is yes for env in order]


def _rand_conj(rng, count):
    """count constraints from_key over a few keys, so that keys repeat;
    the masks are any nonempty sign set, so that some conjunctions
    contradict, and a variable-free key is among them."""
    keys = [(("x", 1),), (("x", 1), ("y", -2)), (("1", 1), ("y", 1)), (("1", 1),)]
    return [
        LinConstraint.from_key(rng.choice(keys), rng.randint(1, ALL_SIGNS))
        for _ in range(count)
    ]


class TestConjunctiveBlocks:
    def test_one_store_equals_to_dnf(self):
        rng = named_rng(29, "oracle-conj-store")
        empty = repeated = 0
        for _ in range(500):
            parts = _rand_conj(rng, rng.randint(1, 6))
            got = _conj_dnf(parts)
            want = to_dnf(b_and(parts), 1)
            # the same stores with their keys in the same order
            assert [list(s.items()) for s in got] == [list(s.items()) for s in want]
            empty += not got
            repeated += len({c.key for c in parts}) < len(parts)
        assert empty > 50 and repeated > 200

    @pytest.mark.parametrize("text, expected", [
        ("exists a:G. a <= 0 & 0 <= a + a", True),
        ("exists a:G. a <= 0 & f <= a", False),
    ])
    def test_decided_without_to_dnf(self, monkeypatch, text, expected):
        # f is 1 at each point; the body is one block of constraints per point
        def refused(f, cap):
            raise AssertionError("to_dnf called")

        monkeypatch.setattr(oracle, "to_dnf", refused)
        phi = parse(text, CTX)
        for cap in (1, DEFAULT_LIMITS["max_dnf"]):
            got = decide_finite(FinStdStructure(2), phi, env3(f=gv(1, 1)), {"max_dnf": cap})
            assert got is expected


class TestPrepare:
    def test_counts_equal_node_counts(self):
        phis = [phi for seed in (1, 2) for _, phi, _ in gen_tplus_corpus(seed, 200)]
        texts = [e["formula"] for e in load_known_answers()] + [ATOMLESS]
        texts += [make(k) for make in (_patching, _cyclic, _chain) for k in (2, 3)]
        phis += [parse(text) for text in texts]
        for phi in phis:
            p = prepare(phi)
            quantifiers = sum(
                isinstance(n, (S.Exists, S.Forall)) for n in S.nodes(p.phi)
            )
            assert (p.quantifiers, p.atoms) == (quantifiers, count_atoms(p.phi))


class TestDeepTerms:
    # the compiler's memos key a term on its identity, so no term's hash
    # recurses down its 1,000 levels
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("lhs, expected", [
        ("-" * 1000 + "a", False),
        ("-" * 1000 + "(a meet b)", True),
    ])
    def test_run_of_unary_minus(self, n, lhs, expected):
        assert sys.getrecursionlimit() == 1000
        phi = parse(f"forall a:G. forall b:G. {lhs} <= b")
        assert decide_finite(FinStdStructure(n), phi) is expected


class TestResourceLimits:
    def test_ground_size_cap(self):
        with pytest.raises(ResourceLimit):
            decide_finite(FinStdStructure(5), parse("exists a:G. a <= 0"))

    def test_quantifier_cap(self):
        names = [f"x{i}" for i in range(8)]
        body = " & ".join(f"{v} <= 0" for v in names)
        text = "".join(f"exists {v}:G. " for v in names) + body
        with pytest.raises(ResourceLimit):
            decide_finite(FinStdStructure(2), parse(text))

    @pytest.mark.parametrize("text, cap, phase, size", [
        ("exists a:G. a <= 0 | 0 <= a", 1, "to_dnf or", 2),
        ("exists a:G. (a <= 0 | 0 <= a) & (a <= a + a | a + a <= a)", 2,
         "to_dnf and", 3),
        # the body compiles to True, a DNF of one conjunction: over a cap
        # of 0 already in to_dnf
        ("exists a:G. 0 <= 0", 0, "to_dnf or", 1),
        # a conjunction of constraints is one store, which a cap of 0
        # does not allow either, satisfiable or not (f is 1 at each point)
        ("exists a:G. a <= 0 & 0 <= a + a", 0, "to_dnf and", 1),
        ("exists a:G. a <= 0 & f <= a", 0, "to_dnf and", 1),
    ])
    def test_dnf_cap_names_phase_and_size(self, text, cap, phase, size):
        phi, env = parse(text, CTX), env3(f=gv(1, 1))
        with pytest.raises(ResourceLimit, match=(
            rf"^oracle: {phase}: DNF cap {cap} reached at {size} conjunctions$"
        )):
            decide_finite(FinStdStructure(2), phi, env, limits={"max_dnf": cap})

    def test_caps_overridable(self):
        phi = parse("exists a:G. a <= 0")
        assert decide_finite(FinStdStructure(5), phi, limits={"max_n": 5})

    def test_size_mismatch_rejected(self):
        env = env3(f=gv(1, 2))
        with pytest.raises(Exception):
            decide_finite(FinStdStructure(3), parse("f <= 0", CTX), env)
