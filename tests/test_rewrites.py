"""Formula rewrites: semantic preservation over finite structures."""

import importlib.util
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from dvlg import syntax as S
from dvlg.corpus import gen_tplus_corpus, load_known_answers, named_rng
from dvlg.errors import UnsupportedFragment
from dvlg.oracle import Assignment, decide_finite, eval_qf
from dvlg.parser import parse
from dvlg.reduction import reduce
from dvlg.rewrites import (
    _join_of_meets,
    atoms_as_leaves,
    gterm_to_lin,
    group_atoms_to_lattice,
    lin_to_gterm,
    linearize_group_term,
    normalize,
    one_point,
    push_valuation_formula,
    refold,
    rename_bound,
    simplify,
)
from dvlg.standard import FinStdStructure, GroupVector, SubsetL

CTX = {"a": S.G, "b": S.G, "l": S.L, "m": S.L}
N = 3
STRUCT = FinStdStructure(N)


def rand_env(rng) -> Assignment:
    genv = {
        v: GroupVector(
            tuple(Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2])) for _ in range(N))
        )
        for v in ("a", "b")
    }
    lenv = {v: SubsetL(rng.randrange(1 << N), N) for v in ("l", "m")}
    return Assignment(genv, lenv)


QF_SAMPLES = [
    "a + b <= a meet b",
    "P(a - b) = l",
    "l << P(2*a + b)",
    "P(a join b) = P(a) cup P(b)",
    "m cap compl(l) << P(-a)",
    "a <= b -> P(b - a) = top",
]

QUANT_SAMPLES = [
    "exists x:G. x <= a & b <= x",
    "forall x:G. x <= a -> x <= a + b",
    "exists y:L. y << l & m << y",
    "exists x:G. P(x - a) = l",
]


def _envs(count=12, seed=5):
    rng = named_rng(seed, "rewrites-envs")
    return [rand_env(rng) for _ in range(count)]


class TestSemanticPreservation:
    def _equiv_qf(self, phi, psi):
        for env in _envs():
            assert eval_qf(STRUCT, env, phi) == eval_qf(STRUCT, env, psi)

    def _equiv(self, phi, psi):
        for env in _envs():
            assert decide_finite(STRUCT, phi, env) == decide_finite(STRUCT, psi, env)

    def test_group_atoms_to_lattice(self):
        for text in QF_SAMPLES:
            phi = parse(text, CTX)
            self._equiv_qf(phi, group_atoms_to_lattice(phi))

    def test_push_valuation(self):
        for text in QF_SAMPLES:
            phi = group_atoms_to_lattice(parse(text, CTX))
            self._equiv_qf(phi, push_valuation_formula(phi))

    def test_simplify(self):
        for text in QF_SAMPLES + QUANT_SAMPLES:
            phi = parse(text, CTX)
            self._equiv(phi, simplify(phi))

    def test_rename_bound(self):
        for text in QUANT_SAMPLES:
            phi = parse(text, CTX)
            self._equiv(phi, rename_bound(phi, "_q", S.free_vars(phi)))


def _closures(phi):
    """The forall- and the exists-closure of phi."""
    free = sorted(S.free_vars(phi).items(), reverse=True)
    out = []
    for q in (S.Forall, S.Exists):
        f = phi
        for v, sort in free:
            f = q(v, sort, f)
        out.append(f)
    return out


@pytest.fixture(scope="module")
def closures():
    """The forall- and exists-closures of gen_tplus_corpus(1, 200) after
    group_atoms_to_lattice and push_valuation_formula."""
    return [
        push_valuation_formula(group_atoms_to_lattice(f))
        for _, phi, _ in gen_tplus_corpus(1, 200)
        for f in _closures(phi)
    ]


def _drop_group_quantifiers(n):
    if isinstance(n, (S.Exists, S.Forall)) and n.sort == S.G:
        return _drop_group_quantifiers(n.body)
    return S.rebuild(n, tuple(map(_drop_group_quantifiers, S.children(n))))


def _rename_vals(n, mapping):
    """n with each Val term replaced by a fresh LVar, one per distinct term."""
    if isinstance(n, S.Val):
        if n not in mapping:
            mapping[n] = S.LVar(f"_r{len(mapping)}")
        return mapping[n]
    return S.rebuild(n, tuple(_rename_vals(c, mapping) for c in S.children(n)))


class TestSimplifyFixedPoint:
    # The reducer keeps its formulas simplify output and folds only the
    # nodes it builds. That rests on the first two facts; the last two
    # check that one_point and reduce keep the invariant.
    def test_idempotent(self, closures):
        changed = 0
        for phi in closures:
            once = simplify(phi)
            assert simplify(once) == once, S.print_formula(phi)
            changed += once != phi
        assert changed > 0

    def test_commutes_with_renaming_val_atoms(self, closures):
        # A renamed Val atom may hold the last occurrence of a group
        # variable, and simplify drops a quantifier whose variable does not
        # occur; the reducer renames in bodies free of group quantifiers.
        renamed = 0
        for phi in closures:
            phi = _drop_group_quantifiers(phi)
            mapping = {}
            left = _rename_vals(simplify(phi), mapping)
            # the same names, in the same order, on the unsimplified side
            right = simplify(_rename_vals(phi, dict(mapping)))
            assert left == right, S.print_formula(phi)
            renamed += bool(mapping)
        assert renamed > 0

    def test_one_point_keeps_simplify_output(self, closures):
        # one_point folds each node it rebuilds, so a vacuous quantifier
        # above a substitution goes too
        for phi in closures:
            out = one_point(simplify(rename_bound(phi, "_q", S.free_vars(phi))))
            assert simplify(out) == out, S.print_formula(phi)

    @pytest.mark.parametrize("mode", ["tplus", "ec"])
    def test_reduct_is_simplify_output(self, closures, mode):
        reduced = 0
        for phi in closures:
            try:
                chi = reduce(phi, mode).chi
            except UnsupportedFragment:  # tplus: a lattice quantifier crossed
                continue
            assert simplify(chi) == chi, S.print_formula(phi)
            reduced += 1
        assert reduced > len(closures) // 2


def _subst_all(n, mapping):
    """Reference substitution: every node is rebuilt."""
    if n in mapping:
        return mapping[n]
    return S.rebuild(n, tuple(_subst_all(c, mapping) for c in S.children(n)))


def _mappings(phi):
    """Two substitutions for phi, one per class of key: every other
    distinct Val term to a fresh LVar, and every other group variable
    to its negation."""
    vals = list(dict.fromkeys(n for n in S.nodes(phi) if isinstance(n, S.Val)))
    gvars = list(dict.fromkeys(n for n in S.nodes(phi) if isinstance(n, S.GVar)))
    return (
        {v: S.LVar(f"_r{i}") for i, v in enumerate(vals[::2])},
        {x: S.Neg(x) for x in gvars[::2]},
    )


WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"

# free variables named like the fresh names of normalize; the last one
# also rebinds a bound name inside its scope
FRESH_LIKE = [
    "exists x:G. x <= _q0 & ~(x = _q0)",
    "forall y:L. exists x:G. P(x - _q0) = _q1 & y << _q1",
    "exists x:G. exists y:G. forall z:L. _q1 cap z << P(x + y - _q0) | _q0 = y",
    "exists x:G. (exists x:G. x <= _q0) & P(x) = _q1 & ~(forall x:L. x << _q1)",
]


def _family_members():
    """The scaling families of the benchmark at its k, from
    perfbench/workloads.py, which imports no part of the package."""
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # its dataclasses look their module up
    spec.loader.exec_module(mod)
    return [make(k) for make, ks in mod.FAMILIES.values() for k in ks]


@pytest.fixture(scope="module")
def normalize_inputs():
    """The known answers, the benchmark's family members,
    gen_tplus_corpus(s, 400) for s = 1..3 with their forall- and
    exists-closures, and formulas with free names _q0 and _q1."""
    texts = [e["formula"] for e in load_known_answers()] + _family_members()
    out = [parse(text) for text in texts]
    for seed in (1, 2, 3):
        for _, phi, _ in gen_tplus_corpus(seed, 400):
            out += [phi, *_closures(phi)]
    out += [parse(text, {"_q0": S.G, "_q1": S.L}) for text in FRESH_LIKE]
    return out


def substitute(phi, mapping: dict):
    """phi with each node that is a key of mapping replaced by its value;
    the keys are all of one class, and binders are not looked at. A
    subtree that holds no key comes back as the same object."""
    if not mapping:
        return phi
    # a frozen dataclass hashes its whole subtree on every call, so only
    # a node of the keys' class is looked up
    key_cls = type(next(iter(mapping)))

    def enter(n):
        return mapping.get(n) if type(n) is key_cls else None

    return S.transform(phi, enter, S.rebuild)


def _expand(f):
    """f with each LinForm leaf replaced by lin_to_gterm of its form."""
    leaves = {n: lin_to_gterm(n.lin) for n in S.nodes(f) if type(n) is S.LinForm}
    return substitute(f, leaves)


class TestNormalize:
    def test_equals_the_four_passes(self, normalize_inputs):
        # normalize keeps each valuation atom's argument as a LinForm
        # leaf, which lin_to_gterm turns into the four passes' G-term
        for phi in normalize_inputs:
            free = S.free_vars(phi)
            passes = simplify(push_valuation_formula(group_atoms_to_lattice(
                rename_bound(phi, "_q", free)
            )))
            out = normalize(phi, free)
            for n in S.nodes(out):
                if type(n) is S.Val:
                    assert type(n.arg) is S.LinForm, S.print_formula(phi)
            assert _expand(out) == passes, S.print_formula(phi)

    def test_fresh_names_skip_the_free_names(self):
        for text in FRESH_LIKE:
            phi = parse(text, {"_q0": S.G, "_q1": S.L})
            free = S.free_vars(phi)
            assert S.free_vars(normalize(phi, free)) == free, text

    def test_linear_forms_equal_the_join_of_meets(self, normalize_inputs):
        linear = 0
        for phi in normalize_inputs:
            for t in S.nodes(phi):
                if S.SORT.get(type(t)) == S.G:
                    jom = linearize_group_term(t)
                    # repr tells an int coefficient from an equal Fraction
                    assert repr(jom) == repr(_join_of_meets(t, {}))
                    linear += len(jom) == 1 and len(jom[0]) == 1
        assert linear > 10_000


class TestRenameBound:
    def test_fresh_names_skip_the_taken_names(self):
        # a free _q0 is not captured by the fresh name of x
        phi = parse("exists x:G. x <= _q0", {"_q0": S.G})
        out = rename_bound(phi, "_q", S.free_vars(phi))
        assert S.print_formula(out) == "exists _q1:G. _q1 <= _q0"

    def test_taken_is_required(self):
        with pytest.raises(TypeError):
            rename_bound(parse("exists x:G. x <= _q0"), "_q")


class TestSubstitute:
    def test_equals_rebuilding_everything(self, closures):
        hits = 0
        for phi in closures:
            for mapping in _mappings(phi):
                assert substitute(phi, mapping) == _subst_all(phi, mapping)
                hits += bool(mapping)
        assert hits > len(closures)

    def test_subtree_without_key_is_same_object(self, closures):
        for phi in closures:
            assert substitute(phi, {}) is phi
            for mapping in _mappings(phi):
                for n in S.nodes(phi):
                    has_key = any(m in mapping for m in S.nodes(n))
                    assert (substitute(n, mapping) is n) == (not has_key)


class TestOnePoint:
    def test_inlines_pinned_variable(self):
        phi = parse("exists x:G. x = a + b & x <= 2*a", CTX)
        out = one_point(phi)
        assert not isinstance(out, S.Exists)

    def test_skips_self_referential_equation(self):
        phi = parse("exists x:G. x + x = a", CTX)
        assert isinstance(one_point(phi), S.Exists)

    def test_preserves_semantics(self):
        samples = [
            "exists x:G. x = a + b & x <= 2*a",
            "exists x:G. x = -b & (x <= a | a <= x)",
            "exists x:G. exists w:G. w = x + a & w <= b & 0 <= x",
        ]
        for text in samples:
            phi = parse(text, CTX)
            for env in _envs():
                assert decide_finite(STRUCT, phi, env) == decide_finite(
                    STRUCT, one_point(phi), env
                )


class TestTransform:
    PHI = parse("forall l:L. exists x:G. (x <= a & ~(l = top)) | b <= a", CTX)

    def test_no_action_returns_the_same_object(self):
        met = []

        def leave(n, new):
            if type(n) in (S.Exists, S.Forall):
                met.append(type(n))
            return refold(n, new)

        assert S.transform(self.PHI, atoms_as_leaves, leave) is self.PHI
        assert met == [S.Exists, S.Forall]

    def test_result_replaces_the_binder(self):
        phi = parse("b <= a & exists x:G. x <= a", CTX)

        def leave(n, new):
            return S.TRUE if type(n) is S.Exists else refold(n, new)

        # the rebuilt And is folded
        assert S.transform(phi, atoms_as_leaves, leave) is phi.left

    def test_enter_and_leave_order_and_scope(self):
        # enter in pre-order, leave in post-order; a result from enter
        # makes its node a leaf; leave sees the scope enter opened
        phi = parse("exists x:G. x <= a & (forall y:L. y = l)", CTX)
        calls, scope = [], []

        def enter(n):
            calls.append(("enter", type(n).__name__))
            if type(n) in (S.Exists, S.Forall):
                scope.append(n.var)
            return n if type(n) in S.ATOMS else None

        def leave(n, new):
            calls.append(("leave", type(n).__name__, tuple(scope)))
            if type(n) in (S.Exists, S.Forall):
                scope.pop()
            return S.rebuild(n, new)

        assert S.transform(phi, enter, leave) is phi
        assert calls == [
            ("enter", "Exists"), ("enter", "And"), ("enter", "GLeq"),
            ("enter", "Forall"), ("enter", "LEq"),
            ("leave", "Forall", ("x", "y")), ("leave", "And", ("x",)),
            ("leave", "Exists", ("x",)),
        ]
        assert scope == []

    def test_children_chooses_what_the_walk_descends_into(self):
        # an And chain walked right operand first, down to its atoms
        phi = parse("a <= b & b <= a & l = m", CTX)
        a, b, c = phi.left.left, phi.left.right, phi.right

        children = dict.fromkeys(S.ATOMS, lambda n: ())
        children[S.And] = lambda n: (n.right, n.left)
        out = S.transform(phi, lambda n: None, lambda n, new: tuple(new) or n, children)
        assert out == (c, (b, a))

    def test_deep_formula_walks_past_the_recursion_limit(self):
        assert sys.getrecursionlimit() == 1000
        atom = S.LEq(S.LVar("l"), S.Top())
        phi = atom
        for i in range(1500):
            phi = S.Exists(f"y{i}", S.L, S.Not(phi))
        assert S.transform(phi, atoms_as_leaves, refold) is phi

        def drop_binders(n, new):
            return new[0] if type(n) is S.Exists else refold(n, new)

        # dropping every binder leaves 1,500 negations, which fold cancels
        assert S.transform(phi, atoms_as_leaves, drop_binders) is atom


class TestLinearization:
    def test_round_trip_on_linear_terms(self):
        for text in ["a + b", "2*a - b", "-a", "0"]:
            t = parse(f"{text} <= 0", CTX).left
            jom = linearize_group_term(t)
            assert len(jom) == 1 and len(jom[0]) == 1
            assert gterm_to_lin(lin_to_gterm(jom[0][0])) == jom[0][0]

    def test_integer_coefficients_are_ints(self):
        t = parse("2*a - 3*(b meet a) <= 0", CTX).left
        for meet in linearize_group_term(t):
            for lin in meet:
                assert all(type(q) is int for _, q in lin.coeffs)

    def test_meet_join_shape(self):
        t = parse("(a meet b) join -a <= 0", CTX).left
        jom = linearize_group_term(t)
        # join of two meets: {a, b} and {-a}
        assert sorted(len(m) for m in jom) == [1, 2]

    def test_pointwise_agreement(self):
        rng = named_rng(7, "linearize")
        for text in ["(a meet b) join -a", "2*a - (b meet 0)", "a join (b + b)"]:
            t = parse(f"{text} <= 0", CTX).left
            jom = linearize_group_term(t)
            for _ in range(20):
                env = {
                    "a": Fraction(rng.randint(-5, 5)),
                    "b": Fraction(rng.randint(-5, 5)),
                }
                expect = _eval_scalar(t, env)
                got = max(min(lin.eval(env) for lin in m) for m in jom)
                assert got == expect


def _eval_scalar(t, env):
    if isinstance(t, S.GVar):
        return env[t.name]
    if isinstance(t, S.Zero):
        return Fraction(0)
    if isinstance(t, S.Add):
        return _eval_scalar(t.left, env) + _eval_scalar(t.right, env)
    if isinstance(t, S.Neg):
        return -_eval_scalar(t.arg, env)
    if isinstance(t, S.GMeet):
        return min(_eval_scalar(t.left, env), _eval_scalar(t.right, env))
    if isinstance(t, S.GJoin):
        return max(_eval_scalar(t.left, env), _eval_scalar(t.right, env))
    if isinstance(t, S.IntScale):
        return t.factor * _eval_scalar(t.arg, env)
    raise AssertionError(t)
