"""Lattice-sort reduction engine and the ec-theory decider."""

import hashlib
import json
from fractions import Fraction

import pytest

from dvlg import reduction, rewrites
from dvlg import syntax as S
from dvlg.corpus import gen_tplus_corpus, load_known_answers, named_rng
from dvlg.errors import NotSentence, SortError, UnsupportedFragment
from dvlg.linear import Lin
from dvlg.oracle import Assignment, decide_finite
from dvlg.parser import parse
from dvlg.reduction import (
    assemble_reduct,
    decide_ec,
    eliminate_group_var,
    reduce,
)
from dvlg.rewrites import (
    fold,
    fresh_names,
    lin_to_gterm,
    normalize,
    one_point,
    rename_bound,
    simplify,
    val_leaf,
    val_of_lin,
)
from dvlg.standard import FinStdStructure, GroupVector, SubsetL
from test_boolalg import _chain, _cyclic, _patching
from test_rewrites import _closures, _expand, _family_members, substitute

CTX = {"a": S.G, "b": S.G, "l": S.L, "m": S.L}


def _no_group_symbols(f):
    """chi must be purely lattice-sorted: no G atoms, no G quantifiers."""
    if isinstance(f, (S.GLeq, S.GEq)):
        return False
    if isinstance(f, (S.Exists, S.Forall)):
        return f.sort == S.L and _no_group_symbols(f.body)
    if isinstance(f, S.Not):
        return _no_group_symbols(f.arg)
    if isinstance(f, (S.And, S.Or, S.Implies)):
        return _no_group_symbols(f.left) and _no_group_symbols(f.right)
    return True


def _rand_env(rng, n):
    genv = {
        v: GroupVector(tuple(Fraction(rng.randint(-3, 3)) for _ in range(n)))
        for v in ("a", "b")
    }
    lenv = {v: SubsetL(rng.randrange(1 << n), n) for v in ("l", "m")}
    return Assignment(genv, lenv)


def _reduct_matches_oracle(text, seed=17, per_n=6):
    phi = parse(text, CTX)
    out = reduce(phi, mode="tplus")
    reduct = assemble_reduct(out)
    rng = named_rng(seed, f"reduction:{text}")
    for n in (1, 2, 3):
        struct = FinStdStructure(n)
        for _ in range(per_n):
            env = _rand_env(rng, n)
            lhs = decide_finite(struct, phi, env)
            rhs = decide_finite(
                struct, reduct, env, limits={"max_quantifiers": 25}
            )
            assert lhs == rhs, (text, n)


def _folded_conditions(bounds):
    """eliminate_group_var(bounds) built by folding: each difference
    through Lin.make and val_leaf, each term, condition and conjunction
    through fold."""
    out = S.TRUE
    for i, (y, rest_i, c_i) in enumerate(bounds):
        r = y if c_i > 0 else fold(S.Compl(y))
        for j, (yp, rest_j, c_j) in enumerate(bounds):
            if i == j:
                continue
            rp = fold(S.Compl(yp)) if c_j > 0 else yp
            f_i = abs(c_j) if c_i > 0 else -abs(c_j)
            f_j = abs(c_i) if c_j > 0 else -abs(c_i)
            diff = rest_i.scale(f_i) - rest_j.scale(f_j)
            target = val_leaf(diff)
            if c_j > 0 or c_i < 0:
                target = fold(S.LMeet(target, fold(S.Compl(val_leaf(-diff)))))
            cond = fold(S.LBelow(fold(S.LMeet(r, rp)), target))
            out = fold(S.And(out, cond))
    return out


class TestEliminateGroupVar:
    # one (y, rest, c) per valuation atom P(c*x + rest): with b = -rest/c,
    # x >= b on y if c > 0, else x <= b; the output keeps each valuation
    # atom as a LinForm leaf and is compared through lin_to_gterm
    L, M = S.LVar("l"), S.LVar("m")
    A, B = Lin.var("a"), Lin.var("b")

    def test_two_sided(self):
        # exists x (l below P(x - a) and m below P(b - x))
        out = eliminate_group_var([(self.L, -self.A, 1), (self.M, self.B, -1)])
        # lower bound a on l, upper bound b on m: l cap m << P(b - a)
        assert _expand(out.left) == S.LBelow(
            S.LMeet(self.L, self.M), val_of_lin(self.B - self.A)
        )

    def test_one_sided_true(self):
        assert eliminate_group_var([(S.Top(), -self.A, 1)]) == S.TRUE

    def test_strict_pair_gets_two_sided_form(self):
        out = eliminate_group_var([(self.L, -self.A, 1), (self.M, self.B, -1)])
        # x > b on compl(m) and x < a on compl(l): both bounds strict
        diff = self.A - self.B
        assert _expand(out.right) == S.LBelow(
            S.LMeet(S.Compl(self.M), S.Compl(self.L)),
            S.LMeet(val_of_lin(diff), S.Compl(val_of_lin(-diff))),
        )

    def test_side_conditions_scale_to_integers(self):
        # exists x (l below P(2x - 3a) and m below P(b - 3x)): the bounds
        # 3a/2 and b/3 give P(b/3 - 3a/2), which is P(2b - 9a)
        out = eliminate_group_var(
            [(self.L, self.A.scale(-3), 2), (self.M, self.B, -3)]
        )
        assert _expand(out.left) == S.LBelow(
            S.LMeet(self.L, self.M), val_of_lin(self.B.scale(2) - self.A.scale(9))
        )

    def test_zero_difference(self):
        # exists x (l below P(x - a) and m below P(a - x)): x = a. The
        # pair's non-strict condition l cap m << P(0) = top vanishes, and
        # the strict one says that compl(m) and compl(l) are disjoint
        out = eliminate_group_var([(self.L, -self.A, 1), (self.M, self.A, -1)])
        assert out == S.LBelow(S.LMeet(S.Compl(self.M), S.Compl(self.L)), S.Bot())

    @pytest.mark.parametrize("bounds", [
        [(L, -A, 1), (M, A, -1)],
        [(L, -A, 1), (M, B, -1)],
        [(L, A.scale(-3), 2), (M, B, -3)],
        [(L, -A, 1), (M, -A, 1)],
        [(L, -A, 1), (M, A - B, -1), (S.LVar("n"), B.scale(2), -4)],
        [(S.Top(), -A, 1)],
    ])
    def test_equals_the_folded_construction(self, bounds):
        assert eliminate_group_var(bounds) == _folded_conditions(bounds)

    def test_oracle_equivalence(self):
        # frozen instances checked semantically against the oracle
        cases = [
            ("exists x:G. l << P(x - a) & m << P(b - x)", "l cap m << P(b - a)"),
            ("exists x:G. top << P(x - a)", "top << top"),
            ("exists x:G. l << P(x - a) & l << P(-x)", "l << P(-a)"),
        ]
        rng = named_rng(23, "elim-equiv")
        for text, expected in cases:
            phi, psi = parse(text, CTX), parse(expected, CTX)
            for n in (1, 2, 3):
                struct = FinStdStructure(n)
                for _ in range(8):
                    env = _rand_env(rng, n)
                    assert decide_finite(struct, phi, env) == decide_finite(
                        struct, psi, env
                    ), (text, n)


class TestReduce:
    def test_simple_atom(self):
        out = reduce(parse("0 <= a", CTX))
        assert out.k == 1
        assert out.to_json()["terms"] == ["a"]
        assert out.chi == S.LEq(S.LVar("p1"), S.Top())

    def test_divisibility_witness_erased(self):
        out = reduce(parse("exists b:G. b + b = a", CTX))
        assert out.k == 0
        assert out.chi == S.TRUE

    def test_chi_has_no_group_symbols(self):
        for text, phi, ctx in gen_tplus_corpus(31, count=60):
            out = reduce(phi, mode="tplus")
            assert _no_group_symbols(out.chi), text
            # reassembled formula still sort-checks
            S.free_vars(assemble_reduct(out), S.free_vars(phi))

    def test_positive_existential_preserved(self):
        samples = [
            "exists x:G. l << P(x - a) & m << P(b - x)",
            "exists x:G. x <= a | b <= x",
            "exists x:G. exists w:G. x <= a & w <= x",
        ]
        for text in samples:
            out = reduce(parse(text, CTX), mode="tplus")
            assert _positive_existential(out.chi), text

    def test_tplus_equivalence_frozen_samples(self):
        samples = [
            "0 <= a",
            "exists b:G. b + b = a",
            "exists x:G. l << P(x - a) & m << P(b - x)",
            "forall x:G. x <= a -> x <= a + b",
            "exists x:G. 2*x <= a & b <= 3*x",
            "(exists x:G. x + x = a) | l << m",
        ]
        for text in samples:
            _reduct_matches_oracle(text)

    def test_fragment_rejection(self):
        # the group variable's scope retains a lattice quantifier that
        # mentions it: outside the tplus fragment
        text = "exists x:G. forall y:L. y << P(x - a)"
        with pytest.raises(UnsupportedFragment):
            reduce(parse(text, CTX), mode="tplus")
        # ec mode handles the same input
        out = reduce(parse(text, CTX), mode="ec")
        assert _no_group_symbols(out.chi)

    def test_ec_weak_order_unit_shape(self):
        out = reduce(
            parse("exists g:G. 0 <= g & ~(g = 0) & a meet g = 0", CTX),
            mode="ec",
        )
        assert _no_group_symbols(out.chi)
        assert out.k == len(out.terms) >= 1
        assert set(S.free_vars(out.chi)) <= {f"p{i+1}" for i in range(out.k)}


# a pin below a lattice binder that lacks the variable eliminated first
CROSS_PIN = (
    "forall l:L. forall c:G. forall a:G. exists x:G. "
    "(P(x) << l | exists m:L. (m << P(a + c) & m = P(a)))"
)

# reduce(phi, mode).to_json() and eliminations, frozen
FROZEN_REDUCTS = [
    # both signs of c; the complements' pair is strict on both sides
    ("exists x:G. l << P(x - a) & m << P(b - x)", "tplus",
     ["-a + b", "a + -b"],
     "exists _y0:L. exists _y1:L. l << _y0 & m << _y1 & (_y0 cap _y1 << p1 "
     "& compl(_y1) cap compl(_y0) << p2 cap compl(p1))", 1),
    # coefficients 2 and 3 on x
    ("exists x:G. 2*x <= a & b <= 3*x", "ec", ["3*a + -(2*b)"], "top << p1", 1),
    ("forall x:G. x <= a -> x <= a + b", "ec", ["b", "-b"],
     "~(exists _y0:L. exists _y1:L. ~(_y0 = top -> _y1 = top) & "
     "(compl(_y0) cap _y1 << p1 cap compl(p2) & "
     "compl(_y1) cap _y0 << p2 cap compl(p1)))", 1),
    # one_point pins both fresh lattice variables
    ("exists x:G. P(x) = l & P(x - a) = m", "tplus", ["a", "-a"],
     "l cap compl(m) << p1 cap compl(p2) & m cap compl(l) << p2 cap compl(p1)",
     1),
    # an exists y:L hoist, and a pin
    ("exists x:G. exists y:L. y = P(x) & y << m & P(a - x) = l", "ec",
     ["a", "-a"],
     "exists _q1:L. _q1 << m & (_q1 cap l << p1 & "
     "compl(l) cap compl(_q1) << p2 cap compl(p1))", 1),
    # a ~forall hoist two levels deep
    ("exists x:G. ~(forall y:L. forall z:L. y cap z << P(x - a))", "ec", [],
     "exists _q1:L. exists _q2:L. exists _y0:L. ~_q1 cap _q2 << _y0", 1),
    # an exists y:L hoist, then a ~forall one
    ("exists x:G. exists y:L. ~(forall z:L. z cap y << P(x - a) cap P(b - x))",
     "ec", ["-a + b", "a + -b"],
     "exists _q1:L. exists _q2:L. exists _y0:L. exists _y1:L. "
     "~_q2 cap _q1 << _y0 cap _y1 & (_y0 cap _y1 << p1 & "
     "compl(_y1) cap compl(_y0) << p2 cap compl(p1))", 1),
    # each elimination applies the one-point rule at every binder its
    # walk passes: applied only at the new _y binders, it numbers the
    # fresh names differently here
    ("forall a:G. forall b:G. exists x:G. (P(x) << P(a) | exists l:L. "
     "(l = P(a) & compl(l) cap P(a + b) = compl(P(a)) cap P(a + b) & "
     "P(x) << l))", "ec", [],
     "~(exists _y1:L. ~(exists _y0:L. _y0 << _y1))", 3),
    # the lattice binder over m holds no x, but the x elimination's walk
    # must still apply the one-point rule there: the rule moves P(a)
    # before P(a + c), so the a elimination names them in that order
    (CROSS_PIN, "ec", [],
     "forall _q0:L. ~(exists _y1:L. exists _y2:L. exists _y3:L. "
     "exists _y4:L. ~(exists _y0:L. _y0 << _q0 | _y1 << _y2) & "
     "(_y1 cap compl(_y2) << _y3 cap compl(_y4) & "
     "_y2 cap compl(_y1) << _y4 cap compl(_y3)) & "
     "compl(_y3) cap compl(_y4) << bot)", 3),
]


@pytest.mark.parametrize("text, mode, terms, chi, eliminations", FROZEN_REDUCTS)
def test_frozen_reduct(text, mode, terms, chi, eliminations):
    out = reduce(parse(text, CTX), mode)
    assert out.to_json() == {"k": len(terms), "terms": terms, "chi": chi, "mode": mode}
    assert out.eliminations == eliminations


def _pinned_inputs():
    """The known answers, the benchmark's family members at their k and
    the forall- and exists-closures of gen_tplus_corpus(1, 400)."""
    texts = [e["formula"] for e in load_known_answers()] + _family_members()
    phis = [parse(text) for text in texts]
    for _, phi, _ in gen_tplus_corpus(1, 400):
        phis += _closures(phi)
    return phis


def _reduce_digest(phis) -> str:
    """sha256 of reduce(phi, mode).to_json() and eliminations in both
    modes, or of the error that tplus mode raises."""
    h = hashlib.sha256()
    for phi in phis:
        for mode in ("tplus", "ec"):
            try:
                out = reduce(phi, mode)
                record = f"{json.dumps(out.to_json())} {out.eliminations}"
            except UnsupportedFragment as exc:
                record = f"UnsupportedFragment: {exc}"
            h.update(record.encode() + b"\n")
    return h.hexdigest()


# _reduce_digest(_pinned_inputs()) from the reducer that rebuilt each
# valuation atom as a G-term and linearized it again at each elimination
REDUCE_DIGEST = (
    "d3bf6cb9572d83c9e0a0af635cac1815abb1c2df83288448b47fe10b82b37d64"
)


class TestPinnedOutput:
    @pytest.fixture(scope="class")
    def phis(self):
        return _pinned_inputs()

    def test_reduce_output_is_unchanged(self, phis):
        assert len(phis) == 829
        assert _reduce_digest(phis) == REDUCE_DIGEST

    def test_no_linform_leaf_in_the_output(self, phis):
        for phi in phis:
            for mode in ("tplus", "ec"):
                try:
                    out = reduce(phi, mode)
                except UnsupportedFragment:
                    continue
                for root in (out.chi, *out.terms):
                    assert not any(type(n) is S.LinForm for n in S.nodes(root))

    def test_walks_read_a_leaf_as_its_gterm(self, phis):
        # each valuation atom normalize makes, against its G-term
        atoms = {
            n for phi in phis for n in S.nodes(normalize(phi, S.free_vars(phi)))
            if type(n) is S.Val
        }
        assert len(atoms) > 100
        for leaf in atoms:
            gterm = S.Val(lin_to_gterm(leaf.arg.lin))
            assert S.print_term(leaf) == S.print_term(gterm)
            # the same variables and sorts, in the same order
            assert list(S.free_vars(leaf).items()) == list(S.free_vars(gterm).items())
            for name in (*S.free_vars(gterm), "_absent"):
                assert S.occurs_free(name, leaf) == S.occurs_free(name, gterm)
            # a variable declared at sort L is misused the same way
            for name in S.free_vars(gterm):
                with pytest.raises(SortError) as leaf_err:
                    S.free_vars(leaf, {name: S.L})
                with pytest.raises(SortError) as gterm_err:
                    S.free_vars(gterm, {name: S.L})
                assert str(leaf_err.value) == str(gterm_err.value)


def _names(f):
    """Every variable name in f: free, bound and in LinForm leaves."""
    out = set()
    for n in S.nodes(f):
        cls = type(n)
        if cls is S.GVar or cls is S.LVar:
            out.add(n.name)
        elif cls is S.LinForm:
            out.update(v for v, _ in n.lin.coeffs)
        elif cls is S.Exists or cls is S.Forall:
            out.add(n.var)
    return out


def _sequential_elimination(var, body, fresh):
    """_eliminate_exists(var, body, fresh, "ec") as a sequence of passes
    over the whole formula: peel the lattice block, name the atoms that
    mention var with substitute (fresh names in pre-order), conjoin the
    side conditions, bind the new names, run one_point, then bind the
    block again. Also the number of named atoms, and whether one_point
    changes the named body alone, that is, fires at a binder that was
    in the body."""
    block = []
    while True:
        if type(body) is S.Not and type(body.arg) is S.Forall:
            q = body.arg
            body = fold(S.Exists(q.var, S.L, fold(S.Not(q.body))))
        elif type(body) is S.Exists and body.sort == S.L:
            block.append(body.var)
            body = body.body
        else:
            break
    atoms = {}
    for n in S.nodes(body):
        if type(n) is S.Val and n.arg.lin.get(var) and n not in atoms:
            atoms[n] = S.LVar(next(fresh))
    old_pin = False
    if atoms:
        bounds = []
        for atom, y in atoms.items():
            lin = atom.arg.lin
            rest = Lin(tuple(item for item in lin.coeffs if item[0] != var))
            bounds.append((y, rest, lin.get(var)))
        named = substitute(body, atoms)
        old_pin = one_point(named) is not named
        body = fold(S.And(named, eliminate_group_var(bounds)))
        for y in reversed(atoms.values()):
            body = S.Exists(y.name, S.L, body)
        body = one_point(body)
    return reduction._wrap_exists(block, body), len(atoms), old_pin


class TestEliminationStep:
    """_eliminate_exists names the atoms and applies the one-point rule
    in one walk; it gives what the sequential passes give on every
    (var, body) that reducing the pinned inputs and deeper family
    members meets."""

    @pytest.fixture(scope="class")
    def steps(self):
        met = []
        eliminate = reduction._eliminate_exists

        def record(var, body, fresh, mode):
            met.append((var, body))
            return eliminate(var, body, fresh, mode)

        phis = _pinned_inputs() + [
            parse(text) for text in (_patching(5), _cyclic(16), _chain(16))
        ]
        # the last one pins at a lattice binder that was in the body
        phis += [parse(text, CTX) for text, *_ in FROZEN_REDUCTS]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(reduction, "_eliminate_exists", record)
            for phi in phis:
                reduce(phi, "ec")
        return met

    def test_equals_the_sequential_passes(self, steps):
        named = old_pins = 0
        for var, body in steps:
            taken = _names(body)
            got = reduction._eliminate_exists(
                var, body, fresh_names("_y", taken), "ec"
            )
            want, atoms, old_pin = _sequential_elimination(
                var, body, fresh_names("_y", taken)
            )
            assert got == want, (var, S.print_formula(body))
            named += atoms > 0
            old_pins += old_pin
        assert len(steps) > 2000 and named > 1000 and old_pins >= 1


class TestOnePointWalk:
    """The one-point rule substitutes and refolds in one walk
    (rewrites.substitute_refold), entering only the nodes that have the
    pinned variable free. At every firing that reducing the pinned
    inputs and deeper family members meets, in both modes, it gives what
    substituting over the whole body and simplifying the whole result
    gives."""

    @pytest.fixture(scope="class")
    def firings(self):
        met = []
        walk = rewrites.substitute_refold

        def record(phi, key, value):
            out = walk(phi, key, value)
            met.append((phi, key, value, out))
            return out

        phis = _pinned_inputs() + [
            parse(text) for text in (_patching(5), _cyclic(16), _chain(16))
        ]
        phis += [parse(text, CTX) for text, *_ in FROZEN_REDUCTS]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rewrites, "substitute_refold", record)
            for phi in phis:
                for mode in ("tplus", "ec"):
                    try:
                        reduce(phi, mode)
                    except UnsupportedFragment:
                        pass
        return met

    @staticmethod
    def _reference(phi, key, value):
        """The rule's result as one substitution over all of phi, then
        simplify over all of it."""
        return simplify(substitute(phi, {key: value}))

    def test_equals_substitute_then_simplify(self, firings):
        for phi, key, value, out in firings:
            assert out == self._reference(phi, key, value), S.print_formula(phi)
        assert len(firings) > 1000
        # the reducer pins lattice variables alone, some of which occur
        # outside the equality that pins them
        assert {type(key) for _, key, _, _ in firings} == {S.LVar}
        assert sum(
            sum(n == key for n in S.nodes(phi)) > 2 for phi, key, _, _ in firings
        ) > 100

    @pytest.mark.parametrize("text, key, value", [
        ("m = l & m << P(a) & (exists n:L. n << l | P(b) = top)",
         S.LVar("m"), S.LVar("l")),
        ("x = b & x <= a & (exists n:L. n << l | 2*a <= b)",
         S.GVar("x"), S.GVar("a")),
    ])
    def test_a_subformula_without_the_variable_comes_back_as_it_is(
        self, text, key, value
    ):
        body = parse(text, {**CTX, "x": S.G})
        out = rewrites.substitute_refold(body, key, value)
        assert out == self._reference(body, key, value)
        assert out.right is body.right
        assert not S.occurs_free(key.name, out)


class TestDecideEc:
    def test_known_truths(self):
        assert decide_ec(parse("forall v:G. exists b:G. b + b = v")) is True
        assert decide_ec(parse("exists v:G. 0 <= v & P(-v) = bot")) is True

    def test_known_falsehoods(self):
        phi = parse(
            "forall a:G. 0 <= a -> "
            "(exists g:G. 0 <= g & ~(g = 0) & a meet g = 0)"
        )
        assert decide_ec(phi) is False
        assert decide_ec(parse("top = bot")) is False

    def test_open_formula_rejected(self):
        with pytest.raises(NotSentence):
            decide_ec(parse("0 <= a", CTX))

    def test_invariant_under_bound_renaming(self):
        sentences = [
            "forall v:G. exists b:G. b + b = v",
            "exists v:G. 0 <= v & P(-v) = bot",
            "forall x:L. ~(x = bot) -> "
            "(exists y:L. ~(y = bot) & y << x & ~(y = x))",
        ]
        for text in sentences:
            phi = parse(text)
            assert decide_ec(phi) == decide_ec(rename_bound(phi, "_z", S.free_vars(phi)))


class TestFreshNames:
    """The names the reduction makes skip the free variables of its
    input, so that none of them is captured."""

    def test_bound_names_skip_a_free_q(self):
        # x = c - 1 is a witness, whatever c is called
        outs = [
            reduce(parse(f"exists x:G. x <= {c} & ~(x = {c})", {c: S.G}), "tplus")
            for c in ("_q0", "c")
        ]
        assert outs[0].to_json() == outs[1].to_json()
        assert assemble_reduct(outs[0]) != S.FALSE

    def test_fresh_lattice_variables_skip_a_free_y(self):
        chis = [
            reduce(parse(f"exists x:G. P(x) = {m} & ~({m} = top)", {m: S.L}), "ec").chi
            for m in ("_y0", "m")
        ]
        assert [S.print_formula(chi) for chi in chis] == ["~_y0 = top", "~m = top"]

    def test_term_names_skip_a_free_p(self):
        out = reduce(parse("P(a) = p1", {"a": S.G, "p1": S.L}), "ec")
        assert out.names == ("p2",)
        assert out.to_json() == {
            "k": 1, "terms": ["a"], "chi": "p2 = p1", "mode": "ec", "names": ["p2"],
        }
        assert S.free_vars(assemble_reduct(out)) == {"p1": S.L, "a": S.G}


class TestCrossingLatticeQuantifier:
    """A group variable under a lattice quantifier: tplus refuses the
    sentence, and ec leaves the quantifier to ba_decide."""

    @pytest.mark.parametrize("text, verdict", [
        # x = a gives P(x - a) = P(0) = top, above every y
        ("forall a:G. exists x:G. forall y:L. y << P(x - a)", True),
        # y = top forces P(x) cap P(-x) = top, so P(x) = top
        ("exists x:G. ~(P(x) = top) & forall y:L. y << P(x) cap P(-x)",
         False),
        # x = 0 gives P(x) = top, above every y
        ("exists x:G. forall y:L. y << P(x) | y cap P(x) = bot", True),
        # P(x) would be an atom, and the P-image is atomless
        ("exists x:G. ~(P(x) = bot) & "
         "forall y:L. y << P(x) -> y = bot | y = P(x)", False),
    ])
    def test_ec_verdict_and_tplus_refusal(self, text, verdict):
        # reduce leaves the lattice quantifier in chi for ba_decide
        chi = reduce(parse(text), mode="ec").chi
        assert any(
            type(n) in (S.Exists, S.Forall) and n.sort == S.L for n in S.nodes(chi)
        )
        assert decide_ec(parse(text)) is verdict
        with pytest.raises(UnsupportedFragment):
            reduce(parse(text), mode="tplus")

    def test_tplus_names_the_first_crossing_binder_in_pre_order(self):
        # a binder without x comes first, then two that x crosses; the
        # message names the outer of those, as a pre-order walk meets it.
        # In the second input the one-point rule fires in the first
        # conjunct, before the walk meets a crossing binder.
        for first in ("exists z:L. z << l", "exists z:L. z = m & z << l"):
            text = (
                f"exists x:G. ({first}) & "
                "(forall y:L. y << P(x) | exists w:L. w << P(x - a))"
            )
            with pytest.raises(UnsupportedFragment) as err:
                reduce(parse(text, CTX), mode="tplus")
            assert str(err.value) == (
                "group variable _q0 crosses the lattice quantifier over _q2 in: "
                "forall _q2:L. _q2 << P(_q0) | (exists _q3:L. _q3 << P(_q0 + -a))"
            ), first


class TestEliminationCount:
    """ReductionOutput.eliminations counts eliminated group variables;
    hoisting a lattice block above the variable adds none."""

    @pytest.mark.parametrize("text, count", [
        # a double negation: simplify removes it before the hoist
        ("exists a:G. ~~(exists y:L. y << P(a) & ~(y = bot))", 1),
        # a negated universal lattice block
        ("exists a:G. ~(forall y:L. y << P(a))", 1),
        # an existential lattice block
        ("exists a:G. exists y:L. y << P(a) & ~(y = bot)", 1),
        ("exists a:G. exists b:G. ~(forall y:L. y << P(a - b))", 2),
        # a two-level hoist: exists y:L, then ~forall z:L
        ("exists a:G. exists y:L. ~(forall z:L. z cap y << P(a))", 1),
    ])
    def test_one_per_group_variable(self, text, count):
        assert reduce(parse(text), mode="ec").eliminations == count


def _positive_existential(f):
    if isinstance(f, (S.Not, S.Implies, S.Forall)):
        return False
    if isinstance(f, (S.And, S.Or)):
        return _positive_existential(f.left) and _positive_existential(f.right)
    if isinstance(f, S.Exists):
        return _positive_existential(f.body)
    return True
