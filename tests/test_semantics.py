"""The one Tarskian evaluator (syntax.eval_term / syntax.holds) in the
two models: the finite stages Stan(Q^n) and the periodic model, whose
lattice sort is also read alone, as boolalg.interval_check reads it."""

import random
from fractions import Fraction

import pytest

from dvlg import periodic as P
from dvlg import syntax as S
from dvlg.boolalg import ba_decide, interval_check
from dvlg.errors import PreconditionViolated, UnboundVariable
from dvlg.oracle import Assignment, eval_qf
from dvlg.rewrites import simplify
from dvlg.selfcheck import eval_qf_periodic
from dvlg.standard import FinStdStructure, GroupVector, SubsetL

a, b, z = S.GVar("a"), S.GVar("b"), S.GVar("z")
l, m = S.LVar("l"), S.LVar("m")
zero, bot, top = S.Zero(), S.Bot(), S.Top()


def vec(*xs):
    return GroupVector(tuple(Fraction(x) for x in xs))


def sub(*idx):
    return SubsetL.from_indices(idx, 2)


def pf(k, *xs):
    return P.PeriodicFn(k, tuple(Fraction(x) for x in xs))


STAN = FinStdStructure(2)
STAN_G = {"a": vec(1, -2), "b": vec(3, 0)}
STAN_L = {"l": sub(0), "m": sub(1)}
PER_ENV = {
    "a": pf(1, 1, -2), "b": pf(0, 3),
    "l": P.PeriodicSet(1, 0b01), "m": P.PeriodicSet(1, 0b10),
}
# lattice values alone, with l and m overlapping: {0, 1} and {1, 2, 3}
PER_L = {"l": P.PeriodicSet(2, 0b0011), "m": P.PeriodicSet(2, 0b1110)}

# (term, value in Stan(Q^2), value in the periodic model), hand-computed
TERMS = [
    (a, vec(1, -2), pf(1, 1, -2)),
    (zero, vec(0, 0), pf(0, 0)),
    (S.Add(a, b), vec(4, -2), pf(1, 4, 1)),
    (S.Neg(a), vec(-1, 2), pf(1, -1, 2)),
    (S.GMeet(a, b), vec(1, -2), pf(1, 1, -2)),
    (S.GJoin(a, b), vec(3, 0), pf(0, 3)),
    (S.IntScale(-3, a), vec(-3, 6), pf(1, -3, 6)),
    (S.IntScale(0, a), vec(0, 0), pf(0, 0)),
    (S.IntScale(2, S.Add(a, S.Neg(b))), vec(-4, -4), pf(1, -4, -10)),
    (l, sub(0), P.PeriodicSet(1, 0b01)),
    (bot, sub(), P.PERIODIC_BOT),
    (top, sub(0, 1), P.PERIODIC_TOP),
    (S.LMeet(l, m), sub(), P.PERIODIC_BOT),
    (S.LJoin(l, m), sub(0, 1), P.PERIODIC_TOP),
    (S.Compl(l), sub(1), P.PeriodicSet(1, 0b10)),
    (S.Val(a), sub(0), P.PeriodicSet(1, 0b01)),
    (S.Val(S.Neg(a)), sub(1), P.PeriodicSet(1, 0b10)),
    (S.Val(b), sub(0, 1), P.PERIODIC_TOP),
]

# (lattice term, value in the periodic model under PER_L), hand-computed
LATTICE_TERMS = [
    (l, P.PeriodicSet(2, 0b0011)),
    (bot, P.PERIODIC_BOT),
    (top, P.PERIODIC_TOP),
    (S.LMeet(l, m), P.PeriodicSet(2, 0b0010)),
    (S.LJoin(l, m), P.PERIODIC_TOP),
    (S.Compl(l), P.PeriodicSet(2, 0b1100)),
    (S.Compl(S.LJoin(S.LMeet(l, m), S.Compl(m))), P.PeriodicSet(2, 0b1100)),
]

# (formula, truth in Stan(Q^2), in the periodic model, in the periodic
# model under PER_L or None where the formula has group symbols)
FORMULAS = [
    (S.GLeq(S.GMeet(a, b), a), True, True, None),
    (S.GLeq(a, b), True, True, None),
    (S.GLeq(b, a), False, False, None),
    (S.GLeq(zero, b), True, True, None),
    (S.GLeq(b, zero), False, False, None),
    (S.GEq(S.Add(a, S.Neg(a)), zero), True, True, None),
    (S.GEq(a, b), False, False, None),
    (S.LBelow(S.LMeet(l, m), l), True, True, True),
    (S.LBelow(l, m), False, False, False),
    (S.LBelow(m, l), False, False, False),
    (S.LEq(S.Compl(S.Compl(l)), l), True, True, True),
    (S.LEq(S.LJoin(l, m), top), True, True, True),
    (S.LEq(S.Val(a), l), True, True, None),
    (S.TRUE, True, True, True),
    (S.FALSE, False, False, False),
    (S.Not(S.LEq(l, m)), True, True, True),
    (S.And(S.LEq(l, l), S.LEq(l, m)), False, False, False),
    (S.Or(S.LEq(l, m), S.LEq(m, m)), True, True, True),
    (S.Implies(S.LEq(l, m), S.FALSE), True, True, True),
    (S.Implies(S.TRUE, S.LEq(l, m)), False, False, False),
]


class TestTable:
    @pytest.mark.parametrize("t, in_stan, in_periodic", TERMS)
    def test_terms(self, t, in_stan, in_periodic):
        assert S.eval_term(STAN, STAN_G, STAN_L, t) == in_stan
        assert S.eval_term(P.PERIODIC, PER_ENV, PER_ENV, t) == in_periodic

    @pytest.mark.parametrize("t, value", LATTICE_TERMS)
    def test_lattice_terms(self, t, value):
        assert S.eval_term(P.PERIODIC, {}, PER_L, t) == value

    @pytest.mark.parametrize("phi, in_stan, in_periodic, in_lattice", FORMULAS)
    def test_formulas(self, phi, in_stan, in_periodic, in_lattice):
        assert S.holds(STAN, STAN_G, STAN_L, phi) is in_stan
        assert eval_qf(STAN, Assignment(STAN_G, STAN_L), phi) is in_stan
        assert S.holds(P.PERIODIC, PER_ENV, PER_ENV, phi) is in_periodic
        assert eval_qf_periodic(PER_ENV, phi) is in_periodic
        if in_lattice is not None:
            assert S.holds(P.PERIODIC, {}, PER_L, phi) is in_lattice

    @pytest.mark.parametrize("model, genv, lenv", [
        (STAN, STAN_G, STAN_L),
        (P.PERIODIC, PER_ENV, PER_ENV),
        (P.PERIODIC, {}, PER_L),
    ])
    def test_unbound_variable(self, model, genv, lenv):
        with pytest.raises(UnboundVariable, match="z not assigned"):
            S.holds(model, genv, lenv, S.LEq(S.LVar("z"), top))
        if genv:
            with pytest.raises(UnboundVariable, match="z not assigned"):
                S.eval_term(model, genv, lenv, S.Add(a, z))

    def test_quantifier_rejected(self):
        phi = S.Exists("x", S.G, S.GLeq(S.GVar("x"), a))
        with pytest.raises(PreconditionViolated):
            S.holds(STAN, STAN_G, STAN_L, phi)
        with pytest.raises(PreconditionViolated):
            eval_qf_periodic(PER_ENV, phi)


# --- random quantifier-free formulas over a, b:G and l:L ---

def rand_gterm(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([a, b, a, b, zero])
    kind = rng.randrange(5)
    if kind == 0:
        return S.Add(rand_gterm(rng, depth - 1), rand_gterm(rng, depth - 1))
    if kind == 1:
        return S.Neg(rand_gterm(rng, depth - 1))
    if kind == 2:
        return S.GMeet(rand_gterm(rng, depth - 1), rand_gterm(rng, depth - 1))
    if kind == 3:
        return S.GJoin(rand_gterm(rng, depth - 1), rand_gterm(rng, depth - 1))
    return S.IntScale(rng.randint(-3, 3), rand_gterm(rng, depth - 1))


def rand_lterm(rng, depth, leaves):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(leaves)()
    kind = rng.randrange(4)
    if kind == 0:
        return S.LMeet(rand_lterm(rng, depth - 1, leaves), rand_lterm(rng, depth - 1, leaves))
    if kind == 1:
        return S.LJoin(rand_lterm(rng, depth - 1, leaves), rand_lterm(rng, depth - 1, leaves))
    if kind == 2:
        return S.Compl(rand_lterm(rng, depth - 1, leaves))
    return rng.choice(leaves)()


def rand_formula(rng, depth, atom):
    if depth == 0 or rng.random() < 0.35:
        return atom(rng)
    kind = rng.randrange(4)
    if kind == 0:
        return S.Not(rand_formula(rng, depth - 1, atom))
    ctor = (S.And, S.Or, S.Implies)[kind - 1]
    return ctor(rand_formula(rng, depth - 1, atom), rand_formula(rng, depth - 1, atom))


def mixed_atom(rng):
    leaves = [lambda: l, S.Bot, S.Top, lambda: S.Val(rand_gterm(rng, 2))]
    kind = rng.randrange(4)
    if kind == 0:
        return S.GLeq(rand_gterm(rng, 2), rand_gterm(rng, 2))
    if kind == 1:
        return S.GEq(rand_gterm(rng, 2), rand_gterm(rng, 2))
    ctor = S.LBelow if kind == 2 else S.LEq
    return ctor(rand_lterm(rng, 2, leaves), rand_lterm(rng, 2, leaves))


def ground_atom(rng):
    ctor = rng.choice([S.LBelow, S.LEq])
    leaves = [S.Bot, S.Top]
    return ctor(rand_lterm(rng, 3, leaves), rand_lterm(rng, 3, leaves))


def rand_periodic(rng):
    k = rng.randint(0, 2)
    return P.normalize(k, [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(1 << k)])


def test_direct_limit_property():
    """A quantifier-free formula has the same truth value in the periodic
    model as in the stage Stan(Q^(2^K)) its values lift to."""
    rng = random.Random(20261018)
    for _ in range(600):
        phi = rand_formula(rng, 3, mixed_atom)
        env = {"a": rand_periodic(rng), "b": rand_periodic(rng)}
        k = rng.randint(0, 2)
        env["l"] = P.normalize_set(k, rng.randrange(1 << (1 << k)))
        big = max(v.k for v in env.values())
        lifted = Assignment(
            {v: GroupVector(env[v].lift(big)) for v in ("a", "b")},
            {"l": SubsetL(env["l"].lift_mask(big), 1 << big)},
        )
        assert eval_qf_periodic(env, phi) == eval_qf(
            FinStdStructure(1 << big), lifted, phi
        ), S.print_formula(phi)


def test_simplify_decides_ground_lattice_formulas():
    """ba_decide relies on this: simplify folds every variable-free
    lattice formula to TRUE or FALSE, and the constant is its truth in
    the periodic model's lattice sort."""
    rng = random.Random(20261019)
    for _ in range(400):
        phi = rand_formula(rng, 3, ground_atom)
        out = simplify(phi)
        assert isinstance(out, (S.TrueF, S.FalseF)), S.print_formula(phi)
        truth = isinstance(out, S.TrueF)
        assert truth == interval_check(phi, 0) == ba_decide(phi), S.print_formula(phi)
