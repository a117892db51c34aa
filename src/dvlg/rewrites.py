"""Normalization passes on terms and formulas.

These implement the compiler-style front half of the reduction
pipeline: distributing group operations to join-of-meets of linear
forms, pushing the valuation symbol down to primitive linear
arguments, and trading group atoms for lattice atoms. A term with no
meet or join is one linear form, whose coefficients one walk adds up;
only a meet or a join takes the join-of-meets product.

normalize is the reducer's one normalization walk: it renames the
binders apart, trades and pushes each atom and folds each node it
builds, so its output is simplify output. It is where the reducer's
valuation atoms are made: each is Val(LinForm(lin)) (val_leaf), with
lin the primitive integer linear form, added up straight from the
atom's terms, and a G-sorted atom s <= t adds t - s into one dict. The
reducer reads lin back from the leaf, and converts each atom it
extracts to a G-term once, with lin_to_gterm. push_valuation, outside
the reducer, builds G-term atoms (val_of_lin). rename_bound and
normalize draw their fresh names from fresh_names, skipping the free
names that the caller passes.

simplify applies fold, the constant folding of one node, a formula or
a lattice term, bottom-up, and leaves its own output unchanged. A pass
that keeps its formulas simplified folds only the nodes it builds:
refold is the way up of one_point and of the reducer's group
elimination. Their way down is atoms_as_leaves, which makes each
subformula that holds no binder (syntax's has_binder), an atom among
them, a leaf: such a subformula has no binder to act at, and refold
would give it back as it is.

one_point_at looks for the pinning equality only in conjuncts that
have the variable free, and when the rule fires it substitutes and
folds in one walk, substitute_refold, that enters only the nodes that
have the variable free and folds only the nodes above a replaced one:
what a substitution over the whole tree followed by simplify gives,
which the tests check it against.

Every walk here that follows the depth of a tree runs on
syntax.transform, which keeps its own stack, or keeps a stack of its
own (_accumulate, _conjuncts). normalize and rename_bound carry their
renaming of bound names in scope as a _Renaming, which their enter
opens at a binder and their leave closes.
"""

from __future__ import annotations

import itertools
from math import gcd

from . import syntax as S
from .errors import SortError
from .linear import Lin
from .syntax import lin_to_gterm

JoinOfMeets = tuple  # tuple of tuples of Lin


def linearize_group_term(t: S.Term) -> JoinOfMeets:
    """Rewrite a G-sorted term as a join of meets of linear forms."""
    return _linearize(t, {})


def _linearize(t: S.Term, names: dict) -> JoinOfMeets:
    """linearize_group_term of t with each variable renamed by names. A
    term with no meet or join is one linear form: its coefficients are
    added up in one walk, and the join-of-meets product is not built."""
    acc = {}
    if _accumulate(t, 1, acc, names):
        return ((Lin.make(acc),),)
    return _join_of_meets(t, names)


def _accumulate(t: S.Term, factor, acc: dict, names: dict) -> bool:
    """Add factor times the linear form of t into acc, variable by
    variable; False, with acc part-filled, at a meet or a join. The walk
    keeps its own stack of (term, factor) pairs, left operand first, so
    a long run of unary minus adds no recursion depth."""
    stack = [(t, factor)]
    while stack:
        t, factor = stack.pop()
        cls = type(t)
        if cls is S.GVar:
            name = names.get(t.name, t.name)
            acc[name] = acc.get(name, 0) + factor
        elif cls is S.Add:
            stack += ((t.right, factor), (t.left, factor))
        elif cls is S.Neg:
            stack.append((t.arg, -factor))
        elif cls is S.IntScale:
            stack.append((t.arg, factor * t.factor))
        elif cls is S.GMeet or cls is S.GJoin:
            return False
        elif cls is not S.Zero:
            raise SortError(f"not a G-sorted term: {S.print_term(t)}")
    return True


_GROUP_OPS = (S.Add, S.Neg, S.GMeet, S.GJoin, S.IntScale)


def _join_of_meets(t: S.Term, names: dict) -> JoinOfMeets:
    """linearize_group_term of t with each variable renamed by names, by
    distributing + and - over meet and join."""

    def enter(t):
        cls = type(t)
        if cls is S.GVar:
            return ((Lin.var(names.get(t.name, t.name)),),)
        if cls is S.Zero:
            return ((Lin.zero(),),)
        if cls not in _GROUP_OPS:
            raise SortError(f"not a G-sorted term: {S.print_term(t)}")
        return None

    return S.transform(t, enter, _join_of_meets_at)


def _join_of_meets_at(t: S.Term, new: list) -> JoinOfMeets:
    """The join of meets of a group operation t over the joins of meets
    of its operands."""
    cls = type(t)
    if cls is S.Add:
        a, b = new
        return tuple(
            tuple(x + y for x in meet_a for y in meet_b)
            for meet_a in a
            for meet_b in b
        )
    if cls is S.Neg:
        return _negate_jom(new[0])
    if cls is S.GMeet:
        a, b = new
        return tuple(ma + mb for ma in a for mb in b)
    if cls is S.GJoin:
        return new[0] + new[1]
    q, inner = t.factor, new[0]
    if q == 0:
        return ((Lin.zero(),),)
    if q > 0:
        return tuple(tuple(l.scale(q) for l in meet) for meet in inner)
    return _negate_jom(tuple(tuple(l.scale(-q) for l in meet) for meet in inner))


def _negate_jom(jom: JoinOfMeets) -> JoinOfMeets:
    # -(join of meets) = meet of joins of negations; redistribute by
    # picking one negated disjunct from each meet-of-joins factor.
    factors = [tuple(-l for l in meet) for meet in jom]
    return tuple(tuple(choice) for choice in itertools.product(*factors))


def gterm_to_lin(t: S.Term) -> Lin:
    """Linear form of a meet/join-free G-term."""
    jom = linearize_group_term(t)
    if len(jom) != 1 or len(jom[0]) != 1:
        raise ValueError(f"term is not linear: {S.print_term(t)}")
    return jom[0][0]


def val_of_lin(lin: Lin) -> S.Term:
    """Valuation atom for a linear form, in primitive canonical form."""
    if lin.is_zero():
        return S.Top()
    return S.Val(lin_to_gterm(lin.primitive()))


def val_leaf(lin: Lin) -> S.Term:
    """val_of_lin(lin) with its argument kept as a LinForm leaf, for a
    form with integer coefficients: top if lin is zero, else P of lin
    divided by the gcd of its coefficients."""
    coeffs = lin.coeffs
    if not coeffs:
        return S.Top()
    g = gcd(*[c for _, c in coeffs])
    if g != 1:
        lin = Lin(tuple((v, c // g) for v, c in coeffs))
    return S.Val(S.LinForm(lin))


def push_valuation(t: S.Term) -> S.Term:
    """Push every valuation application down to a primitive linear form."""
    return S.transform(t, _normalizer({}, val_of_lin), S.rebuild)


def _val_of_jom(jom: JoinOfMeets, atom) -> S.Term:
    """P of the join of meets jom, pushed down to its linear forms: the
    join of the meets of atom(l), for atom val_of_lin or val_leaf, each
    node folded as it is built."""
    result = None
    for meet in jom:
        out = atom(meet[0])
        for l in meet[1:]:
            out = fold(S.LMeet(out, atom(l)))
        result = out if result is None else fold(S.LJoin(result, out))
    return result


def group_atoms_to_lattice(phi: S.Formula) -> S.Formula:
    """Replace G-sort atoms using density: s <= t becomes P(t - s) = top."""

    def leq(s: S.Term, t: S.Term) -> S.Formula:
        return S.LEq(S.Val(S.Add(t, S.Neg(s))), S.Top())

    def enter(f):
        if isinstance(f, S.GLeq):
            return leq(f.left, f.right)
        if isinstance(f, S.GEq):
            return S.And(leq(f.left, f.right), leq(f.right, f.left))
        return f if isinstance(f, S.ATOMS) else None

    return S.transform(phi, enter, S.rebuild)


def push_valuation_formula(phi: S.Formula) -> S.Formula:
    """Apply push_valuation below every lattice atom."""

    def enter(f):
        if isinstance(f, (S.LBelow, S.LEq)):
            return S.rebuild(f, [push_valuation(t) for t in S.children(f)])
        return f if isinstance(f, S.ATOMS) else None

    return S.transform(phi, enter, S.rebuild)


# --- renaming ---

def fresh_names(prefix: str, taken, start: int = 0):
    """The names prefix{start}, prefix{start + 1}, ... that are not in
    taken."""
    for i in itertools.count(start):
        name = f"{prefix}{i}"
        if name not in taken:
            yield name


class _Renaming(dict):
    """Each bound name in scope -> its fresh name. open gives a binder's
    variable the next name of fresh on the walk's way down; close, on
    its way up, restores the renaming outside the binder and gives the
    binder's fresh name."""

    def __init__(self, fresh):
        super().__init__()
        self.fresh, self.outer = fresh, []

    def open(self, var: str) -> None:
        self.outer.append(self.get(var))
        self[var] = next(self.fresh)

    def close(self, var: str) -> str:
        new, outer = self.pop(var), self.outer.pop()
        if outer is not None:
            self[var] = outer
        return new


def rename_bound(phi: S.Formula, prefix: str, taken) -> S.Formula:
    """Give every bound variable a fresh name (no shadowing afterwards).
    taken holds the free variables of phi, or more names: the fresh
    names skip them, so that none of them captures one."""
    names = _Renaming(fresh_names(prefix, taken))

    def enter(n):
        cls = type(n)
        if cls is S.GVar or cls is S.LVar:
            name = names.get(n.name)
            return n if name is None else cls(name)
        if cls is S.Exists or cls is S.Forall:
            names.open(n.var)
        return None

    def leave(n, new):
        cls = type(n)
        if cls is S.Exists or cls is S.Forall:
            return cls(names.close(n.var), n.sort, new[0])
        return S.rebuild(n, new)

    return S.transform(phi, enter, leave)


def normalize(phi: S.Formula, taken) -> S.Formula:
    """simplify(push_valuation_formula(group_atoms_to_lattice(
    rename_bound(phi, "_q", taken)))) in one walk, with each valuation
    atom's argument kept as a LinForm leaf (val_leaf in place of
    val_of_lin): each binder gets the next fresh name as the walk meets
    it, each atom is renamed, traded and pushed in one pass over its
    terms, and each node is folded as it is built. taken holds the free
    variables of phi."""
    names = _Renaming(fresh_names("_q", taken))

    def leave(f, new):
        cls = type(f)
        if cls is S.Exists or cls is S.Forall:
            return fold(cls(names.close(f.var), f.sort, new[0]))
        return fold(cls(*new))

    return S.transform(phi, _normalizer(names, val_leaf), leave)


def _normalizer(names: dict, atom):
    """normalize's enter, with each variable renamed by names and each
    valuation atom built by atom (val_leaf, or val_of_lin): a valuation
    atom pushed down to its linear forms, a lattice variable renamed, a
    group atom traded for a lattice one, and None where the walk goes
    on below. On a lattice term it is push_valuation's enter."""

    def leq(s: S.Term, t: S.Term) -> S.Formula:
        # P(t - s) = top, with t - s added up in one dict
        acc = {}
        if _accumulate(t, 1, acc, names) and _accumulate(s, -1, acc, names):
            val = atom(Lin.make(acc))
        else:
            val = _val_of_jom(_join_of_meets(S.Add(t, S.Neg(s)), names), atom)
        return fold(S.LEq(val, S.Top()))

    def enter(f):
        cls = type(f)
        if cls is S.Exists or cls is S.Forall:
            names.open(f.var)
            return None
        if cls in FOLDED:
            return None
        if cls is S.Val:
            return _val_of_jom(_linearize(f.arg, names), atom)
        if cls is S.LVar:
            name = names.get(f.name)
            return f if name is None else S.LVar(name)
        if cls is S.GLeq:
            return leq(f.left, f.right)
        if cls is S.GEq:
            return fold(S.And(leq(f.left, f.right), leq(f.right, f.left)))
        return f

    return enter


# --- one-point rule ---

def _conjuncts(f: S.Formula, bit: int):
    """The conjuncts of f, left to right, that have the variable of bit
    free; the walk skips each And whose mask lacks it. It keeps its own
    stack, so a conjunct deep in a chain of And does not pass through
    one generator per level."""
    stack = [f]
    while stack:
        f = stack.pop()
        if f.free & bit:
            if type(f) is S.And:
                stack += (f.right, f.left)
            else:
                yield f


def one_point_at(var: str, sort: str, body: S.Formula) -> S.Formula | None:
    """The one-point rule at one binder 'exists var:sort. body': if a
    top-level conjunct of body is var = t or t = var with var not in t,
    the first such t, in conjunct order, substituted for var in body and
    simplified (substitute_refold); None if no conjunct pins var. body
    must be simplify output with no binder of var inside."""
    var_cls = S.GVar if sort == S.G else S.LVar
    eq_cls = S.GEq if sort == S.G else S.LEq
    bit = S.name_bit(var)
    for c in _conjuncts(body, bit):
        if type(c) is eq_cls:
            for mine, other in ((c.left, c.right), (c.right, c.left)):
                if (
                    type(mine) is var_cls
                    and mine.name == var
                    and not other.free & bit
                ):
                    return substitute_refold(body, mine, other)
    return None


def substitute_refold(phi: S.Formula, key, value) -> S.Formula:
    """phi with value for key, simplified, for phi simplify output and
    key a variable, in one walk: it enters only the nodes that have
    key's name free, and folds only the nodes it rebuilds, which lie
    above a replaced one."""
    bit, key_cls = key.free, type(key)

    def enter(n):
        if not n.free & bit:
            return n
        # a variable of key's class with key's name free is key
        return value if type(n) is key_cls else None

    return S.transform(phi, enter, refold)


def atoms_as_leaves(n):
    """transform's enter for a walk that acts at binders alone: a
    subformula that holds no binder, an atom among them, is its own
    result."""
    return None if n.has_binder else n


def refold(n, new_children):
    """transform's leave that keeps simplify output simplify output: n
    as it is if its children came back as they were, else rebuilt on
    them and folded."""
    out = S.rebuild(n, new_children)
    return out if out is n else fold(out)


def _one_point_at_exists(n, new_children):
    if type(n) is S.Exists:
        out = one_point_at(n.var, n.sort, new_children[0])
        if out is not None:
            return out
    return refold(n, new_children)


def one_point(phi: S.Formula) -> S.Formula:
    """Inline quantified variables pinned by a top-level equality.

    A post-order walk that applies one_point_at at each existential
    binder: 'exists x (... and x = t and ...)' with x not in t becomes
    the body with t substituted for x. Requires the binders to be
    non-shadowing (run rename_bound first if unsure).
    """
    return S.transform(phi, atoms_as_leaves, _one_point_at_exists)


# --- simplification ---

# a binary operation -> (its absorbing element, its unit), as node classes
_ABSORBING_UNIT = {
    S.And: (S.FalseF, S.TrueF),
    S.Or: (S.TrueF, S.FalseF),
    S.LMeet: (S.Bot, S.Top),
    S.LJoin: (S.Top, S.Bot),
}


def _absorb(cls, a, b):
    """What cls(a, b) folds to: an operand that is the absorbing element,
    the other operand of one that is the unit, or a if a == b; None when
    no rule applies."""
    zero, unit = _ABSORBING_UNIT[cls]
    ta, tb = type(a), type(b)
    if ta is zero or tb is unit or a == b:
        return a
    if tb is zero or ta is unit:
        return b
    return None


def fold(phi: S.Formula) -> S.Formula:
    """Constant folding of the node phi, a formula or a lattice term,
    whose children are simplify output; the result is simplify output
    too. A group term comes back as it is."""
    cls = type(phi)
    if cls in _ABSORBING_UNIT:
        return _absorb(cls, phi.left, phi.right) or phi
    if cls is S.LBelow or cls is S.LEq:
        a, b = phi.left, phi.right
        if a == b:
            return S.TRUE
        ta, tb = type(a), type(b)
        if cls is S.LBelow and (ta is S.Bot or tb is S.Top):
            return S.TRUE
        if (ta is S.Top and tb is S.Bot) or (ta is S.Bot and tb is S.Top):
            # nontrivial lattice: top and bot differ
            return S.FALSE
        return phi
    if cls is S.Compl:
        ta = type(phi.arg)
        if ta is S.Top:
            return S.Bot()
        if ta is S.Bot:
            return S.Top()
        return phi.arg.arg if ta is S.Compl else phi
    if cls is S.Not:
        ta = type(phi.arg)
        if ta is S.TrueF:
            return S.FALSE
        if ta is S.FalseF:
            return S.TRUE
        return phi.arg.arg if ta is S.Not else phi
    if cls is S.Implies:
        a, b = phi.left, phi.right
        ta, tb = type(a), type(b)
        if ta is S.FalseF or tb is S.TrueF:
            return S.TRUE
        if ta is S.TrueF:
            return b
        if tb is S.FalseF:
            return fold(S.Not(a))
        return phi
    if cls is S.Exists or cls is S.Forall:
        body = phi.body
        tb = type(body)
        # both sorts are inhabited
        if tb is S.TrueF or tb is S.FalseF or not S.occurs_free(phi.var, body):
            return body
    return phi


def simplify(phi: S.Formula) -> S.Formula:
    """Constant folding over connectives, quantifiers, lattice atoms and
    lattice terms: fold applied bottom-up. A valuation term and a group
    atom are leaves."""
    return S.transform(phi, _fold_leaf, _fold_node)


# the nodes whose results simplify, normalize and the reducer's naming
# walk build from their children's: connectives, binders, lattice atoms
# and lattice operators
FOLDED = frozenset((
    S.And, S.Or, S.Implies, S.Not, S.Exists, S.Forall,
    S.LBelow, S.LEq, S.LMeet, S.LJoin, S.Compl,
))


def _fold_leaf(phi):
    """simplify's enter: any other node is its own result."""
    return None if type(phi) in FOLDED else phi


def _fold_node(phi, new: list):
    cls = type(phi)
    if cls is S.Exists or cls is S.Forall:
        return fold(cls(phi.var, phi.sort, new[0]))
    return fold(cls(*new))
