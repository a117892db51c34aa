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

simplify applies fold, the constant folding of one node, bottom-up, and
leaves its own output unchanged. A pass that keeps its formulas
simplified folds only the nodes it builds; bottom_up is the walk that
one_point and the reducer's group elimination share.

substitute is the one substitution: it replaces the nodes that are keys
of a mapping, and returns each subtree that holds no key as it is.
"""

from __future__ import annotations

import itertools
import operator
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


def _join_of_meets(t: S.Term, names: dict) -> JoinOfMeets:
    """linearize_group_term of t with each variable renamed by names, by
    distributing + and - over meet and join."""
    cls = type(t)
    if cls is S.GVar:
        return ((Lin.var(names.get(t.name, t.name)),),)
    if cls is S.Zero:
        return ((Lin.zero(),),)
    if cls is S.Add:
        a, b = _join_of_meets(t.left, names), _join_of_meets(t.right, names)
        return tuple(
            tuple(x + y for x in meet_a for y in meet_b)
            for meet_a in a
            for meet_b in b
        )
    if cls is S.Neg:
        return _negate_jom(_join_of_meets(t.arg, names))
    if cls is S.GMeet:
        a, b = _join_of_meets(t.left, names), _join_of_meets(t.right, names)
        return tuple(ma + mb for ma in a for mb in b)
    if cls is S.GJoin:
        return _join_of_meets(t.left, names) + _join_of_meets(t.right, names)
    if cls is S.IntScale:
        q = t.factor
        inner = _join_of_meets(t.arg, names)
        if q == 0:
            return ((Lin.zero(),),)
        if q > 0:
            return tuple(tuple(l.scale(q) for l in meet) for meet in inner)
        return _negate_jom(
            tuple(tuple(l.scale(-q) for l in meet) for meet in inner)
        )
    raise SortError(f"not a G-sorted term: {S.print_term(t)}")


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
    return _push(t, {}, val_of_lin)


def _val_of_jom(jom: JoinOfMeets, atom) -> S.Term:
    """P of the join of meets jom, pushed down to its linear forms: the
    join of the meets of atom(l), for atom val_of_lin or val_leaf."""
    joins = []
    for meet in jom:
        vals = [atom(l) for l in meet]
        out = vals[0]
        for v in vals[1:]:
            out = S.LMeet(out, v)
        joins.append(out)
    result = joins[0]
    for j in joins[1:]:
        result = S.LJoin(result, j)
    return simplify_lterm(result)


def _push(t: S.Term, names: dict, atom) -> S.Term:
    """push_valuation of t with each variable renamed by names, each
    valuation atom built by atom (val_of_lin or val_leaf)."""
    cls = type(t)
    if cls is S.Val:
        return _val_of_jom(_linearize(t.arg, names), atom)
    if cls is S.LMeet or cls is S.LJoin:
        return cls(_push(t.left, names, atom), _push(t.right, names, atom))
    if cls is S.Compl:
        return S.Compl(_push(t.arg, names, atom))
    if cls is S.LVar and t.name in names:
        return S.LVar(names[t.name])
    return t


def group_atoms_to_lattice(phi: S.Formula) -> S.Formula:
    """Replace G-sort atoms using density: s <= t becomes P(t - s) = top."""

    def leq(s: S.Term, t: S.Term) -> S.Formula:
        return S.LEq(S.Val(S.Add(t, S.Neg(s))), S.Top())

    def go(f: S.Formula) -> S.Formula:
        if isinstance(f, S.GLeq):
            return leq(f.left, f.right)
        if isinstance(f, S.GEq):
            return S.And(leq(f.left, f.right), leq(f.right, f.left))
        if isinstance(f, S.ATOMS):
            return f
        return S.rebuild(f, tuple(map(go, S.children(f))))

    return go(phi)


def push_valuation_formula(phi: S.Formula) -> S.Formula:
    """Apply push_valuation below every lattice atom."""

    def go(f: S.Formula) -> S.Formula:
        if isinstance(f, (S.LBelow, S.LEq)):
            return S.rebuild(f, tuple(map(push_valuation, S.children(f))))
        if isinstance(f, S.ATOMS):
            return f
        return S.rebuild(f, tuple(map(go, S.children(f))))

    return go(phi)


# --- renaming ---

def fresh_names(prefix: str, taken, start: int = 0):
    """The names prefix{start}, prefix{start + 1}, ... that are not in
    taken."""
    for i in itertools.count(start):
        name = f"{prefix}{i}"
        if name not in taken:
            yield name


def rename_bound(phi: S.Formula, prefix: str, taken) -> S.Formula:
    """Give every bound variable a fresh name (no shadowing afterwards).
    taken holds the free variables of phi, or more names: the fresh
    names skip them, so that none of them captures one."""
    names = fresh_names(prefix, taken)

    def go(n, env: dict[str, str]):
        if isinstance(n, (S.GVar, S.LVar)):
            if n.name in env:
                return type(n)(env[n.name])
            return n
        if isinstance(n, (S.Exists, S.Forall)):
            fresh = next(names)
            return type(n)(fresh, n.sort, go(n.body, {**env, n.var: fresh}))
        return S.rebuild(n, tuple(map(go, S.children(n), itertools.repeat(env))))

    return go(phi, {})


def normalize(phi: S.Formula, taken) -> S.Formula:
    """simplify(push_valuation_formula(group_atoms_to_lattice(
    rename_bound(phi, "_q", taken)))) in one walk, with each valuation
    atom's argument kept as a LinForm leaf (val_leaf in place of
    val_of_lin): each binder gets the next fresh name as the walk meets
    it, each atom is renamed, traded and pushed in one pass over its
    terms, and each node is folded as it is built. taken holds the free
    variables of phi."""
    fresh = fresh_names("_q", taken)
    names: dict[str, str] = {}  # bound name -> its fresh name, in scope

    def leq(s: S.Term, t: S.Term) -> S.Formula:
        # P(t - s) = top, with t - s added up in one dict
        acc = {}
        if _accumulate(t, 1, acc, names) and _accumulate(s, -1, acc, names):
            atom = val_leaf(Lin.make(acc))
        else:
            atom = _val_of_jom(
                _join_of_meets(S.Add(t, S.Neg(s)), names), val_leaf
            )
        return fold(S.LEq(atom, S.Top()))

    def go(f: S.Formula) -> S.Formula:
        cls = type(f)
        if cls is S.And or cls is S.Or or cls is S.Implies:
            return fold(cls(go(f.left), go(f.right)))
        if cls is S.LBelow or cls is S.LEq:
            left = _push(f.left, names, val_leaf)
            return fold(cls(left, _push(f.right, names, val_leaf)))
        if cls is S.Not:
            return fold(S.Not(go(f.arg)))
        if cls is S.Exists or cls is S.Forall:
            var = f.var
            outer = names.get(var)
            new = names[var] = next(fresh)
            body = go(f.body)
            if outer is None:
                del names[var]
            else:
                names[var] = outer
            return fold(cls(new, f.sort, body))
        if cls is S.GLeq:
            return leq(f.left, f.right)
        if cls is S.GEq:
            return fold(S.And(leq(f.left, f.right), leq(f.right, f.left)))
        return f

    return go(phi)


# --- substitution ---

def substitute(phi, mapping: dict):
    """phi with each node that is a key of mapping replaced by its value;
    the keys are all of one class, and binders are not looked at. A
    subtree that holds no key comes back as the same object."""
    if not mapping:
        return phi
    # a frozen dataclass hashes its whole subtree on every call, so only
    # a node of the keys' class is looked up
    key_cls = type(next(iter(mapping)))

    def go(n):
        if type(n) is key_cls and n in mapping:
            return mapping[n]
        old = S.children(n)
        new = tuple(map(go, old))
        if all(map(operator.is_, new, old)):
            return n
        return S.rebuild(n, new)

    return go(phi)


# --- one-point rule ---

def _conjuncts(f: S.Formula):
    """The conjuncts of f, left to right. The walk keeps its own stack,
    so a conjunct deep in a chain of And does not pass through one
    generator per level."""
    stack = [f]
    while stack:
        f = stack.pop()
        if type(f) is S.And:
            stack += (f.right, f.left)
        else:
            yield f


def one_point_at(var: str, sort: str, body: S.Formula) -> S.Formula | None:
    """The one-point rule at one binder 'exists var:sort. body': if a
    top-level conjunct of body is var = t or t = var with var not in t,
    the first such t, in conjunct order, substituted for var in body and
    simplified; None if no conjunct pins var. body must be simplify
    output with no binder of var inside."""
    var_cls = S.GVar if sort == S.G else S.LVar
    eq_cls = S.GEq if sort == S.G else S.LEq
    for c in _conjuncts(body):
        if type(c) is eq_cls:
            for mine, other in ((c.left, c.right), (c.right, c.left)):
                if (
                    type(mine) is var_cls
                    and mine.name == var
                    and not S.occurs_free(var, other)
                ):
                    return simplify(substitute(body, {mine: other}))
    return None


def bottom_up(phi: S.Formula, at_binder) -> S.Formula:
    """phi walked post-order, with atoms as leaves. At a binder n whose
    body came back as body, at_binder(n, body) gives the result; where
    that is None, and at every other node, the node comes back as it is
    if its children did, else rebuilt on them and folded, so simplify
    output stays simplify output. The walk keeps its own stack, so it
    adds no recursion depth."""
    done = []  # the result of each node walked, after its children's
    stack = [phi]
    while stack:
        n = stack.pop()
        cls = type(n)
        if cls is tuple:  # (a node, its children), whose results are done
            n, kids = n
            k = len(done) - len(kids)
            new = tuple(done[k:])
            del done[k:]
            binder = type(n) is S.Exists or type(n) is S.Forall
            out = at_binder(n, new[0]) if binder else None
            if out is None:
                same = all(map(operator.is_, new, kids))
                out = n if same else fold(S.rebuild(n, new))
            done.append(out)
        elif cls in S.ATOMS:
            done.append(n)
        else:
            kids = S.children(n)
            stack.append((n, kids))
            stack += reversed(kids)
    return done[0]


def _one_point_at_exists(n, body):
    return one_point_at(n.var, n.sort, body) if type(n) is S.Exists else None


def one_point(phi: S.Formula) -> S.Formula:
    """Inline quantified variables pinned by a top-level equality.

    bottom_up with one_point_at at each existential binder: 'exists x
    (... and x = t and ...)' with x not in t becomes the body with t
    substituted for x. Requires the binders to be non-shadowing (run
    rename_bound first if unsure).
    """
    return bottom_up(phi, _one_point_at_exists)


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


def simplify_lterm(t: S.Term) -> S.Term:
    cls = type(t)
    if cls is S.LMeet or cls is S.LJoin:
        a, b = simplify_lterm(t.left), simplify_lterm(t.right)
        return _absorb(cls, a, b) or cls(a, b)
    if cls is S.Compl:
        a = simplify_lterm(t.arg)
        ta = type(a)
        if ta is S.Top:
            return S.Bot()
        if ta is S.Bot:
            return S.Top()
        if ta is S.Compl:
            return a.arg
        return S.Compl(a)
    return t


def fold(phi: S.Formula) -> S.Formula:
    """Constant folding of the node phi, whose children are simplify
    output; the result is simplify output too."""
    cls = type(phi)
    if cls is S.And or cls is S.Or:
        return _absorb(cls, phi.left, phi.right) or phi
    if cls is S.LBelow or cls is S.LEq:
        a, b = simplify_lterm(phi.left), simplify_lterm(phi.right)
        if a == b:
            return S.TRUE
        ta, tb = type(a), type(b)
        if cls is S.LBelow and (ta is S.Bot or tb is S.Top):
            return S.TRUE
        if (ta is S.Top and tb is S.Bot) or (ta is S.Bot and tb is S.Top):
            # nontrivial lattice: top and bot differ
            return S.FALSE
        return cls(a, b)
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
    """Constant folding over connectives, quantifiers, and easy atoms:
    fold applied bottom-up."""
    cls = type(phi)
    if cls is S.And or cls is S.Or or cls is S.Implies:
        return fold(cls(simplify(phi.left), simplify(phi.right)))
    if cls is S.Not:
        return fold(S.Not(simplify(phi.arg)))
    if cls is S.Exists or cls is S.Forall:
        return fold(cls(phi.var, phi.sort, simplify(phi.body)))
    return fold(phi)
