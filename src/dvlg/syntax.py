"""Two-sorted terms and formulas for the valued l-group language.

Sorts are G (group) and L (lattice). All nodes are immutable; rewriting
passes build fresh trees. nodes, which reads, and rebuild, which
rewrites, are the one generic walk over both sorts of node.

eval_term and holds are the one Tarskian evaluator of terms and
quantifier-free formulas. A model gives them zero(), bot, top, val(a)
(the valuation P), scale(k, a), leq(a, b) (the group order),
group_op(kind, a, b=None) for add, neg (b absent), meet and join, and
set_op(kind, c, d=None) for meet, join, complement (d absent) and below
(the lattice order, a bool). Elements of both sorts compare with ==.
The models are standard.FinStdStructure (the stages Stan(Q^n)),
periodic.PERIODIC and boolalg.INTERVALS (no group sort).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import attrgetter

from .errors import PreconditionViolated, SortError, UnboundVariable

G = "G"
L = "L"


class Term:
    __slots__ = ()


# --- group-sorted terms ---

@dataclass(frozen=True)
class GVar(Term):
    name: str


@dataclass(frozen=True)
class Zero(Term):
    pass


@dataclass(frozen=True)
class Add(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Neg(Term):
    arg: Term


@dataclass(frozen=True)
class GMeet(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class GJoin(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class IntScale(Term):
    factor: int
    arg: Term


# --- lattice-sorted terms ---

@dataclass(frozen=True)
class LVar(Term):
    name: str


@dataclass(frozen=True)
class Bot(Term):
    pass


@dataclass(frozen=True)
class Top(Term):
    pass


@dataclass(frozen=True)
class LMeet(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class LJoin(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Compl(Term):
    arg: Term


@dataclass(frozen=True)
class Val(Term):
    """The valuation symbol applied to a group-sorted term."""

    arg: Term


# --- formulas ---

class Formula:
    __slots__ = ()


@dataclass(frozen=True)
class GLeq(Formula):
    left: Term
    right: Term


@dataclass(frozen=True)
class GEq(Formula):
    left: Term
    right: Term


@dataclass(frozen=True)
class LBelow(Formula):
    left: Term
    right: Term


@dataclass(frozen=True)
class LEq(Formula):
    left: Term
    right: Term


@dataclass(frozen=True)
class Not(Formula):
    arg: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Exists(Formula):
    var: str
    sort: str
    body: Formula


@dataclass(frozen=True)
class Forall(Formula):
    var: str
    sort: str
    body: Formula


@dataclass(frozen=True)
class TrueF(Formula):
    pass


@dataclass(frozen=True)
class FalseF(Formula):
    pass


TRUE = TrueF()
FALSE = FalseF()

ATOMS = (GLeq, GEq, LBelow, LEq)


def _child_getter(names: tuple[str, ...]):
    """A function from a node to the tuple of its fields named in names."""
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        name = names[0]
        return lambda node: (getattr(node, name),)
    return lambda node: ()


# node class -> (all field names, getter of its Term/Formula fields),
# both in dataclass field order
_FIELDS = {
    cls: (
        tuple(f.name for f in fields(cls)),
        _child_getter(
            tuple(f.name for f in fields(cls) if f.type in ("Term", "Formula"))
        ),
    )
    for cls in (*Term.__subclasses__(), *Formula.__subclasses__())
}


def children(node: Term | Formula) -> tuple:
    """The Term and Formula fields of a node, in dataclass field order."""
    return _FIELDS[type(node)][1](node)


def rebuild(node: Term | Formula, new_children: tuple) -> Term | Formula:
    """The node with its children replaced, in field order, by
    new_children; its other fields (name, factor, var, sort) are kept.
    A leaf, a node with no Term or Formula child, comes back unchanged.

    A recursive pass computes new_children in its own frame,
    rebuild(n, tuple(map(go, children(n)))), so that each tree level
    costs one Python frame: the recursion limit bounds the depth of
    the trees a pass can walk.
    """
    if not new_children:
        return node
    names = _FIELDS[type(node)][0]
    if len(new_children) == len(names):
        return type(node)(*new_children)
    new = iter(new_children)
    args = []
    for name in names:
        value = getattr(node, name)
        args.append(next(new) if isinstance(value, (Term, Formula)) else value)
    return type(node)(*args)


def nodes(node: Term | Formula):
    """node and every node below it, in pre-order: a node before its
    children, and children in field order. The walk keeps its own
    stack, so it adds no recursion depth."""
    stack = [node]
    while stack:
        n = stack.pop()
        yield n
        stack.extend(reversed(_FIELDS[type(n)][1](n)))


def term_sort(t: Term, context: dict[str, str] | None = None) -> str:
    """Sort of a term, checking well-sortedness along the way."""
    context = context or {}
    if isinstance(t, GVar):
        if context.get(t.name, G) != G:
            raise SortError(f"variable {t.name} used at sort G but declared L")
        return G
    if isinstance(t, LVar):
        if context.get(t.name, L) != L:
            raise SortError(f"variable {t.name} used at sort L but declared G")
        return L
    if isinstance(t, Zero):
        return G
    if isinstance(t, (Bot, Top)):
        return L
    if isinstance(t, (Add, GMeet, GJoin)):
        for side in (t.left, t.right):
            if term_sort(side, context) != G:
                raise SortError(f"G-operator over L-sorted operand: {print_term(side)}")
        return G
    if isinstance(t, (Neg, IntScale)):
        if term_sort(t.arg, context) != G:
            raise SortError(f"G-operator over L-sorted operand: {print_term(t.arg)}")
        return G
    if isinstance(t, (LMeet, LJoin)):
        for side in (t.left, t.right):
            if term_sort(side, context) != L:
                raise SortError(f"L-operator over G-sorted operand: {print_term(side)}")
        return L
    if isinstance(t, Compl):
        if term_sort(t.arg, context) != L:
            raise SortError(f"compl over G-sorted operand: {print_term(t.arg)}")
        return L
    if isinstance(t, Val):
        if term_sort(t.arg, context) != G:
            raise SortError(f"P takes a G-sorted argument: {print_term(t.arg)}")
        return L
    raise SortError(f"unknown term node {t!r}")


def sort_check(phi: Formula, context: dict[str, str] | None = None) -> None:
    """Raise SortError unless every constructor respects the signatures."""
    context = dict(context or {})

    def check(f: Formula, ctx: dict[str, str]):
        if isinstance(f, (GLeq, GEq)):
            for side in (f.left, f.right):
                if term_sort(side, ctx) != G:
                    raise SortError(f"G-relation over L-sorted term: {print_term(side)}")
        elif isinstance(f, (LBelow, LEq)):
            for side in (f.left, f.right):
                if term_sort(side, ctx) != L:
                    raise SortError(f"L-relation over G-sorted term: {print_term(side)}")
        elif isinstance(f, Not):
            check(f.arg, ctx)
        elif isinstance(f, (And, Or, Implies)):
            check(f.left, ctx)
            check(f.right, ctx)
        elif isinstance(f, (Exists, Forall)):
            if f.sort not in (G, L):
                raise SortError(f"unknown sort {f.sort!r}")
            inner = dict(ctx)
            inner[f.var] = f.sort
            check(f.body, inner)
        elif isinstance(f, (TrueF, FalseF)):
            pass
        else:
            raise SortError(f"unknown formula node {f!r}")

    check(phi, context)


def occurs_free(name: str, node: Term | Formula) -> bool:
    """Whether a variable called name occurs free in node. Stops at the
    first occurrence, and does not look below a binder of name."""
    cls = type(node)
    if cls is GVar or cls is LVar:
        return node.name == name
    if (cls is Exists or cls is Forall) and node.var == name:
        return False
    for child in _FIELDS[cls][1](node):
        if occurs_free(name, child):
            return True
    return False


def free_vars(phi: Formula) -> dict[str, str]:
    """Free variables with their sorts (sorts inferred from use sites)."""
    out: dict[str, str] = {}

    def visit(n, bound: frozenset):
        if isinstance(n, (GVar, LVar)):
            if n.name not in bound:
                out.setdefault(n.name, G if isinstance(n, GVar) else L)
        elif isinstance(n, (Exists, Forall)):
            visit(n.body, bound | {n.var})
        else:
            for child in children(n):
                visit(child, bound)

    visit(phi, frozenset())
    return out


# --- Tarskian evaluation over a model ---

_GROUP_OPS = {Add: "add", Neg: "neg", GMeet: "meet", GJoin: "join"}
_SET_OPS = {LMeet: "meet", LJoin: "join", Compl: "complement"}


def eval_term(model, genv: dict, lenv: dict, t: Term):
    """The value of t in model; genv and lenv assign the group and the
    lattice variables."""
    cls = type(t)
    if cls is GVar or cls is LVar:
        env = genv if cls is GVar else lenv
        if t.name not in env:
            raise UnboundVariable(f"variable {t.name} not assigned")
        return env[t.name]
    args = [eval_term(model, genv, lenv, c) for c in children(t)]
    if cls in _GROUP_OPS:
        return model.group_op(_GROUP_OPS[cls], *args)
    if cls in _SET_OPS:
        return model.set_op(_SET_OPS[cls], *args)
    if cls is IntScale:
        return model.scale(t.factor, *args)
    if cls is Val:
        return model.val(*args)
    if cls is Zero:
        return model.zero()
    if cls is Bot:
        return model.bot
    if cls is Top:
        return model.top
    raise PreconditionViolated(f"not a term: {t!r}")


def holds(model, genv: dict, lenv: dict, phi: Formula) -> bool:
    """Tarskian truth of a quantifier-free formula in model under genv
    and lenv."""

    def go(f: Formula) -> bool:
        cls = type(f)
        if cls in ATOMS:
            a = eval_term(model, genv, lenv, f.left)
            b = eval_term(model, genv, lenv, f.right)
            if cls is GLeq:
                return model.leq(a, b)
            if cls is LBelow:
                return model.set_op("below", a, b)
            return a == b
        if cls is Not:
            return not go(f.arg)
        if cls is And:
            return go(f.left) and go(f.right)
        if cls is Or:
            return go(f.left) or go(f.right)
        if cls is Implies:
            return (not go(f.left)) or go(f.right)
        if cls is TrueF or cls is FalseF:
            return cls is TrueF
        raise PreconditionViolated(f"quantifier-free formula required, got {f!r}")

    return go(phi)


# --- printing ---
#
# Precedence (loosest to tightest): quantifier, ->, |, &, ~, relations,
# +/-, meet/join/cap/cup, scaling, unary.

def print_term(t: Term) -> str:
    def go(t: Term, prec: int) -> str:
        if isinstance(t, GVar) or isinstance(t, LVar):
            return t.name
        if isinstance(t, Zero):
            return "0"
        if isinstance(t, Bot):
            return "bot"
        if isinstance(t, Top):
            return "top"
        if isinstance(t, Add):
            s = f"{go(t.left, 1)} + {go(t.right, 2)}"
            return f"({s})" if prec > 1 else s
        if isinstance(t, Neg):
            return f"-{go(t.arg, 4)}"
        if isinstance(t, (GMeet, GJoin, LMeet, LJoin)):
            word = {GMeet: "meet", GJoin: "join", LMeet: "cap", LJoin: "cup"}[type(t)]
            s = f"{go(t.left, 2)} {word} {go(t.right, 3)}"
            return f"({s})" if prec > 2 else s
        if isinstance(t, IntScale):
            s = f"{t.factor}*{go(t.arg, 4)}"
            return f"({s})" if prec > 3 else s
        if isinstance(t, Compl):
            return f"compl({go(t.arg, 0)})"
        if isinstance(t, Val):
            return f"P({go(t.arg, 0)})"
        raise ValueError(f"unknown term {t!r}")

    return go(t, 0)


def print_formula(phi: Formula) -> str:
    def go(f: Formula, prec: int) -> str:
        if isinstance(f, TrueF):
            return "true"
        if isinstance(f, FalseF):
            return "false"
        if isinstance(f, GLeq):
            return f"{print_term(f.left)} <= {print_term(f.right)}"
        if isinstance(f, LBelow):
            return f"{print_term(f.left)} << {print_term(f.right)}"
        if isinstance(f, (GEq, LEq)):
            return f"{print_term(f.left)} = {print_term(f.right)}"
        if isinstance(f, Not):
            return f"~{go(f.arg, 4)}"
        if isinstance(f, And):
            s = f"{go(f.left, 3)} & {go(f.right, 4)}"
            return f"({s})" if prec > 3 else s
        if isinstance(f, Or):
            s = f"{go(f.left, 2)} | {go(f.right, 3)}"
            return f"({s})" if prec > 2 else s
        if isinstance(f, Implies):
            s = f"{go(f.left, 2)} -> {go(f.right, 1)}"
            return f"({s})" if prec > 1 else s
        if isinstance(f, (Exists, Forall)):
            word = "exists" if isinstance(f, Exists) else "forall"
            s = f"{word} {f.var}:{f.sort}. {go(f.body, 0)}"
            return f"({s})" if prec > 0 else s
        raise ValueError(f"unknown formula {f!r}")

    return go(phi, 0)
