"""Two-sorted terms and formulas for the valued l-group language.

Sorts are G (group) and L (lattice). A term's sort is fixed by its
class (SORT). All nodes are immutable; rewriting passes build fresh
trees. nodes, which reads, and transform, which rewrites, are the one
generic walk over both sorts of node; both keep their own stack, so the
depth of a tree costs no Python frames. Every node carries its free
names, computed from its children's when it is built, so occurs_free
and free_names read them and walk nothing. Every node also says
whether it holds a quantifier (has_binder): a binder sets it, a
connective takes it from its operands, and an atom, a constant or a
term reads False from its class. A pass that acts only at binders and
at one variable's occurrences leaves a subformula that has neither as
it is, unwalked. free_vars is the reference scoped walk: it collects
the free variables with their sorts and checks every sort on the way,
for callers that need the sorts (the parser checks each operand's sort
as it builds the node, and runs free_vars only to name the first fault
of an ill-sorted input).

eval_term and holds are the one Tarskian evaluator of terms and
quantifier-free formulas; eval_term keeps its own stack, and holds
recurses only over connectives. A model gives them zero(), bot, top,
val(a) (the valuation P), scale(k, a), leq(a, b) (the group order),
group_op(kind, a, b=None) for add, neg (b absent), meet and join, and
set_op(kind, c, d=None) for meet, join, complement (d absent) and below
(the lattice order, a bool). Elements of both sorts compare with ==.
The models are standard.FinStdStructure (the stages Stan(Q^n)) and
periodic.PERIODIC; boolalg.interval_check reads the lattice sort of
the latter alone.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import attrgetter, is_
from typing import TYPE_CHECKING

from .errors import PreconditionViolated, SortError, UnboundVariable

if TYPE_CHECKING:
    from .linear import Lin

G = "G"
L = "L"


class Term:
    __slots__ = ()
    has_binder = False  # no term holds a quantifier


class Formula:
    __slots__ = ()
    has_binder = False  # a binder or a connective stores its own


# A node's free names are a bit mask over the names the process has met:
# _BIT gives each name its bit, and _NAMES[i] is the name of bit i. A
# name keeps its bit for the life of the process, so the table grows
# with the distinct names met; no result depends on the order of bits.
_BIT: dict[str, int] = {}
_NAMES: list[str] = []


def _bit(name: str) -> int:
    """The bit of name, given it on first use."""
    bit = _BIT.get(name)
    if bit is None:
        bit = _BIT[name] = 1 << len(_NAMES)
        _NAMES.append(name)
    return bit


def _free_source(cls) -> str:
    """The expression that __init__ computes a Term or Formula node's
    free names with, from the node's fields: a variable's own name, the
    names in a LinForm's coefficients, a binder's body names less its
    variable, and otherwise the union of the children's names."""
    names = [f.name for f in fields(cls)]
    if names == ["name"]:
        return "_BIT.get(name) or _bit(name)"
    if names == ["lin"]:
        return "_bits(lin.coeffs)"
    if "var" in names:
        return "body.free & ~(_BIT.get(var) or _bit(var))"
    kids = [f.name for f in fields(cls) if f.type in ("Term", "Formula")]
    return " | ".join(f"{k}.free" for k in kids) or "0"


def _binder_source(cls) -> str | None:
    """The expression that __init__ computes a formula node's has_binder
    with: True at a binder, and at a connective whether one of its
    operands holds a binder; None for a node that holds no formula,
    which reads the class's False."""
    if "var" in [f.name for f in fields(cls)]:
        return "True"
    kids = [f.name for f in fields(cls) if f.type == "Formula"]
    return " or ".join(f"{k}.has_binder" for k in kids) or None


def _bits(coeffs) -> int:
    mask = 0
    for name, _ in coeffs:
        mask |= _BIT.get(name) or _bit(name)
    return mask


def frozen_node(cls):
    """cls as a frozen dataclass whose __init__ stores the fields
    straight into the instance __dict__, which is cheaper than the
    dataclass's object.__setattr__ per field. A Term or Formula node
    also stores its free names, as the bit mask free (free_names reads
    it), computed from its children's when it is built, and a binder or
    a connective stores has_binder, whether it holds a quantifier; they
    are not fields. Assigning to a field, to free or to has_binder
    still raises FrozenInstanceError; fields, equality, hash and repr
    are the dataclass's."""
    cls = dataclass(frozen=True, init=False)(cls)
    names = [f.name for f in fields(cls)]
    source = f"def __init__(self{''.join(f', {n}' for n in names)}):\n"
    source += "    d = self.__dict__\n"
    source += "".join(f"    d[{n!r}] = {n}\n" for n in names)
    if issubclass(cls, (Term, Formula)):
        source += f"    d['free'] = {_free_source(cls)}\n"
        binder = _binder_source(cls)
        if binder is not None:
            source += f"    d['has_binder'] = {binder}\n"
    namespace = {"_BIT": _BIT, "_bit": _bit, "_bits": _bits}
    exec(source, namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = init
    return cls


# --- group-sorted terms ---

@frozen_node
class GVar(Term):
    name: str


@frozen_node
class Zero(Term):
    pass


@frozen_node
class Add(Term):
    left: Term
    right: Term


@frozen_node
class Neg(Term):
    arg: Term


@frozen_node
class GMeet(Term):
    left: Term
    right: Term


@frozen_node
class GJoin(Term):
    left: Term
    right: Term


@frozen_node
class IntScale(Term):
    factor: int
    arg: Term


@frozen_node
class LinForm(Term):
    """A primitive linear form with integer coefficients as a G-sorted
    leaf. The reducer keeps each valuation atom as Val(LinForm(lin))
    from normalization to extraction; it prints, and has the free
    variables, of lin_to_gterm(lin)."""

    lin: Lin


# --- lattice-sorted terms ---

@frozen_node
class LVar(Term):
    name: str


@frozen_node
class Bot(Term):
    pass


@frozen_node
class Top(Term):
    pass


@frozen_node
class LMeet(Term):
    left: Term
    right: Term


@frozen_node
class LJoin(Term):
    left: Term
    right: Term


@frozen_node
class Compl(Term):
    arg: Term


@frozen_node
class Val(Term):
    """The valuation symbol applied to a group-sorted term."""

    arg: Term


# --- formulas ---

@frozen_node
class GLeq(Formula):
    left: Term
    right: Term


@frozen_node
class GEq(Formula):
    left: Term
    right: Term


@frozen_node
class LBelow(Formula):
    left: Term
    right: Term


@frozen_node
class LEq(Formula):
    left: Term
    right: Term


@frozen_node
class Not(Formula):
    arg: Formula


@frozen_node
class And(Formula):
    left: Formula
    right: Formula


@frozen_node
class Or(Formula):
    left: Formula
    right: Formula


@frozen_node
class Implies(Formula):
    left: Formula
    right: Formula


@frozen_node
class Exists(Formula):
    var: str
    sort: str
    body: Formula


@frozen_node
class Forall(Formula):
    var: str
    sort: str
    body: Formula


@frozen_node
class TrueF(Formula):
    pass


@frozen_node
class FalseF(Formula):
    pass


TRUE = TrueF()
FALSE = FalseF()

ATOMS = (GLeq, GEq, LBelow, LEq)

# The operator table of the surface syntax; the parser and the printer
# both read it. Precedence, loosest first: a quantifier 0 (its body
# extends as far right as possible), -> 1, | 2, & 3, ~ 4, the relations
# 5 (never chained), + and binary - 6, meet/join/cap/cup 7, n* 8, unary
# - 9. -> groups to the right, every other binary operator to the left.
# n* and unary - both take the unary operand after them; SCALE_PREC only
# makes the printer put a scaling under either in parentheses.
BINARY = {
    Implies: ("->", 1),
    Or: ("|", 2),
    And: ("&", 3),
    Add: ("+", 6),
    GMeet: ("meet", 7),
    GJoin: ("join", 7),
    LMeet: ("cap", 7),
    LJoin: ("cup", 7),
}
RELATIONS = {GLeq: "<=", GEq: "=", LBelow: "<<", LEq: "="}
NOT_PREC = 4
RELATION_PREC = 5
SCALE_PREC = 8
UNARY_PREC = 9

# term class -> its sort
SORT = {
    **dict.fromkeys((GVar, Zero, Add, Neg, GMeet, GJoin, IntScale, LinForm), G),
    **dict.fromkeys((LVar, Bot, Top, LMeet, LJoin, Compl, Val), L),
}

# term operator or atom -> (the sort of its operands, the message for an
# operand of the other sort)
_OPERANDS = {
    **dict.fromkeys(
        (Add, Neg, GMeet, GJoin, IntScale), (G, "G-operator over L-sorted operand")
    ),
    **dict.fromkeys((LMeet, LJoin), (L, "L-operator over G-sorted operand")),
    Compl: (L, "compl over G-sorted operand"),
    Val: (G, "P takes a G-sorted argument"),
    **dict.fromkeys((GLeq, GEq), (G, "G-relation over L-sorted term")),
    **dict.fromkeys((LBelow, LEq), (L, "L-relation over G-sorted term")),
}


def _child_getter(names: tuple[str, ...]):
    """A function from a node to the tuple of its fields named in names."""
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        name = names[0]
        return lambda node: (getattr(node, name),)
    return lambda node: ()


# node class -> (the names of its other fields, such as name, factor, var
# and sort, which come first in every node class, and the function that
# gives the tuple of its Term and Formula fields, in field order)
_FIELDS = {
    cls: (
        tuple(f.name for f in fields(cls) if f.type not in ("Term", "Formula")),
        _child_getter(
            tuple(f.name for f in fields(cls) if f.type in ("Term", "Formula"))
        ),
    )
    for cls in (*Term.__subclasses__(), *Formula.__subclasses__())
}
# node class -> the function that gives the tuple of its children
CHILDREN = {cls: getter for cls, (_, getter) in _FIELDS.items()}


def children(node: Term | Formula) -> tuple:
    """The Term and Formula fields of a node, in dataclass field order."""
    return CHILDREN[type(node)](node)


def rebuild(node: Term | Formula, new_children) -> Term | Formula:
    """The node with its children replaced, in field order, by
    new_children; its other fields (name, factor, var, sort) are kept.
    A node whose children come back as they were, the same objects, or
    that has none, comes back as it is."""
    cls = type(node)
    others, getter = _FIELDS[cls]
    if all(map(is_, new_children, getter(node))):
        return node
    if others:
        return cls(*[getattr(node, name) for name in others], *new_children)
    return cls(*new_children)


def nodes(node: Term | Formula):
    """node and every node below it, in pre-order: a node before its
    children, and children in field order. The walk keeps its own
    stack, so it adds no recursion depth."""
    stack = [node]
    while stack:
        n = stack.pop()
        yield n
        stack.extend(reversed(CHILDREN[type(n)](n)))


def transform(node, enter, leave, children=CHILDREN):
    """The result of node, computed bottom-up by a walk that keeps its
    own stack, so it adds no recursion depth. enter(n) runs on the way
    down, a node before its children and children in order: a result
    other than None is n's, and n's children are not walked. Otherwise
    leave(n, new_children) gives it on the way up, from the list of its
    children's results. Only the walk below n runs between enter(n) and
    leave(n), so enter may open a scope, such as a renaming, that leave
    closes. children maps each node class to the function that gives
    the nodes below one of its nodes that the walk descends into: by
    default its Term and Formula fields (CHILDREN)."""
    out = enter(node)
    if out is not None:
        return out
    # the open node: its children not yet walked and the results of those
    # walked; the same for each open node above it, in frames
    n, todo, done = node, iter(children[type(node)](node)), []
    frames = []
    while True:
        for child in todo:
            out = enter(child)
            if out is None:
                frames.append((n, todo, done))
                n, todo, done = child, iter(children[type(child)](child)), []
                break
            done.append(out)
        else:
            out = leave(n, done)
            if not frames:
                return out
            n, todo, done = frames.pop()
            done.append(out)


def name_bit(name: str) -> int:
    """The bit of name in the nodes' free masks; 0 if no node has met
    the name, so that none has it free."""
    return _BIT.get(name, 0)


def occurs_free(name: str, node: Term | Formula) -> bool:
    """Whether a variable called name occurs free in node."""
    return node.free & _BIT.get(name, 0) != 0


def free_names(node: Term | Formula) -> set[str]:
    """The names of the variables that occur free in node, of either
    sort; unlike free_vars, this reads them off the node and checks no
    sort."""
    mask, out = node.free, set()
    while mask:
        low = mask & -mask
        out.add(_NAMES[low.bit_length() - 1])
        mask ^= low
    return out


def _formula(f):
    """f, unless it is a term: a term cannot stand for a formula."""
    if type(f) in SORT:
        raise SortError(f"unknown formula node {f!r}")
    return f


def free_vars(
    node: Term | Formula, context: dict[str, str] | None = None
) -> dict[str, str]:
    """The free variables of node with their sorts, in order of first
    use. context declares the sorts of free variables; an undeclared
    one takes the sort of its first use. Raises SortError on an operand
    of the wrong sort, on a variable used at a sort other than its
    binder's, its declaration's or its first use's, and on an unknown
    sort or node. The walk keeps its own stack: a marker pushed below
    each operand of the wrong sort raises after its subtree is checked,
    as a recursive check would, and one pushed below each binder's body
    leaves its scope. A LinForm leaf uses its variables at sort G."""
    context = context or {}
    out: dict[str, str] = {}
    scope: dict[str, str | None] = {}  # name -> sort of its innermost binder
    stack = [node]
    while stack:
        n = stack.pop()
        cls = type(n)
        if cls is tuple:
            if len(n) == 3:  # (operand, sort it must have, message)
                t, need, message = n
                if SORT.get(type(t)) != need:
                    if type(t) not in SORT:
                        raise SortError(f"unknown term node {t!r}")
                    raise SortError(f"{message}: {print_term(t)}")
            else:  # (name, its sort outside the binder, or None)
                scope[n[0]] = n[1]
        elif cls in _OPERANDS:
            need, message = _OPERANDS[cls]
            for t in reversed(CHILDREN[cls](n)):
                if SORT.get(type(t)) != need:
                    stack.append((t, need, message))
                stack.append(t)
        elif cls is GVar or cls is LVar:
            sort = SORT[cls]
            declared = scope.get(n.name)
            if declared is None:
                declared = out.setdefault(n.name, context.get(n.name, sort))
            if declared != sort:
                raise SortError(
                    f"variable {n.name} used at sort {sort} but declared {declared}"
                )
        elif cls is LinForm:
            stack += [GVar(v) for v, _ in reversed(n.lin.coeffs)]
        elif cls is Exists or cls is Forall:
            if n.sort not in (G, L):
                raise SortError(f"unknown sort {n.sort!r}")
            stack += ((n.var, scope.get(n.var)), _formula(n.body))
            scope[n.var] = n.sort
        elif cls is Not:
            stack.append(_formula(n.arg))
        elif cls is And or cls is Or or cls is Implies:
            stack += (_formula(n.right), _formula(n.left))
        elif cls not in CHILDREN:
            raise SortError(f"unknown node {n!r}")
    return out


# --- Tarskian evaluation over a model ---

_GROUP_OPS = {Add: "add", Neg: "neg", GMeet: "meet", GJoin: "join"}
_SET_OPS = {LMeet: "meet", LJoin: "join", Compl: "complement"}


def eval_term(model, genv: dict, lenv: dict, t: Term):
    """The value of t in model; genv and lenv assign the group and the
    lattice variables. The walk keeps its own stack: a node waits below
    its children as (node, where their values start on values), and is
    computed after them, left to right, as a recursion would."""
    values = []
    stack = [t]
    while stack:
        n = stack.pop()
        if type(n) is tuple:
            n, base = n
            values[base:] = [_term_value(model, genv, lenv, n, values[base:])]
        else:
            stack.append((n, len(values)))
            stack += reversed(children(n))
    return values[0]


def _term_value(model, genv: dict, lenv: dict, t: Term, args: list):
    """The value of t in model, given its children's values, args."""
    cls = type(t)
    if cls is GVar or cls is LVar:
        env = genv if cls is GVar else lenv
        if t.name not in env:
            raise UnboundVariable(f"variable {t.name} not assigned")
        return env[t.name]
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


def lin_to_gterm(lin: Lin) -> Term:
    """Canonical G-term for a linear form (integer coefficients)."""
    parts = []
    for var, coeff in lin.coeffs:
        n = int(coeff)
        if coeff != n:
            raise ValueError("lin_to_gterm expects integer coefficients")
        leaf = GVar(var)
        if abs(n) > 1:
            leaf = IntScale(abs(n), leaf)
        if n < 0:
            leaf = Neg(leaf)
        parts.append(leaf)
    if not parts:
        return Zero()
    out = parts[0]
    for p in parts[1:]:
        out = Add(out, p)
    return out


# --- printing ---

_LEAVES = {Zero: "0", Bot: "bot", Top: "top", TrueF: "true", FalseF: "false"}
_QUANTIFIERS = {Exists: "exists", Forall: "forall"}
_APPLIED = {Val: "P", Compl: "compl"}


def _print(node: Term | Formula, prec: int) -> str:
    """node as text, in parentheses if it binds looser than prec. A chain
    of binary operators at one precedence, a run of ~ and a run of
    quantifiers each print in one loop, as the parser reads them."""
    cls = type(node)
    if cls in BINARY:
        p = BINARY[cls][1]
        right = cls is Implies  # the one operator that groups to the right
        links = []
        while BINARY.get(type(node), (None, None))[1] == p:
            word = BINARY[type(node)][0]
            if right:
                links.append(f"{_print(node.left, p + 1)} {word}")
                node = node.right
            else:
                links.append(f"{word} {_print(node.right, p + 1)}")
                node = node.left
        end = _print(node, p)
        s = " ".join([*links, end] if right else [end, *reversed(links)])
        return f"({s})" if prec > p else s
    if cls in RELATIONS:
        side = RELATION_PREC + 1
        return f"{_print(node.left, side)} {RELATIONS[cls]} {_print(node.right, side)}"
    if cls is GVar or cls is LVar:
        return node.name
    if cls in _LEAVES:
        return _LEAVES[cls]
    if cls is Not:
        tildes = 0
        while type(node) is Not:
            node, tildes = node.arg, tildes + 1
        return "~" * tildes + _print(node, NOT_PREC)
    if cls is Neg:
        return f"-{_print(node.arg, UNARY_PREC)}"
    if cls is IntScale:
        s = f"{node.factor}*{_print(node.arg, UNARY_PREC)}"
        return f"({s})" if prec > SCALE_PREC else s
    if cls in _APPLIED:
        return f"{_APPLIED[cls]}({_print(node.arg, 0)})"
    if cls in _QUANTIFIERS:
        heads = []
        while type(node) in _QUANTIFIERS:
            heads.append(f"{_QUANTIFIERS[type(node)]} {node.var}:{node.sort}. ")
            node = node.body
        s = "".join(heads) + _print(node, 0)
        return f"({s})" if prec > 0 else s
    if cls is LinForm:
        return _print(lin_to_gterm(node.lin), prec)
    raise ValueError(f"unknown node {node!r}")


def print_term(t: Term) -> str:
    return _print(t, 0)


def print_formula(phi: Formula) -> str:
    return _print(phi, 0)
