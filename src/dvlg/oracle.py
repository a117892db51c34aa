"""Brute-force decision over finite standard structures.

Each quantified variable becomes one unknown per ground point, and
membership atoms compile pointwise to constraints on them. A group
variable's unknowns v@x are rational and are removed by Fourier-Motzkin
elimination. A lattice variable's unknowns are bits, the constraints
v@x > 0 (set) or v@x <= 0 (clear); its quantifier compiles its body
once and then removes the bits one point at a time by Shannon
expansion (cofactoring), touching only the conjuncts that mention the
bit. So no lattice bit goes through a DNF or FM for its own quantifier;
the stores and FM steps of a group quantifier below carry it unchanged.
Free lattice variables stay concrete. Sound and complete at small sizes,
and completely independent of the reduction engine.

Constraints are in the primitive integer normal form of linear.py. A
conjunction is a store from constraint key to the signs still allowed,
so contradictions and duplicates show up as plain dict work. The DNF
pipeline works on stores from start to end: to_dnf builds them and
keeps only distinct stores while it multiplies, so the max_dnf cap
counts distinct conjunctions; prune_dnf, the Fourier-Motzkin steps of
linear.py and the final rendering take the stores as they are. An
existential group variable is eliminated block by block: conjuncts
that share no unknown v@x are eliminated apart, so pointwise formulas
never take a DNF product across points.

One compile walk decides a formula. Parts without unknowns fold to
True or False as they are compiled, and unassigned free variables are
rejected on entry, so the root compiles to a bool. One decide_finite
call compiles each valuation atom once per point: the compiler
memoizes it, keyed on the term's identity, so no term is hashed, and is
dropped when the call ends. A block whose conjuncts are all constraints
is one store, built by store_insert without a trip through to_dnf.
prepare normalizes a formula once for many decide_prepared calls. eval_qf is
syntax.holds over the structure: it shares no code with the compiler,
and the tests check decide_finite against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import syntax as S
from .errors import PreconditionViolated, ResourceLimit, UnboundVariable
from .linear import (
    ALL_SIGNS, CONST, NEG, POS, ZERO, Lin, LinConstraint, fm_eliminate,
    store_insert,
)
from .rewrites import linearize_group_term, one_point, rename_bound
from .standard import FinStdStructure, GroupVector, SubsetL

__all__ = [
    "Assignment",
    "eval_qf",
    "decide_finite",
    "decide_prepared",
    "prepare",
    "fm_eliminate",
    "DEFAULT_LIMITS",
]

DEFAULT_LIMITS = {
    "max_n": 4,
    "max_quantifiers": 6,
    "max_atoms": 64,
    "max_dnf": 50000,
}


@dataclass(frozen=True)
class Assignment:
    """Concrete values for free variables of both sorts."""

    group_env: dict[str, GroupVector] = field(default_factory=dict)
    lattice_env: dict[str, SubsetL] = field(default_factory=dict)

    def check_sizes(self, n: int):
        for name, v in self.group_env.items():
            if len(v) != n:
                raise PreconditionViolated(
                    f"vector for {name} has length {len(v)}, structure has {n}"
                )
        for name, s in self.lattice_env.items():
            if s.width != n:
                raise PreconditionViolated(
                    f"subset for {name} has width {s.width}, structure has {n}"
                )


def eval_qf(struct: FinStdStructure, env: Assignment, phi: S.Formula) -> bool:
    """Truth of a quantifier-free formula: syntax.holds in struct."""
    env.check_sizes(struct.ground_size)
    return S.holds(struct, env.group_env, env.lattice_env, phi)


# --- symbolic compilation ---
#
# Boolean formulas over LinConstraint atoms are nested tuples:
# True/False, a LinConstraint, ("not", f), ("and", (f, ...)),
# ("or", (f, ...)). b_and stops reading its parts at the first False
# and b_or at the first True, so given a generator they short-circuit.

def b_and(parts):
    out = []
    for p in parts:
        if p is False:
            return False
        if p is True:
            continue
        out.append(p)
    if not out:
        return True
    if len(out) == 1:
        return out[0]
    return ("and", tuple(out))


def b_or(parts):
    out = []
    for p in parts:
        if p is True:
            return True
        if p is False:
            continue
        out.append(p)
    if not out:
        return False
    if len(out) == 1:
        return out[0]
    return ("or", tuple(out))


def b_not(f):
    if f is True:
        return False
    if f is False:
        return True
    if isinstance(f, tuple) and f and f[0] == "not":
        return f[1]
    return ("not", f)


# A DNF is a list of conjunction stores (linear.store_insert): dicts from
# a constraint key to the sign mask the conjunction allows it. A
# constraint and its negation share a key, so a conjunction is
# contradictory exactly when some mask becomes empty, and two stores
# with the same items are the same conjunction.

def _store_and(store: dict, other: dict) -> bool:
    """Conjoin other into store, in place; False on contradiction."""
    for key, mask in other.items():
        mask &= store.get(key, ALL_SIGNS)
        if not mask:
            return False
        store[key] = mask
    return True


def _excluded(store: dict) -> frozenset:
    """The (key, sign) pairs a store rules out. One store implies another
    exactly when it rules out a superset of the other's pairs."""
    return frozenset(
        (key, sign) for key, mask in store.items() for sign in (NEG, ZERO, POS)
        if not mask & sign
    )


def prune_dnf(dnf: list[dict]) -> list[dict]:
    """Drop duplicate and subsumed stores, keeping the first of each.
    The excluded-pair sets are met smallest first, and each is tested
    only against those already kept: a strict subset is smaller, and a
    dropped one lies above a kept set, which lies below this one too."""
    if len(dnf) < 2:
        return dnf
    stores = {}
    for store in dnf:
        stores.setdefault(_excluded(store), store)
    if len(stores) > 800:
        return list(stores.values())
    kept = []
    for key in sorted(stores, key=len):
        if not any(k < key for k in kept):
            kept.append(key)
    keep = set(kept)
    return [store for key, store in stores.items() if key in keep]


def _cap_message(phase: str, cap: int, size: int) -> str:
    return f"oracle: {phase}: DNF cap {cap} reached at {size} conjunctions"


def to_dnf(f, cap: int) -> list[dict]:
    """Pruned DNF of f as a list of distinct stores, at most cap of them."""
    # a root "or" checks the cap on the root's own output too
    return prune_dnf(_dist(("or", (f,)), False, cap))


def _dist(f, neg: bool, cap: int) -> list[dict]:
    """Distinct stores of f (of not f when neg) in first-seen order;
    contradictions dropped. Negation is read as polarity: under it an
    "and" is taken as an "or" and the reverse, and a constraint as the
    disjunction of its negated() parts. Stores are told apart by a
    frozenset of their items, which is hashed and compared but never
    iterated."""
    if f is True or f is False:
        return [{}] if f != neg else []
    if isinstance(f, LinConstraint):
        if neg:
            return _dist(b_or(f.negated()), False, cap)
        store: dict = {}
        return [store] if store_insert(store, f.key, f.mask) else []
    tag = f[0]
    if tag == "not":
        return _dist(f[1], not neg, cap)
    if tag not in ("and", "or"):
        raise ValueError(f"bad boolean node {f!r}")
    if (tag == "or") != neg:
        out = {}
        for p in f[1]:
            for store in _dist(p, neg, cap):
                out.setdefault(frozenset(store.items()), store)
            if len(out) > cap:
                raise ResourceLimit(_cap_message("to_dnf or", cap, len(out)))
        return list(out.values())
    out = [{}]
    for p in f[1]:
        branches = _dist(p, neg, cap)
        last = len(branches) - 1
        merged = {}
        for a in out:
            # every store here is this call's own: the last branch
            # can extend a itself instead of a copy
            for i, b in enumerate(branches):
                combo = a if i == last else dict(a)
                if _store_and(combo, b):
                    merged.setdefault(frozenset(combo.items()), combo)
                    if len(merged) > cap:
                        raise ResourceLimit(
                            _cap_message("to_dnf and", cap, len(merged))
                        )
        out = list(merged.values())
    return out


def _conj_dnf(parts: list) -> list[dict]:
    """to_dnf(b_and(parts)) for constraints parts, under any cap of 1 or
    more: one store, its keys in first-seen order, or [] when the parts
    contradict each other."""
    store: dict = {}
    return [store] if all(store_insert(store, c.key, c.mask) for c in parts) else []


def _dnf_to_bform(dnf: list[dict]):
    return b_or([
        b_and([LinConstraint.from_key(k, m) for k, m in sorted(store.items())])
        for store in dnf
    ])


class _Compiler:
    """Compiles formulas over one structure and one assignment of the free
    variables. Its memos are keyed on term identity, so no term is
    hashed; linear holds the terms they have seen, so no id is reused
    while the compiler lives, one decide_finite call, and they go with
    it."""

    def __init__(self, struct: FinStdStructure, env: Assignment, limits):
        self.n = struct.ground_size
        self.genv = env.group_env  # concrete values for free group variables
        self.lenv = env.lattice_env  # concrete bits of free lattice variables
        self.cap = limits["max_dnf"]
        # id(G-term) -> (G-term, join of meets of Lin); it holds every
        # term that either memo has a key for
        self.linear = {}
        self.nonneg = {}  # (id(G-term), point) -> Boolean constraint formula

    def point_constraint(self, lin: Lin, x: int) -> "LinConstraint | bool":
        """ lin(x) >= 0 with free group variables folded to constants."""
        out: dict[str, Fraction] = {}
        for var, c in lin.coeffs:  # lin names variables only
            if var in self.genv:
                out[CONST] = out.get(CONST, 0) + c * self.genv[var].values[x]
            else:
                key = f"{var}@{x}"
                out[key] = out.get(key, 0) + c
        c = LinConstraint(Lin(tuple(out.items())), ">=")
        t = c.constant_truth()
        return c if t is None else t

    def nonneg_at(self, t: S.Term, x: int):
        """Boolean constraint formula for t(x) >= 0."""
        f = self.nonneg.get((id(t), x))
        if f is None:
            hit = self.linear.get(id(t))
            if hit is None:
                hit = self.linear[id(t)] = (t, linearize_group_term(t))
            f = self.nonneg[id(t), x] = b_or(
                [b_and([self.point_constraint(l, x) for l in meet]) for meet in hit[1]]
            )
        return f

    def member_at(self, t: S.Term, x: int):
        """Boolean constraint formula for x in t. A bound lattice
        variable v is the unknown bit v@x, true when v@x > 0."""
        cls = type(t)
        if cls is S.LVar:
            s = self.lenv.get(t.name)
            if s is None:
                return LinConstraint.from_key(_bit_key(t.name, x), POS)
            return bool(s.bits >> x & 1)
        if cls is S.Val:
            return self.nonneg_at(t.arg, x)
        if cls is S.LMeet:
            a = self.member_at(t.left, x)
            return False if a is False else b_and([a, self.member_at(t.right, x)])
        if cls is S.LJoin:
            a = self.member_at(t.left, x)
            return True if a is True else b_or([a, self.member_at(t.right, x)])
        if cls is S.Compl:
            return b_not(self.member_at(t.arg, x))
        if cls is S.Bot or cls is S.Top:
            return cls is S.Top
        raise PreconditionViolated(f"not an L-term: {t!r}")

    def compile(self, f: S.Formula):
        """Boolean constraint formula for f, with its quantifiers
        eliminated. Parts without unknowns fold to True or False, and
        each connective and pointwise atom stops at the first part that
        settles it. A lattice quantifier's body is compiled once, with
        the variable's bits v@0 .. v@(n-1) as unknowns, and the bits are
        then removed one by one by Shannon expansion (_expand_bit)."""
        cls = type(f)
        if cls is S.And:
            a = self.compile(f.left)
            return False if a is False else b_and([a, self.compile(f.right)])
        if cls is S.Or:
            a = self.compile(f.left)
            return True if a is True else b_or([a, self.compile(f.right)])
        if cls is S.Not:
            return b_not(self.compile(f.arg))
        if cls is S.Implies:
            a = b_not(self.compile(f.left))
            return True if a is True else b_or([a, self.compile(f.right)])
        if cls is S.Exists or cls is S.Forall:
            if f.sort == S.L:
                out = self.compile(f.body)
                for x in range(self.n):
                    out = _expand_bit(out, _bit_key(f.var, x), cls is S.Exists)
                return out
            if cls is S.Exists:
                return self.eliminate_exists(f.var, self.compile(f.body))
            return b_not(self.eliminate_exists(f.var, b_not(self.compile(f.body))))
        points = range(self.n)
        if cls is S.GLeq:
            diff = S.Add(f.right, S.Neg(f.left))
            return b_and(self.nonneg_at(diff, x) for x in points)
        if cls is S.GEq:
            return b_and(
                self.compile(S.GLeq(a, b))
                for a, b in ((f.left, f.right), (f.right, f.left))
            )
        if cls is S.LBelow:
            # member_at skips the right side at a point outside the left
            below = S.LJoin(S.Compl(f.left), f.right)
            return b_and(self.member_at(below, x) for x in points)
        if cls is S.LEq:
            return b_and(
                _iff(self.member_at(f.left, x), self.member_at(f.right, x))
                for x in points
            )
        if cls is S.TrueF or cls is S.FalseF:
            return cls is S.TrueF
        raise PreconditionViolated(f"unknown formula node {f!r}")

    def eliminate_exists(self, var: str, bform):
        """bform with the unknowns var@x eliminated. The conjuncts fall
        into blocks that share no unknown of var; pointwise operations
        keep var@x apart from var@y, so a block is usually one point's.
        With two or more blocks, each block is eliminated on its own,
        the conjuncts without var stay as they are, and no DNF product
        is taken across blocks. Otherwise bform is one block."""
        names = {f"{var}@{x}": x for x in range(self.n)}
        parts = _flatten(bform, "and")
        rest, blocks = [], []  # blocks: [points, conjuncts]
        for part in parts:
            points = _points(part, names, set())
            if not points:
                rest.append(part)
                continue
            joined = [b for b in blocks if b[0] & points]
            blocks = [b for b in blocks if not b[0] & points]
            for b in joined:
                points |= b[0]
            blocks.append([points, [q for b in joined for q in b[1]] + [part]])
        if len(blocks) > 1:
            return b_and(rest + [
                self.eliminate_block(var, points, block, b_and(block))
                for points, block in blocks
            ])
        return self.eliminate_block(
            var, blocks[0][0] if blocks else (), parts, bform
        )

    def eliminate_block(self, var: str, points, parts: list, bform):
        """bform, the conjunction of parts, with var@x eliminated for
        each x in points. A conjunction of constraints is one store,
        which is what to_dnf would give; with a cap below 1, to_dnf
        raises on it, so it goes through to_dnf then."""
        if self.cap >= 1 and all(isinstance(p, LinConstraint) for p in parts):
            dnf = _conj_dnf(parts)
        else:
            dnf = to_dnf(bform, self.cap)
        for x in sorted(points):
            # no cap check: no step here adds a conjunction
            dnf = prune_dnf(fm_eliminate(f"{var}@{x}", dnf))
        return _dnf_to_bform(dnf)


def _bit_key(var: str, x: int) -> tuple:
    """The constraint key of the bit var@x; its mask is POS when the bit
    is set and NEG | ZERO when it is clear."""
    return ((f"{var}@{x}", 1),)


def _expand_bit(f, key: tuple, exists: bool):
    """f with the bit of constraint key `key` quantified away, by Shannon
    expansion: ∃b.F = F[b:=1] ∨ F[b:=0] and ∀b.F = F[b:=1] ∧ F[b:=0].
    Only the part of F that mentions b is expanded: ∃ goes into each
    disjunct and past the conjuncts without b, ∀ into each conjunct and
    past the disjuncts without b. So each bit at most doubles the part
    that mentions it."""
    into, past = ("or", "and") if exists else ("and", "or")
    memos = {POS: {}, ZERO: {}}

    def go(g):
        parts = _flatten(g, into)
        if len(parts) > 1:
            return _join(into, [go(p) for p in parts])
        keep, hit = [], []
        for p in _flatten(g, past):
            (keep if _cofactor(p, key, POS, memos[POS]) is p else hit).append(p)
        if not hit:
            return g
        if len(hit) == 1 and keep:
            return _join(past, keep + [go(hit[0])])
        g = _join(past, hit)
        both = [_cofactor(g, key, sign, memos[sign]) for sign in (POS, ZERO)]
        return _join(past, keep + [_join(into, both)])

    return go(f)


def _cofactor(f, key: tuple, sign: int, memo: dict):
    """f with each constraint on `key` replaced by its truth when the key
    takes `sign`; f itself when it has none. memo is keyed on node
    identity, so a subformula shared inside f is rebuilt once; it holds
    each node it has seen, so no id is reused while it lives."""
    if f is True or f is False:
        return f
    if isinstance(f, LinConstraint):
        return bool(f.mask & sign) if f.key == key else f
    hit = memo.get(id(f))
    if hit is None:
        tag, args = f
        if tag == "not":
            out = _cofactor(args, key, sign, memo)
            out = f if out is args else b_not(out)
        else:
            parts = [_cofactor(p, key, sign, memo) for p in args]
            if all(p is q for p, q in zip(parts, args)):
                out = f
            else:
                out = _join(tag, parts)
        hit = memo[id(f)] = (f, out)
    return hit[1]


def _join(tag: str, parts):
    return b_and(parts) if tag == "and" else b_or(parts)


def _iff(a, b):
    if a is True or a is False:
        return b if a else b_not(b)
    return b_and([b_or([b_not(a), b]), b_or([a, b_not(b)])])


def _flatten(f, tag: str) -> list:
    """The parts of f under tag, its conjuncts for "and" and its
    disjuncts for "or", with nested tag nodes and negated dual nodes
    ("not or" for "and", "not and" for "or") flattened."""
    if isinstance(f, tuple):
        if f[0] == tag:
            return [c for p in f[1] for c in _flatten(p, tag)]
        dual = "or" if tag == "and" else "and"
        if f[0] == "not" and isinstance(f[1], tuple) and f[1][0] == dual:
            return [c for p in f[1][1] for c in _flatten(b_not(p), tag)]
    return [f]


def _points(f, names: dict, out: set) -> set:
    """Add to out the points x of the unknowns names[x] that f mentions."""
    if isinstance(f, LinConstraint):
        for v, _ in f.key:
            x = names.get(v)
            if x is not None:
                out.add(x)
    elif isinstance(f, tuple):
        if f[0] == "not":
            _points(f[1], names, out)
        else:
            for p in f[1]:
                _points(p, names, out)
    return out


@dataclass(frozen=True)
class Prepared:
    """A formula normalized for decide_prepared, with its size counts and
    the free variables of the formula given to prepare, as sorted
    (name, sort) pairs."""

    phi: S.Formula
    quantifiers: int
    atoms: int
    free: tuple[tuple[str, str], ...]


def prepare(phi: S.Formula) -> Prepared:
    """Bound variables renamed apart and pinned quantifiers inlined: the
    work decide_finite does on its formula before any structure."""
    free = S.free_vars(phi)
    phi = one_point(rename_bound(phi, prefix="_d", taken=free))
    return Prepared(phi, *counts(phi), tuple(sorted(free.items())))


def counts(phi: S.Formula) -> tuple[int, int]:
    """The quantifiers and the atoms of phi, counted in one walk that
    enters no term: an atom's children are all terms."""
    quantifiers = atoms = 0
    stack = [phi]
    while stack:
        f = stack.pop()
        cls = type(f)
        if cls in S.ATOMS:
            atoms += 1
            continue
        if cls is S.Exists or cls is S.Forall:
            quantifiers += 1
        stack += S.CHILDREN[cls](f)
    return quantifiers, atoms


def decide_finite(
    struct: FinStdStructure,
    phi: S.Formula,
    env: Assignment | None = None,
    limits: dict | None = None,
) -> bool:
    """Truth of an arbitrary sentence-with-parameters in the structure."""
    return decide_prepared(struct, prepare(phi), env, limits)


def decide_prepared(
    struct: FinStdStructure,
    prepared: Prepared,
    env: Assignment | None = None,
    limits: dict | None = None,
) -> bool:
    """decide_finite on a formula that prepare normalized, so that a
    caller deciding one formula many times normalizes it once."""
    lim = dict(DEFAULT_LIMITS)
    if limits:
        lim.update(limits)
    if struct.ground_size > lim["max_n"]:
        raise ResourceLimit(
            f"ground size {struct.ground_size} exceeds cap {lim['max_n']}"
        )
    env = env or Assignment()
    env.check_sizes(struct.ground_size)
    missing = [
        name for name, sort in prepared.free
        if name not in (env.group_env if sort == S.G else env.lattice_env)
    ]
    if missing:
        raise UnboundVariable(f"free variables not assigned: {', '.join(missing)}")
    if prepared.quantifiers > lim["max_quantifiers"]:
        raise ResourceLimit("quantifier count exceeds cap")
    if prepared.atoms > lim["max_atoms"]:
        raise ResourceLimit("atom count exceeds cap")
    # every free variable is assigned, so compile returns a bool
    return _Compiler(struct, env, lim).compile(prepared.phi)
