"""Brute-force decision over finite standard structures.

Lattice quantifiers expand over all subsets of the ground set; each
group-quantified variable becomes one rational unknown per ground
point, and membership atoms compile pointwise to linear constraints
decided by Fourier-Motzkin elimination. Sound and complete at small
sizes, and completely independent of the reduction engine.

Constraints are in the primitive integer normal form of linear.py. A
conjunction is a store from constraint key to the signs still allowed,
so contradictions and duplicates show up as plain dict work. One
decide_finite call compiles each valuation atom once per point and
eliminates each (variable, Boolean formula) pair once: the compiler
memoizes both, keyed on structure, and is dropped when the call ends.
Assignment sizes are checked once, on entry. Quantifier-free parts
are evaluated by syntax.holds, with the structure as the model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import syntax as S
from .errors import PreconditionViolated, ResourceLimit, UnboundVariable
from .linear import (
    ALL_SIGNS, CONST, NEG, POS, ZERO, Lin, LinConstraint, fm_eliminate,
    fm_eliminate_conj,
)
from .rewrites import linearize_group_term, one_point, rename_bound
from .standard import FinStdStructure, GroupVector, SubsetL

__all__ = [
    "Assignment",
    "eval_qf",
    "decide_finite",
    "fm_eliminate",
    "fm_eliminate_conj",
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


def _count_quantifiers(phi: S.Formula) -> int:
    if isinstance(phi, S.ATOMS):
        return 0
    count = int(isinstance(phi, (S.Exists, S.Forall)))
    for child in S.children(phi):
        count += _count_quantifiers(child)
    return count


def count_atoms(phi: S.Formula) -> int:
    if isinstance(phi, S.ATOMS):
        return 1
    count = 0
    for child in S.children(phi):
        count += count_atoms(child)
    return count


def eval_qf(struct: FinStdStructure, env: Assignment, phi: S.Formula) -> bool:
    """Truth of a quantifier-free formula: syntax.holds in struct."""
    env.check_sizes(struct.ground_size)
    return S.holds(struct, env.group_env, env.lattice_env, phi)


# --- symbolic compilation for group quantifiers ---
#
# Boolean formulas over LinConstraint atoms are nested tuples:
# True/False, a LinConstraint, ("not", f), ("and", (f, ...)),
# ("or", (f, ...)).

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


# A conjunction store maps a constraint key to the sign mask that the
# conjunction allows it; a constraint and its negation share a key, so
# a conjunction is contradictory exactly when some mask becomes empty.

def _conj_insert(store: dict, c: LinConstraint):
    """Add a constraint to a conjunction store; False on contradiction."""
    t = c.constant_truth()
    if t is not None:
        return t
    mask = store.get(c.key, ALL_SIGNS) & c.mask
    if not mask:
        return False
    store[c.key] = mask
    return True


def _store_and(store: dict, other: dict) -> bool:
    """Conjoin other into store, in place; False on contradiction."""
    for key, mask in other.items():
        mask &= store.get(key, ALL_SIGNS)
        if not mask:
            return False
        store[key] = mask
    return True


def _store_to_conj(store: dict) -> list[LinConstraint]:
    return [LinConstraint.from_key(k, m) for k, m in sorted(store.items())]


def _excluded(store: dict) -> frozenset:
    """The (key, sign) pairs a store rules out. One store implies another
    exactly when it rules out a superset of the other's pairs."""
    return frozenset(
        (key, sign) for key, mask in store.items() for sign in (NEG, ZERO, POS)
        if not mask & sign
    )


def prune_dnf(dnf):
    """Drop contradictory, duplicate, and subsumed conjunctions."""
    stores = {}
    for conj in dnf:
        store: dict = {}
        ok = True
        for c in conj:
            r = _conj_insert(store, c)
            if r is False:
                ok = False
                break
        if ok:
            stores.setdefault(_excluded(store), store)
    items = list(stores.items())
    if len(items) <= 800:
        keys = [k for k, _ in items]
        items = [
            items[i]
            for i in range(len(items))
            if not any(j != i and keys[j] < keys[i] for j in range(len(items)))
        ]
    return [_store_to_conj(store) for _, store in items]


def _cap_message(phase: str, cap: int, size: int) -> str:
    return f"oracle: {phase}: DNF cap {cap} reached at {size} conjunctions"


def to_dnf(f, cap: int):
    """Pruned DNF as a list of LinConstraint conjunctions, bounded by cap."""

    def nnf(f, neg: bool):
        if f is True or f is False:
            return (f != neg)
        if isinstance(f, LinConstraint):
            if not neg:
                return f
            return b_or(f.negated())
        tag = f[0]
        if tag == "not":
            return nnf(f[1], not neg)
        if tag == "and":
            parts = [nnf(p, neg) for p in f[1]]
            return b_or(parts) if neg else b_and(parts)
        if tag == "or":
            parts = [nnf(p, neg) for p in f[1]]
            return b_and(parts) if neg else b_or(parts)
        raise ValueError(f"bad boolean node {f!r}")

    def dist(f) -> list[dict]:
        """List of conjunction stores; contradictions pruned eagerly."""
        if f is True:
            return [{}]
        if f is False:
            return []
        if isinstance(f, LinConstraint):
            store: dict = {}
            return [store] if _conj_insert(store, f) else []
        tag = f[0]
        if tag == "or":
            out = []
            for p in f[1]:
                out.extend(dist(p))
                if len(out) > cap:
                    raise ResourceLimit(_cap_message("to_dnf or", cap, len(out)))
            return out
        if tag == "and":
            out = [{}]
            for p in f[1]:
                branches = dist(p)
                last = len(branches) - 1
                merged = []
                for a in out:
                    # every store here is this call's own: the last branch
                    # can extend a itself instead of a copy
                    for i, b in enumerate(branches):
                        combo = a if i == last else dict(a)
                        if _store_and(combo, b):
                            merged.append(combo)
                        if len(merged) > cap:
                            raise ResourceLimit(
                                _cap_message("to_dnf and", cap, len(merged))
                            )
                out = merged
            return out
        raise ValueError(f"bad boolean node {f!r}")

    # a root "or" checks the cap on the root's own output too
    root = ("or", (nnf(f, False),))
    return prune_dnf([_store_to_conj(s) for s in dist(root)])


def _dnf_to_bform(dnf):
    return b_or([b_and(list(conj)) for conj in dnf])


_MISS = object()


class _Compiler:
    """Compiles formulas over one structure and one assignment of the free
    group variables. Its memos are keyed on structure (terms and Boolean
    formulas compare by value), so they hold for the compiler's lifetime,
    one decide_finite call, and go with it."""

    def __init__(self, struct: FinStdStructure, genv, limits):
        self.n = struct.ground_size
        self.genv = genv  # concrete values for free group variables
        self.cap = limits["max_dnf"]
        self.struct = struct
        self.linear = {}  # G-term -> join of meets of Lin
        self.nonneg = {}  # (G-term, point) -> Boolean constraint formula
        self.eliminated = {}  # (variable, Boolean formula) -> formula

    def point_constraint(self, lin: Lin, x: int) -> "LinConstraint | bool":
        """ lin(x) >= 0 with free group variables folded to constants."""
        out: dict[str, Fraction] = {}
        for var, c in lin.coeffs:
            if var == CONST:
                out[CONST] = out.get(CONST, 0) + c
            elif var in self.genv:
                out[CONST] = out.get(CONST, 0) + c * self.genv[var].values[x]
            else:
                key = f"{var}@{x}"
                out[key] = out.get(key, 0) + c
        c = LinConstraint(Lin(tuple(out.items())), ">=")
        t = c.constant_truth()
        return c if t is None else t

    def nonneg_at(self, t: S.Term, x: int):
        """Boolean constraint formula for t(x) >= 0."""
        f = self.nonneg.get((t, x), _MISS)
        if f is _MISS:
            jom = self.linear.get(t)
            if jom is None:
                jom = self.linear[t] = linearize_group_term(t)
            f = self.nonneg[t, x] = b_or(
                [b_and([self.point_constraint(l, x) for l in meet]) for meet in jom]
            )
        return f

    def member_at(self, t: S.Term, x: int, lenv):
        if isinstance(t, S.LVar):
            if t.name not in lenv:
                raise UnboundVariable(f"lattice variable {t.name} not assigned")
            return bool(lenv[t.name].bits >> x & 1)
        if isinstance(t, S.Bot):
            return False
        if isinstance(t, S.Top):
            return True
        if isinstance(t, S.LMeet):
            return b_and([self.member_at(t.left, x, lenv), self.member_at(t.right, x, lenv)])
        if isinstance(t, S.LJoin):
            return b_or([self.member_at(t.left, x, lenv), self.member_at(t.right, x, lenv)])
        if isinstance(t, S.Compl):
            return b_not(self.member_at(t.arg, x, lenv))
        if isinstance(t, S.Val):
            return self.nonneg_at(t.arg, x)
        raise PreconditionViolated(f"not an L-term: {t!r}")

    def compile(self, f: S.Formula, lenv):
        """Boolean constraint formula for f; group quantifiers eliminated."""
        points = range(self.n)
        if isinstance(f, S.TrueF):
            return True
        if isinstance(f, S.FalseF):
            return False
        if isinstance(f, S.GLeq):
            diff = S.Add(f.right, S.Neg(f.left))
            return b_and([self.nonneg_at(diff, x) for x in points])
        if isinstance(f, S.GEq):
            return b_and(
                [self.compile(S.GLeq(f.left, f.right), lenv),
                 self.compile(S.GLeq(f.right, f.left), lenv)]
            )
        if isinstance(f, S.LBelow):
            return b_and(
                [b_or([b_not(self.member_at(f.left, x, lenv)),
                       self.member_at(f.right, x, lenv)])
                 for x in points]
            )
        if isinstance(f, S.LEq):
            left = [self.member_at(f.left, x, lenv) for x in points]
            right = [self.member_at(f.right, x, lenv) for x in points]
            return b_and(
                [b_and([b_or([b_not(a), b]), b_or([a, b_not(b)])])
                 for a, b in zip(left, right)]
            )
        if isinstance(f, S.Not):
            return b_not(self.compile(f.arg, lenv))
        if isinstance(f, S.And):
            return b_and([self.compile(f.left, lenv), self.compile(f.right, lenv)])
        if isinstance(f, S.Or):
            return b_or([self.compile(f.left, lenv), self.compile(f.right, lenv)])
        if isinstance(f, S.Implies):
            return b_or([b_not(self.compile(f.left, lenv)), self.compile(f.right, lenv)])
        if isinstance(f, (S.Exists, S.Forall)) and f.sort == S.L:
            parts = []
            for s in self.struct.all_subsets():
                inner = dict(lenv)
                inner[f.var] = s
                parts.append(self.compile(f.body, inner))
            return b_or(parts) if isinstance(f, S.Exists) else b_and(parts)
        if isinstance(f, S.Exists):
            return self.eliminate_exists(f.var, self.compile(f.body, lenv))
        if isinstance(f, S.Forall):
            return b_not(
                self.eliminate_exists(f.var, b_not(self.compile(f.body, lenv)))
            )
        raise PreconditionViolated(f"unknown formula node {f!r}")

    def eliminate_exists(self, var: str, bform):
        out = self.eliminated.get((var, bform), _MISS)
        if out is _MISS:
            dnf = to_dnf(bform, self.cap)
            for x in range(self.n):
                # no cap check: no step here adds a conjunction
                dnf = prune_dnf(fm_eliminate(f"{var}@{x}", dnf))
            out = self.eliminated[var, bform] = _dnf_to_bform(dnf)
        return out


def _bform_truth(f) -> bool:
    if f is True or f is False:
        return f
    if isinstance(f, LinConstraint):
        t = f.constant_truth()
        if t is None:
            raise UnboundVariable(
                f"constraint still mentions unknowns: {f.lhs.vars()}"
            )
        return t
    tag = f[0]
    if tag == "not":
        return not _bform_truth(f[1])
    if tag == "and":
        return all(_bform_truth(p) for p in f[1])
    return any(_bform_truth(p) for p in f[1])


def decide_finite(
    struct: FinStdStructure,
    phi: S.Formula,
    env: Assignment | None = None,
    limits: dict | None = None,
) -> bool:
    """Truth of an arbitrary sentence-with-parameters in the structure."""
    lim = dict(DEFAULT_LIMITS)
    if limits:
        lim.update(limits)
    if struct.ground_size > lim["max_n"]:
        raise ResourceLimit(
            f"ground size {struct.ground_size} exceeds cap {lim['max_n']}"
        )
    env = env or Assignment()
    env.check_sizes(struct.ground_size)
    phi = one_point(rename_bound(phi, prefix="_d"))
    if _count_quantifiers(phi) > lim["max_quantifiers"]:
        raise ResourceLimit("quantifier count exceeds cap")
    if count_atoms(phi) > lim["max_atoms"]:
        raise ResourceLimit("atom count exceeds cap")
    genv = env.group_env
    comp = _Compiler(struct, genv, lim)

    def go(f: S.Formula, lenv) -> bool:
        # stay concrete (with short-circuiting) until a group quantifier
        if isinstance(f, S.Not):
            return not go(f.arg, lenv)
        if isinstance(f, S.And):
            return go(f.left, lenv) and go(f.right, lenv)
        if isinstance(f, S.Or):
            return go(f.left, lenv) or go(f.right, lenv)
        if isinstance(f, S.Implies):
            return (not go(f.left, lenv)) or go(f.right, lenv)
        if isinstance(f, (S.Exists, S.Forall)) and f.sort == S.L:
            subsets = struct.all_subsets()
            if isinstance(f, S.Exists):
                return any(go(f.body, {**lenv, f.var: s}) for s in subsets)
            return all(go(f.body, {**lenv, f.var: s}) for s in subsets)
        if isinstance(f, (S.Exists, S.Forall)):
            return _bform_truth(comp.compile(f, lenv))
        return S.holds(struct, genv, lenv, f)

    return go(phi, dict(env.lattice_env))
