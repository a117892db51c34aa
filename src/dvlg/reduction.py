"""Reduction of two-sorted formulas to the lattice sort.

Group atoms are traded for valuation atoms using density, valuations
are pushed to primitive linear arguments, and group quantifiers are
eliminated by the patching argument: each valuation atom mentioning
the quantified variable becomes a fresh lattice variable, and the
candidate regions carry lower/upper bound conditions whose pairwise
compatibility is expressible without the group variable. The result is
a lattice formula chi together with group terms t_i bound through
p_i = P(t_i).

Neither mode eliminates a lattice quantifier. tplus mode refuses one
that a group variable crosses; ec mode keeps it in chi, and ba_decide
removes all of them in its one QE pass. That is sound because in an
existentially closed model P is onto an atomless Boolean algebra and
each Val term is an opaque base, so lattice QE commutes with renaming
Val terms to fresh lattice variables.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from . import syntax as S
# ba_qe is not called here; perfbench/tracing.py rebinds reduction.ba_qe
from .boolalg import ba_decide, ba_qe
from .errors import NotPrimitive, NotSentence, UnsupportedFragment
from .linear import Lin
from .rewrites import (
    group_atoms_to_lattice,
    gterm_to_lin,
    one_point,
    push_valuation_formula,
    rename_bound,
    simplify,
    val_of_lin,
)

__all__ = [
    "PrimitiveBlock",
    "ReductionOutput",
    "eliminate_group_var",
    "reduce",
    "assemble_reduct",
    "decide_ec",
]


@dataclass(frozen=True)
class PrimitiveBlock:
    """Bounds on one group variable, grouped by the lattice region where
    each bound is active. Bound coefficients on the variable are already
    normalized away (divisibility permits rational rescaling)."""

    variable: str
    lowers: tuple  # (region: L-term, bound: Lin, strict: bool)
    uppers: tuple
    # pairs with these indices are complementary regions and are skipped
    skip_pairs: frozenset = field(default_factory=frozenset)


@dataclass(frozen=True)
class ReductionOutput:
    chi: S.Formula
    terms: tuple  # G-sorted Terms
    k: int
    mode: str
    eliminations: int = 0

    def to_json(self):
        return {
            "k": self.k,
            "terms": [S.print_term(t) for t in self.terms],
            "chi": S.print_formula(self.chi),
            "mode": self.mode,
        }


def eliminate_group_var(block: PrimitiveBlock) -> S.Formula:
    """Side conditions equivalent to the existential over the variable.

    For every active lower bound l on region r and upper bound u on
    region r', compatibility needs r meet r' inside P(u - l); if either
    bound is strict the strict form P(u - l) meet compl(P(l - u)) is
    required. One-sided blocks need no conditions: divisible ordered
    stalks are unbounded and dense.
    """
    conds = []
    for i, (r, low, ls) in enumerate(block.lowers):
        for j, (rp, up, us) in enumerate(block.uppers):
            if (i, j) in block.skip_pairs:
                continue
            diff = up - low
            target = val_of_lin(diff)
            if ls or us:
                target = S.LMeet(target, S.Compl(val_of_lin(-diff)))
            conds.append(S.LBelow(S.LMeet(r, rp), target))
    out = S.TRUE
    for c in conds:
        out = c if isinstance(out, S.TrueF) else S.And(out, c)
    return simplify(out)


def _collect_val_atoms(n, out: dict) -> dict:
    """Distinct Val terms below n, by first occurrence, as keys of out."""
    if isinstance(n, S.Val):
        out[n] = None
        return out
    if isinstance(n, (S.GLeq, S.GEq)):
        raise NotPrimitive(
            f"group atom survived normalization: {S.print_formula(n)}"
        )
    for child in S.children(n):
        _collect_val_atoms(child, out)
    return out


def _subst_terms(f: S.Formula, mapping: dict[S.Term, S.Term]) -> S.Formula:
    """f with each Val term that is a key of mapping replaced."""

    def go(n):
        if isinstance(n, S.Val) and n in mapping:
            return mapping[n]
        return S.rebuild(n, tuple(map(go, S.children(n))))

    return go(f)


def _reject_crossing(var: str, f: S.Formula) -> None:
    """tplus mode: raise UnsupportedFragment if a lattice quantifier in f
    has var free. ec mode keeps it in chi for ba_decide's one QE pass:
    lattice QE commutes with renaming the opaque Val bases below it."""
    if isinstance(f, (S.Exists, S.Forall)):
        if S.occurs_free(var, f):
            raise UnsupportedFragment(
                f"group variable {var} crosses the lattice quantifier "
                f"over {f.var} in: {S.print_formula(f)}"
            )
    elif not isinstance(f, S.ATOMS):
        for child in S.children(f):
            _reject_crossing(var, child)


class _Reducer:
    def __init__(self, mode: str):
        if mode not in ("tplus", "ec"):
            raise ValueError(f"unknown mode {mode!r}")
        self.mode = mode
        self.fresh = itertools.count()
        self.eliminations = 0

    def fresh_lvar(self) -> str:
        return f"_y{next(self.fresh)}"

    def run(self, phi: S.Formula) -> S.Formula:
        if isinstance(phi, S.Exists) and phi.sort == S.G:
            names = []
            while isinstance(phi, S.Exists) and phi.sort == S.G:
                names.append(phi.var)
                phi = phi.body
            body = self.run(phi)
            for var in reversed(names):
                self.eliminations += 1
                body = self.eliminate_exists(var, body)
            return body
        if isinstance(phi, S.Forall) and phi.sort == S.G:
            names = []
            while isinstance(phi, S.Forall) and phi.sort == S.G:
                names.append(phi.var)
                phi = phi.body
            body = simplify(S.Not(self.run(phi)))
            for var in reversed(names):
                self.eliminations += 1
                body = self.eliminate_exists(var, body)
            return simplify(S.Not(body))
        if isinstance(phi, S.ATOMS):
            return phi
        return S.rebuild(phi, tuple(map(self.run, S.children(phi))))

    def eliminate_exists(self, var: str, body: S.Formula) -> S.Formula:
        """Eliminate 'exists var:G.' from a body with no group quantifiers."""
        body = simplify(body)
        # hoist a top-of-scope existential lattice block (they commute);
        # simplify leaves no double negation on top
        if isinstance(body, S.Not) and isinstance(body.arg, S.Forall):
            q = body.arg
            return self.eliminate_exists(
                var, S.Exists(q.var, q.sort, S.Not(q.body))
            )
        if isinstance(body, S.Exists) and body.sort == S.L:
            return S.Exists(
                body.var, S.L, self.eliminate_exists(var, body.body)
            )
        if self.mode == "tplus":
            _reject_crossing(var, body)
        if not S.occurs_free(var, body):
            return body
        val_terms = [
            v for v in _collect_val_atoms(body, {}) if var in S.term_vars(v.arg)
        ]
        if not val_terms:
            raise NotPrimitive(
                f"variable {var} occurs outside valuation atoms"
            )
        mapping = {}
        lowers, uppers, skip = [], [], set()
        for vt in val_terms:
            lin = gterm_to_lin(vt.arg)
            c = lin.get(var)
            rest = lin + Lin.make({var: -c})
            y = S.LVar(self.fresh_lvar())
            mapping[vt] = y
            if c > 0:
                # lin >= 0 iff var >= -rest/c : active lower bound on y
                bound = rest.scale(Fraction(-1) / c)
                li, ui = len(lowers), len(uppers)
                lowers.append((y, bound, False))
                uppers.append((S.Compl(y), bound, True))
            else:
                # lin >= 0 iff var <= rest/(-c) : active upper bound on y
                bound = rest.scale(Fraction(-1) / c)
                li, ui = len(lowers), len(uppers)
                uppers.append((y, bound, False))
                lowers.append((S.Compl(y), bound, True))
            skip.add((li, ui))
        block = PrimitiveBlock(
            var, tuple(lowers), tuple(uppers), frozenset(skip)
        )
        side = eliminate_group_var(block)
        chi = simplify(S.And(_subst_terms(body, mapping), side))
        for vt in reversed(val_terms):
            chi = S.Exists(mapping[vt].name, S.L, chi)
        return simplify(one_point(chi))


def _extract_terms(phi: S.Formula):
    """Replace Val atoms over free group variables by fresh p_i."""
    vals = list(_collect_val_atoms(phi, {}))
    mapping = {v: S.LVar(f"p{i}") for i, v in enumerate(vals, start=1)}
    return _subst_terms(phi, mapping), [v.arg for v in vals]


def reduce(phi: S.Formula, mode: str = "tplus") -> ReductionOutput:
    """Lattice-sort reduction of an arbitrary well-sorted formula."""
    S.sort_check(phi, S.free_vars(phi))
    phi = rename_bound(phi)
    phi = group_atoms_to_lattice(phi)
    phi = push_valuation_formula(phi)
    phi = simplify(phi)
    reducer = _Reducer(mode)
    chi = simplify(one_point(reducer.run(phi)))
    chi, terms = _extract_terms(chi)
    return ReductionOutput(
        chi=simplify(chi),
        terms=tuple(terms),
        k=len(terms),
        mode=mode,
        eliminations=reducer.eliminations,
    )


def assemble_reduct(out: ReductionOutput) -> S.Formula:
    """The formula (exists p_1..p_k : L)(chi and each p_i = P(t_i))."""
    body = out.chi
    for i, t in enumerate(out.terms, start=1):
        body = S.And(body, S.LEq(S.LVar(f"p{i}"), S.Val(t)))
    for i in range(out.k, 0, -1):
        body = S.Exists(f"p{i}", S.L, body)
    return body


def decide_ec(sigma: S.Formula) -> bool:
    """Truth in every existentially closed densely valued l-group."""
    if S.free_vars(sigma):
        raise NotSentence(f"free variables: {sorted(S.free_vars(sigma))}")
    out = reduce(sigma, mode="ec")
    return ba_decide(out.chi)
