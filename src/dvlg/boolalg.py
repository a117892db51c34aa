"""Decision procedures for nontrivial atomless Boolean algebras.

ba_qe eliminates lattice quantifiers by reasoning about minterm
emptiness patterns: over bases b_1..b_m (free variables plus opaque
valuation terms), every atom asserts that a union of full minterms is
bottom, and an existential over y reduces to emptiness and
non-emptiness assertions over the parameter minterms, using
atomlessness to split any non-bottom element into two non-bottom
halves. interval_check is an independent bounded checker in a concrete
atomless algebra of rational half-open subintervals of [0, 1), INTERVALS,
where syntax.holds evaluates its atoms; ba_decide does not use holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from . import syntax as S
from .errors import (
    DepthExceeded,
    NotLatticeSorted,
    NotSentence,
    ResourceLimit,
)
from .rewrites import rename_bound, simplify

__all__ = [
    "IntervalAlgebraElem",
    "ba_qe",
    "ba_decide",
    "interval_check",
]


def _check_lattice_sorted(phi: S.Formula):
    if isinstance(phi, (S.GLeq, S.GEq)):
        raise NotLatticeSorted(
            f"group atom in lattice-sort formula: {S.print_formula(phi)}"
        )
    if isinstance(phi, S.ATOMS):
        return
    for child in S.children(phi):
        _check_lattice_sorted(child)
    if isinstance(phi, (S.Exists, S.Forall)) and phi.sort != S.L:
        raise NotLatticeSorted(
            f"group quantifier in lattice-sort formula: {phi.var}"
        )


def _collect_bases(n, out: list[S.Term]):
    """Lattice variables and Val terms below n, by first occurrence."""
    if isinstance(n, (S.LVar, S.Val)):
        if n not in out:
            out.append(n)
        return
    for child in S.children(n):
        _collect_bases(child, out)


def _term_mask(t: S.Term, bases: list[S.Term], width: int) -> int:
    """Bitmask over the 2^m full minterms where the term holds."""
    full = (1 << (1 << width)) - 1
    if isinstance(t, (S.LVar, S.Val)):
        j = bases.index(t)
        mask = 0
        for idx in range(1 << width):
            if idx >> j & 1:
                mask |= 1 << idx
        return mask
    if isinstance(t, S.Bot):
        return 0
    if isinstance(t, S.Top):
        return full
    if isinstance(t, S.LMeet):
        return _term_mask(t.left, bases, width) & _term_mask(t.right, bases, width)
    if isinstance(t, S.LJoin):
        return _term_mask(t.left, bases, width) | _term_mask(t.right, bases, width)
    if isinstance(t, S.Compl):
        return full & ~_term_mask(t.arg, bases, width)
    raise NotLatticeSorted(f"not an L-term: {S.print_term(t)}")


def _atom_empty_mask(f: S.Formula, bases, width) -> int:
    """Mask M with the atom equivalent to 'union of minterms in M is bot'."""
    lm = _term_mask(f.left, bases, width)
    rm = _term_mask(f.right, bases, width)
    if isinstance(f, S.LBelow):
        return lm & ~rm
    if isinstance(f, S.LEq):
        return lm ^ rm
    raise NotLatticeSorted(f"not a lattice atom: {S.print_formula(f)}")


def _literal_dnf(f: S.Formula, bases, width, neg: bool, cap: int):
    """DNF over literals ('E', mask) / ('N', mask); E = forced empty."""
    if isinstance(f, (S.LBelow, S.LEq)):
        tag = "N" if neg else "E"
        return [[(tag, _atom_empty_mask(f, bases, width))]]
    if isinstance(f, S.TrueF):
        return [] if neg else [[]]
    if isinstance(f, S.FalseF):
        return [[]] if neg else []
    if isinstance(f, S.Not):
        return _literal_dnf(f.arg, bases, width, not neg, cap)
    if isinstance(f, S.Implies):
        return _literal_dnf(S.Or(S.Not(f.left), f.right), bases, width, neg, cap)
    if (isinstance(f, S.And) and not neg) or (isinstance(f, S.Or) and neg):
        left = _literal_dnf(f.left, bases, width, neg, cap)
        right = _literal_dnf(f.right, bases, width, neg, cap)
        out = [a + b for a in left for b in right]
        if len(out) > cap:
            raise ResourceLimit("minterm DNF size limit exceeded")
        return out
    if isinstance(f, (S.And, S.Or)):
        return _literal_dnf(f.left, bases, width, neg, cap) + _literal_dnf(
            f.right, bases, width, neg, cap
        )
    raise NotLatticeSorted(f"quantifier not innermost: {S.print_formula(f)}")


def _mask_to_term(mask: int, bases: list[S.Term]) -> S.Term:
    """Join over minterms in the mask of the meet of (complemented) bases."""
    m = len(bases)
    joins = []
    for idx in range(1 << m):
        if not mask >> idx & 1:
            continue
        parts = [
            bases[j] if idx >> j & 1 else S.Compl(bases[j]) for j in range(m)
        ]
        if not parts:
            term = S.Top()
        else:
            term = parts[0]
            for p in parts[1:]:
                term = S.LMeet(term, p)
        joins.append(term)
    if not joins:
        return S.Bot()
    out = joins[0]
    for t in joins[1:]:
        out = S.LJoin(out, t)
    return out


def _literal_to_formula(lit, bases) -> S.Formula:
    tag, mask = lit
    if mask == 0:
        return S.TRUE if tag == "E" else S.FALSE
    atom = S.LEq(_mask_to_term(mask, bases), S.Bot())
    return atom if tag == "E" else S.Not(atom)


def _eliminate_exists(var: str, body: S.Formula, cap: int) -> S.Formula:
    """QE for 'exists var:L. body' with quantifier-free body."""
    bases: list[S.Term] = []
    yvar = S.LVar(var)
    _collect_bases(body, bases)
    if yvar in bases:
        bases.remove(yvar)
    params = list(bases)
    m = len(params)
    full_bases = params + [yvar]  # y is the highest base bit
    width = m + 1
    ybit = 1 << m
    dnf = _literal_dnf(body, full_bases, width, False, cap)
    out_disjuncts = []
    for conj in dnf:
        forced = 0  # full minterms forced empty
        negs = []
        for tag, mask in conj:
            if tag == "E":
                forced |= mask
            else:
                negs.append(mask)
        f_mask = 0  # parameter minterms forced empty
        for mu in range(1 << m):
            if forced >> mu & 1 and forced >> (mu | ybit) & 1:
                f_mask |= 1 << mu
        lits = [("E", f_mask)]
        for t in negs:
            w = 0
            for mu in range(1 << m):
                lo, hi = mu, mu | ybit
                if (t >> lo & 1 and not forced >> lo & 1) or (
                    t >> hi & 1 and not forced >> hi & 1
                ):
                    w |= 1 << mu
            lits.append(("N", w))
        pieces = [_literal_to_formula(l, params) for l in lits]
        disjunct = pieces[0]
        for p in pieces[1:]:
            disjunct = S.And(disjunct, p)
        out_disjuncts.append(simplify(disjunct))
    result = S.FALSE
    for d in out_disjuncts:
        result = d if isinstance(result, S.FalseF) else S.Or(result, d)
    return simplify(result)


def ba_qe(phi: S.Formula, cap: int = 20000) -> S.Formula:
    """Quantifier-free equivalent of phi over nontrivial atomless
    Boolean algebras; valuation applications are opaque constants."""
    _check_lattice_sorted(phi)
    phi = rename_bound(phi, prefix="_b")

    def go(f: S.Formula) -> S.Formula:
        if isinstance(f, S.Exists):
            return _eliminate_exists(f.var, go(f.body), cap)
        if isinstance(f, S.Forall):
            inner = _eliminate_exists(f.var, simplify(S.Not(go(f.body))), cap)
            return simplify(S.Not(inner))
        if isinstance(f, S.ATOMS):
            return f
        return S.rebuild(f, tuple(map(go, S.children(f))))

    return simplify(go(phi))


def ba_decide(sigma: S.Formula, cap: int = 20000) -> bool:
    """Truth of a lattice sentence in the theory of nontrivial atomless
    Boolean algebras. ba_qe ends in simplify, which folds a variable-free
    lattice formula to TRUE or FALSE; what is left holds a P term."""
    if S.free_vars(sigma):
        raise NotSentence(
            f"free variables: {sorted(S.free_vars(sigma))}"
        )
    out = ba_qe(sigma, cap)
    if not isinstance(out, (S.TrueF, S.FalseF)):
        raise NotSentence(f"not a ground formula: {S.print_formula(out)}")
    return isinstance(out, S.TrueF)


# --- the concrete interval algebra ---

@dataclass(frozen=True)
class IntervalAlgebraElem:
    """Finite union of half-open rational intervals within [0, 1)."""

    intervals: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        prev_end = None
        for p, q in self.intervals:
            if not (0 <= p < q <= 1):
                raise ValueError(f"bad interval [{p}, {q})")
            if prev_end is not None and p <= prev_end:
                raise ValueError("intervals must be disjoint, sorted, non-adjacent")
            prev_end = q

    @classmethod
    def make(cls, pairs) -> "IntervalAlgebraElem":
        """Canonicalize arbitrary interval pairs: sort, merge, drop empty."""
        items = sorted(
            (Fraction(p), Fraction(q)) for p, q in pairs if Fraction(p) < Fraction(q)
        )
        merged: list[list[Fraction]] = []
        for p, q in items:
            if merged and p <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], q)
            else:
                merged.append([p, q])
        return cls(tuple((p, q) for p, q in merged))

    def is_bot(self) -> bool:
        return not self.intervals

    def meet(self, other: "IntervalAlgebraElem") -> "IntervalAlgebraElem":
        out = []
        for a, b in self.intervals:
            for c, d in other.intervals:
                lo, hi = max(a, c), min(b, d)
                if lo < hi:
                    out.append((lo, hi))
        return IntervalAlgebraElem.make(out)

    def join(self, other: "IntervalAlgebraElem") -> "IntervalAlgebraElem":
        return IntervalAlgebraElem.make(self.intervals + other.intervals)

    def complement(self) -> "IntervalAlgebraElem":
        out = []
        cursor = Fraction(0)
        for p, q in self.intervals:
            if cursor < p:
                out.append((cursor, p))
            cursor = q
        if cursor < 1:
            out.append((cursor, Fraction(1)))
        return IntervalAlgebraElem.make(out)

    def below(self, other: "IntervalAlgebraElem") -> bool:
        return self.meet(other.complement()).is_bot()

    def proper_half(self) -> "IntervalAlgebraElem":
        """Canonical strictly-smaller nonempty part: half the first interval."""
        p, q = self.intervals[0]
        return IntervalAlgebraElem.make([(p, (p + q) / 2)])


INTERVAL_BOT = IntervalAlgebraElem(())
INTERVAL_TOP = IntervalAlgebraElem(((Fraction(0), Fraction(1)),))


class IntervalModel:
    """The interval algebra as a model for syntax.holds. It has no group
    sort: the group operations raise NotLatticeSorted."""

    bot = INTERVAL_BOT
    top = INTERVAL_TOP

    def set_op(self, kind: str, c, d=None):
        return c.complement() if kind == "complement" else getattr(c, kind)(d)

    def _no_group(self, *args):
        raise NotLatticeSorted("the interval algebra has no group sort")

    zero = group_op = scale = leq = val = _no_group


INTERVALS = IntervalModel()


def _interval_candidates(env) -> list[IntervalAlgebraElem]:
    """Witness candidates over the minterm regions of the current values.

    Per nonempty region the witness may contain nothing, the canonical
    proper half, or the whole region; this exhausts the realizable
    emptiness patterns in an atomless algebra.
    """
    vals = list(env.values())
    regions = []
    for signs in product((True, False), repeat=len(vals)):
        r = INTERVAL_TOP
        for keep, v in zip(signs, vals):
            r = r.meet(v if keep else v.complement())
        if not r.is_bot():
            regions.append(r)
    choices = []
    for r in regions:
        choices.append((INTERVAL_BOT, r.proper_half(), r))
    out = []
    for picks in product(*choices):
        y = INTERVAL_BOT
        for p in picks:
            y = y.join(p)
        out.append(y)
    return out


def interval_check(sigma: S.Formula, depth: int) -> bool:
    """Bounded truth in the interval algebra; complete up to the depth."""
    if depth > 4:
        raise DepthExceeded("interval_check supports quantifier depth <= 4")
    if S.free_vars(sigma):
        raise NotSentence(f"free variables: {sorted(S.free_vars(sigma))}")
    _check_lattice_sorted(sigma)
    sigma = rename_bound(sigma, prefix="_i")

    def go(f: S.Formula, env, remaining: int) -> bool:
        if isinstance(f, S.Not):
            return not go(f.arg, env, remaining)
        if isinstance(f, S.And):
            return go(f.left, env, remaining) and go(f.right, env, remaining)
        if isinstance(f, S.Or):
            return go(f.left, env, remaining) or go(f.right, env, remaining)
        if isinstance(f, S.Implies):
            return (not go(f.left, env, remaining)) or go(f.right, env, remaining)
        if isinstance(f, (S.Exists, S.Forall)):
            if remaining <= 0:
                raise DepthExceeded("quantifier depth exceeds the declared bound")
            cands = _interval_candidates(env)
            results = (
                go(f.body, {**env, f.var: y}, remaining - 1) for y in cands
            )
            return any(results) if isinstance(f, S.Exists) else all(results)
        return S.holds(INTERVALS, {}, env, f)

    return go(sigma, {}, depth)
