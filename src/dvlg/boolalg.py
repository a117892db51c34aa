"""Decision procedures for nontrivial atomless Boolean algebras.

ba_qe eliminates lattice quantifiers on minterm bitmasks. Over an
ordered tuple of bases b_0..b_m-1 (lattice variables and opaque
valuation terms) there are 2^m full minterms; minterm i lies inside b_j
exactly when bit j of i is set, and an int mask holds a set of
minterms. Every subformula, from the atoms to the end, is a mask DNF:
a disjunction of conjunctions (E, Ns), each read "the union of the
minterms in E is bot, and each union in Ns is not". An atom's mask is
built from the base patterns (blocks of 2^j zeros and 2^j ones). And,
Or and Not work on DNFs once their base tuples are aligned: a mask is
repeated for the bases added after its own and its bases are then
swapped into place. An existential over y moves y to the top bit and
projects each conjunction with a few big-int operations, using
atomlessness to split any non-bottom element into two non-bottom
halves; a universal is not-exists-not. The final DNF is rendered once,
each mask as a term split on one base per level, so a term over m
bases is at most 2m + 1 deep.

interval_check is an independent bounded checker in a concrete atomless
algebra of rational half-open subintervals of [0, 1), INTERVALS, where
syntax.holds evaluates its atoms; ba_decide does not use holds.
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


def _full(width: int) -> int:
    """The mask of all 2^width minterms."""
    return (1 << (1 << width)) - 1


def _repeat(mask: int, size: int, times: int) -> int:
    """`times` copies, a power of two, of a `size`-bit mask end to end."""
    while times > 1:
        mask |= mask << size
        size <<= 1
        times >>= 1
    return mask


def _pattern(j: int, width: int) -> int:
    """The minterms of `width` bases that lie inside base j: a block of
    2^j zeros and then 2^j ones, repeated."""
    block = 1 << j
    return _repeat(((1 << block) - 1) << block, 2 * block, 1 << (width - j - 1))


def _swap(mask: int, i: int, j: int, width: int) -> int:
    """The mask with bases i < j exchanged (a delta swap): minterms in i
    and not in j trade places with those in j and not in i."""
    sel = _pattern(i, width) & ~_pattern(j, width)
    d = (1 << j) - (1 << i)
    return mask & ~(sel | sel << d) | (mask & sel) << d | (mask >> d) & sel


def _collect_bases(n, out: list[S.Term]):
    """Lattice variables and Val terms below n, by first occurrence."""
    if isinstance(n, (S.LVar, S.Val)):
        if n not in out:
            out.append(n)
        return
    for child in S.children(n):
        _collect_bases(child, out)


def _term_mask(t: S.Term, bases: list[S.Term], width: int) -> int:
    """Bitmask over the 2^width full minterms where the term holds."""
    if isinstance(t, (S.LVar, S.Val)):
        return _pattern(bases.index(t), width)
    if isinstance(t, S.Bot):
        return 0
    if isinstance(t, S.Top):
        return _full(width)
    if isinstance(t, S.LMeet):
        return _term_mask(t.left, bases, width) & _term_mask(t.right, bases, width)
    if isinstance(t, S.LJoin):
        return _term_mask(t.left, bases, width) | _term_mask(t.right, bases, width)
    if isinstance(t, S.Compl):
        return _full(width) & ~_term_mask(t.arg, bases, width)
    raise NotLatticeSorted(f"not an L-term: {S.print_term(t)}")


# A mask DNF is a pair (bases, conjs): a tuple of bases and a tuple of
# conjunctions (E, Ns), with Ns a sorted tuple of masks disjoint from E.
# The conjunctions of TRUE and FALSE mean the same at every width.
_TRUE = ((), ((0, ()),))
_FALSE = ((), ())


def _conj(e: int, ns, full: int):
    """The conjunction (E, Ns) normalized, or None if it cannot hold.
    The minterms in E are empty, so each N shrinks to N - E. An N that
    is then empty cannot hold. As top is not bot, E = full cannot hold
    either, and an N equal to full - E always holds."""
    rest = full & ~e
    if not rest:
        return None
    out = set()
    for n in ns:
        n &= rest
        if not n:
            return None
        if n != rest:
            out.add(n)
    return e, tuple(sorted(out))


def _dnf(bases: tuple, conjs) -> tuple:
    """The DNF of the normalized conjunctions (None for one that cannot
    hold), without duplicates; TRUE and FALSE keep no bases."""
    conjs = tuple(dict.fromkeys(c for c in conjs if c is not None))
    if not conjs:
        return _FALSE
    if (0, ()) in conjs:
        return _TRUE
    return bases, conjs


def _product(bases: tuple, left, right, cap: int) -> tuple:
    """The conjunctions of every pair, over the same bases."""
    full = _full(len(bases))
    out: dict = {}
    for e, ns in left:
        for f, ms in right:
            out[_conj(e | f, ns + ms, full)] = None
        if len(out) > cap:
            raise ResourceLimit(
                f"ba_qe: minterm DNF cap {cap} reached at {len(out)} "
                f"conjunctions over {len(bases)} bases"
            )
    return _dnf(bases, out)


def _lift(dnf: tuple, target: tuple) -> tuple:
    """The conjunctions of dnf over target, a base tuple that holds all
    of its bases: each mask is repeated for the added bases, then its
    bases are swapped into target's order."""
    bases, conjs = dnf
    if bases == target:
        return conjs
    order = [*bases, *(b for b in target if b not in bases)]
    swaps = []
    for p, b in enumerate(target):
        q = order.index(b)
        if q != p:  # q > p: positions before p are settled
            swaps.append((p, q))
            order[p], order[q] = b, order[p]
    width = len(target)
    size, times = 1 << len(bases), 1 << (width - len(bases))

    def lift(m: int) -> int:
        m = _repeat(m, size, times)
        for p, q in swaps:
            m = _swap(m, p, q, width)
        return m

    return tuple((lift(e), tuple(sorted(map(lift, ns)))) for e, ns in conjs)


def _align(a: tuple, b: tuple):
    """A common base tuple, the wider DNF's bases first, and the
    conjunctions of both over it."""
    if len(b[0]) > len(a[0]):
        a, b = b, a
    bases = a[0] + tuple(x for x in b[0] if x not in a[0])
    return bases, _lift(a, bases), _lift(b, bases)


def _or(a: tuple, b: tuple) -> tuple:
    bases, left, right = _align(a, b)
    return _dnf(bases, left + right)


def _not(a: tuple, cap: int) -> tuple:
    """The conjunction of the negated conjunctions: not (E, Ns) is
    'E is not bot' or 'some N is bot'."""
    bases, conjs = a
    full = _full(len(bases))
    out = _TRUE
    for e, ns in conjs:
        lits = [_conj(0, (e,), full), *(_conj(n, (), full) for n in ns)]
        out = _product(bases, out[1], [c for c in lits if c], cap)
    return out


def _exists(y: S.Term, a: tuple) -> tuple:
    """Eliminate 'exists y' after moving y to the top bit. A parameter
    minterm is forced empty when both of its halves are; an N holds when
    some half of it outside E is nonempty, since atomlessness splits a
    nonempty region into two nonempty parts."""
    bases = a[0]
    if y not in bases:
        return a
    order = list(bases)
    order[bases.index(y)], order[-1] = order[-1], y
    half = 1 << (len(bases) - 1)
    low = (1 << half) - 1
    return _dnf(tuple(order[:-1]), (
        _conj(e & e >> half, [(n | n >> half) & low for n in ns], low)
        for e, ns in _lift(a, tuple(order))
    ))


def _mask_term(mask: int, bases: tuple) -> S.Term:
    """The mask as a term split on its highest base b (Shannon): b meet
    the part inside b, joined with compl(b) meet the part outside it.
    Each base adds at most two levels, so the depth is at most
    2 * width + 1; simplify folds the top leaves."""
    width = len(bases)
    if not mask or mask == _full(width):
        return S.Top() if mask else S.Bot()
    half = 1 << (width - 1)
    rest, b = bases[:-1], bases[-1]
    lo, hi = mask & ((1 << half) - 1), mask >> half
    if lo == hi:
        return _mask_term(lo, rest)
    inside = S.LMeet(b, _mask_term(hi, rest))
    outside = S.LMeet(S.Compl(b), _mask_term(lo, rest))
    if not lo:
        return inside
    return S.LJoin(inside, outside) if hi else outside


def _balanced(op, items: list, empty: S.Formula) -> S.Formula:
    """items folded with op as a balanced tree, so its depth is log2 of
    their number."""
    if not items:
        return empty
    while len(items) > 1:
        pairs = zip(items[::2], items[1::2])
        items = [op(x, y) for x, y in pairs] + items[len(items) & ~1:]
    return items[0]


def _render(dnf: tuple) -> S.Formula:
    bases, conjs = dnf

    def empty(m: int) -> S.Formula:
        return S.LEq(_mask_term(m, bases), S.Bot())

    return _balanced(S.Or, [
        _balanced(S.And, [empty(e)] * bool(e) + [S.Not(empty(n)) for n in ns], S.TRUE)
        for e, ns in conjs
    ], S.FALSE)


def _qe(phi: S.Formula, cap: int) -> tuple:
    """The mask DNF of phi with its lattice quantifiers eliminated."""
    _check_lattice_sorted(phi)
    phi = rename_bound(phi, prefix="_b")

    def go(f: S.Formula) -> tuple:
        if isinstance(f, (S.LBelow, S.LEq)):
            bases: list[S.Term] = []
            _collect_bases(f, bases)
            width = len(bases)
            lm = _term_mask(f.left, bases, width)
            rm = _term_mask(f.right, bases, width)
            e = lm & ~rm if isinstance(f, S.LBelow) else lm ^ rm
            return _dnf(tuple(bases), [_conj(e, (), _full(width))])
        if isinstance(f, S.TrueF):
            return _TRUE
        if isinstance(f, S.FalseF):
            return _FALSE
        if isinstance(f, S.Not):
            return _not(go(f.arg), cap)
        if isinstance(f, S.And):
            return _product(*_align(go(f.left), go(f.right)), cap)
        if isinstance(f, S.Or):
            return _or(go(f.left), go(f.right))
        if isinstance(f, S.Implies):
            return _or(_not(go(f.left), cap), go(f.right))
        y = S.LVar(f.var)
        if isinstance(f, S.Exists):
            return _exists(y, go(f.body))
        return _not(_exists(y, _not(go(f.body), cap)), cap)

    return go(phi)


def ba_qe(phi: S.Formula, cap: int = 20000) -> S.Formula:
    """Quantifier-free equivalent of phi over nontrivial atomless
    Boolean algebras; valuation applications are opaque constants."""
    return simplify(_render(_qe(phi, cap)))


def ba_decide(sigma: S.Formula, cap: int = 20000) -> bool:
    """Truth of a lattice sentence in the theory of nontrivial atomless
    Boolean algebras, read from the eliminated DNF: TRUE and FALSE keep
    no bases, and a DNF that keeps one depends on a P term."""
    if S.free_vars(sigma):
        raise NotSentence(
            f"free variables: {sorted(S.free_vars(sigma))}"
        )
    dnf = _qe(sigma, cap)
    if dnf[0]:
        out = S.print_formula(simplify(_render(dnf)))
        raise NotSentence(f"not a ground formula: {out}")
    return dnf is _TRUE


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
