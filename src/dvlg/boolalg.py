"""Decision procedures for nontrivial atomless Boolean algebras.

ba_qe eliminates lattice quantifiers on reduced ordered BDDs (Bryant,
1986). Each call keeps one hash-consed store of nodes over the bases of
its formula (lattice variables and opaque valuation terms), so equal
functions of the bases have equal node ids and a node does not depend
on a base it does not test. The pass places each base above all earlier
ones when it first meets it, and each node keeps its support, the
bitmask of the bases it tests. Every subformula, from the atoms to the
end, is a DNF: a disjunction of conjunctions (E, Ns) of nodes, each read
"E is bot, and each N is not". And, Or and Not on DNFs use one memoized
if-then-else on nodes.

An existential over y maps E to the meet of its two cofactors at y, and
each N to the join of its two, using atomlessness to split any
non-bottom element into two non-bottom halves; one memoized walk at y's
level, smooth, abstracts a node. A universal is not-exists-not. A
maximal run of like lattice quantifiers is one block, and its body is
split into parts: the conjuncts of the body for exists, and for forall
the conjuncts of its negation, read through Not, Or and Implies by
polarity. Block variables are eliminated by bucket elimination: the
variable whose parts touch the fewest other block variables goes first,
and it is abstracted from the product of the parts whose support tests
it only. The final DNF is rendered once, each node as a term split
on its base, so a term over m bases is at most 2m + 1 deep.

One walk over the formula (syntax.transform), whose children of a
block are its parts, computes the node of each term and the DNF of
each formula, so the depth of the formula costs no Python frames; ite,
smooth and term recurse at most once per base.

interval_check is an independent bounded checker in a concrete atomless
algebra, the periodic subsets of the naturals that are the lattice sort
of periodic.PERIODIC, where syntax.holds evaluates its atoms; ba_decide
does not use holds. It raises ResourceLimit after
INTERVAL_MAX_CANDIDATES witness candidates. It imports periodic when
it runs, so that ba_decide's callers do not load the periodic model.
"""

from __future__ import annotations

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
    "ba_qe",
    "ba_decide",
    "interval_check",
]

# the most conjunctions a DNF of ba_qe may have
QE_MAX_CONJUNCTIONS = 20_000


class _BDD:
    """One store of reduced ordered BDDs over the bases met so far.

    Node 0 is bot and node 1 is top; node u > 1 is (level, lo, hi), the
    function that is hi inside bases[level] and lo outside it, where lo
    and hi have smaller levels (the terminals' is -1). A base is placed
    above all earlier ones when it is first met, so no node already
    built tests a level above it. The unique table keeps one id per
    function, so equal functions have equal ids, and support[u] has bit
    i set when u tests bases[i]."""

    def __init__(self):
        self.bases: list = []
        self.level: dict = {}
        self.nodes = [(-1, 0, 0), (-1, 1, 1)]
        self.support = [0, 0]
        self.unique: dict = {}
        # the two memo tables have keys of the same shape: keep them apart
        self.ite_memo: dict = {}
        self.smooth_memo: dict = {}
        self.terms: dict = {}

    def place(self, b: S.Term) -> int:
        """The level of base b, placed above all earlier bases when it is
        first met."""
        level = self.level.get(b)
        if level is None:
            level = self.level[b] = len(self.bases)
            self.bases.append(b)
        return level

    def mk(self, level: int, lo: int, hi: int) -> int:
        if lo == hi:
            return lo
        key = (level, lo, hi)
        u = self.unique.get(key)
        if u is None:
            u = self.unique[key] = len(self.nodes)
            self.nodes.append(key)
            support = self.support
            support.append(support[lo] | support[hi] | 1 << level)
        return u

    def ite(self, f: int, g: int, h: int) -> int:
        """The node of (f and g) or (not f and h): f and g is
        ite(f, g, 0), f or g is ite(f, 1, g), not f is ite(f, 0, 1)."""
        if f < 2:
            return g if f else h
        if g == h:
            return g
        if g == 1 and h == 0:
            return f
        key = (f, g, h)
        u = self.ite_memo.get(key)
        if u is None:
            nodes = self.nodes
            lf, f0, f1 = nodes[f]
            lg, g0, g1 = nodes[g]
            lh, h0, h1 = nodes[h]
            top = max(lf, lg, lh)
            if lf != top:
                f0 = f1 = f
            if lg != top:
                g0 = g1 = g
            if lh != top:
                h0 = h1 = h
            u = self.ite_memo[key] = self.mk(
                top, self.ite(f0, g0, h0), self.ite(f1, g1, h1)
            )
        return u

    def smooth(self, f: int, level: int, join: int) -> int:
        """The meet (join 0) or the join (join 1) of f's two cofactors
        at level, in one walk: below a node that tests the base the
        walk rebuilds, and a node that does not is its own result."""
        if not self.support[f] >> level & 1:
            return f
        lf, lo, hi = self.nodes[f]
        if lf == level:
            return self.ite(lo, 1, hi) if join else self.ite(lo, hi, 0)
        key = (f, level, join)
        u = self.smooth_memo.get(key)
        if u is None:
            u = self.smooth_memo[key] = self.mk(
                lf, self.smooth(lo, level, join), self.smooth(hi, level, join)
            )
        return u

    def node(self, t: S.Term) -> int:
        """The node of an L-term."""
        return S.transform(t, self._enter, self._leave)

    def term(self, u: int) -> S.Term:
        """The node as a term split on its base b (Shannon): b meet the
        part inside b, joined with compl(b) meet the part outside it.
        Each level adds at most two term levels, so the depth is at most
        2 * width + 1; simplify folds the top leaves."""
        if u < 2:
            return S.Top() if u else S.Bot()
        t = self.terms.get(u)
        if t is None:
            level, lo, hi = self.nodes[u]
            b = self.bases[level]
            inside = S.LMeet(b, self.term(hi))
            outside = S.LMeet(S.Compl(b), self.term(lo))
            if not lo:
                t = inside
            else:
                t = S.LJoin(inside, outside) if hi else outside
            self.terms[u] = t
        return t

    def qe(self, f: S.Formula) -> tuple:
        """The DNF of f, over this store's bases, with its lattice
        quantifiers eliminated. Bound names need not be fresh: the DNF
        of a quantifier tests no node at its variable's level, so that
        level can stand for another variable of the name outside the
        scope. One walk computes the node of each term and the DNF of
        each formula."""
        return S.transform(f, self._enter, self._leave, _QE_CHILDREN)

    def _enter(self, n):
        """The node of a base or a constant, the DNF of true or false,
        and None where the walk goes on below."""
        cls = type(n)
        if cls in _OPEN:
            return None
        if cls is S.LVar or cls is S.Val:
            return self.mk(self.place(n), 0, 1)
        if cls in _CONSTANTS:
            return _CONSTANTS[cls]
        if cls is S.GLeq or cls is S.GEq:
            raise NotLatticeSorted(
                f"group atom in lattice-sort formula: {S.print_formula(n)}"
            )
        raise NotLatticeSorted(f"not an L-term: {S.print_term(n)}")

    def _leave(self, n, new: list):
        """The node of a term or the DNF of a formula from the results
        of its children, as _QE_CHILDREN gives them."""
        cls = type(n)
        if cls is S.Compl:
            return self.ite(new[0], 0, 1)
        if cls is S.LBelow or cls is S.LEq:
            l, r = new
            # E is l - r for l << r, and l xor r for l = r
            e = self.ite(l, self.ite(r, 0, 1), 0 if cls is S.LBelow else r)
            return _dnf([_conj(self, e, ())])
        if cls is S.LMeet:
            return self.ite(new[0], new[1], 0)
        if cls is S.LJoin:
            return self.ite(new[0], 1, new[1])
        if cls is S.Not:
            return _not(self, new[0])
        if cls is S.And:
            return _product(self, new[0], new[1])
        if cls is S.Or or cls is S.Implies:
            return _dnf(new[0] + new[1])
        # a block: exists Y phi over the DNFs of its parts, and forall Y
        # phi is not exists Y not phi
        levels = [self.level.get(S.LVar(name)) for name in _block(n)[0]]
        levels = [level for level in levels if level is not None]
        out = _bucket(self, levels, new)
        return out if cls is S.Exists else _not(self, out)


# the nodes whose results the walk of _BDD computes from their children's
_OPEN = frozenset((
    S.LMeet, S.LJoin, S.Compl, S.LBelow, S.LEq,
    S.Not, S.And, S.Or, S.Implies, S.Exists, S.Forall,
))


def _block(f: S.Formula) -> tuple:
    """The names that the maximal run of like lattice quantifiers at f
    binds, in order, and its body."""
    kind, names = type(f), {}
    while type(f) is kind:
        if f.sort != S.L:
            raise NotLatticeSorted(
                f"group quantifier in lattice-sort formula: {f.var}"
            )
        names[f.var] = None
        f = f.body
    return names, f


def _block_parts(f: S.Formula) -> tuple:
    """The parts of the block at f, whose DNFs _BDD._leave reads."""
    return _parts(_block(f)[1], type(f) is S.Exists)


# what the walk of _BDD.qe descends into: for a block its parts, and for
# f -> g not f, then g, as f -> g is not f or g; else the children
_QE_CHILDREN = {
    **S.CHILDREN,
    S.Exists: _block_parts,
    S.Forall: _block_parts,
    S.Implies: lambda f: (S.Not(f.left), f.right),
}


def _parts(f: S.Formula, positive: bool) -> tuple:
    """The conjuncts of f (positive) or of not f, read through Not, Or
    and Implies by polarity, from left to right, each under a Not where
    its polarity is negative. The walk keeps its own stack, so a long
    And chain costs no recursion."""
    out, todo = [], [(f, positive)]
    while todo:
        g, pos = todo.pop()
        cls = type(g)
        if cls is S.Not:
            todo.append((g.arg, not pos))
        elif (cls is S.And and pos) or (cls is S.Or and not pos):
            todo += [(g.right, pos), (g.left, pos)]
        elif cls is S.Implies and not pos:
            todo += [(g.right, False), (g.left, True)]
        else:
            out.append(g if pos else S.Not(g))
    return tuple(out)


def _support(bdd: _BDD, dnf: tuple) -> int:
    """The bases that some node of the DNF tests, as a bitmask."""
    support = bdd.support
    out = 0
    for e, ns in dnf:
        out |= support[e]
        for n in ns:
            out |= support[n]
    return out


def _conjoin(bdd: _BDD, dnfs: list) -> tuple:
    """The product of the DNFs, of which there is at least one."""
    out = dnfs[0]
    for d in dnfs[1:]:
        out = _product(bdd, out, d)
    return out


def _bucket(bdd: _BDD, levels: list, dnfs: list) -> tuple:
    """Exists over the bases at levels of the product of the DNFs, by
    bucket elimination (Dechter, 1999): each base is abstracted from the
    product of the parts that test it only (early quantification, Burch,
    Clarke and Long, 1991), and a base is taken next when its parts test
    the fewest other bases of the block, the outermost of a tie."""
    parts = [(d, _support(bdd, d)) for d in dnfs]
    todo = list(levels)
    block = sum(1 << level for level in todo)

    def degree(level: int) -> int:
        touched = 0
        for _, s in parts:
            if s >> level & 1:
                touched |= s
        return (touched & block).bit_count()

    while todo:
        level = min(todo, key=degree)
        todo.remove(level)
        block &= ~(1 << level)
        mine = [d for d, s in parts if s >> level & 1]
        if mine:  # else the variable is vacuous
            parts = [(d, s) for d, s in parts if not s >> level & 1]
            d = _exists(bdd, level, _conjoin(bdd, mine))
            parts.append((d, _support(bdd, d)))
    return _conjoin(bdd, [d for d, _ in parts])


# A DNF is a tuple of conjunctions (E, Ns) of nodes, each read "E is bot
# and each N is not", with Ns a sorted tuple of nodes disjoint from E.
_TRUE = ((0, ()),)
_FALSE = ()
_CONSTANTS = {S.Bot: 0, S.Top: 1, S.TrueF: _TRUE, S.FalseF: _FALSE}


def _conj(bdd: _BDD, e: int, ns):
    """The conjunction (E, Ns) normalized, or None if it cannot hold.
    E is bot, so each N shrinks to N - E. An N that is then bot cannot
    hold. As top is not bot, E = top cannot hold either, and an N equal
    to top - E always holds."""
    if e == 1:
        return None
    if not ns:
        return e, ()
    rest = bdd.ite(e, 0, 1)
    out = set()
    for n in ns:
        n = bdd.ite(n, rest, 0)
        if not n:
            return None
        if n != rest:
            out.add(n)
    return e, tuple(sorted(out))


def _dnf(conjs) -> tuple:
    """The DNF of the normalized conjunctions (None for one that cannot
    hold), without duplicates."""
    conjs = tuple(dict.fromkeys(c for c in conjs if c is not None))
    return _TRUE if (0, ()) in conjs else conjs


def _product(bdd: _BDD, left, right) -> tuple:
    """The conjunctions of every pair; past QE_MAX_CONJUNCTIONS of them
    it raises ResourceLimit."""
    out: dict = {}
    for e, ns in left:
        for f, ms in right:
            out[_conj(bdd, bdd.ite(e, 1, f), ns + ms)] = None
        if len(out) > QE_MAX_CONJUNCTIONS:
            raise ResourceLimit(
                f"ba_qe: minterm DNF cap {QE_MAX_CONJUNCTIONS} reached at {len(out)} "
                f"conjunctions over {len(bdd.bases)} bases"
            )
    return _dnf(out)


def _not(bdd: _BDD, a: tuple) -> tuple:
    """The conjunction of the negated conjunctions: not (E, Ns) is
    'E is not bot' or 'some N is bot'."""
    out = _TRUE
    for e, ns in a:
        lits = [_conj(bdd, 0, (e,)), *(_conj(bdd, n, ()) for n in ns)]
        out = _product(bdd, out, [c for c in lits if c])
    return out


def _exists(bdd: _BDD, level: int, a: tuple) -> tuple:
    """Eliminate 'exists y' for the base y at level. E is bot for some y
    when both of its cofactors are; an N is not bot for some y when one
    of its cofactors is not, since atomlessness splits a nonempty region
    outside E into two nonempty parts."""
    smooth = bdd.smooth
    return _dnf(
        _conj(bdd, smooth(e, level, 0), [smooth(n, level, 1) for n in ns])
        for e, ns in a
    )


def _balanced(op, items: list, empty: S.Formula) -> S.Formula:
    """items folded with op as a balanced tree, so its depth is log2 of
    their number."""
    if not items:
        return empty
    while len(items) > 1:
        pairs = zip(items[::2], items[1::2])
        items = [op(x, y) for x, y in pairs] + items[len(items) & ~1:]
    return items[0]


def _render(bdd: _BDD, dnf: tuple) -> S.Formula:
    def empty(u: int) -> S.Formula:
        return S.LEq(bdd.term(u), S.Bot())

    return _balanced(S.Or, [
        _balanced(S.And, [empty(e)] * bool(e) + [S.Not(empty(n)) for n in ns], S.TRUE)
        for e, ns in dnf
    ], S.FALSE)


def ba_qe(phi: S.Formula) -> S.Formula:
    """Quantifier-free equivalent of phi over nontrivial atomless
    Boolean algebras; valuation applications are opaque constants."""
    bdd = _BDD()
    return simplify(_render(bdd, bdd.qe(phi)))


def ba_decide(sigma: S.Formula) -> bool:
    """Truth of a lattice sentence in the theory of nontrivial atomless
    Boolean algebras, read from the eliminated DNF: any DNF but TRUE and
    FALSE has a node that tests a base, which here is a P term."""
    free = S.free_names(sigma)
    if free:
        raise NotSentence(f"free variables: {sorted(free)}")
    bdd = _BDD()
    dnf = bdd.qe(sigma)
    if dnf not in (_TRUE, _FALSE):
        out = S.print_formula(simplify(_render(bdd, dnf)))
        raise NotSentence(f"not a ground formula: {out}")
    return dnf == _TRUE


# --- the bounded checker in the periodic model ---

# Witness candidates one interval_check call tries before it raises
# ResourceLimit. Criterion 3 tries at most 273 per call at seed 0 and 221
# at seed 20260823; gen_lattice_corpus(7, 400, max_depth=4) at depth 4 at
# most 65,808 (about 2 s on a 2-core Xeon), so every sentence of these
# stays decided.
INTERVAL_MAX_CANDIDATES = 100_000


def _interval_candidates(env) -> list[P.PeriodicSet]:
    """Witness candidates over the minterm regions of the current values.

    Per nonempty region the witness may contain nothing, a proper
    nonempty part (split_nonempty), or the whole region; this exhausts
    the realizable emptiness patterns in an atomless algebra.
    """
    from . import periodic as P

    vals = list(env.values())
    choices = []
    for signs in product((True, False), repeat=len(vals)):
        r = P.PERIODIC_TOP
        for keep, v in zip(signs, vals):
            r = P.set_op("meet", r, v if keep else P.set_op("complement", v))
        if not r.is_empty():
            choices.append((P.PERIODIC_BOT, P.split_nonempty(r), r))
    out = []
    for picks in product(*choices):
        y = P.PERIODIC_BOT
        for p in picks:
            y = P.set_op("join", y, p)
        out.append(y)
    return out


def _reject_group_sort(f: S.Formula) -> None:
    """Raise NotLatticeSorted at the first group atom, valuation term or
    group quantifier in f."""
    for n in S.nodes(f):
        if isinstance(n, S.Val):
            raise NotLatticeSorted(
                f"valuation term in lattice-sort formula: {S.print_term(n)}"
            )
        if isinstance(n, (S.GLeq, S.GEq)):
            raise NotLatticeSorted(
                f"group atom in lattice-sort formula: {S.print_formula(n)}"
            )
        if isinstance(n, (S.Exists, S.Forall)) and n.sort != S.L:
            raise NotLatticeSorted(
                f"group quantifier in lattice-sort formula: {n.var}"
            )


def interval_check(sigma: S.Formula, depth: int) -> bool:
    """Bounded truth in the lattice sort of the periodic model, an
    atomless Boolean algebra; complete up to the depth."""
    from . import periodic as P

    if depth > 4:
        raise DepthExceeded("interval_check supports quantifier depth <= 4")
    free = S.free_vars(sigma)
    if free:
        raise NotSentence(f"free variables: {sorted(free)}")
    _reject_group_sort(sigma)
    sigma = rename_bound(sigma, prefix="_i", taken=free)

    tried = 0

    def go(f: S.Formula, env, remaining: int) -> bool:
        nonlocal tried
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
            # any() for exists, all() for forall, counting each candidate
            stop = isinstance(f, S.Exists)
            for y in _interval_candidates(env):
                if tried == INTERVAL_MAX_CANDIDATES:
                    raise ResourceLimit(
                        f"interval_check: candidate cap {INTERVAL_MAX_CANDIDATES} "
                        f"reached at quantifier depth {depth - remaining + 1} "
                        f"(max {depth})"
                    )
                tried += 1
                if go(f.body, {**env, f.var: y}, remaining - 1) == stop:
                    return stop
            return not stop
        return S.holds(P.PERIODIC, {}, env, f)

    return go(sigma, {}, depth)
