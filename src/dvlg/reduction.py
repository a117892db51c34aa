"""Reduction of two-sorted formulas to the lattice sort.

Group atoms are traded for valuation atoms using density, valuations
are pushed to primitive linear arguments, and group quantifiers are
eliminated by the patching argument. Each valuation atom P(c*x + rest)
mentioning the quantified variable x becomes a fresh lattice variable
y and one bound (y, rest, c): with b = -rest/c, on region y, x >= b if
c > 0 and x <= b if c < 0, with the strict opposite bound on compl(y).
eliminate_group_var turns the bounds into pairwise compatibility
conditions free of x, computed in integers. The result is a lattice
formula chi together with group terms t_i bound through p_i = P(t_i).
The fresh names _y0, _y1, ... and p1, p2, ... skip the free variables
of the input; its bound ones are renamed to _q0, _q1, ... first.

From normalization to extraction a valuation atom is Val(LinForm(lin)),
lin its primitive integer linear form (rewrites.normalize makes it, and
eliminate_group_var builds the side conditions' atoms in the same
form), so c and rest are read from lin and no G-term is linearized
again. _extract_terms converts each extracted atom once with
lin_to_gterm, so chi and the terms hold no LinForm.

Neither mode eliminates a lattice quantifier. tplus mode refuses one
that a group variable crosses (the naming walk of the variable's
elimination raises at the first it enters); ec mode keeps it in chi,
and ba_decide removes all of them in its one QE pass. That is sound
because in an existentially closed model P is onto an atomless Boolean
algebra and each Val term is an opaque base, so lattice QE commutes
with renaming Val terms to fresh lattice variables.

The reducer normalizes its input in one walk (rewrites.normalize). From
there on every formula it holds or returns is simplify output: it folds
(rewrites.fold) each node it builds. One bottom-up walk
(syntax.transform, with rewrites.refold on the way up) eliminates the
group quantifiers, innermost first, reading forall x as not exists x
not; fold cancels the double negations. The naming walk
(_name_val_atoms) renames Val atoms injectively to fresh lattice
variables, which keeps a formula simplify output, since simplify never
looks inside a Val atom. In an elimination the same walk applies the
one-point rule (rewrites.one_point_at) at each existential binder on
its way back up, and _eliminate_exists then applies it at the new
binders, innermost first: one walk per elimination does what naming
and a separate one_point over the body did. The final extraction of
the terms uses the walk without the rule, and reduce runs one_point
once over the whole result. Bound names stay distinct, so a body's
free names (syntax.occurs_free) tell which variables of a peeled
lattice block occur in it, and only those are bound again. Every walk
of the reducer runs on syntax.transform, so the depth of its input
costs no Python frames.

The walks skip what cannot change. The elimination walk and the final
one_point leave a subformula with no binder (syntax's has_binder) as
it is; the naming walk of an elimination leaves one with neither the
eliminated variable free nor a binder. A binder stops the skip even
without the variable: the one-point rule may fire there, and the Val
atoms it moves change the order of first occurrence by which later
eliminations name theirs. In 'forall l:L. forall c:G. forall a:G.
exists x:G. (P(x) << l | exists m:L. (m << P(a + c) & m = P(a)))' the
x elimination pins m to P(a) in a subformula without x, so the a
elimination meets P(a) before P(a + c).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from . import syntax as S
# ba_qe is not called here; perfbench/tracing.py rebinds reduction.ba_qe
from .boolalg import ba_decide, ba_qe
from .errors import NotPrimitive, NotSentence, UnsupportedFragment
from .linear import Lin
from .rewrites import FOLDED, atoms_as_leaves, fold, fresh_names, normalize
from .rewrites import one_point, one_point_at, refold
# not called here either: normalize does their work in one walk, the
# reducer reads each valuation atom's Lin from its LinForm leaf, and
# perfbench/tracing.py rebinds these names in reduction
from .rewrites import (
    group_atoms_to_lattice,
    gterm_to_lin,
    push_valuation_formula,
    rename_bound,
    simplify,
    val_of_lin,
)

__all__ = [
    "ReductionOutput",
    "eliminate_group_var",
    "reduce",
    "assemble_reduct",
    "decide_ec",
]


@dataclass(frozen=True)
class ReductionOutput:
    chi: S.Formula
    terms: tuple  # G-sorted Terms
    names: tuple  # the lattice variable p_i of each term in chi
    k: int
    mode: str
    eliminations: int = 0

    def to_json(self):
        out = {
            "k": self.k,
            "terms": [S.print_term(t) for t in self.terms],
            "chi": S.print_formula(self.chi),
            "mode": self.mode,
        }
        # the names are given when the input uses some of p1..pk
        if self.names != tuple(f"p{i}" for i in range(1, self.k + 1)):
            out["names"] = list(self.names)
        return out


def eliminate_group_var(bounds) -> S.Formula:
    """Side conditions equivalent to the existential over a group variable x.

    bounds has one (y, rest, c) per valuation atom P(c*x + rest) that
    mentions x (c a nonzero int, rest a Lin with integer coefficients),
    with y the fresh lattice variable naming the atom; let b = -rest/c.
    If c > 0, x >= b on region y and x < b on compl(y); otherwise x <= b
    on y and x > b on compl(y). For atom i's lower bound l on region r
    and atom j's upper bound u on region r', i != j, compatibility needs
    r meet r' below P(u - l); if either bound is strict, below
    P(u - l) meet compl(P(l - u)). An atom's own two regions are
    disjoint, and divisible ordered stalks are unbounded and dense, so
    no other condition is needed. P(u - l) is computed as P of
    |c_i*c_j|*(u - l), an integer form: P is unchanged by a positive
    factor.

    Each condition is built in the form fold would give it: the
    difference as a sorted integer form divided by the gcd of its
    coefficients, and its negation for a strict pair. A zero difference
    is the one case that folds: P(0) is top, so the condition vanishes,
    or, for a strict pair, becomes r meet r' below bot.
    """
    # per atom: the region of its lower bound and that of its upper one
    regions = [
        (y, S.Compl(y)) if c > 0 else (S.Compl(y), y) for y, _, c in bounds
    ]
    out = S.TRUE
    for i, (_, rest_i, c_i) in enumerate(bounds):
        r = regions[i][0]
        for j, (_, rest_j, c_j) in enumerate(bounds):
            if i == j:
                continue
            # |c_i*c_j|*(b_j - b_i) = f_i*rest_i - f_j*rest_j
            f_i = abs(c_j) if c_i > 0 else -abs(c_j)
            f_j = abs(c_i) if c_j > 0 else -abs(c_i)
            acc = {v: f_i * q for v, q in rest_i.coeffs}
            for v, q in rest_j.coeffs:
                acc[v] = acc.get(v, 0) - f_j * q
            diff = sorted(item for item in acc.items() if item[1])
            strict = c_j > 0 or c_i < 0
            if diff:
                g = gcd(*[q for _, q in diff])
                if g != 1:
                    diff = [(v, q // g) for v, q in diff]
                target = S.Val(S.LinForm(Lin(tuple(diff))))
                if strict:
                    neg = Lin(tuple((v, -q) for v, q in diff))
                    target = S.LMeet(target, S.Compl(S.Val(S.LinForm(neg))))
            elif strict:
                target = S.Bot()
            else:
                continue
            cond = S.LBelow(S.LMeet(r, regions[j][1]), target)
            out = cond if out is S.TRUE else S.And(out, cond)
    return out


def _name_val_atoms(f: S.Formula, fresh, var: str | None = None, tplus=False):
    """f with each Val atom that has var free, or every Val atom if var
    is None, replaced by a lattice variable named by fresh, one per
    distinct atom in order of first occurrence; the list of (the atom's
    linear form, its variable) pairs; and whether the one-point rule
    fired.

    With var given, the walk also applies the one-point rule
    (rewrites.one_point_at) at each existential binder on its way back
    up, as one_point over the renamed formula would, and returns a
    subformula that has neither var free nor a binder as it is: it
    holds no Val atom to name and no binder to apply the rule at (a
    binder without var is walked: the module docstring says why). The
    renaming is injective, so simplify output stays simplify output: a
    rebuilt node is folded only where the rule fired below it. With
    tplus set too, the walk makes tplus mode's check: it raises
    UnsupportedFragment at the first quantifier it enters, in pre-order,
    that has var free (all of an elimination's binders are lattice
    ones). The walk runs on syntax.transform."""
    seen = {}  # an atom's lin.coeffs -> its variable
    pin = var is not None
    bit = S.name_bit(var) if pin else 0
    fired = 0  # how often the one-point rule fired so far
    marks = []  # per open node, fired when the walk entered it

    def enter(n):
        if pin and not (n.free & bit or n.has_binder):
            return n
        cls = type(n)
        if cls is S.Val:
            coeffs = n.arg.lin.coeffs
            out = seen.get(coeffs)
            if out is None:
                out = seen[coeffs] = S.LVar(next(fresh))
            return out
        if cls in FOLDED:
            if tplus and n.free & bit and (cls is S.Exists or cls is S.Forall):
                raise UnsupportedFragment(
                    f"group variable {var} crosses the lattice quantifier "
                    f"over {n.var} in: {S.print_formula(n)}"
                )
            marks.append(fired)
            return None
        if cls is S.GLeq or cls is S.GEq:
            raise NotPrimitive(
                f"group atom survived normalization: {S.print_formula(n)}"
            )
        return n  # a variable, a constant or true/false

    def leave(n, new):
        nonlocal fired
        before = marks.pop()
        if pin and type(n) is S.Exists:
            out = one_point_at(n.var, n.sort, new[0])
            if out is not None:
                fired += 1
                return out
        out = S.rebuild(n, new)
        return fold(out) if fired != before and out is not n else out

    renamed = S.transform(f, enter, leave)
    return renamed, list(seen.items()), fired > 0


def _wrap_exists(names: list, body: S.Formula) -> S.Formula:
    """fold(S.Exists(y, S.L, ...)) over body for each y in names, the
    last innermost, when no binder inside body reuses a name: only the
    names that occur in body are bound."""
    for y in reversed(names):
        if S.occurs_free(y, body):
            body = S.Exists(y, S.L, body)
    return body


def _eliminate_exists(var: str, body: S.Formula, fresh, mode: str) -> S.Formula:
    """Eliminate 'exists var:G.' from a body with no group quantifiers,
    naming the atoms with fresh."""
    # peel the top-of-scope existential lattice block, which commutes
    # with var; simplify output has no double negation on top
    block = []
    while True:
        if isinstance(body, S.Not) and isinstance(body.arg, S.Forall):
            q = body.arg
            body = fold(S.Exists(q.var, S.L, fold(S.Not(q.body))))
        elif isinstance(body, S.Exists) and body.sort == S.L:
            block.append(body.var)
            body = body.body
        else:
            break
    # after normalization, var occurs in Val atoms only
    named_body, named, fired = _name_val_atoms(body, fresh, var, mode == "tplus")
    if named:
        bounds = []
        for coeffs, y in named:
            # the atom is P(c*var + rest), kept as a LinForm since normalize
            rest = tuple(item for item in coeffs if item[0] != var)
            c = next(q for v, q in coeffs if v == var)
            bounds.append((y, Lin(rest), c))
        # named_body holds every y unless the one-point rule fired in
        # it, and no side condition folds to FALSE (the left of each
        # is a meet of two regions)
        body = fold(S.And(named_body, eliminate_group_var(bounds)))
        # the one-point rule at the new binders, innermost first; a
        # binder is folded, which may drop it, only where the rule
        # fired below it
        for _, y in reversed(named):
            out = one_point_at(y.name, S.L, body)
            if out is not None:
                body, fired = out, True
            else:
                body = S.Exists(y.name, S.L, body)
                if fired:
                    body = fold(body)
    return _wrap_exists(block, body)


def _extract_terms(phi: S.Formula, taken):
    """Replace Val atoms over free group variables by fresh p_i, named
    apart from taken: phi, the terms and the names."""
    phi, named, _ = _name_val_atoms(phi, fresh_names("p", taken, start=1))
    return (
        phi,
        tuple(S.lin_to_gterm(Lin(coeffs)) for coeffs, _ in named),
        tuple(p.name for _, p in named),
    )


def reduce(phi: S.Formula, mode: str = "tplus") -> ReductionOutput:
    """Lattice-sort reduction of an arbitrary well-sorted formula."""
    free = S.free_names(phi)
    phi = normalize(phi, free)
    if mode not in ("tplus", "ec"):
        raise ValueError(f"unknown mode {mode!r}")
    fresh = fresh_names("_y", free)
    eliminations = 0

    def leave(n, new):
        nonlocal eliminations
        cls = type(n)
        if (cls is not S.Exists and cls is not S.Forall) or n.sort != S.G:
            return refold(n, new)
        eliminations += 1
        if cls is S.Exists:
            return _eliminate_exists(n.var, new[0], fresh, mode)
        # forall x is ~exists x ~; fold cancels the double negations
        body = _eliminate_exists(n.var, fold(S.Not(new[0])), fresh, mode)
        return fold(S.Not(body))

    chi = one_point(S.transform(phi, atoms_as_leaves, leave))
    terms = names = ()
    # every Val atom has a group variable (val_leaf makes P(0) top), and
    # every bound one is eliminated by now: with no free variable, chi
    # has no Val atom
    if free:
        chi, terms, names = _extract_terms(chi, free)
    return ReductionOutput(
        chi=chi,
        terms=terms,
        names=names,
        k=len(terms),
        mode=mode,
        eliminations=eliminations,
    )


def assemble_reduct(out: ReductionOutput) -> S.Formula:
    """The formula (exists p_1..p_k : L)(chi and each p_i = P(t_i))."""
    body = out.chi
    for p, t in zip(out.names, out.terms):
        body = S.And(body, S.LEq(S.LVar(p), S.Val(t)))
    for p in reversed(out.names):
        body = S.Exists(p, S.L, body)
    return body


def decide_ec(sigma: S.Formula) -> bool:
    """Truth in every existentially closed densely valued l-group."""
    free = S.free_names(sigma)
    if free:
        raise NotSentence(f"free variables: {sorted(free)}")
    out = reduce(sigma, mode="ec")
    return ba_decide(out.chi)
