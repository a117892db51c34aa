"""The countable model of 2^n-periodic rational sequences.

Group elements are functions from the naturals to the rationals whose
period divides some power of two; they are stored as the value list of
one minimal period. Lattice elements are periodic subsets of the
naturals, stored the same way as bitmasks; they form an atomless
Boolean algebra (split_nonempty), in which boolalg.interval_check
evaluates its sentences.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import BadLength, EmptyInput, NegativeInput, PreconditionViolated
from .rationals import format_rat, json_int, rat
from .syntax import frozen_node

# The largest period exponent of a periodic operand: a period of 2^20
# points. Every exponent is checked against it before the first shift by
# it, so a small input never asks for a 2^k-bit integer.
MAX_PERIOD_EXP = 20


def _check_exp(k: int) -> int:
    if not 0 <= k <= MAX_PERIOD_EXP:
        raise BadLength(f"period exponent {k} outside 0..{MAX_PERIOD_EXP}")
    return k


def _is_doubled(vals) -> bool:
    half = len(vals) // 2
    return vals[:half] == vals[half:]


@frozen_node
class PeriodicFn:
    """A 2^k-periodic sequence in minimal-period form."""

    k: int
    vals: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "vals", tuple(rat(v) for v in self.vals))
        if len(self.vals) != 1 << _check_exp(self.k):
            raise BadLength(f"expected 2^{self.k} values, got {len(self.vals)}")
        if self.k > 0 and _is_doubled(self.vals):
            raise BadLength("not in minimal-period form; use normalize()")

    def at(self, i: int) -> Fraction:
        return self.vals[i % len(self.vals)]

    def is_nonnegative(self) -> bool:
        return all(v >= 0 for v in self.vals)

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.vals)

    def lift(self, k: int) -> tuple[Fraction, ...]:
        """Value list at period exponent k >= self.k."""
        return self.vals * (1 << (k - self.k))

    def to_json(self):
        return {"k": self.k, "vals": [format_rat(v) for v in self.vals]}

    @classmethod
    def from_json(cls, data) -> "PeriodicFn":
        vals = data["vals"]
        if not isinstance(vals, list):
            raise TypeError(f"vals is a list of rationals, not {vals!r}")
        return normalize(json_int(data["k"], "k"), [rat(v) for v in vals])


@frozen_node
class PeriodicSet:
    """A 2^k-periodic subset of the naturals in minimal-period form."""

    k: int
    mask: int

    def __post_init__(self):
        width = 1 << _check_exp(self.k)
        if self.mask < 0 or self.mask >> width:
            raise BadLength(f"mask wider than 2^{self.k}")
        if self.k > 0:
            half = width // 2
            if self.mask >> half == self.mask & ((1 << half) - 1):
                raise BadLength("not in minimal-period form; use normalize_set()")

    def is_empty(self) -> bool:
        return self.mask == 0

    def is_full(self) -> bool:
        return self.mask == (1 << (1 << self.k)) - 1

    def lift_mask(self, k: int) -> int:
        mask, width = self.mask, 1 << self.k
        for _ in range(k - self.k):
            mask |= mask << width
            width *= 2
        return mask

    def to_json(self):
        return {"k": self.k, "mask": [i for i in range(1 << self.k) if self.mask >> i & 1]}

    @classmethod
    def from_json(cls, data) -> "PeriodicSet":
        k, mask = _check_exp(json_int(data["k"], "k")), 0
        for i in data["mask"]:
            if not 0 <= json_int(i, "index") < 1 << k:
                raise BadLength(f"index {i} outside the period 2^{k}")
            mask |= 1 << i
        return normalize_set(k, mask)


PERIODIC_BOT = PeriodicSet(0, 0)
PERIODIC_TOP = PeriodicSet(0, 1)


def normalize(k: int, vals) -> PeriodicFn:
    """Minimal-period representative of the same sequence."""
    vals = [rat(v) for v in vals]
    if len(vals) != 1 << _check_exp(k):
        raise BadLength(f"expected 2^{k} values, got {len(vals)}")
    while k > 0 and _is_doubled(vals):
        vals = vals[: len(vals) // 2]
        k -= 1
    return PeriodicFn(k, tuple(vals))


def normalize_set(k: int, mask: int) -> PeriodicSet:
    width = 1 << _check_exp(k)
    if mask < 0 or mask >> width:
        raise BadLength(f"mask wider than 2^{k}")
    while k > 0:
        half = width // 2
        lo = mask & ((1 << half) - 1)
        if mask >> half != lo:
            break
        mask, width, k = lo, half, k - 1
    return PeriodicSet(k, mask)


def periodic_op(kind: str, f: PeriodicFn, g: PeriodicFn | None = None) -> PeriodicFn:
    """Pointwise add/neg/meet/join after lifting to a common period."""
    if kind == "neg":
        return PeriodicFn(f.k, tuple(-v for v in f.vals))
    if g is None:
        raise BadLength(f"{kind} takes two operands")
    k = max(f.k, g.k)
    fv, gv = f.lift(k), g.lift(k)
    if kind == "add":
        out = [a + b for a, b in zip(fv, gv)]
    elif kind == "meet":
        out = [min(a, b) for a, b in zip(fv, gv)]
    elif kind == "join":
        out = [max(a, b) for a, b in zip(fv, gv)]
    else:
        raise ValueError(f"unknown periodic op {kind!r}")
    return normalize(k, out)


def periodic_scale(q, f: PeriodicFn) -> PeriodicFn:
    q = rat(q)
    if q == 0:
        return PeriodicFn(0, (Fraction(0),))
    return PeriodicFn(f.k, tuple(q * v for v in f.vals))


def periodic_leq(f: PeriodicFn, g: PeriodicFn) -> bool:
    k = max(f.k, g.k)
    return all(a <= b for a, b in zip(f.lift(k), g.lift(k)))


def periodic_valuation(f: PeriodicFn) -> PeriodicSet:
    mask = 0
    for i, v in enumerate(f.vals):
        if v >= 0:
            mask |= 1 << i
    return normalize_set(f.k, mask)


def set_op(kind: str, c: PeriodicSet, d: PeriodicSet | None = None):
    if kind == "complement":
        full = (1 << (1 << c.k)) - 1
        return normalize_set(c.k, full & ~c.mask)
    if d is None:
        raise BadLength(f"{kind} takes two operands")
    k = max(c.k, d.k)
    cm, dm = c.lift_mask(k), d.lift_mask(k)
    if kind == "meet":
        return normalize_set(k, cm & dm)
    if kind == "join":
        return normalize_set(k, cm | dm)
    if kind == "below":
        return cm & ~dm == 0
    raise ValueError(f"unknown set op {kind!r}")


class PeriodicModel:
    """The periodic model for syntax.holds. Its methods look the module
    functions up when called, so a tracer that rebinds them sees every call."""

    bot = PERIODIC_BOT
    top = PERIODIC_TOP

    def zero(self) -> PeriodicFn:
        return PeriodicFn(0, (Fraction(0),))

    def group_op(self, kind: str, a: PeriodicFn, b: PeriodicFn | None = None):
        return periodic_op(kind, a, b)

    def scale(self, k: int, a: PeriodicFn) -> PeriodicFn:
        return periodic_scale(k, a)

    def leq(self, a: PeriodicFn, b: PeriodicFn) -> bool:
        return periodic_leq(a, b)

    def set_op(self, kind: str, c: PeriodicSet, d: PeriodicSet | None = None):
        return set_op(kind, c, d)

    def val(self, a: PeriodicFn) -> PeriodicSet:
        return periodic_valuation(a)


PERIODIC = PeriodicModel()


def zero_set(f: PeriodicFn) -> PeriodicSet:
    mask = 0
    for i, v in enumerate(f.vals):
        if v == 0:
            mask |= 1 << i
    return normalize_set(f.k, mask)


def split_nonempty(c: PeriodicSet) -> PeriodicSet:
    """A periodic set strictly between bottom and c; witnesses atomlessness."""
    if c.is_empty():
        raise EmptyInput("cannot split the empty set")
    # Keep c on the first block of the doubled period, drop the second.
    return normalize_set(c.k + 1, c.mask)


def polar_equiv(a: PeriodicFn, b: PeriodicFn) -> bool:
    """Whether a and b have the same polar, via valuations of negations."""
    if not (a.is_nonnegative() and b.is_nonnegative()):
        raise NegativeInput("inputs must be non-negative")
    return periodic_valuation(periodic_op("neg", a)) == periodic_valuation(
        periodic_op("neg", b)
    )


def archimedean_bound(f: PeriodicFn, g: PeriodicFn) -> int:
    """Least n >= 1 for which n*f < g fails, in the lattice partial order.

    One pass over the values at a common period: n*f <= g exactly when
    n <= r, the least g/f where f is positive, and n*f = g only when
    g = r*f. So the bound is r when r is an integer and g = r*f, and
    floor(r) + 1 otherwise.
    """
    for h in (f, g):
        if not h.is_nonnegative() or h.is_zero():
            raise PreconditionViolated("inputs must be strictly positive")
    k = max(f.k, g.k)
    pairs = list(zip(f.lift(k), g.lift(k)))
    r = min(b / a for a, b in pairs if a > 0)
    if r.denominator == 1 and all(b == r * a for a, b in pairs):
        return int(r)
    return math.floor(r) + 1


def archimedean_analytic_bound(f: PeriodicFn, g: PeriodicFn) -> int:
    """Desk-scale upper bound: 1 + max over support of f of ceil(g/f)."""
    k = max(f.k, g.k)
    fv, gv = f.lift(k), g.lift(k)
    best = 0
    for a, b in zip(fv, gv):
        if a > 0:
            best = max(best, math.ceil(b / a))
    return 1 + best


def shift(f: PeriodicFn) -> PeriodicFn:
    """The automorphism n -> n + 1: rotate one step left."""
    if f.k == 0:
        return f
    return normalize(f.k, f.vals[1:] + f.vals[:1])


def induced_lattice_auto(c: PeriodicSet) -> PeriodicSet:
    if c.k == 0:
        return c
    width = 1 << c.k
    rotated = (c.mask >> 1) | ((c.mask & 1) << (width - 1))
    return normalize_set(c.k, rotated)
