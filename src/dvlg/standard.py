"""Finite standard structures over exact rationals.

The structure on ground set {0, ..., n-1} consists of the group of
rational vectors of length n under pointwise operations, the powerset
lattice of the ground set (stored as bitsets), and the valuation sending
a vector to the set of indices where it is non-negative.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    LengthMismatch,
    PatchPreconditionViolated,
    SplitPreconditionViolated,
    WidthMismatch,
)
from .rationals import format_rat, json_int, rat
from .syntax import frozen_node


@frozen_node
class GroupVector:
    """A rational vector; one coordinate per ground point."""

    values: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.values) < 1:
            raise LengthMismatch("vectors need at least one coordinate")
        object.__setattr__(self, "values", tuple(rat(v) for v in self.values))

    def __len__(self):
        return len(self.values)

    def is_nonnegative(self) -> bool:
        return all(v >= 0 for v in self.values)

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values)

    def to_json(self) -> list[str]:
        return [format_rat(v) for v in self.values]

    @classmethod
    def from_json(cls, data) -> "GroupVector":
        if not isinstance(data, list):
            raise TypeError(f"a vector is a list of rationals, not {data!r}")
        return cls(tuple(rat(v) for v in data))


@frozen_node
class SubsetL:
    """Lattice element: a subset of {0, ..., width-1} as a bitset."""

    bits: int
    width: int

    def __post_init__(self):
        if self.width < 1:
            raise WidthMismatch("width must be at least 1")
        if self.bits < 0 or self.bits >> self.width:
            raise WidthMismatch(f"bits {self.bits:#x} exceed width {self.width}")

    @classmethod
    def from_indices(cls, indices, width: int) -> "SubsetL":
        bits = 0
        for i in indices:
            if not 0 <= json_int(i, "index") < width:
                raise WidthMismatch(f"index {i} outside ground set of size {width}")
            bits |= 1 << i
        return cls(bits, width)

    def indices(self) -> list[int]:
        return [i for i in range(self.width) if self.bits >> i & 1]

    def is_empty(self) -> bool:
        return self.bits == 0

    def is_full(self) -> bool:
        return self.bits == (1 << self.width) - 1

    def to_json(self) -> list[int]:
        return self.indices()


def _check_lengths(f: GroupVector, g: GroupVector):
    if len(f) != len(g):
        raise LengthMismatch(f"operand lengths differ: {len(f)} vs {len(g)}")


def pointwise_op(kind: str, f: GroupVector, g: GroupVector | None = None) -> GroupVector:
    """Coordinatewise add/neg/meet/join; g is absent exactly for neg."""
    if kind == "neg":
        if g is not None:
            raise LengthMismatch("neg takes one operand")
        return GroupVector(tuple(-v for v in f.values))
    if g is None:
        raise LengthMismatch(f"{kind} takes two operands")
    _check_lengths(f, g)
    pairs = zip(f.values, g.values)
    if kind == "add":
        return GroupVector(tuple(a + b for a, b in pairs))
    if kind == "meet":
        return GroupVector(tuple(min(a, b) for a, b in pairs))
    if kind == "join":
        return GroupVector(tuple(max(a, b) for a, b in pairs))
    raise ValueError(f"unknown pointwise op {kind!r}")


def scale(q, f: GroupVector) -> GroupVector:
    q = rat(q)
    return GroupVector(tuple(q * v for v in f.values))


def std_valuation(f: GroupVector) -> SubsetL:
    """The set of ground points where f is non-negative."""
    bits = 0
    for i, v in enumerate(f.values):
        if v >= 0:
            bits |= 1 << i
    return SubsetL(bits, len(f))


def subset_op(kind: str, c: SubsetL, d: SubsetL | None = None):
    if kind == "complement":
        if d is not None:
            raise WidthMismatch("complement takes one operand")
        full = (1 << c.width) - 1
        return SubsetL(full & ~c.bits, c.width)
    if d is None:
        raise WidthMismatch(f"{kind} takes two operands")
    if c.width != d.width:
        raise WidthMismatch(f"widths differ: {c.width} vs {d.width}")
    if kind == "meet":
        return SubsetL(c.bits & d.bits, c.width)
    if kind == "join":
        return SubsetL(c.bits | d.bits, c.width)
    if kind == "below":
        return c.bits & ~d.bits == 0
    raise ValueError(f"unknown subset op {kind!r}")


@frozen_node
class FinStdStructure:
    """The standard structure over a ground set of a given finite size,
    and a model for syntax.holds."""

    ground_size: int

    def __post_init__(self):
        if self.ground_size < 1:
            raise LengthMismatch("ground size must be at least 1")

    @property
    def top(self) -> SubsetL:
        return SubsetL((1 << self.ground_size) - 1, self.ground_size)

    @property
    def bot(self) -> SubsetL:
        return SubsetL(0, self.ground_size)

    def zero(self) -> GroupVector:
        return GroupVector((Fraction(0),) * self.ground_size)

    def all_subsets(self):
        n = self.ground_size
        for bits in range(1 << n):
            yield SubsetL(bits, n)

    group_op = staticmethod(pointwise_op)
    scale = staticmethod(scale)
    set_op = staticmethod(subset_op)
    val = staticmethod(std_valuation)

    def leq(self, a: GroupVector, b: GroupVector) -> bool:
        return all(x <= y for x, y in zip(a.values, b.values))


def patch(c: SubsetL, d: SubsetL, f: GroupVector, g: GroupVector) -> GroupVector:
    """Piecewise combination: f on c, g on d, zero elsewhere.

    Requires f = g on the overlap, which makes the result well-defined.
    """
    _check_lengths(f, g)
    if c.width != len(f) or d.width != len(f):
        raise WidthMismatch("subset widths must match vector length")
    for i in range(len(f)):
        if c.bits >> i & 1 and d.bits >> i & 1 and f.values[i] != g.values[i]:
            raise PatchPreconditionViolated(
                f"f and g disagree at overlap point {i}: "
                f"{f.values[i]} vs {g.values[i]}"
            )
    out = []
    for i in range(len(f)):
        if c.bits >> i & 1:
            out.append(f.values[i])
        elif d.bits >> i & 1:
            out.append(g.values[i])
        else:
            out.append(Fraction(0))
    return GroupVector(tuple(out))


def ac_split(a: GroupVector, b: GroupVector, c: GroupVector):
    """Split c >= 0 along the support of a, for disjoint a, b >= 0.

    Returns (f, g) with f + g = c, f meet g = 0, a meet g = 0 and
    f meet b = 0: f carries c exactly where a is non-zero.
    """
    _check_lengths(a, b)
    _check_lengths(a, c)
    if not (a.is_nonnegative() and b.is_nonnegative() and c.is_nonnegative()):
        raise SplitPreconditionViolated("operands must be non-negative")
    if not pointwise_op("meet", a, b).is_zero():
        raise SplitPreconditionViolated("a meet b must be 0")
    f = GroupVector(
        tuple(cv if av != 0 else Fraction(0) for av, cv in zip(a.values, c.values))
    )
    g = pointwise_op("add", c, pointwise_op("neg", f))
    return f, g


def double_embed(f: GroupVector, c: SubsetL):
    """Diagonal embedding into the doubled ground set.

    Point (x, i) of the target is stored at index x + i*n. The valuation
    commutes with the embedding pair.
    """
    if c.width != len(f):
        raise WidthMismatch("subset width must match vector length")
    n = len(f)
    doubled = GroupVector(f.values + f.values)
    bits = c.bits | c.bits << n
    return doubled, SubsetL(bits, 2 * n)
