"""Linear rational forms and Fourier-Motzkin elimination.

A Lin is a formal rational combination of variables with no constant
part in the group language; the oracle layer reuses it with synthetic
per-point unknowns plus a dedicated constant slot named CONST. A
coefficient is an int when it is integral and a Fraction only
otherwise. An integral Fraction and its int compare and hash alike, so
neither Lin equality nor hashing depends on which of them a form holds.

A LinConstraint (lhs >= 0, > 0 or = 0) is kept in a primitive integer
normal form: lhs scaled by a positive rational to integer coefficients
with gcd 1, stored up to sign as a `key` together with the set of signs
the key may take. Scaling by a positive factor keeps every truth value,
so constraints that differ by a positive factor compare and hash equal,
a constraint and its negation share a key, and hashing is plain int and
str work, done once when the constraint is built.
Fourier-Motzkin elimination works on conjunction stores, dicts from a
key to the signs the conjunction allows it, in integers: no step
divides.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .rationals import rat
from .syntax import frozen_node

CONST = "1"  # reserved pseudo-variable carrying the constant part


def _num(c):
    """c as an int if it is integral, else as a Fraction."""
    if type(c) is int:
        return c
    c = rat(c)
    return c.numerator if c.denominator == 1 else c


@frozen_node
class Lin:
    """Sparse linear form: variable -> nonzero coefficient, sorted by
    variable."""

    coeffs: tuple[tuple[str, int | Fraction], ...]

    @classmethod
    def make(cls, mapping) -> "Lin":
        return cls(tuple(sorted(
            (v, _num(c)) for v, c in mapping.items() if c != 0
        )))

    @classmethod
    def var(cls, name: str) -> "Lin":
        return cls(((name, 1),))

    @classmethod
    def zero(cls) -> "Lin":
        return cls(())

    def as_dict(self) -> dict[str, int | Fraction]:
        return dict(self.coeffs)

    def get(self, var: str) -> int | Fraction:
        for v, c in self.coeffs:
            if v == var:
                return c
        return 0

    def __add__(self, other: "Lin") -> "Lin":
        out = self.as_dict()
        for v, c in other.coeffs:
            out[v] = out.get(v, 0) + c
        return Lin.make(out)

    def __neg__(self) -> "Lin":
        return Lin(tuple((v, -c) for v, c in self.coeffs))

    def __sub__(self, other: "Lin") -> "Lin":
        return self + (-other)

    def scale(self, q) -> "Lin":
        q = _num(q)
        if q == 0:
            return Lin.zero()
        return Lin(tuple((v, _num(q * c)) for v, c in self.coeffs))

    def is_zero(self) -> bool:
        return not self.coeffs

    def vars(self) -> set[str]:
        return {v for v, _ in self.coeffs if v != CONST}

    def primitive(self) -> "Lin":
        """Scale by the unique positive rational giving integer
        coefficients with gcd 1. Signs are unchanged."""
        key, sign = _primitive_key(self.coeffs)
        return Lin(key if sign > 0 else tuple((v, -c) for v, c in key))

    def eval(self, env: dict[str, Fraction]) -> Fraction:
        total = Fraction(0)
        for v, c in self.coeffs:
            if v == CONST:
                total += c
            else:
                total += c * env[v]
        return total


# Sign sets: the signs a linear form may take under a constraint.
NEG, ZERO, POS = 1, 2, 4
ALL_SIGNS = NEG | ZERO | POS
_REL_MASK = {">=": ZERO | POS, ">": POS, "=": ZERO}
# mask -> (relation, lhs is the negated key)
_MASK_REL = {
    ZERO | POS: (">=", False), POS: (">", False), ZERO: ("=", False),
    NEG | ZERO: (">=", True), NEG: (">", True),
}


def _flip(mask: int) -> int:
    """The sign set of -x for x in mask."""
    return (mask & NEG) << 2 | (mask & ZERO) | (mask & POS) >> 2


def _int_key(items) -> tuple[tuple, int]:
    """(key, sign) with sign * key equal to the integer form `items`
    divided by the gcd of its coefficients; the key is sorted, has no
    zero coefficient, and its first coefficient is positive."""
    items = sorted(item for item in items if item[1])
    if not items:
        return (), 1
    g = gcd(*[c for _, c in items])
    if items[0][1] < 0:
        g = -g
    if g != 1:
        items = [(v, c // g) for v, c in items]
    return tuple(items), (1 if g > 0 else -1)


def _primitive_key(coeffs) -> tuple[tuple, int]:
    """_int_key of rational coefficients, cleared of denominators."""
    den = lcm(*[c.denominator for _, c in coeffs])
    return _int_key(
        [(v, c.numerator * (den // c.denominator)) for v, c in coeffs]
    )


class LinConstraint:
    """lhs REL 0 with REL one of >=, >, =, kept in a normal form.

    The constructor scales lhs by the positive rational that gives it
    integer coefficients with gcd 1, which changes no truth value.
    Internally a constraint is a pair: `key`, that integer form up to
    sign (its first coefficient is positive), and `mask`, the set of
    signs (NEG | ZERO | POS bits) that key may take. So a constraint and
    its negation share one key, and constraints that differ only by a
    positive factor are equal. `lhs` and `rel` give the normal form back
    with its sign (an equality takes the sign of its key).
    """

    __slots__ = ("key", "mask", "_hash")

    def __init__(self, lhs: Lin, rel: str):
        if rel not in _REL_MASK:
            raise ValueError(f"bad relation {rel!r}")
        key, sign = _primitive_key(lhs.coeffs)
        mask = _REL_MASK[rel]
        self.key = key
        self.mask = mask = mask if sign > 0 else _flip(mask)
        self._hash = hash((key, mask))

    @classmethod
    def from_key(cls, key: tuple, mask: int) -> "LinConstraint":
        """The constraint `key` in `mask`; key must already be normal."""
        c = object.__new__(cls)
        c.key = key
        c.mask = mask
        c._hash = hash((key, mask))
        return c

    @property
    def lhs(self) -> Lin:
        if _MASK_REL[self.mask][1]:
            return Lin(tuple((v, -c) for v, c in self.key))
        return Lin(self.key)

    @property
    def rel(self) -> str:
        return _MASK_REL[self.mask][0]

    def __eq__(self, other):
        if not isinstance(other, LinConstraint):
            return NotImplemented
        return self.key == other.key and self.mask == other.mask

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"LinConstraint({self.lhs!r}, {self.rel!r})"

    def holds(self, env: dict[str, Fraction]) -> bool:
        value = sum(c if v == CONST else c * env[v] for v, c in self.key)
        return bool(self.mask & (POS if value > 0 else NEG if value < 0 else ZERO))

    def constant_truth(self):
        """Truth value if variable-free, else None."""
        return _key_truth(self.key, self.mask)

    def negated(self) -> list["LinConstraint"]:
        """Negation as a disjunction of atomic constraints."""
        mask = ALL_SIGNS ^ self.mask
        if mask == NEG | POS:
            return [LinConstraint.from_key(self.key, POS),
                    LinConstraint.from_key(self.key, NEG)]
        return [LinConstraint.from_key(self.key, mask)]


def _key_truth(key: tuple, mask: int):
    """Truth value of `key` in `mask` if the key is variable-free, else
    None. The only variable-free keys are () and ((CONST, 1),)."""
    if not key:
        return bool(mask & ZERO)
    if len(key) == 1 and key[0][0] == CONST:
        return bool(mask & POS)
    return None


def store_insert(store: dict, key: tuple, mask: int) -> bool:
    """Conjoin `key` in `mask` into a conjunction store, in place.

    A store maps a normal key to the signs the conjunction still allows
    it. A variable-free constraint is not stored. False means the
    conjunction became contradictory; the store is then left partial."""
    t = _key_truth(key, mask)
    if t is not None:
        return t
    mask &= store.get(key, ALL_SIGNS)
    if not mask:
        return False
    store[key] = mask
    return True


def _coeff(key: tuple, var: str) -> int:
    for v, c in key:
        if v == var:
            return c
    return 0


def _combine(k1: tuple, m1: int, k2: tuple, m2: int) -> dict:
    """m1 * k1 + m2 * k2 as a mapping with integer coefficients."""
    out = {v: m1 * c for v, c in k1}
    for v, c in k2:
        out[v] = out.get(v, 0) + m2 * c
    return out


def _combined(k1: tuple, m1: int, k2: tuple, m2: int, mask: int) -> tuple:
    """(key, mask) of the constraint m1 * k1 + m2 * k2 in `mask`."""
    key, sign = _int_key(_combine(k1, m1, k2, m2).items())
    return key, (mask if sign > 0 else _flip(mask))


def fm_eliminate_store(var: str, store: dict) -> dict | None:
    """Eliminate var from a conjunction store; None means plainly
    unsatisfiable.

    Works on the integer keys only. An equality a*var + E = 0 that
    mentions the variable is substituted first: it turns b*var + D into
    |a|*D - sgn(a)*b*E, a positive multiple of D with var solved away.
    Otherwise a lower bound a*var + L >= 0 (a > 0) and an upper bound
    b*var + U >= 0 (b < 0) combine to |b|*L + a*U >= 0, strict when
    either bound is strict. The result is a new store.
    """
    out: dict = {}
    for key, mask in store.items():
        a = _coeff(key, var)
        if mask == ZERO and a:
            s = 1 if a > 0 else -1
            for k, m in store.items():
                if k is key:
                    continue
                b = _coeff(k, var)
                if b:
                    k, m = _combined(k, s * a, key, -s * b, m)
                if not store_insert(out, k, m):
                    return None
            return out

    lowers, uppers = [], []
    for key, mask in store.items():
        a = _coeff(key, var)
        if not a:
            out[key] = mask
            continue
        # the bound sign * key >= 0, or > 0 when strict
        sign = -1 if mask & NEG else 1
        bound = (abs(a), sign, key, mask in (POS, NEG))
        (lowers if a * sign > 0 else uppers).append(bound)
    for a, s_lo, k_lo, strict_lo in lowers:
        for b, s_up, k_up, strict_up in uppers:
            mask = POS if strict_lo or strict_up else ZERO | POS
            if not store_insert(out, *_combined(k_lo, b * s_lo, k_up, a * s_up, mask)):
                return None
    return out


def fm_eliminate_conj(var: str, constraints: list[LinConstraint]) -> list[LinConstraint] | None:
    """fm_eliminate_store on a list of constraints; None means plainly
    unsatisfiable."""
    store: dict = {}
    for c in constraints:
        if not store_insert(store, c.key, c.mask):
            return None
    out = fm_eliminate_store(var, store)
    if out is None:
        return None
    return [LinConstraint.from_key(k, m) for k, m in out.items()]


def fm_eliminate(var: str, dnf: list[dict]) -> list[dict]:
    """Eliminate an existential variable from a DNF of conjunction stores.

    Result is an equivalent DNF over the remaining variables; an empty
    store means True, an empty disjunction False.
    """
    out = []
    for store in dnf:
        reduced = fm_eliminate_store(var, store)
        if reduced is not None:
            out.append(reduced)
    return out

