"""Exact rational scalars.

The scalar type is the stdlib Fraction, which already keeps the canonical
form (positive denominator, gcd 1, arbitrary precision). This module only
adds the "p/q" string codec used by all JSON interfaces, and json_int,
their check of an integer.
"""

from fractions import Fraction


def rat(value) -> Fraction:
    """Coerce ints, 'p/q' strings, or Fractions to Fraction. A bool is a
    TypeError and a zero denominator a ValueError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"cannot interpret {value!r} as a rational")


def format_rat(q: Fraction) -> str:
    """Render as 'p/q', or just 'p' for integers."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def json_int(value, what: str) -> int:
    """value if it is an int; a JSON true or false is not one."""
    if type(value) is not int:
        raise TypeError(f"{what} {value!r} is not an integer")
    return value
