"""Scalar handling shared by every module.

Two scalar regimes coexist: exact rationals (``fractions.Fraction``, also
plain ``int``) and double-precision floats.  Arithmetic is generic -- every
operation in this package just uses ``+ - *`` and preserves whatever number
type flows in -- so "mode" only matters at the boundaries: random data
generation, JSON serialization, zero tests and division.
"""

from __future__ import annotations

import math
from fractions import Fraction

# Comparison tolerance for float-mode data normalized to unit scale.
TOL = 1e-9


def is_exact(x) -> bool:
    """True for scalars carrying exact (rational/integer) arithmetic."""
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def is_zero(x, tol: float = TOL) -> bool:
    """Zero test: exact for rationals, tolerance ``tol`` for floats."""
    if is_exact(x):
        return x == 0
    return abs(x) <= tol


def div(x, y):
    """x / y, a Fraction when both are exact (int / int stays exact)."""
    if is_exact(x) and is_exact(y):
        return Fraction(x) / Fraction(y)
    return x / y


def primitive(values):
    """(ints, unit): the primitive integer representative of exact values
    and its positive scale, values == [unit * x for x in ints] with
    gcd(ints) == 1.  A zero vector is its own representative, unit 1."""
    if not all(map(is_exact, values)):
        raise TypeError("primitive needs int or Fraction entries")
    den = math.lcm(*(x.denominator for x in values))
    ints = [x.numerator * (den // x.denominator) for x in values]
    g = math.gcd(*ints) or 1  # a zero vector has den 1
    return ([x // g for x in ints] if g > 1 else ints), Fraction(g, den)


def scalar_to_json(x):
    """Fractions serialize as "num/den" strings, everything else as-is."""
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return x


def scalar_from_json(v):
    """A JSON number, or a "num/den" string as a Fraction; anything else
    (booleans, lists, objects, null) is not a scalar."""
    if isinstance(v, str):
        try:
            return Fraction(v)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in scalar {v!r}") from None
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"not a scalar: {v!r}")
    return v
