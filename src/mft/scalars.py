"""Scalar handling shared by every module.

Two scalar regimes coexist: exact rationals (``fractions.Fraction``, also
plain ``int``) and double-precision floats.  Arithmetic is generic -- every
operation in this package just uses ``+ - *`` and preserves whatever number
type flows in -- so "mode" only matters at the boundaries: random data
generation, JSON serialization, and zero tests.
"""

from __future__ import annotations

from fractions import Fraction

# Comparison tolerance for float-mode data normalized to unit scale.
TOL = 1e-9

FLOAT_MODE = "float"
RATIONAL_MODE = "rational"


def is_exact(x) -> bool:
    """True for scalars carrying exact (rational/integer) arithmetic."""
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def is_zero(x, tol: float = TOL) -> bool:
    """Zero test: exact for rationals, tolerance ``tol`` for floats."""
    if is_exact(x):
        return x == 0
    return abs(x) <= tol


def near(x, y, tol: float = TOL) -> bool:
    return is_zero(x - y, tol)


def scalar_to_json(x):
    """Fractions serialize as "num/den" strings, everything else as-is."""
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return x


def scalar_from_json(v):
    if isinstance(v, str):
        try:
            return Fraction(v)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in scalar {v!r}") from None
    return v
