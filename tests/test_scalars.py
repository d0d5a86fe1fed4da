"""scalars.primitive: the primitive integer representative and its unit."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mft.scalars import primitive

exact = st.one_of(st.integers(-10**6, 10**6), st.fractions(max_denominator=10**4))


def assert_primitive(values):
    ints, unit = primitive(values)
    assert all(type(x) is int for x in ints)
    assert isinstance(unit, Fraction) and unit > 0
    assert values == [unit * x for x in ints]
    assert math.gcd(*ints) == (1 if any(values) else 0)
    return ints, unit


@given(st.lists(exact, max_size=30))
@settings(max_examples=300, deadline=None)
def test_primitive_is_a_positive_multiple_with_gcd_one(values):
    assert_primitive(values)


@pytest.mark.parametrize("values, ints, unit", [
    ([6, -4, 10], [3, -2, 5], 2),
    ([Fraction(1, 2), Fraction(-1, 3)], [3, -2], Fraction(1, 6)),
    ([Fraction(-4, 9), 0, Fraction(2, 3)], [-2, 0, 3], Fraction(2, 9)),
    ([0, Fraction(0), 0], [0, 0, 0], 1),
    ([], [], 1),
    ([0, Fraction(-7, 5), 0], [0, -1, 0], Fraction(7, 5)),
    ([3, 5], [3, 5], 1),
], ids=["ints", "fractions", "negative-and-zero", "all-zero", "empty", "one-nonzero",
        "already-primitive"])
def test_primitive_examples(values, ints, unit):
    assert assert_primitive(values) == (ints, unit)


@pytest.mark.parametrize("values", [[1.0], [1, Fraction(1, 2), 0.5]])
def test_primitive_rejects_floats(values):
    with pytest.raises(TypeError):
        primitive(values)
