import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mft import linalg
from mft.coaction import GroupElement
from mft.euclidean import (
    EuclideanMotion,
    MotionMode,
    OrthogonalityError,
    compose,
    embed,
    essential,
    invert,
    random_motion,
    skew,
    tensor_to_identified,
    trifocal_closed_form,
    trifocal_euclidean,
)
from mft.focal import Section, apply_section, multifocal
from mft.invariants import invariant_bifocal, invariant_trifocal


def test_rotation_validation():
    with pytest.raises(OrthogonalityError):
        EuclideanMotion([[1, 0, 0], [0, 1, 0], [0, 0, 2]], (0, 0, 0))
    with pytest.raises(OrthogonalityError):
        # orthogonal but det -1
        EuclideanMotion([[1, 0, 0], [0, 0, 1], [0, 1, 0]], (0, 0, 0))


def test_cayley_rotations_exactly_orthogonal():
    rng = random.Random(0)
    for _ in range(20):
        mo = random_motion(mode=MotionMode.CAYLEY_RATIONAL, rng=rng)
        r = [list(row) for row in mo.r]
        assert linalg.mat_mul(linalg.transpose(r), r) == linalg.identity(3)
        assert linalg.det(r) == 1


def test_haar_rotations_numerically_orthogonal():
    rng = random.Random(1)
    for _ in range(20):
        mo = random_motion(mode=MotionMode.FLOAT_HAAR, rng=rng)
        r = [list(row) for row in mo.r]
        rtr = linalg.mat_mul(linalg.transpose(r), r)
        for i in range(3):
            for j in range(3):
                assert abs(rtr[i][j] - (1 if i == j else 0)) < 1e-12


def test_embed_compose_invert_consistent():
    rng = random.Random(2)
    a = random_motion(mode=MotionMode.CAYLEY_RATIONAL, rng=rng)
    b = random_motion(mode=MotionMode.CAYLEY_RATIONAL, rng=rng)
    assert embed(compose(a, b)) == embed(a) @ embed(b)
    assert embed(invert(a)) == embed(a).inverse()
    assert embed(a).basepoint() == [1] + list(a.u)


def test_skew_cross_product_relation():
    # v^t skew(u) is the cross product u x v up to the fixed sign pattern
    u = [2, 3, 5]
    s = skew(u)
    assert s == [[0, 5, -3], [-5, 0, 2], [3, -2, 0]]
    assert linalg.transpose(s) == [[-x for x in row] for row in s]


def test_essential_equals_general_construction():
    rng = random.Random(3)
    inv = invariant_bifocal()
    for _ in range(20):
        mo = random_motion(mode=MotionMode.CAYLEY_RATIONAL, rng=rng)
        frames = apply_section([embed(mo)], Section.CHAIN)
        t = multifocal(inv, frames)
        e = essential(mo)
        for i in range(1, 4):
            for j in range(1, 4):
                assert t.get((i,), (j,)) == e[i - 1][j - 1]


def test_essential_singular_values_structure():
    # essential matrices have two equal singular values and one zero:
    # E E^t = |u|^2 I - u u^t
    rng = random.Random(4)
    mo = random_motion(mode=MotionMode.CAYLEY_RATIONAL, rng=rng)
    e = essential(mo)
    eet = linalg.mat_mul(e, linalg.transpose(e))
    v = linalg.mat_vec(linalg.transpose([list(row) for row in mo.r]), list(mo.u))
    n2 = sum(x * x for x in v)
    expect = [
        [n2 * (1 if i == j else 0) - v[i] * v[j] for j in range(3)] for i in range(3)
    ]
    assert eet == expect


def test_trifocal_closed_form_matches_general():
    rng = random.Random(5)
    inv = invariant_trifocal()
    for _ in range(10):
        a = random_motion(mode=MotionMode.CAYLEY_RATIONAL, rng=rng)
        b = random_motion(mode=MotionMode.CAYLEY_RATIONAL, rng=rng)
        frames = apply_section([embed(a), embed(b)], Section.TRIFOCAL_INVERSE)
        general = multifocal(inv, frames)
        closed = trifocal_euclidean(a, b)
        assert general == closed  # global scalar exactly 1


def test_slice_decomposition():
    # slice j of the identified array is -r_j (x) w + u (x) s_j
    rng = random.Random(6)
    a = random_motion(mode=MotionMode.CAYLEY_RATIONAL, rng=rng)
    b = random_motion(mode=MotionMode.CAYLEY_RATIONAL, rng=rng)
    m = trifocal_closed_form(a, b)
    for j in range(3):
        for i in range(3):
            for k in range(3):
                assert m[i][j][k] == -a.r[i][j] * b.u[k] + a.u[i] * b.r[k][j]


@given(st.integers(0, 2**32))
@example(7)
@settings(max_examples=40, deadline=None)
def test_identification_round_trip(seed):
    rng = random.Random(seed)
    a = random_motion(mode=MotionMode.CAYLEY_RATIONAL, rng=rng)
    b = random_motion(mode=MotionMode.CAYLEY_RATIONAL, rng=rng)
    t = trifocal_euclidean(a, b)
    assert tensor_to_identified(t) == trifocal_closed_form(a, b)


def test_motion_json_round_trip():
    rng = random.Random(8)
    mo = random_motion(mode=MotionMode.CAYLEY_RATIONAL, rng=rng)
    back = EuclideanMotion.from_json(mo.to_json())
    assert back == mo
    assert mo.to_json()["repr"] == "rational"


def test_deterministic_seeding():
    a = random_motion(seed=42)
    b = random_motion(seed=42)
    assert a == b
