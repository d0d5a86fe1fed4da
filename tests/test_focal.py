import contextlib
import functools
import io
import json
import os
import random
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mft import linalg
from mft.cli import main
from mft.coaction import GroupElement, random_frame
from mft.exterior import Multivector
from mft.focal import (
    FocalTensor,
    Section,
    apply_section,
    contract,
    incidence,
    lift,
    multifocal,
)
from mft.invariants import (
    check_weight,
    invariant_bifocal,
    invariant_quadrifocal,
    invariant_trifocal,
    invariant_wedge_pair,
)


def test_dim2_translation_anchor():
    # translation pair in GL(2): the 2-focal value is c' - c
    inv = invariant_wedge_pair(2, 0, 0)
    c, cp = Fraction(3, 2), Fraction(-5)
    g = GroupElement([[1, 0], [c, 1]])
    gp = GroupElement([[1, 0], [cp, 1]])
    t = multifocal(inv, [g, gp])
    assert t.get((), ()) == cp - c


def test_dim2_rotation_anchor():
    # SO(2) pair: the value is a b' - b a'
    inv = invariant_wedge_pair(2, 0, 0)
    a, b = Fraction(3, 5), Fraction(4, 5)
    ap, bp = Fraction(5, 13), Fraction(12, 13)
    g = GroupElement([[a, -b], [b, a]])
    gp = GroupElement([[ap, -bp], [bp, ap]])
    assert multifocal(inv, [g, gp]).get((), ()) == a * bp - b * ap


def test_dim2_general_anchor():
    inv = invariant_wedge_pair(2, 0, 0)
    g = GroupElement([[2, 3], [5, 7]])
    gp = GroupElement([[11, 13], [17, 19]])
    # g00 g'10 - g10 g'00
    assert multifocal(inv, [g, gp]).get((), ()) == 2 * 17 - 5 * 11


def test_dim3_anchor():
    # wedge of a point factor and a line factor in dim 3
    inv = invariant_wedge_pair(3, 0, 1)
    rng = random.Random(0)
    g = random_frame(3, rng)
    gp = random_frame(3, rng)
    t = multifocal(inv, [g, gp])
    from mft.exterior import minor

    for j in (1, 2):
        expect = (
            g.entries[0][0] * minor(gp, (1, 2), (0, j))
            - g.entries[1][0] * minor(gp, (0, 2), (0, j))
            + g.entries[2][0] * minor(gp, (0, 1), (0, j))
        )
        assert t.get((), (j,)) == expect


def test_multifocal_arity_checks():
    inv = invariant_bifocal()
    g = GroupElement.identity(4)
    with pytest.raises(ValueError):
        multifocal(inv, [g])


def test_apply_section_chain():
    rng = random.Random(1)
    b1, b2 = random_frame(4, rng), random_frame(4, rng)
    frames = apply_section([b1, b2], Section.CHAIN)
    assert frames[0] == b2 @ b1
    assert frames[1] == b2
    assert frames[2] == GroupElement.identity(4)


def test_apply_section_trifocal_inverse():
    rng = random.Random(2)
    g1, g2 = random_frame(4, rng), random_frame(4, rng)
    frames = apply_section([g1, g2], Section.TRIFOCAL_INVERSE)
    assert frames == [g1.inverse(), GroupElement.identity(4), g2.inverse()]
    with pytest.raises(ValueError):
        apply_section([g1], Section.TRIFOCAL_INVERSE)


# Frames with small integer and rational entries, and image features on
# indices 1..3 (points of degree 1, lines as wedges of two points).
entries = st.one_of(st.integers(-5, 5), st.fractions(-5, 5, max_denominator=4))
invertible_frames = (
    st.lists(st.lists(entries, min_size=4, max_size=4), min_size=4, max_size=4)
    .filter(lambda rows: linalg.det(rows) != 0)
    .map(GroupElement)
)
image_points = st.lists(st.fractions(-9, 9, max_denominator=5), min_size=3, max_size=3).map(
    lambda v: Multivector.from_vector(v, offset=1, dim=4)
)
image_lines = st.tuples(image_points, image_points).map(lambda pq: pq[0] ^ pq[1])


def assert_pullback(inv, frames, cs):
    # contraction of the constructed tensor against image features equals
    # the invariant evaluated on their lifts, with scale exactly 1
    ds = [lift(g, c) for g, c in zip(frames, cs)]
    assert contract(multifocal(inv, frames), cs) == incidence(inv, ds)


@given(st.lists(invertible_frames, min_size=2, max_size=2),
       st.lists(image_points, min_size=2, max_size=2))
@settings(max_examples=40, deadline=None)
def test_pullback_identity_bifocal(fs, cs):
    assert_pullback(invariant_bifocal(), fs, cs)


@given(st.lists(invertible_frames, min_size=3, max_size=3), image_lines, image_points, image_lines)
@settings(max_examples=30, deadline=None)
def test_pullback_identity_trifocal(fs, line1, point, line3):
    assert_pullback(invariant_trifocal(), fs, [line1, point, line3])


@given(st.lists(invertible_frames, min_size=4, max_size=4),
       st.lists(image_lines, min_size=4, max_size=4))
@settings(max_examples=20, deadline=None)
def test_pullback_identity_quadrifocal(fs, cs):
    assert_pullback(invariant_quadrifocal(), fs, cs)


def test_contract_rejects_base_index():
    t = FocalTensor.zeros(4, (1, 1))
    bad = Multivector.basis(4, (0,))
    good = Multivector.basis(4, (1,))
    with pytest.raises(ValueError):
        contract(t, [bad, good])


def test_focal_tensor_flat_round_trip():
    t = FocalTensor.zeros(4, (2, 1))
    t.set(((1, 2), (3,)), Fraction(7, 2))
    u = FocalTensor.from_flat(4, (2, 1), t.flat())
    assert u == t
    assert FocalTensor.from_json(t.to_json()) == t


def test_scale_and_max_abs():
    t = FocalTensor.from_flat(4, (1,), [1, -4, 2])
    assert t.max_abs() == 4
    assert t.scale(2).flat() == [2, -8, 4]


@functools.cache
def _weight(factory):
    return check_weight(factory(), trials=3)


@given(st.sampled_from([invariant_bifocal, invariant_trifocal, invariant_quadrifocal]),
       st.integers(0, 2**32))
@settings(max_examples=30, deadline=None)
def test_common_frame_equivariance(factory, seed):
    # a common change of frame h scales the tensor by det(h)^(-k), k the
    # weight of the invariant
    inv, k = factory(), _weight(factory)
    rng = random.Random(seed)
    h = random_frame(4, rng)
    frames = [random_frame(4, rng) for _ in range(inv.arity())]
    moved = multifocal(inv, [h @ g for g in frames])
    assert moved == multifocal(inv, frames).scale(h.det() ** -k)


scalars = st.one_of(
    st.integers(-(10**12), 10**12),
    st.fractions(max_denominator=10**6),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def tensors(draw):
    dim = draw(st.integers(1, 5))
    signature = draw(st.lists(st.integers(0, dim), max_size=3))
    size = len(FocalTensor.zeros(dim, signature).flat())
    values = draw(st.lists(scalars, min_size=size, max_size=size))
    return dim, signature, values


@given(tensors())
@settings(max_examples=200, deadline=None)
def test_flat_and_json_round_trips(spec):
    dim, signature, values = spec
    t = FocalTensor.from_flat(dim, signature, values)
    assert t.flat() == values
    doc = json.loads(json.dumps(t.to_json()))
    back = FocalTensor.from_json(doc)
    assert back == t
    assert [type(v) for v in back.flat()] == [type(v) for v in values]


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_truncated_or_over_nested_tensor_json_exits_2(data):
    doc = FocalTensor.from_flat(4, (2, 1, 2), list(range(27))).to_json()
    parent, key = doc, "data"
    for _ in range(data.draw(st.integers(0, 3), label="depth")):  # 3 reaches a cell
        parent, key = parent[key], data.draw(st.integers(0, 2))
    node = parent[key]
    damage = ["over-nest"]
    if isinstance(node, list):
        damage += ["truncate", "extend", "under-nest"]
    kind = data.draw(st.sampled_from(damage), label="damage")
    if kind == "over-nest":
        parent[key] = [node]
    elif kind == "truncate":
        parent[key] = node[: data.draw(st.integers(0, 2))]
    elif kind == "extend":
        parent[key] = node + node[:1]
    else:
        parent[key] = node[0]
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "tensor.json")
        with open(path, "w") as fh:
            json.dump({"tensor": doc}, fh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["check", path])
    assert code == 2
    assert out.getvalue() == ""
    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
