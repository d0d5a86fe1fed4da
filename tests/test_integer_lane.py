"""The integer lanes against references on the values as given.

``transform`` contracts the integer adjugate minors of the primitive integer
frame and scales each output once; ``multifocal`` contracts psi of the
primitive integer frames and scales each produced cell once.  Both must give
the values and the Python types of the references in ``oracles.py``, which
work on the frames as given, and ``multifocal`` the same JSON bytes.

Exact recovery projects through one integer adjugate per view and keeps
primitive integer features.  Each feature and each row must be a positive
multiple of the ``Fraction`` reference's, and the recovered tensor the same
values, types and JSON bytes.
"""

import json
import random
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from mft.coaction import GroupElement, SingularMatrixError, random_frame
from mft.estimation import (
    AmbiguousSolutionError,
    SceneKind,
    correspondences_bifocal,
    correspondences_quadrifocal,
    correspondences_trifocal,
    estimate_tensor,
    linear_rows,
    random_scene,
)
from mft.euclidean import MotionMode, embed, random_motion
from mft.focal import Section, apply_section, multifocal
from mft.invariants import catalog_lookup, transform
from oracles import reference_correspondences, reference_multifocal, reference_transform

NAMES = ["bifocal", "trifocal", "quadrifocal", "wedge:4,1,1", "wedge:4,0,2",
         "wedge:5,1,2", "wedge:5,2,1"]
KINDS = ["random_frame", "fraction", "embed", "int", "int_one_fraction", "float"]
SECTIONS = ["chain", "trifocal-inverse"]

fractions = st.fractions(min_value=-6, max_value=6, max_denominator=5)
ints = st.integers(-5, 5)
floats = st.floats(-5, 5, allow_nan=False, allow_infinity=False)


def _invertible(draw, dim, entry, min_det=0):
    while True:
        rows = draw(st.lists(st.lists(entry, min_size=dim, max_size=dim),
                             min_size=dim, max_size=dim))
        try:
            g = GroupElement(rows)
        except SingularMatrixError:
            continue
        if abs(g.det()) > min_det:
            return g


def _frame(draw, kind, dim):
    """One frame of the given kind; embed frames exist in dim 4 only."""
    if kind == "random_frame" or (kind == "embed" and dim != 4):
        return random_frame(dim, random.Random(draw(st.integers(0, 10**6))))
    if kind == "embed":
        rng = random.Random(draw(st.integers(0, 10**6)))
        return embed(random_motion(mode=MotionMode.CAYLEY_RATIONAL, rng=rng))
    if kind == "fraction":
        return _invertible(draw, dim, fractions)
    if kind == "int":
        return _invertible(draw, dim, ints)
    if kind == "int_one_fraction":  # int entries and one Fraction among them
        g = _invertible(draw, dim, ints)
        i, j = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
        rows = [list(r) for r in g.entries]
        rows[i][j] = Fraction(rows[i][j]) + draw(fractions)
        try:
            return GroupElement(rows)
        except SingularMatrixError:
            return g
    return _invertible(draw, dim, floats, min_det=0.5)


@st.composite
def invariant_and_frames(draw):
    """An invariant and one frame per factor: all of one kind, a mix of
    kinds, or an ``apply_section`` tuple of int identity and Fraction frames."""
    inv = catalog_lookup(draw(st.sampled_from(NAMES)))
    n = inv.arity()
    how = draw(st.sampled_from(["same", "mixed"] + SECTIONS))
    if how in SECTIONS:
        convention = Section(how if n == 3 else "chain")
        relative = [_frame(draw, draw(st.sampled_from(["random_frame", "fraction"])), inv.dim)
                    for _ in range(n - 1)]
        return inv, apply_section(relative, convention)
    kinds = [draw(st.sampled_from(KINDS))] * n if how == "same" else [
        draw(st.sampled_from(KINDS)) for _ in range(n)]
    return inv, [_frame(draw, kind, inv.dim) for kind in kinds]


# int frames with one Fraction entry: some cells are int today, others Fraction
MIXED_TYPES = [
    GroupElement([[1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, Fraction(1, 2)]]),
    GroupElement([[1, 0, 0, 0], [0, 1, 0, 0], [1, 0, 1, 0], [0, 0, 0, 1]]),
    GroupElement.identity(4),
]


def _cells(values):
    """Type and repr of every cell, so 1 and 1/1 or 0.0 and -0.0 differ."""
    return [(type(v).__name__, repr(v)) for v in values]


@given(invariant_and_frames())
@example((catalog_lookup("trifocal"), MIXED_TYPES))
@settings(max_examples=150, deadline=None)
def test_multifocal_matches_psi_on_the_frames_as_given(spec):
    inv, frames = spec
    got, ref = multifocal(inv, frames), reference_multifocal(inv, frames)
    assert _cells(got.values) == _cells(ref.values)  # floats bit for bit
    assert json.dumps(got.to_json()) == json.dumps(ref.to_json())


@st.composite
def invariant_and_frame(draw):
    inv = catalog_lookup(draw(st.sampled_from(NAMES)))
    return inv, _frame(draw, draw(st.sampled_from(KINDS)), inv.dim)


@given(invariant_and_frame())
@settings(max_examples=60, deadline=None)
def test_transform_matches_the_minors_of_the_inverse(spec):
    inv, g = spec
    got, ref = transform(g, inv).coeffs, reference_transform(g, inv).coeffs
    if any(isinstance(x, float) for row in g.entries for x in row):
        scale = max(abs(c) for c in ref.values())
        assert all(type(c) is float for c in got.values())
        assert all(abs(got.get(k, 0) - ref.get(k, 0)) <= 1e-9 * scale for k in got.keys() | ref)
    else:
        assert got == ref
        assert {k: type(c) for k, c in got.items()} == {k: type(c) for k, c in ref.items()}


def test_multifocal_keeps_int_cells_of_int_frames_and_fraction_cells_of_embed_frames():
    inv = catalog_lookup("trifocal")
    rng = random.Random(3)
    motions = [random_motion(mode=MotionMode.CAYLEY_RATIONAL, rng=rng) for _ in range(3)]
    identity = multifocal(inv, [GroupElement.identity(4)] * 3)
    assert {type(v) for v in identity.values} == {int}
    embedded = multifocal(inv, [embed(mo) for mo in motions])
    assert {type(v) for v in embedded.values if v != 0} == {Fraction}
    # ints with one Fraction entry make int and Fraction cells, and keep both
    got = multifocal(inv, MIXED_TYPES).values
    assert _cells(got) == _cells(reference_multifocal(inv, MIXED_TYPES).values)
    assert {type(v) for v in got if v != 0} == {int, Fraction}


RECOVERY = {
    (1, 1): (correspondences_bifocal, 8),
    (2, 1, 2): (correspondences_trifocal, 26),
    (2, 2, 2, 2): (correspondences_quadrifocal, 80),
}


def _positive_multiple(got, ref):
    """True when got == lam * ref for one lam > 0."""
    i = next(k for k, x in enumerate(ref) if x != 0)
    lam = Fraction(got[i]) / ref[i]
    return lam > 0 and all(x == lam * y for x, y in zip(got, ref))


def _estimate(signature, matches):
    try:
        est, rank = estimate_tensor(signature, matches)
    except AmbiguousSolutionError as exc:
        return str(exc)
    return rank, _cells(est.values), json.dumps(est.to_json())


@given(st.sampled_from(list(RECOVERY)), st.sampled_from(list(SceneKind)), st.integers(0, 2**32))
@settings(max_examples=30, deadline=None)
def test_recovery_lane_is_a_positive_multiple_of_the_fraction_reference(signature, kind, seed):
    gen, count = RECOVERY[signature]
    rng = random.Random(seed)
    scene = random_scene(len(signature), kind, rng=rng, mode=MotionMode.CAYLEY_RATIONAL)
    state = rng.getstate()
    got = gen(scene, count, rng=rng)
    after = rng.getstate()
    rng.setstate(state)
    ref = reference_correspondences(scene, count, signature, rng)
    assert rng.getstate() == after  # the same draws
    for c, r in zip(got, ref, strict=True):
        for f, e in zip(c.features, r.features, strict=True):
            assert all(type(x) is int for x in f)
            assert _positive_multiple(f, e)
    rows, ref_rows = linear_rows(signature, got), linear_rows(signature, ref)
    assert all(_positive_multiple(a, b) for a, b in zip(rows, ref_rows, strict=True))
    assert _estimate(signature, got) == _estimate(signature, ref)
