import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mft.coaction import GroupElement, random_frame
from mft.constraints import check_all
from mft.estimation import (
    AmbiguousSolutionError,
    Correspondence,
    DegenerateProjectionError,
    SceneKind,
    alignment_error,
    correspondences_bifocal,
    correspondences_quadrifocal,
    correspondences_trifocal,
    estimate_tensor,
    linear_rows,
    project_line,
    project_point,
    random_scene,
    residuals,
)
from mft.estimation import _line_through_random, _random_point
from mft.euclidean import MotionMode
from mft.exterior import Multivector, index_subsets
from mft.focal import FocalTensor, contract, multifocal
from mft.invariants import (
    invariant_bifocal,
    invariant_quadrifocal,
    invariant_trifocal,
)
from oracles import reference_row


def test_project_point_inverse_convention():
    g = GroupElement([[1, 0, 0, 0], [2, 1, 0, 0], [3, 0, 1, 0], [4, 0, 0, 1]])
    # g^-1 X with X = g e0 recovers the basepoint: degenerate image
    assert project_point(g, [1, 0, 0, 0]) == [-2, -3, -4]
    with pytest.raises(DegenerateProjectionError):
        project_point(g, [0, 1, 0, 0])


def test_project_point_rejects_the_view_centre():
    g = GroupElement([[1, 0, 0, 0], [2, 1, 0, 0], [3, 0, 1, 0], [4, 0, 0, 1]])
    with pytest.raises(DegenerateProjectionError):
        project_point(g, g.basepoint())


@pytest.mark.parametrize("key", [
    "exact-recovery/3/38/7",  # a line view would need a line through the zero point
    "exact-recovery/4/118/4",  # a point view would give a zero row
])
def test_rational_trifocal_resamples_points_on_a_view_centre(key):
    rng = random.Random(key)
    sc = random_scene(3, SceneKind.EUCLIDEAN, rng=rng, mode=MotionMode.CAYLEY_RATIONAL)
    cs = correspondences_trifocal(sc, 26, rng=rng)
    est, rank = estimate_tensor((2, 1, 2), cs)
    assert rank == 26
    assert alignment_error(est, multifocal(invariant_trifocal(), sc.frames)) == 0


@pytest.mark.parametrize("key", [
    "exact-recovery/1/228/4",  # two trifocal views drew one translation, so one centre
    "exact-recovery/4/295/7",
    "exact-recovery/13/282/7",
    "exact-recovery/12/243/3",  # one bifocal ambient point drawn twice, up to scale
    "exact-recovery/18/234/3",
    "exact-recovery/8/331/1",
])
def test_degenerate_benchmark_draws_are_drawn_again(key):
    views = 2 if int(key.rsplit("/", 1)[1]) < 4 else 3
    sig, gen, inv, count = {2: ((1, 1), correspondences_bifocal, invariant_bifocal, 8),
                            3: ((2, 1, 2), correspondences_trifocal, invariant_trifocal, 26)}[views]
    rng = random.Random(key)
    sc = random_scene(views, SceneKind.EUCLIDEAN, rng=rng, mode=MotionMode.CAYLEY_RATIONAL)
    est, rank = estimate_tensor(sig, gen(sc, count, rng=rng))
    assert rank == count
    assert alignment_error(est, multifocal(inv(), sc.frames)) == 0


class ScriptedRng:
    """randint returns the scripted values in order, whatever its bounds."""

    def __init__(self, values):
        self.values = list(values)

    def randint(self, lo, hi):
        return self.values.pop(0)


def _cayley_draw(u):
    """randint values for one CAYLEY_RATIONAL motion: S = 0, translation u."""
    return [0, 1] * 3 + [x for c in u for x in (c, 1)]


def test_euclidean_scene_redraws_a_view_on_an_earlier_centre():
    rng = ScriptedRng(_cayley_draw([1, 2, 3]) + _cayley_draw([1, 2, 3]) + _cayley_draw([4, 5, 6]))
    sc = random_scene(2, SceneKind.EUCLIDEAN, rng=rng, mode=MotionMode.CAYLEY_RATIONAL)
    assert [mo.u for mo in sc.motions] == [(1, 2, 3), (4, 5, 6)]
    assert [g.basepoint() for g in sc.frames] == [[1, 1, 2, 3], [1, 4, 5, 6]]
    assert rng.values == []


def test_general_scene_redraws_a_view_on_an_earlier_centre_up_to_scale():
    first = [1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1]  # row-major, centre e0
    same_centre = [-2, 1, 0, 0, 0, 1, 1, 0, 0, 0, 1, 1, 0, 0, 0, 1]  # centre -2 e0
    other = [1, 0, 0, 0, 1, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1]  # centre e0 + e1
    rng = ScriptedRng(first + same_centre + other)
    sc = random_scene(2, SceneKind.GENERAL, rng=rng)
    assert [g.basepoint() for g in sc.frames] == [[1, 0, 0, 0], [1, 1, 0, 0]]
    assert rng.values == []


def test_project_line_drops_base_terms():
    g = GroupElement.identity(4)
    L = Multivector(4, 2, {(0, 1): 5, (1, 2): 7})
    img = project_line(g, L)
    assert img.coeffs == {(1, 2): 7}


def test_true_tensor_annihilates_correspondences():
    rng = random.Random(0)
    sc = random_scene(3, SceneKind.EUCLIDEAN, rng=rng, mode=MotionMode.CAYLEY_RATIONAL)
    t = multifocal(invariant_trifocal(), sc.frames)
    cs = correspondences_trifocal(sc, 15, rng=rng)
    assert all(v == 0 for v in residuals(t, cs))


def test_true_tensor_annihilates_general_scene_too():
    rng = random.Random(1)
    sc = random_scene(4, SceneKind.GENERAL, rng=rng)
    t = multifocal(invariant_quadrifocal(), sc.frames)
    cs = correspondences_quadrifocal(sc, 10, rng=rng)
    assert all(v == 0 for v in residuals(t, cs))


def test_bifocal_recovery_8_points():
    rng = random.Random(2)
    sc = random_scene(2, SceneKind.EUCLIDEAN, rng=rng)
    t_true = multifocal(invariant_bifocal(), sc.frames)
    cs = correspondences_bifocal(sc, 8, rng=rng)
    est, rank = estimate_tensor((1, 1), cs)
    assert rank == 8
    assert alignment_error(est, t_true) <= 1e-6


def test_trifocal_recovery_26_correspondences():
    rng = random.Random(3)
    sc = random_scene(3, SceneKind.EUCLIDEAN, rng=rng)
    t_true = multifocal(invariant_trifocal(), sc.frames)
    cs = correspondences_trifocal(sc, 26, rng=rng)
    est, rank = estimate_tensor((2, 1, 2), cs)
    assert rank == 26
    assert alignment_error(est, t_true) <= 1e-6


def test_quadrifocal_recovery_80_correspondences():
    rng = random.Random(4)
    sc = random_scene(4, SceneKind.EUCLIDEAN, rng=rng)
    t_true = multifocal(invariant_quadrifocal(), sc.frames)
    cs = correspondences_quadrifocal(sc, 80, rng=rng)
    est, rank = estimate_tensor((2, 2, 2, 2), cs)
    assert rank == 80
    assert alignment_error(est, t_true) <= 1e-6


def test_rational_recovery_exact():
    rng = random.Random(5)
    sc = random_scene(2, SceneKind.EUCLIDEAN, rng=rng, mode=MotionMode.CAYLEY_RATIONAL)
    t_true = multifocal(invariant_bifocal(), sc.frames)
    cs = correspondences_bifocal(sc, 8, rng=rng)
    est, rank = estimate_tensor((1, 1), cs)
    assert rank == 8
    assert alignment_error(est, t_true) == 0


def test_estimated_trifocal_satisfies_constraints():
    rng = random.Random(6)
    sc = random_scene(3, SceneKind.EUCLIDEAN, rng=rng)
    cs = correspondences_trifocal(sc, 26, rng=rng)
    est, _rank = estimate_tensor((2, 1, 2), cs)
    rep = check_all(est, tol=1e-8)
    assert rep.passed, rep.to_json()


def test_trifocal_rank_generically_26():
    # 20 scenes; the 26-correspondence system should always have rank 26
    rng = random.Random(7)
    for _ in range(20):
        sc = random_scene(3, SceneKind.EUCLIDEAN, rng=rng)
        cs = correspondences_trifocal(sc, 26, rng=rng)
        _est, rank = estimate_tensor((2, 1, 2), cs)
        assert rank == 26


def test_underdetermined_raises():
    rng = random.Random(8)
    sc = random_scene(2, SceneKind.EUCLIDEAN, rng=rng)
    cs = correspondences_bifocal(sc, 5, rng=rng)
    with pytest.raises(AmbiguousSolutionError) as info:
        estimate_tensor((1, 1), cs)
    assert info.value.nullity >= 2


def test_rational_quadrifocal_recovery_exact():
    rng = random.Random(10)
    sc = random_scene(4, SceneKind.EUCLIDEAN, rng=rng, mode=MotionMode.CAYLEY_RATIONAL)
    t_true = multifocal(invariant_quadrifocal(), sc.frames)
    cs = correspondences_quadrifocal(sc, 80, rng=rng)
    est, rank = estimate_tensor((2, 2, 2, 2), cs)
    assert rank == 80
    assert alignment_error(est, t_true) == 0


@pytest.mark.parametrize("seed", [4, 21])
def test_rational_recovery_stays_exact_when_the_free_entry_is_largest(seed):
    # every pivot entry of these kernel vectors is below 1 in absolute value,
    # so the unit scale is the int 1 on the free column
    rng = random.Random(seed)
    sc = random_scene(2, SceneKind.EUCLIDEAN, rng=rng, mode=MotionMode.CAYLEY_RATIONAL)
    est, _ = estimate_tensor((1, 1), correspondences_bifocal(sc, 8, rng=rng))
    assert all(isinstance(v, Fraction) for v in est.flat())
    assert est.max_abs() == 1


def test_rational_underdetermined_nullity_is_exact():
    # 5 generic matches on 9 unknowns leave exactly 4 free columns
    rng = random.Random(8)
    sc = random_scene(2, SceneKind.EUCLIDEAN, rng=rng, mode=MotionMode.CAYLEY_RATIONAL)
    cs = correspondences_bifocal(sc, 5, rng=rng)
    with pytest.raises(AmbiguousSolutionError) as info:
        estimate_tensor((1, 1), cs)
    assert info.value.nullity == 4


def test_linear_rows_shape_and_mismatch():
    rng = random.Random(9)
    sc = random_scene(2, SceneKind.EUCLIDEAN, rng=rng)
    cs = correspondences_bifocal(sc, 3, rng=rng)
    rows = linear_rows((1, 1), cs)
    assert len(rows) == 3 and all(len(r) == 9 for r in rows)
    with pytest.raises(ValueError):
        linear_rows((2, 1, 2), cs)


@pytest.mark.parametrize("features", [
    [[1, 2], [1, 2, 3]],
    [[1, 2, 3, 4], [1, 2, 3]],
    [[1, 2, 3]],
], ids=["short", "long", "missing"])
def test_linear_rows_and_residuals_reject_features_of_the_wrong_length(features):
    bad = [Correspondence((1, 1), features)]
    with pytest.raises(ValueError):
        linear_rows((1, 1), bad)
    with pytest.raises(ValueError):
        residuals(FocalTensor(4, (1, 1), range(9)), bad)


def test_scene_determinism():
    a = random_scene(3, SceneKind.EUCLIDEAN, seed=11)
    b = random_scene(3, SceneKind.EUCLIDEAN, seed=11)
    assert all(x == y for x, y in zip(a.frames, b.frames))


# Image features as multivectors on indices 1..3 (points of degree 1, lines
# as wedges of two points), and as the plain coefficient lists on their axes.
rationals = st.fractions(-9, 9, max_denominator=5)
floats = st.floats(-10, 10)
SIGNATURES = [
    ((1, 1), invariant_bifocal),
    ((2, 1, 2), invariant_trifocal),
    ((2, 2, 2, 2), invariant_quadrifocal),
]


def image_point(v):
    return Multivector.from_vector(v, offset=1, dim=4)


def matches(scalars):
    """(signature, invariant) and one multivector feature per axis."""
    point = st.lists(scalars, min_size=3, max_size=3).map(image_point)
    by_degree = {1: point, 2: st.tuples(point, point).map(lambda pq: pq[0] ^ pq[1])}
    return st.sampled_from(SIGNATURES).flatmap(
        lambda s: st.tuples(st.just(s), st.tuples(*[by_degree[p] for p in s[0]]))
    )


def plain(c):
    return [c.coeff(J) for J in index_subsets(4, c.degree, start=1)]


@given(matches(rationals), st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_rows_and_residuals_match_the_multivector_reference(match, seed):
    (sig, inv), mvs = match
    corr = Correspondence(sig, [plain(c) for c in mvs])
    (row,) = linear_rows(sig, [corr])
    ref = reference_row(mvs)
    assert row == ref
    assert [type(x) for x in row] == [type(x) for x in ref]
    rng = random.Random(seed)
    t = multifocal(inv(), [random_frame(4, rng) for _ in sig])
    assert residuals(t, [corr]) == [contract(t, mvs)]


@given(matches(floats))
@settings(max_examples=60, deadline=None)
def test_float_rows_are_bit_identical_to_the_multivector_reference(match):
    (sig, _inv), mvs = match
    (row,) = linear_rows(sig, [Correspondence(sig, [plain(c) for c in mvs])])
    # repr tells int 0 from 0.0 and 0.0 from -0.0
    assert list(map(repr, row)) == list(map(repr, reference_row(mvs)))


@pytest.mark.parametrize("exact", [True, False])
@given(seed=st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_generated_lines_are_the_wedge_with_the_drawn_point(exact, seed):
    rng = random.Random(seed)
    p = _random_point(rng, exact, 3)
    state = rng.getstate()
    q = _random_point(rng, exact, 3)
    wedge = image_point(p) ^ image_point(q)
    assume(not wedge.is_zero())  # else the generator draws another q
    rng.setstate(state)
    assert _line_through_random(p, rng, exact) == plain(wedge)


@pytest.mark.parametrize("cell", [5e-324, 1e-300, 1.0])
def test_alignment_error_on_a_subnormal_max_abs_target(cell):
    estimate = FocalTensor(4, (2, 1, 2), [1.0] + [0.0] * 26)
    assert alignment_error(estimate, FocalTensor(4, (2, 1, 2), [cell] + [0.0] * 26)) == 0.0
