import json
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mft import linalg
from mft.constraints import (
    _block_tensor,
    _flattenings,
    _slice_rank,
    DET_CUBIC_MONOMIALS,
    TrifocalSlices,
    adjugate,
    bifocal_q,
    braid_residual,
    check_all,
    demazure_c,
    epipolar_sextics,
    euclidean_identity_suite,
    frobenius_identity_residual,
    rank_one_certificates,
    trifocal_det_cubics,
)
from mft.euclidean import (
    VECTOR_OF_LAMBDA2,
    MotionMode,
    essential,
    random_motion,
    trifocal_euclidean,
)
from mft.focal import FocalTensor
from oracles import (
    reference_block_tensor,
    reference_check_all,
    reference_flattenings,
    reference_rank_one_certificates,
)


def random_rational_matrix(rng, lo=-9, hi=9):
    return [
        [Fraction(rng.randint(lo, hi), rng.randint(1, 5)) for _ in range(3)]
        for _ in range(3)
    ]


def rational_pair(rng):
    a = random_motion(mode=MotionMode.CAYLEY_RATIONAL, rng=rng)
    b = random_motion(mode=MotionMode.CAYLEY_RATIONAL, rng=rng)
    return a, b


def test_adjugate_defining_property():
    rng = random.Random(0)
    for _ in range(10):
        m = random_rational_matrix(rng)
        d = linalg.det(m)
        prod = linalg.mat_mul(m, adjugate(m))
        assert prod == [[d if i == j else 0 for j in range(3)] for i in range(3)]


def test_demazure_vanishes_on_essential_only():
    rng = random.Random(1)
    for _ in range(10):
        mo = random_motion(mode=MotionMode.CAYLEY_RATIONAL, rng=rng)
        e = essential(mo)
        assert all(v == 0 for row in demazure_c(e) for v in row)
        assert bifocal_q(e) == 0
    # a generic matrix is not essential
    m = random_rational_matrix(rng)
    assert any(v != 0 for row in demazure_c(m) for v in row)


def test_frobenius_identity_on_100_random_matrices():
    rng = random.Random(2)
    for _ in range(100):
        m = random_rational_matrix(rng)
        assert frobenius_identity_residual(m) == 0


def test_det_cubic_monomial_order_against_multinomial():
    # evaluate on slices t1 = t2 = t3 = identity: det(x1+x2+x3 times I)
    # = (x1+x2+x3)^3 with multinomial coefficients 1,3,3,3,6,3,1,3,3,1
    eye = [[Fraction(1 if i == j else 0) for j in range(3)] for i in range(3)]
    ts = TrifocalSlices(eye, eye, eye)
    coeffs = trifocal_det_cubics(ts)
    expect = {
        (3, 0, 0): 1, (2, 1, 0): 3, (2, 0, 1): 3, (1, 2, 0): 3, (1, 1, 1): 6,
        (1, 0, 2): 3, (0, 3, 0): 1, (0, 2, 1): 3, (0, 1, 2): 3, (0, 0, 3): 1,
    }
    assert dict(zip(DET_CUBIC_MONOMIALS, coeffs)) == expect


rational = st.fractions(min_value=-6, max_value=6, max_denominator=4)
slice3 = st.lists(st.lists(rational, min_size=3, max_size=3), min_size=3, max_size=3)


@given(st.lists(slice3, min_size=3, max_size=3), st.lists(rational, min_size=3, max_size=3))
@settings(max_examples=100, deadline=None)
def test_det_cubics_evaluate_to_det_of_the_slice_combination(slices, x):
    # asymmetric slices, so a swapped slice or row index changes the value
    coeffs = trifocal_det_cubics(TrifocalSlices(*slices))
    value = sum(c * x[0] ** e[0] * x[1] ** e[1] * x[2] ** e[2]
                for c, e in zip(coeffs, DET_CUBIC_MONOMIALS))
    combo = [[sum(x[n] * slices[n][i][j] for n in range(3)) for j in range(3)] for i in range(3)]
    assert value == linalg.det(combo)


real = st.floats(-10, 10, allow_nan=False, allow_infinity=False)
float_slice3 = st.lists(st.lists(real, min_size=3, max_size=3), min_size=3, max_size=3)
slice_triples = st.one_of(st.lists(slice3, min_size=3, max_size=3),
                          st.lists(float_slice3, min_size=3, max_size=3))


def _bits(rows):
    """Type and repr of every entry, so -0.0 and 0.0 or 1 and 1.0 differ."""
    return [[(type(v).__name__, repr(v)) for v in row] for row in rows]


@given(slice_triples)
@settings(max_examples=50, deadline=None)
def test_chain_is_the_left_to_right_product(slices):
    ts = TrifocalSlices(*slices)
    for word in ("ta", "at", "tat", "ata"):
        for idx in product(range(3), repeat=len(word)):
            factors = [(ts.t if c == "t" else ts.a)[n] for c, n in zip(word, idx)]
            expect = factors[0]
            for f in factors[1:]:
                expect = linalg.mat_mul(expect, f)
            got = ts.chain(word, *idx)
            assert _bits(got) == _bits(expect)
            assert ts.chain(word, *idx) is got


@given(slice_triples)
@settings(max_examples=50, deadline=None)
def test_block_tensor_flattenings_match_the_nested_list_reference(slices):
    ts = TrifocalSlices(*slices)
    flats = _flattenings(_block_tensor(ts))
    expect = reference_flattenings(reference_block_tensor(ts))
    assert [_bits(f) for f in flats] == [_bits(f) for f in expect]


@st.composite
def planted_rank_slice(draw):
    """A 3x3 rational slice u1 v1^T + ... + uk vk^T of rank at most k, k in 0..3."""
    k = draw(st.integers(0, 3))
    us = draw(st.lists(st.lists(rational, min_size=3, max_size=3), min_size=k, max_size=k))
    vs = draw(st.lists(st.lists(rational, min_size=3, max_size=3), min_size=k, max_size=k))
    return [[sum((u[i] * v[j] for u, v in zip(us, vs)), Fraction(0)) for j in range(3)]
            for i in range(3)]


@given(planted_rank_slice())
@settings(max_examples=200, deadline=None)
def test_slice_rank_from_the_adjugate_is_the_rank(t):
    assert _slice_rank(t, adjugate(t), 1e-9) == linalg.rank(t)


@given(st.lists(planted_rank_slice(), min_size=3, max_size=3).filter(
    lambda ts: any(v for t in ts for row in t for v in row)))
@settings(max_examples=50, deadline=None)
def test_check_all_reports_the_slice_ranks(slices):
    # the tensor whose identified slices are these
    t = FocalTensor.zeros(4, (2, 1, 2))
    for J1, (i, s1) in VECTOR_OF_LAMBDA2.items():
        for j in range(3):
            for J3, (k, s3) in VECTOR_OF_LAMBDA2.items():
                t.set((J1, (j + 1,), J3), s1 * s3 * slices[j][i - 1][k - 1])
    assert TrifocalSlices.from_tensor(t).t == tuple(slices)
    ranks = [linalg.rank(s) for s in slices]
    flags = check_all(t).to_json()["flags"]
    assert flags["slice_ranks"] == ranks
    assert flags.get("rank_deficient", False) == any(r < 2 for r in ranks)


def test_constraint_families_vanish_on_euclidean_trifocal():
    rng = random.Random(3)
    for _ in range(10):
        a, b = rational_pair(rng)
        ts = TrifocalSlices.from_tensor(trifocal_euclidean(a, b))
        assert all(v == 0 for v in trifocal_det_cubics(ts))
        right, left = epipolar_sextics(ts)
        assert all(v == 0 for v in right) and all(v == 0 for v in left)
        assert len(right) == 27 and len(left) == 27
        assert braid_residual(ts) == 0
        assert rank_one_certificates(ts, motions=(a, b)).passed
        assert euclidean_identity_suite(ts, a, b).passed


def test_identity_suite_max_residual_exact_zero():
    rng = random.Random(4)
    a, b = rational_pair(rng)
    ts = TrifocalSlices.from_tensor(trifocal_euclidean(a, b))
    rep = euclidean_identity_suite(ts, a, b)
    assert rep.max_residual() == 0
    names = [f.name for f in rep.families]
    assert len(names) == len(set(names)) == 7


def test_check_all_scale_covariant():
    rng = random.Random(5)
    a, b = rational_pair(rng)
    t = trifocal_euclidean(a, b)
    for lam in (Fraction(2), Fraction(-3), Fraction(1, 7)):
        rep = check_all(t.scale(lam))
        assert rep.passed
        assert rep.max_residual() == 0
        assert rep.normalized


@given(st.integers(0, 2**32), st.booleans(),
       st.fractions(max_denominator=10**6).filter(lambda lam: lam != 0))
@settings(max_examples=25, deadline=None)
def test_check_all_report_is_scale_covariant(seed, trifocal, lam):
    # the report is that of the tensor scaled to unit max-abs, so any
    # nonzero rational scale, negative included, leaves it unchanged
    rng = random.Random(seed)
    if trifocal:
        t = trifocal_euclidean(*rational_pair(rng))
    else:
        t = FocalTensor.from_flat(4, (2, 1, 2), [Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                                                 for _ in range(27)])
    assert check_all(t.scale(lam)).to_json() == check_all(t).to_json()


def test_check_all_rejects_random_tensor():
    rng = random.Random(6)
    from mft.focal import FocalTensor

    vals = [rng.gauss(0, 1) for _ in range(27)]
    t = FocalTensor.from_flat(4, (2, 1, 2), vals)
    rep = check_all(t)
    assert not rep.passed
    assert rep.max_residual() > 1e-3


def test_check_all_flags_rank_deficiency():
    from mft.focal import FocalTensor

    vals = [Fraction(0)] * 27
    vals[0] = Fraction(1)
    t = FocalTensor.from_flat(4, (2, 1, 2), vals)
    rep = check_all(t)
    assert rep.flags.get("rank_deficient") is True


def test_check_all_signature_guard():
    from mft.focal import FocalTensor

    with pytest.raises(ValueError):
        check_all(FocalTensor.zeros(4, (1, 1)))


def test_report_json_shape():
    rng = random.Random(7)
    a, b = rational_pair(rng)
    rep = check_all(trifocal_euclidean(a, b))
    obj = rep.to_json()
    assert obj["normalized"] is True
    assert obj["pass"] is True
    for fam in obj["families"]:
        assert set(fam) == {"name", "max", "mean", "count", "pass"}


def test_float_mode_residuals_small():
    rng = random.Random(8)
    for _ in range(5):
        a = random_motion(mode=MotionMode.FLOAT_HAAR, rng=rng)
        b = random_motion(mode=MotionMode.FLOAT_HAAR, rng=rng)
        rep = check_all(trifocal_euclidean(a, b))
        assert rep.passed, rep.to_json()


def _perturbed(t, cell):
    """t with one cell moved by 1/1000 of its max-abs entry."""
    values = list(t.values)
    values[cell] += t.max_abs() / 1000
    return FocalTensor(4, (2, 1, 2), values)


def _dumps(report):
    return json.dumps(report.to_json())


scalings = st.one_of(st.sampled_from([Fraction(1), Fraction(-1), Fraction(-3, 7), Fraction(5, 2)]),
                     st.fractions(max_denominator=10**4).filter(lambda lam: lam != 0))


@given(st.integers(0, 2**32), st.sampled_from(["random", "true", "perturbed"]), scalings)
@settings(max_examples=30, deadline=None)
def test_integer_lane_check_all_json_is_the_fraction_lane_json(seed, kind, lam):
    rng = random.Random(seed)
    if kind == "random":
        t = FocalTensor(4, (2, 1, 2), [Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                                       for _ in range(27)])
    else:
        t = trifocal_euclidean(*rational_pair(rng))
        if kind == "perturbed":
            t = _perturbed(t, rng.randrange(27))
    t = t.scale(lam)
    assert _dumps(check_all(t)) == _dumps(reference_check_all(t))


@given(st.integers(0, 2**32), st.booleans(), scalings)
@settings(max_examples=20, deadline=None)
def test_integer_lane_rank_one_json_is_the_fraction_lane_json(seed, perturb, lam):
    rng = random.Random(seed)
    a, b = rational_pair(rng)
    t = trifocal_euclidean(a, b)
    if perturb:
        t = _perturbed(t, rng.randrange(27))
    ts = TrifocalSlices.from_tensor(t.scale(lam))
    assert (_dumps(rank_one_certificates(ts, motions=(a, b)))
            == _dumps(reference_rank_one_certificates(ts, motions=(a, b))))


def test_mixed_exact_and_float_max_abs_tie_matches_the_fraction_lane():
    # an exact 7 and a float -7.0 tie for the max-abs; either may scale
    for seed in range(30):
        rng = random.Random(seed)
        values = [rng.randint(-6, 6) for _ in range(27)]
        i, j = rng.sample(range(27), 2)
        values[i], values[j] = 7, -7.0
        t = FocalTensor(4, (2, 1, 2), values)
        got, ref = check_all(t).to_json(), reference_check_all(t).to_json()
        assert got["pass"] == ref["pass"] and got["flags"] == ref["flags"]
        for f, g in zip(got["families"], ref["families"]):
            assert f["pass"] == g["pass"] and f["count"] == g["count"]
            assert abs(f["max"] - g["max"]) <= 1e-9 and abs(f["mean"] - g["mean"]) <= 1e-9


def test_check_all_on_a_subnormal_max_abs_is_the_unit_report():
    def report(cell):
        return check_all(FocalTensor(4, (2, 1, 2), [cell] + [0.0] * 26)).to_json()

    assert report(5e-324) == report(1e-300) == report(1.0)
    assert report(5e-324)["flags"]["slice_ranks"] == [1, 0, 0]
    json.dumps(report(5e-324), allow_nan=False)
