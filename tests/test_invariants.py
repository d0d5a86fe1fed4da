import random

import pytest

from mft.focal import incidence
from mft.invariants import (
    Invariant,
    InvarianceViolationError,
    catalog_lookup,
    check_weight,
    invariant_bifocal,
    invariant_quadrifocal,
    invariant_trifocal,
    invariant_wedge_pair,
    transform,
)

from oracles import (
    common_point_exists,
    random_rational_vector,
    random_subspace,
    random_subspace_through,
    span_dim,
    wedge_of_vectors,
)


def test_bifocal_coefficients():
    inv = invariant_bifocal()
    assert inv.signature == (2, 2)
    assert inv.coeffs[((0, 1), (2, 3))] == 1
    assert inv.coeffs[((0, 2), (1, 3))] == -1
    assert inv.coeffs[((1, 2), (0, 3))] == 1
    assert len(inv.coeffs) == 6


def test_trifocal_support_size():
    inv = invariant_trifocal()
    assert inv.signature == (3, 2, 3)
    assert len(inv.coeffs) == 12
    assert all(c in (1, -1) for c in inv.coeffs.values())


def test_quadrifocal_support_size():
    inv = invariant_quadrifocal()
    assert inv.signature == (3, 3, 3, 3)
    assert len(inv.coeffs) == 24
    assert all(c in (1, -1) for c in inv.coeffs.values())


def test_weights():
    assert check_weight(invariant_bifocal(), trials=20) == -1
    assert check_weight(invariant_trifocal(), trials=20) == -2
    assert check_weight(invariant_quadrifocal(), trials=10) == -3
    assert check_weight(invariant_wedge_pair(2, 0, 0), trials=20) == -1
    assert check_weight(invariant_wedge_pair(3, 0, 1), trials=20) == -1


def test_weight_skips_unit_determinant_elements():
    # this seed draws an element with det -1, which matches every odd power
    assert check_weight(invariant_bifocal(), trials=2, seed=307 * 1000003 + 14) == -1


def test_transform_is_an_action():
    import fractions

    rng = random.Random(0)
    inv = invariant_bifocal()
    from mft.coaction import GroupElement

    g = GroupElement([[fractions.Fraction(rng.randint(-4, 4)) for _ in range(4)] for _ in range(4)])
    h = GroupElement([[fractions.Fraction(rng.randint(-4, 4)) for _ in range(4)] for _ in range(4)])
    lhs = transform(g, transform(h, inv))
    rhs = transform(g @ h, inv)
    assert lhs.coeffs == rhs.coeffs


def test_broken_invariant_detected():
    inv = invariant_bifocal()
    broken = dict(inv.coeffs)
    broken[((0, 1), (2, 3))] = 5
    from mft.invariants import Invariant

    bad = Invariant(4, (2, 2), broken, name="broken")
    with pytest.raises(InvarianceViolationError):
        check_weight(bad, trials=5)


WEIGHT_NAMES = ["bifocal", "trifocal", "quadrifocal"] + [
    f"wedge:{m},{p1},{m - 2 - p1}" for m in range(2, 6) for p1 in range(m - 1)
]


@pytest.mark.parametrize("name", WEIGHT_NAMES)
def test_weight_is_minus_the_signature_sum_over_the_dimension(name):
    inv = catalog_lookup(name)
    assert check_weight(inv, trials=3) == -sum(inv.signature) // inv.dim


@pytest.mark.parametrize("name", WEIGHT_NAMES)
def test_weight_check_rejects_a_perturbed_coefficient(name):
    inv = catalog_lookup(name)
    coeffs = dict(inv.coeffs)
    key = next(iter(coeffs))
    coeffs[key] = 2 * coeffs[key]
    with pytest.raises(InvarianceViolationError):
        check_weight(Invariant(inv.dim, inv.signature, coeffs), trials=3)


def test_weight_check_rejects_a_signature_the_dimension_does_not_divide(monkeypatch):
    import mft.invariants

    def refuse(*args, **kwargs):
        raise AssertionError("a frame was drawn before the signature was checked")

    monkeypatch.setattr(mft.invariants, "random_frame", refuse)
    inv = Invariant(4, (1, 2), {((0,), (1, 2)): 1})
    with pytest.raises(InvarianceViolationError):
        check_weight(inv)


def test_catalog_lookup():
    assert catalog_lookup("trifocal").name == "trifocal"
    assert catalog_lookup("wedge:3,0,1").signature == (1, 2)
    with pytest.raises(ValueError):
        catalog_lookup("nope")


# geometric oracles: each invariant vanishes exactly at incident
# configurations of subspaces


def test_bifocal_vanishes_iff_lines_meet():
    rng = random.Random(2)
    inv = invariant_bifocal()
    hits = 0
    for trial in range(100):
        if trial % 2:
            X = random_rational_vector(rng)
            s1 = random_subspace_through(rng, X, 2)
            s2 = random_subspace_through(rng, X, 2)
        else:
            s1 = random_subspace(rng, 2)
            s2 = random_subspace(rng, 2)
        val = incidence(inv, [wedge_of_vectors(s1), wedge_of_vectors(s2)])
        meet = common_point_exists([s1, s2])
        assert (val == 0) == meet
        hits += meet
    assert hits >= 50  # the forced half always meets


def test_trifocal_vanishes_iff_planes_and_line_share_point():
    rng = random.Random(3)
    inv = invariant_trifocal()
    for trial in range(100):
        if trial % 2:
            X = random_rational_vector(rng)
            p = random_subspace_through(rng, X, 3)
            a = random_subspace_through(rng, X, 2)
            q = random_subspace_through(rng, X, 3)
        else:
            p = random_subspace(rng, 3)
            a = random_subspace(rng, 2)
            q = random_subspace(rng, 3)
        val = incidence(
            inv, [wedge_of_vectors(p), wedge_of_vectors(a), wedge_of_vectors(q)]
        )
        meet = common_point_exists([p, a, q])
        assert (val == 0) == meet


def test_quadrifocal_vanishes_iff_four_planes_share_point():
    rng = random.Random(4)
    inv = invariant_quadrifocal()
    for trial in range(100):
        if trial % 2:
            X = random_rational_vector(rng)
            planes = [random_subspace_through(rng, X, 3) for _ in range(4)]
        else:
            planes = [random_subspace(rng, 3) for _ in range(4)]
        val = incidence(inv, [wedge_of_vectors(p) for p in planes])
        meet = common_point_exists(planes)
        assert (val == 0) == meet


def test_oracle_self_consistency():
    # two generic lines in P^3 miss each other; a 3-dim and a 2-dim span of
    # k^4 always share a direction (dimension count)
    rng = random.Random(5)
    misses = 0
    for _ in range(50):
        a = random_subspace(rng, 2)
        b = random_subspace(rng, 2)
        misses += not common_point_exists([a, b])
        p = random_subspace(rng, 3)
        assert common_point_exists([p, a])
    assert misses > 40
