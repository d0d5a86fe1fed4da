import random

import pytest

from mft.polyforms import PolyForm, cartan_apply, derham_d, koszul_delta, random_form


def test_caps_enforced():
    with pytest.raises(ValueError):
        PolyForm.zero(6, 1, 1)
    with pytest.raises(ValueError):
        PolyForm.zero(4, 3, 3)


def test_koszul_on_basis():
    # delta(e0 ^ e1 (x) 1) = e1 (x) x0 - e0 (x) x1
    f = PolyForm.term(3, (0, 1), ())
    out = koszul_delta(f)
    assert out.coeffs == {((1,), (0,)): 1, ((0,), (1,)): -1}


def test_derham_on_basis():
    # d(e1 (x) x0) promotes x0 to the front: +e0 ^ e1
    f = PolyForm.term(3, (1,), (0,))
    out = derham_d(f)
    assert out.coeffs == {((0, 1), ()): 1}
    # d(e0 (x) x1): x1 passes over e0, sign -1
    f = PolyForm.term(3, (0,), (1,))
    assert derham_d(f).coeffs == {((0, 1), ()): -1}


def test_derham_repeated_index_drops():
    f = PolyForm.term(3, (0,), (0,))
    assert derham_d(f).is_zero()


def test_differentials_square_to_zero():
    rng = random.Random(0)
    for _ in range(20):
        f = random_form(3, 1, 2, rng)
        assert koszul_delta(koszul_delta(f)).is_zero()
        assert derham_d(derham_d(f)).is_zero()


def test_cartan_identity_exact():
    rng = random.Random(1)
    for dim in (2, 3, 4):
        for p in range(dim + 1):
            for q in range(0, 5 - p):
                for _ in range(5):
                    f = random_form(dim, p, q, rng)
                    assert cartan_apply(f) == (p + q) * f


def test_bidegree_boundaries():
    f = PolyForm.term(3, (), (0, 1))
    assert koszul_delta(f).is_zero()
    top = PolyForm.term(3, (0, 1, 2), (0,))
    assert derham_d(top).is_zero()


def test_arithmetic_validates_bidegree():
    with pytest.raises(ValueError):
        PolyForm.term(3, (0,), ()) + PolyForm.term(3, (1,), (0,))
    with pytest.raises(ValueError):
        PolyForm.term(3, (1, 0), ())
