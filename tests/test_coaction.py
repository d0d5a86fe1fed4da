import random
from fractions import Fraction
from itertools import combinations, product

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from mft import linalg
from mft.coaction import GroupElement, SingularMatrixError, act, compound_matrix, psi, random_frame
from mft.exterior import index_subsets

PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53]


def prime_matrix(n):
    return [[PRIMES[i * n + j] for j in range(n)] for i in range(n)]


def sympy_minor(g, rows, cols):
    return int(sympy.Matrix([[g[r][c] for c in cols] for r in rows]).det())


# Hand-transcribed anchor tables: for each (m, p), the row subsets in order
# and the column set {0} | J selected by each column, matching the printed
# row-vector form of psi.
ANCHORS = {
    (2, 0): ([(0,), (1,)], [(0,)]),
    (3, 0): ([(0,), (1,), (2,)], [(0,)]),
    (3, 1): ([(0, 1), (0, 2), (1, 2)], [(0, 1), (0, 2)]),
    (4, 1): (
        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
        [(0, 1), (0, 2), (0, 3)],
    ),
    (4, 2): (
        [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)],
        [(0, 1, 2), (0, 1, 3), (0, 2, 3)],
    ),
}


@pytest.mark.parametrize("m,p", sorted(ANCHORS))
def test_psi_anchor_tables(m, p):
    g = GroupElement(prime_matrix(m))
    ps = psi(g, p)
    rows, colsets = ANCHORS[(m, p)]
    assert ps.rows == rows
    assert [(0,) + J for J in ps.cols] == colsets
    for R in rows:
        for k, cols in enumerate(colsets):
            assert ps.row(R)[k] == sympy_minor(g.entries, R, cols)


def test_psi_low_degree_values():
    # p = 0 tables are just the first column of g
    g = GroupElement(prime_matrix(3))
    ps = psi(g, 0)
    assert [ps.row((i,))[0] for i in range(3)] == [2, 7, 17]


def test_compound_matrix_multiplicative():
    rng = random.Random(0)
    for _ in range(10):
        a = random_frame(4, rng)
        b = random_frame(4, rng)
        for p in (0, 1, 2):
            lhs = compound_matrix(a @ b, p)
            rhs = linalg.mat_mul(compound_matrix(a, p), compound_matrix(b, p))
            assert lhs == rhs


def test_psi_factors_through_stabilizer():
    # For h fixing the basepoint line (first column (lam, 0, 0, 0)^t),
    # psi(g h) = lam * psi(g) . compound(block) on the image side.
    rng = random.Random(1)
    for _ in range(10):
        g = random_frame(4, rng)
        lam = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        block = random_frame(3, rng)
        h_rows = [[lam] + [Fraction(rng.randint(-3, 3)) for _ in range(3)]]
        for i in range(3):
            h_rows.append([0] + list(block.entries[i]))
        h = GroupElement(h_rows)
        for p in (1, 2):
            left = psi(g @ h, p)
            right = psi(g, p)
            bp = [
                [
                    sympy_minor(block.entries, tuple(x - 1 for x in K), tuple(x - 1 for x in J))
                    for J in left.cols
                ]
                for K in right.cols
            ]
            for R in left.rows:
                got = left.row(R)
                expect = [
                    lam * sum(right.row(R)[k] * bp[k][j] for k in range(len(right.cols)))
                    for j in range(len(left.cols))
                ]
                assert got == expect


def test_singular_rejected():
    with pytest.raises(SingularMatrixError):
        GroupElement([[1, 2], [2, 4]])


def test_basepoint_and_inverse():
    g = GroupElement([[1, 0, 0, 0], [2, 1, 0, 0], [3, 0, 1, 0], [4, 0, 0, 1]])
    assert g.basepoint() == [1, 2, 3, 4]
    assert (g @ g.inverse()) == GroupElement.identity(4)


@pytest.mark.parametrize("one", [Fraction(1), 1.0])
def test_inverse_is_computed_once(one):
    g = GroupElement([[one * x for x in row]
                      for row in [[2, 0, 0, 0], [2, 1, 0, 0], [3, 0, 1, 0], [4, 0, 0, 1]]])
    inv = g.inverse()
    assert inv is g.inverse()
    assert g @ inv == GroupElement.identity(4)
    # the inverse keeps no reference back to its frame
    assert inv.inverse() == g and inv.inverse() is not g


def test_group_element_json_round_trip():
    g = GroupElement([[Fraction(1, 2), 1], [0, 3]])
    assert GroupElement.from_json(g.to_json()) == g


LANES = {
    "int": st.integers(-(10**6), 10**6),
    "fraction": st.fractions(min_value=-100, max_value=100, max_denominator=50),
    # no magnitudes that could underflow a product of four factors
    "float": st.one_of(st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3)),
}


@st.composite
def sparse_actions(draw):
    """A sparse coefficient dict and one dense matrix per factor, all scalars
    from one lane, with zeros mixed into both."""
    scalar = LANES[draw(st.sampled_from(sorted(LANES)))]
    entry = st.one_of(st.just(0), scalar)
    matrices = []
    for _ in range(draw(st.integers(1, 3))):
        rows = list(range(draw(st.integers(1, 4))))
        cols = [f"c{j}" for j in range(draw(st.integers(1, 3)))]
        entries = draw(st.lists(st.lists(entry, min_size=len(cols), max_size=len(cols)),
                                min_size=len(rows), max_size=len(rows)))
        matrices.append((rows, cols, entries))
    keys = draw(st.lists(st.tuples(*(st.sampled_from(m[0]) for m in matrices)),
                         unique=True, max_size=10))
    coeffs = {key: draw(entry) for key in keys}
    return coeffs, matrices


def dense_act(coeffs, matrices):
    """Brute force: every output index combination against every input key,
    zero entries included, products left to right, sums in coeffs order.
    Also returns the outputs that some term without a zero entry reaches."""
    out, reached = {}, set()
    for cols in product(*(cs for _, cs, _ in matrices)):
        total = 0
        for key, c in coeffs.items():
            factors = [entries[rows.index(R)][cs.index(C)]
                       for (rows, cs, entries), R, C in zip(matrices, key, cols)]
            term = c
            for x in factors:
                term = term * x
            total = total + term
            if all(x != 0 for x in factors):
                reached.add(cols)
        out[cols] = total
    return out, reached


@given(sparse_actions())
@settings(max_examples=300, deadline=None)
def test_act_matches_dense_reference(spec):
    coeffs, matrices = spec
    got = act(coeffs, matrices)
    want, reached = dense_act(coeffs, matrices)
    assert set(got) == reached  # outputs that cancel to zero are kept
    for key, value in want.items():
        assert got.get(key, 0) == value
    for key, value in got.items():
        assert type(value) is type(want[key])
