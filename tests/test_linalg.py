"""linalg.nullspace (multi-modular, certified) against the basis read off
linalg.rref, which stays the plain rational Gauss-Jordan reference;
linalg.det against the Leibniz formula; and the cofactor adjugate and
inverse against their defining identities."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mft import linalg
from mft.euclidean import MotionMode, embed, random_motion

FIRST_PRIME, SECOND_PRIME = itertools.islice(linalg._primes(), 2)

small = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def rref_basis(a):
    """The nullspace basis as read off rref: 1 on each free column, minus
    the RREF column on the pivot columns."""
    ncols = len(a[0])
    red, pivots = linalg.rref(a)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[f] = 1
        for r, c in enumerate(pivots):
            v[c] = -red[r][f]
        basis.append(v)
    return basis


def assert_rref_kernel(a):
    basis = linalg.nullspace(a)
    expected = rref_basis(a)
    assert basis == expected
    # bit-identical: same scalar types too (int on free columns, Fraction on pivots)
    assert [[type(x) for x in v] for v in basis] == [[type(x) for x in v] for v in expected]
    for v in basis:
        assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in a)
    return basis


@st.composite
def planted_rank(draw, max_rows=7, max_cols=7):
    """L @ R with inner dimension k (rank at most k), plus zero and
    duplicated rows; rows may outnumber columns."""
    nrows = draw(st.integers(1, max_rows))
    ncols = draw(st.integers(1, max_cols))
    k = draw(st.integers(0, min(nrows, ncols)))
    left = draw(st.lists(st.lists(small, min_size=k, max_size=k), min_size=nrows, max_size=nrows))
    right = draw(st.lists(st.lists(small, min_size=ncols, max_size=ncols), min_size=k, max_size=k))
    a = [
        [sum((row[t] * right[t][j] for t in range(k)), Fraction(0)) for j in range(ncols)]
        for row in left
    ]
    extra = draw(st.lists(st.sampled_from(["zero", "duplicate"]), max_size=3))
    for kind in extra:
        a.append([Fraction(0)] * ncols if kind == "zero" else list(draw(st.sampled_from(a))))
    return draw(st.permutations(a))


@given(planted_rank())
@settings(max_examples=200, deadline=None)
def test_nullspace_is_rref_basis(a):
    assert_rref_kernel(a)


@given(planted_rank(max_rows=5, max_cols=6), st.sampled_from([FIRST_PRIME, SECOND_PRIME]),
       st.data())
@settings(max_examples=100, deadline=None)
def test_nullspace_with_unlucky_prime(a, p, data):
    """Adding multiples of p leaves the matrix unchanged modulo p but
    (generically) raises its rank over Q.  The second prime is unlucky after
    a lucky first one, and must not be mixed into the lift."""
    ncols = len(a[0])
    shift = data.draw(
        st.lists(st.lists(st.integers(-2, 2), min_size=ncols, max_size=ncols),
                 min_size=len(a), max_size=len(a))
    )
    b = [[x + p * s for x, s in zip(row, srow)] for row, srow in zip(a, shift)]
    assert_rref_kernel(b)


def kernel_mod_reference(rows, ncols, p):
    """Gauss-Jordan over GF(p) on Python ints: the loop that
    linalg._kernel_mod runs on int64 arrays."""
    m = [[x % p for x in row] for row in rows]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        i = next((i for i in range(r, len(m)) if m[i][col]), None)
        if i is None:
            continue
        m[r], m[i] = m[i], m[r]
        inv = pow(m[r][col], -1, p)
        m[r] = [x * inv % p for x in m[r]]
        for k in range(len(m)):
            if k != r and m[k][col]:
                f = m[k][col]
                m[k] = [(x - f * y) % p for x, y in zip(m[k], m[r])]
        pivots.append(col)
    free = [c for c in range(ncols) if c not in pivots]
    return pivots, [[-m[i][f] % p for i in range(len(pivots))] for f in free]


@given(st.integers(1, 6), st.integers(1, 6), st.data())
@settings(max_examples=100, deadline=None)
def test_nullspace_entries_minus_one_mod_first_prime(nrows, ncols, data):
    """Every residue mod the first prime is p - 1, the largest there is, so
    the int64 products reach (p - 1)**2, just below 2**62."""
    a = data.draw(st.lists(
        st.lists(st.integers(-2, 2).map(lambda k: k * FIRST_PRIME - 1),
                 min_size=ncols, max_size=ncols),
        min_size=nrows, max_size=nrows))
    assert_rref_kernel(a)
    for p in (FIRST_PRIME, SECOND_PRIME):
        assert linalg._kernel_mod(a, ncols, p) == kernel_mod_reference(a, ncols, p)


# the two primes nullspace reduces modulo first, and two primes near 2**62
# (above the int64 bound of _kernel_mod), whose multiples must be reduced
# exactly before they reach the int64 arrays
@pytest.mark.parametrize("p", [FIRST_PRIME, SECOND_PRIME, 2**62 - 87, 2**62 - 57])
def test_prime_dividing_the_pivot_column(p):
    # mod p the pivot moves from column 0 to column 1
    assert assert_rref_kernel([[p, 1, 0]]) == [[Fraction(-1, p), 1, 0], [Fraction(0), 0, 1]]
    # mod p the rank drops from 2 to 1
    assert assert_rref_kernel([[p, 0], [0, 1]]) == []
    # a rational pivot entry with the prime in its denominator
    assert assert_rref_kernel([[Fraction(1, p), 3, Fraction(p, 7)]])


def test_certificate_rejects_a_kernel_basis_not_in_reduced_form():
    rows = [[1, 1, 0]]
    assert linalg._certified(rows, [1, 2], [[Fraction(-1), 1, 0], [Fraction(0), 0, 1]])
    # kernel vectors, identity on the claimed free columns 0 and 2, but the
    # first is nonzero after its free column: column 0 is a pivot over Q
    assert not linalg._certified(rows, [0, 2], [[1, Fraction(-1), 0], [0, Fraction(0), 1]])
    # kernel vector that is nonzero on another free column
    assert not linalg._certified(rows, [1, 2], [[Fraction(-1), 1, 1], [Fraction(0), 0, 1]])
    # not a kernel vector
    assert not linalg._certified(rows, [1, 2], [[Fraction(1), 1, 0], [Fraction(0), 0, 1]])


def test_nullspace_nullity_and_edge_cases():
    assert linalg.nullspace([]) == []
    assert assert_rref_kernel([[0, 0, 0], [0, 0, 0]]) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert assert_rref_kernel([[1, 2], [3, 4], [5, 6]]) == []
    assert len(assert_rref_kernel([[1, 2, 3, 4], [2, 4, 6, 8]])) == 3
    # large entries need several primes before reconstruction succeeds
    big = 3**200
    assert assert_rref_kernel([[big, big + 1, 7], [1, 2, big]])


def test_nullspace_rejects_floats():
    with pytest.raises(TypeError):
        linalg.nullspace([[1.0, 2.0]])
    with pytest.raises(TypeError):
        linalg.nullspace([[1, Fraction(1, 2)], [0.5, 1]])


def test_is_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert [n for n in range(2, 3000) if linalg._is_prime(n)] == [
        n for n in range(2, 3000) if trial(n)
    ]
    # strong pseudoprimes to small bases, and a Carmichael number
    for n in (2047, 3215031751, 3825123056546413051, 561):
        assert not linalg._is_prime(n)
    assert FIRST_PRIME == 2**31 - 1
    assert linalg._is_prime(2**61 - 1)


def leibniz_det(m):
    """Reference determinant: the sum over permutations, each signed by its
    inversion count."""
    total = 0
    for perm in itertools.permutations(range(len(m))):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(len(m)), 2))
        term = -1 if inversions % 2 else 1
        for row, col in enumerate(perm):
            term = term * m[row][col]
        total = total + term
    return total


SCALARS = {
    "int": st.integers(-20, 20),
    "fraction": small,
    "float": st.floats(-10, 10, allow_nan=False, allow_infinity=False),
}


@given(st.sampled_from(sorted(SCALARS)), st.integers(1, 5), st.data())
@settings(max_examples=200, deadline=None)
def test_det_matches_leibniz(kind, n, data):
    row = st.lists(SCALARS[kind], min_size=n, max_size=n)
    m = data.draw(st.lists(row, min_size=n, max_size=n))
    got, expected = linalg.det(m), leibniz_det(m)
    if kind == "float":
        # relative to Hadamard's bound, the largest |det| these rows allow
        scale = math.prod(math.sqrt(sum(x * x for x in r)) for r in m)
        assert abs(got - expected) <= 1e-9 * max(scale, 1.0)
    else:
        assert got == expected
        if kind == "int" and n <= 3:
            assert type(got) is int


def test_rref_rejects_floats():
    with pytest.raises(TypeError):
        linalg.rref([[1.0, 2.0]])
    with pytest.raises(TypeError):
        linalg.rank([[1, Fraction(1, 2)], [0.5, 1]])


def square(n):
    return st.lists(st.lists(small, min_size=n, max_size=n), min_size=n, max_size=n)


@given(st.integers(1, 5).flatmap(square))
@settings(max_examples=150, deadline=None)
def test_adjugate_and_inverse_identities(a):
    n = len(a)
    adj = linalg.adjugate(a)
    d = linalg.det(a)
    scaled = [[d if i == j else 0 for j in range(n)] for i in range(n)]
    assert linalg.mat_mul(adj, a) == scaled
    assert linalg.mat_mul(a, adj) == scaled
    if d == 0:
        with pytest.raises(ValueError):
            linalg.inverse(a)
    else:
        inv = linalg.inverse(a)
        assert linalg.mat_mul(inv, a) == linalg.mat_mul(a, inv) == linalg.identity(n)
        assert all(type(x) is Fraction for row in inv for x in row)


@st.composite
def singular_square(draw):
    """L @ R with L n x k and R k x n, k < n: a square matrix of rank < n."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(0, n - 1))
    left = draw(st.lists(st.lists(small, min_size=k, max_size=k), min_size=n, max_size=n))
    right = draw(st.lists(st.lists(small, min_size=n, max_size=n), min_size=k, max_size=k))
    return [[sum((row[t] * right[t][j] for t in range(k)), Fraction(0)) for j in range(n)]
            for row in left]


@given(singular_square())
@settings(max_examples=100, deadline=None)
def test_inverse_raises_on_singular_input(a):
    with pytest.raises(ValueError):
        linalg.inverse(a)


@given(st.integers(0, 2**32))
@settings(max_examples=25, deadline=None)
def test_inverse_of_a_haar_frame_is_all_float(seed):
    g = embed(random_motion(seed, mode=MotionMode.FLOAT_HAAR))
    inv = linalg.inverse(g.entries)
    assert all(type(x) is float for row in inv for x in row)
    prod = linalg.mat_mul(inv, g.entries)
    assert all(abs(prod[i][j] - (i == j)) <= 1e-12 for i in range(4) for j in range(4))
