"""Exterior algebra over k^m: multivectors, wedge products, and minors.

Index subsets are stored as strictly increasing tuples of ints in
``[0, m)``; the basis of each graded piece is ordered lexicographically on
those tuples (e01, e02, e03, e12, e13, e23 for m=4, degree 2).  All values
are immutable after construction and every operation is pure.
"""

from __future__ import annotations

from itertools import combinations

from . import linalg
from .scalars import TOL, is_zero, scalar_from_json, scalar_to_json


class DimensionMismatchError(ValueError):
    pass


class DegreeOverflowError(ValueError):
    pass


class UnsupportedDegreeError(ValueError):
    pass


def index_subsets(m: int, p: int, start: int = 0):
    """All strictly increasing p-tuples over [start, m), lexicographic."""
    return list(combinations(range(start, m), p))


def merge_sign(a: tuple, b: tuple):
    """Sign and merged tuple of the concatenation a + b, or None on overlap.

    The sign is (-1)^(number of transpositions) needed to sort a + b.
    Both inputs must already be strictly increasing.
    """
    if set(a) & set(b):
        return None
    sign = 1
    for i, x in enumerate(a):
        # count elements of b smaller than x; x must jump over all of them
        jumps = sum(1 for y in b if y < x)
        if jumps % 2:
            sign = -sign
    merged = tuple(sorted(a + b))
    return sign, merged


def perm_sign(perm) -> int:
    """Sign of a permutation of range(n): (-1)^(number of inversions)."""
    inversions = sum(1 for i, j in combinations(range(len(perm)), 2) if perm[i] > perm[j])
    return -1 if inversions % 2 else 1


def _check_key(idxs, dim, degree):
    idxs = tuple(idxs)
    if len(idxs) != degree:
        raise ValueError(f"index tuple {idxs} has wrong length for degree {degree}")
    if any(not 0 <= i < dim for i in idxs):
        raise ValueError(f"index tuple {idxs} out of range for dim {dim}")
    if any(idxs[i] >= idxs[i + 1] for i in range(len(idxs) - 1)):
        raise ValueError(f"index tuple {idxs} is not strictly increasing")
    return idxs


class Multivector:
    """Element of Lambda^p (k^m), stored sparsely by sorted index subset."""

    __slots__ = ("dim", "degree", "coeffs")

    def __init__(self, dim: int, degree: int, coeffs=None):
        if not 0 <= degree <= dim:
            raise ValueError(f"degree {degree} out of range for dim {dim}")
        self.dim = dim
        self.degree = degree
        clean = {}
        for idxs, c in (coeffs or {}).items():
            key = _check_key(idxs, dim, degree)
            if c != 0:
                clean[key] = c
        self.coeffs = clean

    @classmethod
    def basis(cls, dim: int, idxs):
        return cls(dim, len(tuple(idxs)), {tuple(idxs): 1})

    @classmethod
    def from_vector(cls, v, offset: int = 0, dim: int | None = None):
        """Degree-1 multivector with coefficient v[i] on index i + offset."""
        dim = dim if dim is not None else len(v) + offset
        return cls(dim, 1, {(i + offset,): c for i, c in enumerate(v) if c != 0})

    def coeff(self, idxs):
        return self.coeffs.get(tuple(idxs), 0)

    def is_zero(self, tol: float = TOL) -> bool:
        return all(is_zero(c, tol) for c in self.coeffs.values())

    def __add__(self, other):
        self._compat(other)
        coeffs = dict(self.coeffs)
        for k, c in other.coeffs.items():
            coeffs[k] = coeffs.get(k, 0) + c
        return Multivector(self.dim, self.degree, coeffs)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Multivector(self.dim, self.degree, {k: -c for k, c in self.coeffs.items()})

    def __mul__(self, s):
        return Multivector(self.dim, self.degree, {k: c * s for k, c in self.coeffs.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, Multivector)
            and self.dim == other.dim
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.dim, self.degree, tuple(sorted(self.coeffs.items()))))

    def __repr__(self):
        if not self.coeffs:
            return f"Multivector({self.dim}, {self.degree}, 0)"
        terms = " + ".join(
            f"{c}*e{''.join(map(str, k))}" for k, c in sorted(self.coeffs.items())
        )
        return f"Multivector({terms})"

    def _compat(self, other):
        if self.dim != other.dim:
            raise DimensionMismatchError(f"dims {self.dim} != {other.dim}")
        if self.degree != other.degree:
            raise DimensionMismatchError(f"degrees {self.degree} != {other.degree}")

    def __xor__(self, other):
        return wedge(self, other)

    def to_json(self):
        return {
            "dim": self.dim,
            "degree": self.degree,
            "coeffs": {
                ",".join(map(str, k)): scalar_to_json(c)
                for k, c in sorted(self.coeffs.items())
            },
        }

    @classmethod
    def from_json(cls, obj):
        coeffs = {}
        for key, v in obj["coeffs"].items():
            idxs = tuple(int(s) for s in key.split(",")) if key else ()
            coeffs[idxs] = scalar_from_json(v)
        return cls(obj["dim"], obj["degree"], coeffs)


def wedge(a: Multivector, b: Multivector) -> Multivector:
    """Exterior product; raises DegreeOverflowError when p + q > m."""
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dims {a.dim} != {b.dim}")
    degree = a.degree + b.degree
    if degree > a.dim:
        raise DegreeOverflowError(
            f"wedge degree {a.degree}+{b.degree} exceeds dim {a.dim}"
        )
    coeffs = {}
    for ka, ca in a.coeffs.items():
        for kb, cb in b.coeffs.items():
            merged = merge_sign(ka, kb)
            if merged is None:
                continue
            sign, key = merged
            coeffs[key] = coeffs.get(key, 0) + sign * ca * cb
    return Multivector(a.dim, degree, coeffs)


def _entries(g):
    # accepts GroupElement or a raw nested list
    return g.entries if hasattr(g, "entries") else g


def minor(g, rows, cols):
    """Determinant of the submatrix of g at the given rows and columns."""
    rows = tuple(rows)
    cols = tuple(cols)
    if len(rows) != len(cols):
        raise ValueError(f"minor needs equal row/col counts, got {rows} vs {cols}")
    m = _entries(g)
    return linalg.det([[m[r][c] for c in cols] for r in rows])


def is_decomposable(a: Multivector, tol: float = TOL) -> bool:
    """True iff a is a wedge of degree-1 elements.

    Degrees 0, 1, m-1, m are automatically decomposable; degree 2 uses the
    Pluecker test a ^ a = 0.  Other degrees do not occur in this package.
    """
    p, m = a.degree, a.dim
    if p in (0, 1) or p >= m - 1:
        return True
    if p == 2:
        return wedge(a, a).is_zero(tol)
    raise UnsupportedDegreeError(f"decomposability test unsupported for degree {p}")
