"""Group elements and the psi matrices of minors.

The coaction of GL(m) on Lambda^(p+1) is the compound matrix of minors;
composing with the interior product by the basepoint v0 keeps exactly the
minors whose column set contains column 0.  That composition is the psi
map, realized here as an explicit matrix: rows are indexed by (p+1)-subsets
of {0..m-1}, columns by p-subsets of {1..m-1}, and the entry at (R, J) is
the minor of g at rows R and columns {0} | J.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .exterior import index_subsets, minor
from .scalars import scalar_from_json, scalar_to_json


class SingularMatrixError(ValueError):
    pass


class GroupElement:
    """Invertible m x m matrix; a weighted frame."""

    __slots__ = ("dim", "entries", "_det", "_inverse")

    def __init__(self, entries):
        rows = tuple(tuple(r) for r in entries)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("GroupElement entries must be square")
        self.dim = n
        self.entries = rows
        self._det = linalg.det([list(r) for r in rows])
        if self._det == 0:
            raise SingularMatrixError("GroupElement must be invertible")
        self._inverse = None

    @classmethod
    def identity(cls, dim: int):
        return cls(linalg.identity(dim))

    def det(self):
        return self._det

    def inverse(self) -> "GroupElement":
        """g^-1, computed on the first call and kept: a frame is immutable,
        and recovery projects every feature through the inverse of its view.
        The inverse does not point back at its frame, so no cycle is made."""
        if self._inverse is None:
            self._inverse = GroupElement(linalg.inverse([list(r) for r in self.entries]))
        return self._inverse

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch in group multiplication")
        return GroupElement(
            linalg.mat_mul([list(r) for r in self.entries], [list(r) for r in other.entries])
        )

    def apply(self, v):
        """Matrix-vector action on column vectors."""
        return linalg.mat_vec([list(r) for r in self.entries], list(v))

    def basepoint(self):
        """Image of the basepoint v0: the first column."""
        return [row[0] for row in self.entries]

    def __eq__(self, other):
        return isinstance(other, GroupElement) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"GroupElement({self.entries!r})"

    def to_json(self):
        return [[scalar_to_json(x) for x in row] for row in self.entries]

    @classmethod
    def from_json(cls, obj):
        return cls([[scalar_from_json(x) for x in row] for row in obj])


def random_frame(m: int, rng) -> GroupElement:
    """Random invertible m x m frame with integer entries in [-5, 5], held
    as Fractions; singular draws are redrawn."""
    while True:
        entries = [[Fraction(rng.randint(-5, 5)) for _ in range(m)] for _ in range(m)]
        try:
            return GroupElement(entries)
        except SingularMatrixError:
            continue


def compound_matrix(g, p: int):
    """Induced action of g on Lambda^(p+1): the matrix of (p+1)-minors.

    Row R, column C entry is minor(g, rows=R, cols=C), over all
    (p+1)-subsets in lexicographic order.
    """
    m = g.dim
    if not 1 <= p + 1 <= m:
        raise ValueError(f"compound order {p + 1} out of range for dim {m}")
    subsets = index_subsets(m, p + 1)
    return [[minor(g, R, C) for C in subsets] for R in subsets]


class PsiMatrix:
    """Matrix form of psi_p for a fixed group element."""

    __slots__ = ("dim", "degree", "rows", "cols", "entries")

    def __init__(self, dim: int, degree: int, entries):
        self.dim = dim
        self.degree = degree
        self.rows = index_subsets(dim, degree + 1)
        self.cols = index_subsets(dim, degree, start=1)
        self.entries = entries

    def row(self, R):
        return list(self.entries[self.rows.index(tuple(R))])


def psi(g: GroupElement, p: int) -> PsiMatrix:
    """The psi_p matrix: entry (R, J) = minor(g, rows=R, cols={0} | J)."""
    m = g.dim
    if not 0 <= p <= m - 1:
        raise ValueError(f"psi degree {p} out of range for dim {m}")
    rows = index_subsets(m, p + 1)
    cols = index_subsets(m, p, start=1)
    entries = [[minor(g, R, (0,) + J) for J in cols] for R in rows]
    return PsiMatrix(m, p, entries)
