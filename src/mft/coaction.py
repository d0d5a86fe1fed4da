"""Group elements, psi matrices of minors, and the one tensor-product action.

The coaction of GL(m) on Lambda^(p+1) is the compound matrix of minors;
composing with the interior product by the basepoint v0 keeps exactly the
minors whose column set contains column 0.  That composition is the psi
map, realized here as an explicit matrix: rows are indexed by (p+1)-subsets
of {0..m-1}, columns by p-subsets of {1..m-1}, and the entry at (R, J) is
the minor of g at rows R and columns {0} | J.

``act`` applies one matrix per factor to a sparse tensor.  multifocal is
``act`` on the psi matrices of its frames, transform is ``act`` on the
compound minors of g^-1, and lift and project_line are one-factor calls on
a compound matrix through ``compound_action``.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .exterior import Multivector, index_subsets, minor
from .scalars import is_exact, primitive, scalar_from_json, scalar_to_json


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
        self._det = linalg.det(rows)
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
            self._inverse = GroupElement(linalg.inverse(self.entries))
        return self._inverse

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch in group multiplication")
        return GroupElement(linalg.mat_mul(self.entries, other.entries))

    def apply(self, v):
        """Matrix-vector action on column vectors."""
        return linalg.mat_vec(self.entries, list(v))

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
        """A square list of rows of scalars, else ValueError."""
        if not isinstance(obj, list) or not all(isinstance(row, list) for row in obj):
            raise ValueError(f"a frame must be a list of rows of scalars, got {obj!r}")
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


def _primitive_frame(g: GroupElement):
    """(rows, unit) with g.entries == unit * rows: the primitive integer frame
    when every entry is exact, else the entries themselves and unit 1."""
    flat = [x for row in g.entries for x in row]
    if not all(map(is_exact, flat)):
        return g.entries, 1
    ints, unit = primitive(flat)
    return [ints[i : i + g.dim] for i in range(0, len(ints), g.dim)], unit


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


def compound_action(g: GroupElement, v: Multivector) -> Multivector:
    """g acting on a multivector through its compound matrix: ``act`` with
    the minors' columns, summed and returned in lexicographic order."""
    subsets = index_subsets(g.dim, v.degree)
    columns = list(zip(*compound_matrix(g, v.degree - 1)))
    moved = act({(C,): x for C, x in sorted(v.coeffs.items())}, [(subsets, subsets, columns)])
    return Multivector(g.dim, v.degree, {R: x for (R,), x in sorted(moved.items())})


def act(coeffs, matrices):
    """{(C1..Cn): sum of c * M1[R1][C1] * .. * Mn[Rn][Cn]} over the items
    ((R1..Rn), c) of ``coeffs``, where ``matrices[i]`` is (row keys, column
    keys, rows) of Mi.  Zero entries are skipped, products run left to right
    with each shared prefix multiplied once, and each output adds its terms
    in ``coeffs`` order; outputs that cancel to zero are kept."""
    tables = [
        {R: [(C, x) for C, x in zip(cols, row) if x != 0] for R, row in zip(rows, entries)}
        for rows, cols, entries in matrices
    ]
    out = {}
    for key, c in coeffs.items():
        terms = [((), c)]
        for table, R in zip(tables, key):
            terms = [(prefix + (C,), v * x) for prefix, v in terms for C, x in table[R]]
        for k, v in terms:
            out[k] = out.get(k, 0) + v
    return out
