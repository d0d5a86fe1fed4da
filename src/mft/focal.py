"""The main construction: contracting psi matrices against an invariant.

multifocal(I, frames) is the one tensor-product action ``coaction.act`` on
the psi matrices of the frames, giving an n-way array with axis i indexed by
p_i-subsets of {1..m-1}.  For dim 4 and the cataloged invariants these are
the bifocal (essential/fundamental), trifocal, and quadrifocal tensors.
"""

from __future__ import annotations

import enum
import math
from itertools import product

from .coaction import GroupElement, act, compound_action, psi
from .exterior import DimensionMismatchError, Multivector, index_subsets
from .invariants import Invariant
from .scalars import TOL, is_zero, scalar_from_json, scalar_to_json


class FocalTensor:
    """n-way array over Lambda^(p_i) of the quotient space W, axis i of
    dimension C(m-1, p_i); stored un-normalized (a weighted representative).

    The cells are one flat list in row-major order (last axis fastest), each
    axis running over its subsets in lexicographic order."""

    __slots__ = ("dim", "signature", "axes", "values", "_positions", "_strides")

    def __init__(self, dim: int, signature, values):
        self.dim = dim
        self.signature = tuple(signature)
        self.axes = [index_subsets(dim, p, start=1) for p in self.signature]
        self._positions = [{J: i for i, J in enumerate(axis)} for axis in self.axes]
        shape = [len(a) for a in self.axes]
        self._strides = [math.prod(shape[i + 1 :]) for i in range(len(shape))]
        self.values = list(values)
        if len(self.values) != math.prod(shape):
            raise ValueError(f"{len(self.values)} values do not fill axes {shape}")

    @classmethod
    def zeros(cls, dim: int, signature):
        size = math.prod(len(index_subsets(dim, p, start=1)) for p in signature)
        return cls(dim, signature, [0] * size)

    def _offset(self, subsets):
        return sum(s * pos[tuple(J)] for s, pos, J in zip(self._strides, self._positions, subsets))

    def get(self, *subsets):
        return self.values[self._offset(subsets)]

    def set(self, subsets, value):
        self.values[self._offset(subsets)] = value

    def cells(self):
        """Iterate (index tuple of subsets, value) in lexicographic order."""
        return zip(product(*self.axes), self.values)

    def flat(self):
        """Row-major flattening in lexicographic axis order (a copy)."""
        return list(self.values)

    @classmethod
    def from_flat(cls, dim, signature, values):
        return cls(dim, signature, values)

    def scale(self, s):
        return FocalTensor(self.dim, self.signature, [v * s for v in self.values])

    def max_abs(self):
        return max((abs(v) for v in self.values), default=0)

    def is_zero(self, tol: float = TOL):
        return all(is_zero(v, tol) for v in self.values)

    def __eq__(self, other):
        return (
            isinstance(other, FocalTensor)
            and self.dim == other.dim
            and self.signature == other.signature
            and self.values == other.values
        )

    def __repr__(self):
        return f"FocalTensor(dim={self.dim}, signature={self.signature})"

    def to_json(self):
        """``data`` nests the cells one list level per axis."""

        def nest(level, offset):
            if level == len(self.axes):
                return scalar_to_json(self.values[offset])
            step = self._strides[level]
            return [nest(level + 1, offset + i * step) for i in range(len(self.axes[level]))]

        return {"dim": self.dim, "signature": list(self.signature), "data": nest(0, 0)}

    @classmethod
    def from_json(cls, obj):
        """Inverse of to_json; every level of ``data`` must have its axis'
        length and every cell must be a scalar, else ValueError."""
        dim, signature = obj["dim"], obj["signature"]
        if type(dim) is not int or not isinstance(signature, list) or any(
            type(p) is not int for p in signature
        ):
            raise ValueError("tensor dim and signature must be integers")
        shape = [len(index_subsets(dim, p, start=1)) for p in signature]
        values = []

        def walk(node, level):
            if level == len(shape):
                values.append(scalar_from_json(node))
            elif isinstance(node, list) and len(node) == shape[level]:
                for x in node:
                    walk(x, level + 1)
            else:
                raise ValueError(f"tensor data does not match axes {shape}")

        walk(obj["data"], 0)
        return cls(dim, signature, values)


class Section(enum.Enum):
    CHAIN = "chain"
    TRIFOCAL_INVERSE = "trifocal-inverse"


def multifocal(I: Invariant, frames) -> FocalTensor:
    """Contract the tensor product of psi(g_i, p_i) against I."""
    frames = list(frames)
    if len(frames) != I.arity():
        raise ValueError(
            f"invariant arity {I.arity()} != number of frames {len(frames)}"
        )
    if any(g.dim != I.dim for g in frames):
        raise DimensionMismatchError("frame dimension differs from invariant")
    psis = [psi(g, p) for g, p in zip(frames, I.degrees)]
    sums = act(I.coeffs, [(ps.rows, ps.cols, ps.entries) for ps in psis])
    cells = product(*(ps.cols for ps in psis))  # row-major, as FocalTensor stores them
    return FocalTensor(I.dim, I.degrees, [sums.get(key, 0) for key in cells])


def apply_section(frames_relative, convention: Section):
    """Expand n-1 relative frames into an n-tuple of absolute frames.

    CHAIN: (b1, .., b_{n-1}) -> (b_{n-1}..b2 b1, .., b_{n-1}, id).
    TRIFOCAL_INVERSE (n=3 only): (g1, g2) -> (g1^-1, id, g2^-1).
    """
    frames_relative = list(frames_relative)
    if not frames_relative:
        raise ValueError("need at least one relative frame")
    dim = frames_relative[0].dim
    if convention is Section.CHAIN:
        # slot i (1-based, i < n) holds the suffix product b_{n-1} .. b_i
        result = []
        for i in range(1, len(frames_relative) + 1):
            acc = GroupElement.identity(dim)
            for b in reversed(frames_relative[i - 1 :]):
                acc = acc @ b
            result.append(acc)
        result.append(GroupElement.identity(dim))
        return result
    if convention is Section.TRIFOCAL_INVERSE:
        if len(frames_relative) != 2:
            raise ValueError("TRIFOCAL_INVERSE needs exactly 2 relative frames")
        g1, g2 = frames_relative
        return [g1.inverse(), GroupElement.identity(dim), g2.inverse()]
    raise ValueError(f"unknown section convention {convention!r}")


def contract(t: FocalTensor, cs):
    """Full contraction of t against one W-multivector per axis."""
    cs = list(cs)
    if len(cs) != len(t.signature):
        raise ValueError("contraction arity mismatch")
    for c, p in zip(cs, t.signature):
        if c.degree != p:
            raise DimensionMismatchError(
                f"feature degree {c.degree} != axis degree {p}"
            )
        if any(0 in key for key in c.coeffs):
            raise ValueError("contraction features must avoid index 0")
    return _evaluate(t.cells(), cs)


def lift(g: GroupElement, c: Multivector) -> Multivector:
    """Transport an image-side multivector to the ambient space: apply the
    compound action of g to e0 ^ c."""
    m = g.dim
    if c.dim != m:
        raise DimensionMismatchError("dimension mismatch in lift")
    base = Multivector(m, c.degree + 1, {(0,) + key: val for key, val in c.coeffs.items()})
    return compound_action(g, base)


def incidence(I: Invariant, ds):
    """Evaluate I on a tuple of ambient multivectors by coefficient
    contraction; zero exactly at the incident configurations."""
    ds = list(ds)
    if len(ds) != I.arity():
        raise ValueError("incidence arity mismatch")
    for d, s in zip(ds, I.signature):
        if d.degree != s:
            raise DimensionMismatchError(f"degree {d.degree} != factor degree {s}")
    return _evaluate(I.coeffs.items(), ds)


def _evaluate(cells, vectors):
    """Sum over (key, value) cells of the value times the coefficient of
    vectors[i] at key[i] for every i; zero terms stop early."""
    total = 0
    for key, val in cells:
        if val == 0:
            continue
        for d, J in zip(vectors, key):
            val = val * d.coeff(J)
            if val == 0:
                break
        total = total + val
    return total
