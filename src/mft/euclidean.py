"""Euclidean motions, their 4x4 embedding, and closed-form focal tensors.

A motion is a pair (r, u) with r special orthogonal 3x3 and u a
translation 3-vector, embedded as the block matrix with first row
(1, 0, 0, 0), first column (1, u1, u2, u3) and lower-right block r.

The closed forms here (essential matrix r^t a, trifocal -r (x) w + u (x) s)
are cross-checked against the general psi-contraction path; the tensor
coordinate identification between the two is frozen in
docs/CONVENTIONS.md.
"""

from __future__ import annotations

import enum
import math
import random
from fractions import Fraction
from itertools import product

from . import linalg
from .coaction import GroupElement
from .focal import FocalTensor
from .scalars import is_exact, is_zero, scalar_from_json, scalar_to_json


class OrthogonalityError(ValueError):
    pass


class MotionMode(enum.Enum):
    FLOAT_HAAR = "float-haar"
    CAYLEY_RATIONAL = "cayley-rational"


class EuclideanMotion:
    """Rigid motion (r, u): rotation r in SO(3) plus translation u."""

    __slots__ = ("r", "u")

    def __init__(self, r, u, check: bool = True):
        self.r = tuple(tuple(row) for row in r)
        self.u = tuple(u)
        if len(self.r) != 3 or any(len(row) != 3 for row in self.r) or len(self.u) != 3:
            raise ValueError("EuclideanMotion needs a 3x3 rotation and a 3-vector")
        if check:
            self._check_rotation()

    def _check_rotation(self):
        r = [list(row) for row in self.r]
        rtr = linalg.mat_mul(linalg.transpose(r), r)
        for i in range(3):
            for j in range(3):
                target = 1 if i == j else 0
                if not is_zero(rtr[i][j] - target, 1e-12):
                    raise OrthogonalityError(
                        f"r^t r differs from identity at ({i},{j}): {rtr[i][j]}"
                    )
        d = linalg.det(r)
        if not is_zero(d - 1, 1e-12):
            raise OrthogonalityError(f"det r = {d}, expected 1")

    @classmethod
    def identity(cls):
        return cls(linalg.identity(3), (0, 0, 0))

    def __eq__(self, other):
        return isinstance(other, EuclideanMotion) and self.r == other.r and self.u == other.u

    def __repr__(self):
        return f"EuclideanMotion(r={self.r!r}, u={self.u!r})"

    def to_json(self):
        exact = all(is_exact(x) for row in self.r for x in row)
        return {
            "r": [[scalar_to_json(x) for x in row] for row in self.r],
            "u": [scalar_to_json(x) for x in self.u],
            "repr": "rational" if exact else "float",
        }

    @classmethod
    def from_json(cls, obj):
        return cls(
            [[scalar_from_json(x) for x in row] for row in obj["r"]],
            [scalar_from_json(x) for x in obj["u"]],
        )


def embed(mo: EuclideanMotion) -> GroupElement:
    """4x4 block embedding: first row (1,0,0,0), first column translation."""
    rows = [[1, 0, 0, 0]]
    for i in range(3):
        rows.append([mo.u[i]] + list(mo.r[i]))
    return GroupElement(rows)


def compose(a: EuclideanMotion, b: EuclideanMotion) -> EuclideanMotion:
    """Group law matching the embedding: embed(a) @ embed(b) = embed(compose(a, b))."""
    r = linalg.mat_mul([list(x) for x in a.r], [list(x) for x in b.r])
    u = [a.u[i] + sum(a.r[i][j] * b.u[j] for j in range(3)) for i in range(3)]
    return EuclideanMotion(r, u, check=False)


def invert(mo: EuclideanMotion) -> EuclideanMotion:
    """(r, u) -> (r^t, -r^t u)."""
    rt = linalg.transpose([list(x) for x in mo.r])
    u = [-sum(rt[i][j] * mo.u[j] for j in range(3)) for i in range(3)]
    return EuclideanMotion(rt, u, check=False)


def skew(u):
    """The antisymmetric matrix [[0, u3, -u2], [-u3, 0, u1], [u2, -u1, 0]].

    Note the sign pattern: this is the transpose of the common [u]_x.
    """
    u1, u2, u3 = u
    return [[0 * u1, u3, -u2], [-u3, 0 * u1, u1], [u2, -u1, 0 * u1]]


def essential(mo: EuclideanMotion):
    """The Euclidean bifocal matrix r^t a(u), as a 3x3 nested list."""
    return linalg.mat_mul(linalg.transpose([list(x) for x in mo.r]), skew(mo.u))


# Identification between Lambda^2 of the image space and vectors, used to
# express the trifocal closed form in tensor coordinates.  Vector index i
# (1-based) corresponds to the signed 2-subset below; validated against the
# general construction (see docs/CONVENTIONS.md).
LAMBDA2_OF_VECTOR = {1: ((2, 3), 1), 2: ((1, 3), -1), 3: ((1, 2), 1)}
VECTOR_OF_LAMBDA2 = {J: (i, s) for i, (J, s) in LAMBDA2_OF_VECTOR.items()}


def trifocal_closed_form(a: EuclideanMotion, b: EuclideanMotion):
    """Identified 3x3x3 array M[i][j][k] with slice j equal to
    -r_j (x) w + u (x) s_j, for (r, u) = a and (s, w) = b."""
    r, u = a.r, a.u
    s, w = b.r, b.u
    return [
        [
            [-r[i][j] * w[k] + u[i] * s[k][j] for k in range(3)]
            for j in range(3)
        ]
        for i in range(3)
    ]


# (i, j, k, sign) per (2,1,2) cell in cell order, the 2-subsets sorted: the
# cell holds sign * M[i][j][k] of the identified array.
_AXIS = [VECTOR_OF_LAMBDA2[J] for J in sorted(VECTOR_OF_LAMBDA2)]
_IDENTIFICATION = [
    (i - 1, j, k - 1, s1 * s3) for (i, s1), j, (k, s3) in product(_AXIS, range(3), _AXIS)
]


def trifocal_euclidean(a: EuclideanMotion, b: EuclideanMotion) -> FocalTensor:
    """Euclidean trifocal tensor in focal-tensor coordinates (signature
    (2,1,2)), via the closed form and the frozen identification."""
    m = trifocal_closed_form(a, b)
    return FocalTensor(4, (2, 1, 2), [s * m[i][j][k] for i, j, k, s in _IDENTIFICATION])


def tensor_to_identified(t: FocalTensor):
    """Inverse of the identification used by trifocal_euclidean: focal
    (2,1,2) tensor to the 3x3x3 array in which the constraint corpus is
    stated."""
    if t.signature != (2, 1, 2) or t.dim != 4:
        raise ValueError("expected a dim-4 tensor of signature (2,1,2)")
    m = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    for (i, j, k, s), v in zip(_IDENTIFICATION, t.values):
        m[i][j][k] = s * v
    return m


def random_motion(seed=None, mode: MotionMode = MotionMode.FLOAT_HAAR, rng=None):
    """Random rigid motion; deterministic given a seed.

    FLOAT_HAAR samples the rotation Haar-uniformly via a random unit
    quaternion and the translation from a standard normal.
    CAYLEY_RATIONAL builds r = (I - S)(I + S)^-1 for a random rational skew
    S, which is exactly orthogonal with det 1.
    """
    if rng is None:
        rng = random.Random(seed)
    if mode is MotionMode.FLOAT_HAAR:
        q = [rng.gauss(0, 1) for _ in range(4)]
        n = math.sqrt(sum(x * x for x in q))
        q = [x / n for x in q]
        r = _quat_to_rot(q)
        u = [rng.gauss(0, 1) for _ in range(3)]
        return EuclideanMotion(r, u, check=False)
    if mode is MotionMode.CAYLEY_RATIONAL:
        # det(I + S) = 1 + s1^2 + s2^2 + s3^2 >= 1, so I + S is invertible
        s1, s2, s3 = (Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(3))
        S = [[0, s3, -s2], [-s3, 0, s1], [s2, -s1, 0]]
        IpS = [[Fraction(1 if i == j else 0) + S[i][j] for j in range(3)] for i in range(3)]
        ImS = [[Fraction(1 if i == j else 0) - S[i][j] for j in range(3)] for i in range(3)]
        r = linalg.mat_mul(ImS, linalg.inverse(IpS))
        u = [Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(3)]
        return EuclideanMotion(r, u)
    raise ValueError(f"unknown motion mode {mode!r}")


def _quat_to_rot(q):
    w, x, y, z = q
    return [
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ]
