"""Catalog of the relative GL-invariant tensors driving the construction.

Each invariant is a sparse coefficient array over tuples of index subsets,
one subset per tensor factor.  transform, the GL-action, is ``coaction.act``
on the compound minors of g^-1.  The weight is the integer k with
g . I = det(g)^k I.  Homogeneity fixes it: a scalar g = c 1 acts on each
factor Lambda^s V* by c^-s and has det c^dim, so k = -sum(signature) / dim.
check_weight verifies that k exactly on random frames.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations

from .coaction import GroupElement, _primitive_frame, act, random_frame
from .exterior import index_subsets, merge_sign, minor, perm_sign
from .linalg import adjugate
from .scalars import div, scalar_to_json


class InvarianceViolationError(ValueError):
    """Raised when a claimed invariant fails the det-power equivariance test."""

    def __init__(self, message, g=None):
        super().__init__(message)
        self.g = g


class Invariant:
    """Sparse tensor in Lambda^(s1) V* x .. x Lambda^(sn) V*."""

    __slots__ = ("dim", "signature", "coeffs", "name")

    def __init__(self, dim: int, signature, coeffs, name: str = ""):
        self.dim = dim
        self.signature = tuple(signature)
        clean = {}
        for key, c in coeffs.items():
            key = tuple(tuple(k) for k in key)
            if len(key) != len(self.signature):
                raise ValueError("coefficient key arity mismatch")
            for part, s in zip(key, self.signature):
                if len(part) != s:
                    raise ValueError(f"key part {part} has length != {s}")
            if c != 0:
                clean[key] = c
        if not clean:
            raise ValueError("invariant must have a nonzero coefficient")
        self.coeffs = clean
        self.name = name

    @property
    def degrees(self):
        """The tuple (p1, .., pn) with signature components p_i + 1."""
        return tuple(s - 1 for s in self.signature)

    def arity(self):
        return len(self.signature)

    def to_json(self):
        return {
            "dim": self.dim,
            "signature": list(self.signature),
            "name": self.name,
            "coeffs": {
                ";".join(",".join(map(str, part)) for part in key): scalar_to_json(c)
                for key, c in sorted(self.coeffs.items())
            },
        }


def invariant_wedge_pair(m: int, p1: int, p2: int) -> Invariant:
    """The two-factor wedge pairing: coefficient on (R, S) is the sign of
    sorting R + S when R and S partition {0..m-1}, else zero."""
    if min(p1, p2) < 0 or p1 + p2 + 2 != m:
        raise ValueError(f"wedge pair needs p1, p2 >= 0 and p1+p2+2 == m, got ({m}, {p1}, {p2})")
    coeffs = {}
    for R in index_subsets(m, p1 + 1):
        comp = tuple(sorted(set(range(m)) - set(R)))
        merged = merge_sign(R, comp)
        assert merged is not None
        coeffs[(R, comp)] = merged[0]
    return Invariant(m, (p1 + 1, p2 + 1), coeffs, name=f"wedge:{m},{p1},{p2}")


def invariant_bifocal() -> Invariant:
    """The dim-4 line-line pairing behind fundamental/essential matrices."""
    inv = invariant_wedge_pair(4, 1, 1)
    inv.name = "bifocal"
    return inv


def invariant_trifocal() -> Invariant:
    """The (3,2,3)-signature invariant in dim 4, expanded from the
    antisymmetric sandwich of signed complementary 3-forms."""
    # row/column vectors: slot i carries (-1)^i e_{complement(i)}
    side = []
    for i in range(4):
        comp = tuple(j for j in range(4) if j != i)
        side.append((comp, 1 if i % 2 == 0 else -1))
    coeffs = {}
    for i in range(4):
        for j in range(4):
            if i == j:
                continue
            mid = (min(i, j), max(i, j))
            eps = 1 if i < j else -1
            key = (side[i][0], mid, side[j][0])
            coeffs[key] = coeffs.get(key, 0) + side[i][1] * side[j][1] * eps
    return Invariant(4, (3, 2, 3), coeffs, name="trifocal")


def invariant_quadrifocal() -> Invariant:
    """Four-factor invariant of 3-forms in dim 4: the determinant of the
    four signed complementary covectors.

    Convention: e_R maps to sign(R + (c,)) times the covector at the
    complementary index c; the coefficient on a 4-tuple is the product of
    those signs times the sign of the permutation of complements.
    """
    comp_sign = {}
    for c in range(4):
        R = tuple(j for j in range(4) if j != c)
        jumps = sum(1 for r in R if r > c)  # c moves from the end past these
        comp_sign[R] = (c, 1 if jumps % 2 == 0 else -1)
    coeffs = {}
    for perm in permutations(range(4)):
        key = []
        total = perm_sign(perm)
        for c in perm:
            R = tuple(j for j in range(4) if j != c)
            key.append(R)
            total *= comp_sign[R][1]
        coeffs[tuple(key)] = total
    return Invariant(4, (3, 3, 3, 3), coeffs, name="quadrifocal")


def transform(g: GroupElement, inv: Invariant) -> Invariant:
    """Action of g on a dual-side tensor: the tensor-product action of the
    compound minors of g^-1 = adj(G) / (u det G), G the primitive integer
    frame of g = u G.  ``act`` runs on the minors of adj(G), integral for an
    exact g, and each output is divided once by (u det G)^sum(signature)."""
    if g.dim != inv.dim:
        raise ValueError("dimension mismatch")
    rows, unit = _primitive_frame(g)
    adj = adjugate(rows)
    d = sum(rows[0][j] * adj[j][0] for j in range(g.dim))
    subsets = {s: index_subsets(inv.dim, s) for s in inv.signature}
    minors = {s: (S, S, [[minor(adj, R, C) for C in S] for R in S]) for s, S in subsets.items()}
    coeffs = act(inv.coeffs, [minors[s] for s in inv.signature])
    scale = div(1, (unit * d) ** sum(inv.signature))
    return Invariant(inv.dim, inv.signature, {k: c * scale for k, c in coeffs.items()}, name=inv.name)


def check_weight(inv: Invariant, trials: int = 20, seed: int = 0) -> int:
    """The integer k = -sum(signature) / dim, verified to satisfy
    g . I = det(g)^k I exactly over random rational group elements.  Raises
    InvarianceViolationError when dim does not divide the sum or a frame
    breaks the equation."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    k, rem = divmod(-sum(inv.signature), inv.dim)
    if rem:
        raise InvarianceViolationError(f"dim {inv.dim} does not divide -sum{inv.signature}")
    rng = random.Random(seed)
    for _ in range(trials):
        g = random_frame(inv.dim, rng)
        while abs(g.det()) == 1:  # with det(g) = +-1 every k fits up to sign
            g = random_frame(inv.dim, rng)
        d = Fraction(g.det())
        if transform(g, inv).coeffs != {key: c * d**k for key, c in inv.coeffs.items()}:
            raise InvarianceViolationError(f"g . I != det(g)^{k} I for {inv.name!r}", g=g)
    return k


WEDGE_MAX_DIM = 7  # mft invariant wedge:7,3,2 --weight --trials 10: 6.6 s on 2 vCPUs
CATALOG = {
    "bifocal": invariant_bifocal,
    "trifocal": invariant_trifocal,
    "quadrifocal": invariant_quadrifocal,
}


def catalog_lookup(name: str) -> Invariant:
    """Resolve an invariant by CLI-style name, including wedge:m,p1,p2 with
    m <= WEDGE_MAX_DIM, checked before any index subset is built."""
    if name in CATALOG:
        return CATALOG[name]()
    if name.startswith("wedge:"):
        parts = name[len("wedge:") :].split(",")
        if len(parts) != 3:
            raise ValueError(f"bad wedge invariant spec {name!r}")
        m, p1, p2 = (int(s) for s in parts)
        if m > WEDGE_MAX_DIM:
            raise ValueError(f"wedge invariants need m <= {WEDGE_MAX_DIM}, got {m}")
        return invariant_wedge_pair(m, p1, p2)
    raise ValueError(f"unknown invariant {name!r}")
