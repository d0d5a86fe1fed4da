"""Polynomial differential forms Lambda^p (k^m)* tensor Sym^q (k^m)*.

A desk-scale model used to verify the Koszul / de Rham differential
calculus; dimensions and total degrees are capped accordingly.  Keys are
pairs (antisymmetric word, symmetric word): the antisymmetric part is a
strictly increasing index tuple, the symmetric part a sorted tuple with
multiplicity.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement

from .scalars import TOL, is_zero

MAX_DIM = 5
MAX_TOTAL_DEGREE = 5


def _check_anti(word, dim, p):
    word = tuple(word)
    if len(word) != p:
        raise ValueError(f"antisymmetric word {word} has length != {p}")
    if any(word[i] >= word[i + 1] for i in range(len(word) - 1)):
        raise ValueError(f"antisymmetric word {word} not strictly increasing")
    if any(not 0 <= i < dim for i in word):
        raise ValueError(f"index out of range in {word}")
    return word


def _check_sym(word, dim, q):
    word = tuple(word)
    if len(word) != q:
        raise ValueError(f"symmetric word {word} has length != {q}")
    if any(word[i] > word[i + 1] for i in range(len(word) - 1)):
        raise ValueError(f"symmetric word {word} not sorted")
    if any(not 0 <= i < dim for i in word):
        raise ValueError(f"index out of range in {word}")
    return word


class PolyForm:
    """Element of Lambda^p tensor S^q over k^m."""

    __slots__ = ("dim", "p", "q", "coeffs")

    def __init__(self, dim: int, p: int, q: int, coeffs=None):
        if dim > MAX_DIM or p + q > MAX_TOTAL_DEGREE:
            raise ValueError(
                f"PolyForm caps exceeded: dim {dim} (max {MAX_DIM}), "
                f"p+q {p + q} (max {MAX_TOTAL_DEGREE})"
            )
        if p < 0 or q < 0 or p > dim:
            raise ValueError(f"bad bidegree ({p}, {q}) for dim {dim}")
        self.dim = dim
        self.p = p
        self.q = q
        clean = {}
        for (anti, sym), c in (coeffs or {}).items():
            key = (_check_anti(anti, dim, p), _check_sym(sym, dim, q))
            if c != 0:
                clean[key] = clean.get(key, 0) + c
        self.coeffs = {k: c for k, c in clean.items() if c != 0}

    @classmethod
    def term(cls, dim, anti, sym, coeff=1):
        return cls(dim, len(tuple(anti)), len(tuple(sym)), {(tuple(anti), tuple(sym)): coeff})

    @classmethod
    def zero(cls, dim, p, q):
        return cls(dim, p, q)

    def is_zero(self, tol: float = TOL) -> bool:
        return all(is_zero(c, tol) for c in self.coeffs.values())

    def __add__(self, other):
        if (self.dim, self.p, self.q) != (other.dim, other.p, other.q):
            raise ValueError("bidegree or dim mismatch in PolyForm addition")
        coeffs = dict(self.coeffs)
        for k, c in other.coeffs.items():
            coeffs[k] = coeffs.get(k, 0) + c
        return PolyForm(self.dim, self.p, self.q, coeffs)

    def __sub__(self, other):
        return self + (-1) * other

    def __mul__(self, s):
        return PolyForm(self.dim, self.p, self.q, {k: c * s for k, c in self.coeffs.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, PolyForm)
            and (self.dim, self.p, self.q) == (other.dim, other.p, other.q)
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.dim, self.p, self.q, tuple(sorted(self.coeffs.items()))))

    def __repr__(self):
        terms = ", ".join(f"{k}: {c}" for k, c in sorted(self.coeffs.items()))
        return f"PolyForm(dim={self.dim}, ({self.p},{self.q}), {{{terms}}})"


def koszul_delta(f: PolyForm) -> PolyForm:
    """Koszul differential: bidegree (-1, +1), interior product with the
    Euler field.  Zero on the p = 0 summands."""
    if f.p == 0:
        return PolyForm.zero(f.dim, 0, f.q + 1)
    coeffs = {}
    for (anti, sym), c in f.coeffs.items():
        for t, idx in enumerate(anti):
            sign = 1 if t % 2 == 0 else -1
            new_anti = anti[:t] + anti[t + 1 :]
            new_sym = tuple(sorted(sym + (idx,)))
            key = (new_anti, new_sym)
            coeffs[key] = coeffs.get(key, 0) + sign * c
    return PolyForm(f.dim, f.p - 1, f.q + 1, coeffs)


def derham_d(f: PolyForm) -> PolyForm:
    """de Rham partner of the Koszul differential: bidegree (+1, -1).

    Each symmetric factor is moved to the front of the wedge word (sign
    (-1)^(insert position)); repeated factors drop out via the wedge.  This
    sign convention is the one satisfying d delta + delta d = (p+q) id.
    """
    if f.q == 0 or f.p == f.dim:
        # image lands in degree 0 of S or degree > dim of Lambda: zero either way
        return PolyForm.zero(f.dim, min(f.p + 1, f.dim), max(f.q - 1, 0))
    coeffs = {}
    for (anti, sym), c in f.coeffs.items():
        for t, idx in enumerate(sym):
            if idx in anti:
                continue
            pos = sum(1 for a in anti if a < idx)
            sign = 1 if pos % 2 == 0 else -1
            new_anti = tuple(sorted(anti + (idx,)))
            new_sym = sym[:t] + sym[t + 1 :]
            key = (new_anti, new_sym)
            coeffs[key] = coeffs.get(key, 0) + sign * c
    return PolyForm(f.dim, f.p + 1, f.q - 1, coeffs)


def cartan_apply(f: PolyForm) -> PolyForm:
    """d(delta f) + delta(d f), with zero summands handled at the bidegree
    boundary; equals (p+q) * f for every form (Cartan identity)."""
    total = PolyForm.zero(f.dim, f.p, f.q)
    if f.p >= 1:
        total = total + derham_d(koszul_delta(f))
    if f.q >= 1 and f.p < f.dim:
        total = total + koszul_delta(derham_d(f))
    return total


def random_form(dim: int, p: int, q: int, rng) -> PolyForm:
    """Random form of bidegree (p, q): an int coefficient in [-4, 4], drawn
    per basis element in lexicographic key order."""
    return PolyForm(dim, p, q, {
        (anti, sym): rng.randint(-4, 4)
        for anti in combinations(range(dim), p)
        for sym in combinations_with_replacement(range(dim), q)
    })
