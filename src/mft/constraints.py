"""Polynomial constraints and identities on bifocal and trifocal varieties.

All evaluators are residual-style: they return numbers (or matrices of
numbers) that vanish exactly on the variety in question.  check_all
aggregates the intrinsic trifocal families on scale-normalized input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, permutations, product

from . import linalg
from .euclidean import EuclideanMotion, tensor_to_identified
from .exterior import perm_sign
from .focal import FocalTensor
from .linalg import adjugate
from .scalars import TOL, div, is_exact, is_zero, primitive


# ---------------------------------------------------------------------------
# 3x3 matrix utilities


def _tr(m):
    return m[0][0] + m[1][1] + m[2][2]


def _mmt(m):
    return linalg.mat_mul(m, linalg.transpose(m))


def _outer(x, y):
    return [[xi * yj for yj in y] for xi in x]


def _cross(x, y):
    return [
        x[1] * y[2] - x[2] * y[1],
        x[2] * y[0] - x[0] * y[2],
        x[0] * y[1] - x[1] * y[0],
    ]


def _dot(x, y):
    return sum(a * b for a, b in zip(x, y))


# ---------------------------------------------------------------------------
# Bifocal constraints


def demazure_c(mtx):
    """Demazure's cubic matrix (1/2) tr(m m^t) m - m m^t m; zero exactly on
    the essential variety."""
    A = _mmt(mtx)
    t = div(_tr(A), 2)
    Am = linalg.mat_mul(A, mtx)
    return [[t * mtx[i][j] - Am[i][j] for j in range(3)] for i in range(3)]


def bifocal_q(mtx):
    """The quartic (1/2) (tr m m^t)^2 - tr[(m m^t)^2]."""
    A = _mmt(mtx)
    A2 = linalg.mat_mul(A, A)
    return div(_tr(A), 2) * _tr(A) - _tr(A2)


def frobenius_identity_residual(mtx):
    """tr(c c^t) + (1/2) tr(m m^t) q(m) - 3 (det m)^2.

    A polynomial identity: identically zero on ALL 3x3 matrices.  (The
    homogeneous-degree-6 exponent 2 on det m is forced; see
    docs/frobenius.md for the power-sum derivation.)
    """
    c = demazure_c(mtx)
    lhs = _tr(_mmt(c))
    d = linalg.det(mtx)
    return lhs + div(_tr(_mmt(mtx)), 2) * bifocal_q(mtx) - 3 * d * d


# ---------------------------------------------------------------------------
# Trifocal slices


class TrifocalSlices:
    """The three 3x3 slice matrices of a (2,1,2) focal tensor in identified
    coordinates, with lazily computed adjugates and memoized products."""

    unit = 1  # these slices stand for unit * t

    def __init__(self, t1, t2, t3):
        self.t = (t1, t2, t3)
        self._chains = {}

    @classmethod
    def from_tensor(cls, tensor: FocalTensor):
        m = tensor_to_identified(tensor)
        return cls(*([[m[i][j][k] for k in range(3)] for i in range(3)] for j in range(3)))

    @cached_property
    def a(self):
        return tuple(adjugate(ti) for ti in self.t)

    def chain(self, word, *idx):
        """The product of slices ("t") and adjugates ("a") spelled by word,
        e.g. chain("tat", i, j, k) = t_i a_j t_k.  Formed once, left to
        right from its memoized prefix; callers must not mutate it."""
        key = (word, idx)
        if key not in self._chains:
            last = (self.t if word[-1] == "t" else self.a)[idx[-1]]
            self._chains[key] = (
                last if len(word) == 1
                else linalg.mat_mul(self.chain(word[:-1], *idx[:-1]), last)
            )
        return self._chains[key]


# Fixed monomial order for the 10 cubic coefficients of det t(x).
DET_CUBIC_MONOMIALS = [
    (3, 0, 0), (2, 1, 0), (2, 0, 1), (1, 2, 0), (1, 1, 1),
    (1, 0, 2), (0, 3, 0), (0, 2, 1), (0, 1, 2), (0, 0, 3),
]


def trifocal_det_cubics(ts: TrifocalSlices):
    """The 10 coefficients of det(x1 t1 + x2 t2 + x3 t3) in the fixed
    monomial order; all vanish on the trifocal variety.  By multilinearity
    in the rows, det([t_a[0], t_b[1], t_c[2]]) goes to the monomial
    x_a x_b x_c."""
    coeffs = dict.fromkeys(DET_CUBIC_MONOMIALS, 0)
    for abc in product(range(3), repeat=3):
        e = tuple(abc.count(n) for n in range(3))
        coeffs[e] = coeffs[e] + linalg.det([ts.t[n][i] for i, n in enumerate(abc)])
    return list(coeffs.values())


_SIGNED_PERMUTATIONS = [(perm_sign(s), s) for s in permutations(range(3))]


def epipolar_sextics(ts: TrifocalSlices):
    """Both chirality families of the 27 degree-6 epipolar constraints,
    returned as (right_kernel_family, left_kernel_family).

    Intended for slice triples of rank exactly 2; each family is indexed by
    (i, j, k) in lexicographic order.
    """
    a1, a2, a3 = ts.a
    right = []
    left = []
    for i, j, k in product(range(3), repeat=3):
        r_val = 0
        l_val = 0
        for sgn, sigma in _SIGNED_PERMUTATIONS:
            r_val = r_val + sgn * a1[i][sigma[0]] * a2[j][sigma[1]] * a3[k][sigma[2]]
            l_val = l_val + sgn * a1[sigma[0]][i] * a2[sigma[1]][j] * a3[sigma[2]][k]
        right.append(r_val)
        left.append(l_val)
    return right, left


def braid_residual(ts: TrifocalSlices):
    """Max-abs entry of t_i a_j t_i - t_j a_i t_j over unordered pairs; a
    degree-4 system vanishing on the Euclidean trifocal variety."""
    worst = 0
    for i, j in combinations(range(3), 2):
        for d in _mat_diff(ts.chain("tat", i, j, i), ts.chain("tat", j, i, j)):
            worst = max(worst, abs(d))
    return worst


# ---------------------------------------------------------------------------
# Report plumbing


@dataclass
class Family:
    name: str
    max: float
    mean: float
    count: int
    passed: bool

    def to_json(self):
        return {
            "name": self.name,
            "max": float(self.max),
            "mean": float(self.mean),
            "count": self.count,
            "pass": self.passed,
        }


@dataclass
class ConstraintReport:
    families: list = field(default_factory=list)
    normalized: bool = True
    flags: dict = field(default_factory=dict)
    unit: object = 1  # positive scale of the evaluated representative

    def add(self, name, residuals, tol, degree=0):
        """Max and mean of |residuals| times unit**degree, the family's degree."""
        vals = [abs(v) for v in residuals]
        s = self.unit**degree
        mx = max(vals) * s if vals else 0
        mean = div(sum(vals), len(vals)) * s if vals else 0
        self.families.append(Family(name, mx, mean, len(vals), is_zero(mx, tol)))

    @property
    def passed(self):
        return all(f.passed for f in self.families)

    def max_residual(self):
        return max((f.max for f in self.families), default=0)

    def to_json(self):
        return {
            "families": [f.to_json() for f in self.families],
            "normalized": self.normalized,
            "pass": self.passed,
            **({"flags": self.flags} if self.flags else {}),
        }


# ---------------------------------------------------------------------------
# Euclidean identity suite (needs ground-truth motions)


def euclidean_identity_suite(
    ts: TrifocalSlices, a: EuclideanMotion, b: EuclideanMotion, tol: float = TOL
) -> ConstraintReport:
    """Residuals of the seven slice/adjugate identity families, with the
    ground-truth motions (r, u) = a and (s, w) = b on the right-hand sides."""
    r, u = a.r, list(a.u)
    s, w = b.r, list(b.u)
    r_col = [[r[i][j] for i in range(3)] for j in range(3)]
    s_col = [[s[i][j] for i in range(3)] for j in range(3)]

    report = ConstraintReport()

    res = []
    for i in range(3):
        rhs = _outer(_cross(s_col[i], w), _cross(r_col[i], u))
        res.extend(_mat_diff(ts.a[i], rhs))
    report.add("f1:adjugate-form", res, tol)

    res = []
    for i in range(3):
        res.extend(v for row in ts.chain("ta", i, i) for v in row)
        res.append(linalg.det(ts.t[i]))
    report.add("f2:slice-singular", res, tol)

    res = []
    for i, j in permutations(range(3), 2):
        coef = _dot(_cross(s_col[i], s_col[j]), w)
        rhs = _outer(u, _cross(r_col[j], u))
        rhs = [[coef * v for v in row] for row in rhs]
        res.extend(_mat_diff(ts.chain("ta", i, j), rhs))
    report.add("f3:t-adj", res, tol)

    res = []
    for i, j in permutations(range(3), 2):
        coef = _dot(_cross(r_col[i], r_col[j]), u)
        rhs = _outer(_cross(s_col[j], w), w)
        rhs = [[-coef * v for v in row] for row in rhs]
        res.extend(_mat_diff(ts.chain("at", j, i), rhs))
    report.add("f4:adj-t", res, tol)

    res = []
    for i, j in permutations(range(3), 2):
        coef = _dot(_cross(s_col[i], s_col[j]), w) * _dot(_cross(r_col[j], r_col[i]), u)
        rhs = [[coef * v for v in row] for row in _outer(u, w)]
        res.extend(_mat_diff(ts.chain("tat", i, j, i), rhs))
    report.add("f5:sandwich-pair", res, tol)

    res = []
    for i, j, k in permutations(range(3)):
        coef = _dot(_cross(s_col[i], s_col[j]), w) * _dot(_cross(r_col[j], r_col[k]), u)
        rhs = [[coef * v for v in row] for row in _outer(u, w)]
        res.extend(_mat_diff(ts.chain("tat", i, j, k), rhs))
    report.add("f6:sandwich-triple", res, tol)

    res = []
    for i, j, k in permutations(range(3)):
        res.extend(v for row in ts.chain("ata", i, j, k) for v in row)
    report.add("f7:adj-sandwich-zero", res, tol)

    return report


def _mat_diff(x, y):
    return [a - b for rx, ry in zip(x, y) for a, b in zip(rx, ry)]


# ---------------------------------------------------------------------------
# Rank-one certificates


# Block (p, q) of the block 4-tensor is sign * t_a adj_b t_c.
_BLOCKS = {
    (0, 0): (-1, 2, 1, 2), (0, 1): (1, 1, 2, 0), (0, 2): (1, 2, 1, 0),
    (1, 0): (1, 0, 2, 1), (1, 1): (-1, 2, 0, 2), (1, 2): (1, 2, 0, 1),
    (2, 0): (1, 0, 1, 2), (2, 1): (1, 1, 0, 2), (2, 2): (-1, 1, 0, 1),
}


def _block_tensor(ts: TrifocalSlices):
    """The 81-entry 4-tensor Q, keyed by (i, j, p, q): entry (i, j) of block
    (p, q); equals u (x) w (x) w_bar (x) u_bar on the Euclidean trifocal
    variety."""
    return {
        (i, j, p, qq): sign * ts.chain("tat", a, b, c)[i][j]
        for (p, qq), (sign, a, b, c) in _BLOCKS.items()
        for i, j in product(range(3), repeat=2)
    }


def _rank_one_minors(matrix):
    """All 2x2 minors of a (possibly non-square) matrix as a flat list."""
    nrows, ncols = len(matrix), len(matrix[0])
    out = []
    for r1, r2 in combinations(range(nrows), 2):
        row1, row2 = matrix[r1], matrix[r2]
        for c1, c2 in combinations(range(ncols), 2):
            out.append(row1[c1] * row2[c2] - row1[c2] * row2[c1])
    return out


def _flattenings(q):
    """The four mode flattenings of a 4-tensor keyed by index 4-tuples."""
    return [
        [[q[x[:mode] + (i,) + x[mode:]] for x in product(range(3), repeat=3)] for i in range(3)]
        for mode in range(4)
    ]


def _integer_slices(ts: TrifocalSlices) -> TrifocalSlices:
    """ts, or, when its entries are exact and not all int, the primitive
    integer slices whose unit * t are the slices of ts."""
    vals = [v for ti in ts.t for row in ti for v in row]
    if not all(map(is_exact, vals)) or all(type(v) is int for v in vals):
        return ts
    ints, unit = primitive(vals)
    out = TrifocalSlices(*([ints[k : k + 3] for k in range(n, n + 9, 3)] for n in (0, 9, 18)))
    out.unit = ts.unit * unit
    return out


def rank_one_certificates(
    ts: TrifocalSlices, motions=None, tol: float = TOL
) -> ConstraintReport:
    """Rank-one structure of the adjugate sum and the block 4-tensor.

    Intrinsic checks need no motions; when the ground-truth motion pair is
    supplied, entrywise equality with the closed forms is also verified.
    """
    ts = _integer_slices(ts)
    report = ConstraintReport(unit=ts.unit)
    asum = [[ts.a[0][i][j] + ts.a[1][i][j] + ts.a[2][i][j] for j in range(3)] for i in range(3)]
    adj_asum = adjugate(asum)
    report.add("adjugate-sum-rank1", _rank_one_minors(adj_asum), tol, 8)

    q = _block_tensor(ts)
    res = [m for flat in _flattenings(q) for m in _rank_one_minors(flat)]
    report.add("block-tensor-rank1", res, tol, 8)

    if motions is not None:
        a, b = motions
        u, w = list(a.u), list(b.u)
        u_bar = [-sum(a.r[i][j] * u[i] for i in range(3)) for j in range(3)]
        # both closed forms are linear in w_bar; q and adj_asum have degree 4
        s = div(1, ts.unit**4)
        w_bar = [-sum(b.r[i][j] * w[i] for i in range(3)) * s for j in range(3)]
        coef = _dot(u_bar, w_bar)
        target = [[coef * ui * wj for wj in w] for ui in u]
        report.add("adjugate-sum-closed-form", _mat_diff(adj_asum, target), tol, 4)
        res = [q[i, j, p, qq] - u[i] * w[j] * w_bar[p] * u_bar[qq]
               for i, j, p, qq in product(range(3), repeat=4)]
        report.add("block-tensor-closed-form", res, tol, 4)
    return report


# ---------------------------------------------------------------------------
# Aggregate


def _slice_rank(t, a, tol):
    """Rank of a 3x3 slice t from its adjugate a (its 2x2 minors): 3 if det t
    is not is_zero(., tol), else 2 if some minor is not, else 1 if some entry is not."""
    det = sum(t[0][j] * a[j][0] for j in range(3))
    for rk, vals in ((3, [det]), (2, [v for r in a for v in r]), (1, [v for r in t for v in r])):
        if not all(is_zero(v, tol) for v in vals):
            return rk
    return 0


def check_all(tensor: FocalTensor, tol: float = TOL) -> ConstraintReport:
    """All intrinsic constraint families on a (2,1,2) tensor, after scaling
    to unit max-abs entry.  Pass iff every family is within tol.  The zero
    tensor is no projective point and raises ValueError."""
    if tensor.signature != (2, 1, 2) or tensor.dim != 4:
        raise ValueError("check_all expects a dim-4 tensor of signature (2,1,2)")
    mx = tensor.max_abs()
    if mx == 0:
        raise ValueError("the zero tensor is not a point of projective space")
    ts = _integer_slices(TrifocalSlices.from_tensor(
        FocalTensor(4, (2, 1, 2), [div(v, mx) for v in tensor.values])))
    report = ConstraintReport(unit=ts.unit)

    slice_ranks = [_slice_rank(ti, ai, tol) for ti, ai in zip(ts.t, ts.a)]
    if any(rk < 2 for rk in slice_ranks):
        report.flags["rank_deficient"] = True
    report.flags["slice_ranks"] = slice_ranks

    report.add("det-cubics", trifocal_det_cubics(ts), tol, 3)
    right, left = epipolar_sextics(ts)
    report.add("epipolar-sextics-right", right, tol, 6)
    report.add("epipolar-sextics-left", left, tol, 6)
    report.add("braid", [braid_residual(ts)], tol, 4)
    report.families.extend(rank_one_certificates(ts, tol=tol).families)
    return report
