"""Independent brute-force oracles used only by the tests.

Subspaces are given by spanning lists of coordinate vectors; everything is
exact over Fraction/int, so dimension counts are reliable.
"""

from fractions import Fraction
from itertools import combinations, product

from mft import linalg
from mft.coaction import act, psi
from mft.constraints import (
    ConstraintReport,
    Family,
    TrifocalSlices,
    _slice_rank,
    braid_residual,
    epipolar_sextics,
    trifocal_det_cubics,
)
from mft.exterior import Multivector, index_subsets, minor
from mft.focal import FocalTensor
from mft.invariants import Invariant
from mft.scalars import TOL, div, is_zero


def span_dim(vectors):
    if not vectors:
        return 0
    return linalg.rank([list(v) for v in vectors])


def intersect_spans(u_basis, w_basis):
    """Basis of the intersection of two spans in k^n."""
    if not u_basis or not w_basis:
        return []
    n = len(u_basis[0])
    cols = [list(v) for v in u_basis] + [[-x for x in v] for v in w_basis]
    m = [[cols[c][r] for c in range(len(cols))] for r in range(n)]
    out = []
    for coeffs in linalg.nullspace(m):
        vec = [
            sum(coeffs[i] * u_basis[i][r] for i in range(len(u_basis)))
            for r in range(n)
        ]
        if any(x != 0 for x in vec):
            out.append(vec)
    return out


def common_point_exists(subspaces):
    """True iff the intersection of all the spans is nonzero."""
    current = subspaces[0]
    for nxt in subspaces[1:]:
        current = intersect_spans(current, nxt)
        if not current:
            return False
    return span_dim(current) >= 1


def wedge_of_vectors(vectors, dim=4):
    out = Multivector.basis(dim, ())
    for v in vectors:
        out = out ^ Multivector.from_vector(v, dim=dim)
    return out


def random_rational_vector(rng, dim=4):
    return [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(dim)]


def random_subspace(rng, k, dim=4):
    """k independent random rational vectors (resampled until independent)."""
    while True:
        vs = [random_rational_vector(rng, dim) for _ in range(k)]
        if span_dim(vs) == k:
            return vs


def random_subspace_through(rng, point, k, dim=4):
    """k-dim subspace containing the given point."""
    while True:
        vs = [list(point)] + [random_rational_vector(rng, dim) for _ in range(k - 1)]
        if span_dim(vs) == k:
            return vs


def reference_row(features):
    """Reference for ``estimation.linear_rows`` on multivector features: each
    coefficient read by coeff(J) over index_subsets(4, p, start=1), prefix
    products formed recursively, last axis fastest."""
    axes = [index_subsets(4, c.degree, start=1) for c in features]
    row = []

    def fill(level, acc):
        if level == len(features):
            row.append(acc)
            return
        for J in axes[level]:
            fill(level + 1, acc * features[level].coeff(J))

    fill(0, 1)
    return row


def reference_block_tensor(ts):
    """Reference for ``constraints._block_tensor``: the nested list
    Q[i][j][p][q], block (p, q) a signed triple product of slices and
    adjugates, each product formed on its own."""
    t, a = ts.t, ts.a

    def tri(x, y, z, sign=1):
        m = linalg.mat_mul(linalg.mat_mul(x, y), z)
        return [[sign * v for v in row] for row in m]

    blocks = [
        [tri(t[2], a[1], t[2], -1), tri(t[1], a[2], t[0]), tri(t[2], a[1], t[0])],
        [tri(t[0], a[2], t[1]), tri(t[2], a[0], t[2], -1), tri(t[2], a[0], t[1])],
        [tri(t[0], a[1], t[2]), tri(t[1], a[0], t[2]), tri(t[1], a[0], t[1], -1)],
    ]
    q = [[[[0] * 3 for _ in range(3)] for _ in range(3)] for _ in range(3)]
    for p in range(3):
        for qq in range(3):
            for i in range(3):
                for j in range(3):
                    q[i][j][p][qq] = blocks[p][qq][i][j]
    return q


def reference_flattenings(q):
    """The four mode flattenings of a 3x3x3x3 nested-list tensor."""
    flats = []
    for mode in range(4):
        rows = []
        for i in range(3):
            row = []
            for idx in product(range(3), repeat=3):
                full = list(idx)
                full.insert(mode, i)
                a, b, c, d = full
                row.append(q[a][b][c][d])
            rows.append(row)
        flats.append(rows)
    return flats


# ---------------------------------------------------------------------------
# The Fraction-lane constraint reports: every family evaluated on the slices
# as given (check_all: on the tensor scaled by 1/max-abs), never cleared.


def _reference_add(report, name, residuals, tol):
    vals = [abs(v) for v in residuals]
    mx = max(vals) if vals else 0
    mean = sum(vals) / len(vals) if vals else 0
    report.families.append(Family(name, mx, mean, len(vals), is_zero(mx, tol)))


def _reference_minors(m):
    """Every 2x2 minor of m, each as its own determinant."""
    return [linalg.det([[m[r1][c1], m[r1][c2]], [m[r2][c1], m[r2][c2]]])
            for r1, r2 in combinations(range(len(m)), 2)
            for c1, c2 in combinations(range(len(m[0])), 2)]


def reference_rank_one_certificates(ts, motions=None, tol=TOL):
    """Reference for ``constraints.rank_one_certificates`` on ts.t itself."""
    report = ConstraintReport()
    asum = [[sum(a[i][j] for a in ts.a) for j in range(3)] for i in range(3)]
    adj_asum = linalg.adjugate(asum)
    _reference_add(report, "adjugate-sum-rank1", _reference_minors(adj_asum), tol)
    q = reference_block_tensor(ts)
    _reference_add(report, "block-tensor-rank1",
                   [m for flat in reference_flattenings(q) for m in _reference_minors(flat)], tol)
    if motions is not None:
        a, b = motions
        u, w = list(a.u), list(b.u)
        u_bar = [-sum(a.r[i][j] * u[i] for i in range(3)) for j in range(3)]
        w_bar = [-sum(b.r[i][j] * w[i] for i in range(3)) for j in range(3)]
        coef = sum(x * y for x, y in zip(u_bar, w_bar))
        _reference_add(report, "adjugate-sum-closed-form",
                       [adj_asum[i][j] - coef * u[i] * w[j]
                        for i, j in product(range(3), repeat=2)], tol)
        _reference_add(report, "block-tensor-closed-form",
                       [q[i][j][p][qq] - u[i] * w[j] * w_bar[p] * u_bar[qq]
                        for i, j, p, qq in product(range(3), repeat=4)], tol)
    return report


def reference_check_all(tensor, tol=TOL):
    """Reference for ``constraints.check_all``: the families on
    tensor.scale(1 / max-abs); the zero tensor is no projective point."""
    report = ConstraintReport()
    mx = tensor.max_abs()
    if mx == 0:
        raise ValueError("the zero tensor is not a point of projective space")
    ts = TrifocalSlices.from_tensor(tensor.scale(div(1, mx)))
    slice_ranks = [_slice_rank(ti, ai, tol) for ti, ai in zip(ts.t, ts.a)]
    if any(rk < 2 for rk in slice_ranks):
        report.flags["rank_deficient"] = True
    report.flags["slice_ranks"] = slice_ranks
    _reference_add(report, "det-cubics", trifocal_det_cubics(ts), tol)
    right, left = epipolar_sextics(ts)
    _reference_add(report, "epipolar-sextics-right", right, tol)
    _reference_add(report, "epipolar-sextics-left", left, tol)
    _reference_add(report, "braid", [braid_residual(ts)], tol)
    report.families.extend(reference_rank_one_certificates(ts, tol=tol).families)
    return report


# ---------------------------------------------------------------------------
# The construction lane on the frames as given: transform on the minors of
# g.inverse() and multifocal on psi of each frame, never cleared.


def reference_transform(g, inv):
    """Reference for ``invariants.transform``: ``act`` on the compound minors
    of g.inverse(), one matrix per factor."""
    ginv = g.inverse()
    subsets = {s: index_subsets(inv.dim, s) for s in inv.signature}
    minors = {s: (S, S, [[minor(ginv, R, C) for C in S] for R in S]) for s, S in subsets.items()}
    coeffs = act(inv.coeffs, [minors[s] for s in inv.signature])
    return Invariant(inv.dim, inv.signature, coeffs, name=inv.name)


def reference_multifocal(inv, frames):
    """Reference for ``focal.multifocal``: ``act`` on psi of each frame as
    given, cells that no term reaches left as the int 0."""
    psis = [psi(g, p) for g, p in zip(frames, inv.degrees)]
    sums = act(inv.coeffs, [(ps.rows, ps.cols, ps.entries) for ps in psis])
    cells = product(*(ps.cols for ps in psis))
    return FocalTensor(inv.dim, inv.degrees, [sums.get(key, 0) for key in cells])
