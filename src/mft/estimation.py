"""Synthetic scenes, correspondences, and linear tensor recovery.

A correspondence is one image feature per view, kept as its coefficients
on that view's ``FocalTensor`` axis (points on e1..e3, lines on e12, e13,
e23).  Each correspondence whose lifts are incident gives one linear
equation on the tensor entries, the outer product of its features; with
enough of them the tensor spans the nullspace of the stacked system.
"""

from __future__ import annotations

import enum
import math
import random
from fractions import Fraction

import numpy as np

from . import linalg
from .coaction import GroupElement, compound_action, random_frame
from .euclidean import MotionMode, embed, random_motion
from .exterior import Multivector
from .focal import FocalTensor
from .scalars import div, is_exact, is_zero


class DegenerateProjectionError(ValueError):
    pass


class AmbiguousSolutionError(ValueError):
    """Nullspace dimension above 1; carries the measured nullity."""

    def __init__(self, message, nullity):
        super().__init__(message)
        self.nullity = nullity


class SceneKind(enum.Enum):
    EUCLIDEAN = "euclidean"
    GENERAL = "general"


class Scene:
    """Absolute frames for n views, plus the motions when Euclidean."""

    def __init__(self, frames, motions=None, kind=SceneKind.GENERAL):
        self.frames = list(frames)
        self.motions = motions
        self.kind = kind


class Correspondence:
    """Per view, a degree (1 point, 2 line; both have 3 coefficients, so it
    is kept apart) and the feature's coefficients in that axis's order."""

    def __init__(self, degrees, features):
        self.degrees = tuple(degrees)
        self.features = tuple(features)


def random_scene(
    n_views: int,
    kind: SceneKind = SceneKind.EUCLIDEAN,
    seed=None,
    mode: MotionMode = MotionMode.FLOAT_HAAR,
    rng=None,
) -> Scene:
    if rng is None:
        rng = random.Random(seed)
    if kind is SceneKind.EUCLIDEAN:
        motions = [random_motion(mode=mode, rng=rng) for _ in range(n_views)]
        return Scene([embed(mo) for mo in motions], motions=motions, kind=kind)
    if kind is SceneKind.GENERAL:
        return Scene([random_frame(4, rng) for _ in range(n_views)], kind=kind)
    raise ValueError(f"unknown scene kind {kind!r}")


# ---------------------------------------------------------------------------
# Projection


def project_point(g: GroupElement, X):
    """Image coordinates of the ambient point X in the view with frame g:
    components 1..3 of g^-1 X, valid when component 0 is nonzero and they
    are not all zero (X is not the view's centre)."""
    y = g.inverse().apply(X)
    if is_zero(y[0], 1e-12):
        raise DegenerateProjectionError("point projects into the base locus")
    if not any(y[1:]):
        raise DegenerateProjectionError("point is the centre of the view")
    return y[1:]


def project_line(g: GroupElement, L: Multivector) -> Multivector:
    """Image of an ambient line (degree-2 multivector): transport by g^-1
    and drop the terms containing index 0."""
    if L.dim != g.dim or L.degree != 2:
        raise ValueError("project_line expects an ambient degree-2 multivector")
    moved = compound_action(g.inverse(), L)
    return Multivector(g.dim, 2, {R: v for R, v in moved.coeffs.items() if 0 not in R})


# ---------------------------------------------------------------------------
# Correspondence generators


def _random_point(rng, exact, n):
    """n random coordinates: small Fractions when exact, else Gaussians."""
    if exact:
        return [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
    return [rng.gauss(0, 1) for _ in range(n)]


def _projected_features(scene, rng, exact, bound=100):
    """Project a common random ambient point into every view; resample on
    degenerate projections."""
    for _attempt in range(bound):
        X = _random_point(rng, exact, 4)
        try:
            return [project_point(g, X) for g in scene.frames]
        except DegenerateProjectionError:
            continue
    raise RuntimeError("could not sample a nondegenerate ambient point")


def _line_through_random(p, rng, exact, bound=100):
    """Coefficients of p ^ q on e12, e13, e23 for a random image point q."""
    for _attempt in range(bound):
        q = _random_point(rng, exact, 3)
        line = [p[i] * q[j] - p[j] * q[i] for i, j in ((0, 1), (0, 2), (1, 2))]
        if not all(is_zero(c) for c in line):
            return line
    raise RuntimeError("could not sample a line through the image point")


def correspondences_bifocal(scene: Scene, count: int, seed=None, rng=None):
    """Matched point pairs seen from a common ambient point."""
    return _generate(scene, count, (1, 1), seed, rng)


def correspondences_trifocal(scene: Scene, count: int, seed=None, rng=None):
    """Line in views 1 and 3 through the matched image point, the point
    itself in view 2."""
    return _generate(scene, count, (2, 1, 2), seed, rng)


def correspondences_quadrifocal(scene: Scene, count: int, seed=None, rng=None):
    """Image lines through the matched image point in all four views."""
    return _generate(scene, count, (2, 2, 2, 2), seed, rng)


def _generate(scene, count, degrees, seed, rng):
    if len(scene.frames) != len(degrees):
        raise ValueError(f"scene has {len(scene.frames)} views, need {len(degrees)}")
    if rng is None:
        rng = random.Random(seed)
    exact = all(
        is_exact(x) for g in scene.frames for row in g.entries for x in row
    )
    out = []
    for _ in range(count):
        points = _projected_features(scene, rng, exact)
        features = []
        for p, d in zip(points, degrees):
            if d == 1:
                features.append(p)
            elif d == 2:
                features.append(_line_through_random(p, rng, exact))
            else:
                raise ValueError(f"unsupported feature degree {d}")
        out.append(Correspondence(degrees, features))
    return out


# ---------------------------------------------------------------------------
# Linear system


def linear_rows(signature, correspondences):
    """Coefficient rows of the homogeneous system: the outer product of the
    features in flat cell order, each prefix product formed once.  A feature
    of degree d must have C(3, d) coefficients, else ValueError."""
    rows = []
    for corr in correspondences:
        if corr.degrees != tuple(signature):
            raise ValueError(
                f"correspondence degrees {corr.degrees} != signature {tuple(signature)}"
            )
        if [len(f) for f in corr.features] != [math.comb(3, d) for d in corr.degrees]:
            raise ValueError(f"features {corr.features} do not fit degrees {corr.degrees}")
        row = [1]
        for f in corr.features:
            row = [x * c for x in row for c in f]
        rows.append(row)
    return rows


def residuals(t: FocalTensor, correspondences):
    """t contracted with the features, per correspondence: the row dotted
    with the cells; zero at true matches."""
    return [
        sum(r * v for r, v in zip(row, t.values))
        for row in linear_rows(t.signature, correspondences)
    ]


def solve_nullspace(rows, tol: float = 1e-7):
    """One-dimensional nullspace of the stacked system.

    Exact rows use rational elimination; float rows use SVD with singular
    values below tol * s_max counted as zero.  Returns (vector, rank) with
    the vector scaled to unit max-abs and first nonzero entry positive.
    """
    if not rows:
        raise ValueError("no rows")
    ncols = len(rows[0])
    exact = all(is_exact(x) for row in rows for x in row)
    if exact:
        basis = linalg.nullspace([list(r) for r in rows])
        rank = ncols - len(basis)
        if len(basis) != 1:
            raise AmbiguousSolutionError(
                f"nullspace dimension {len(basis)}, expected 1", nullity=len(basis)
            )
        vec = list(basis[0])
    else:
        a = np.asarray(rows, dtype=float)
        # equalize row scales so the rank gap is visible in the spectrum
        norms = np.linalg.norm(a, axis=1)
        norms[norms == 0] = 1.0
        a = a / norms[:, None]
        _, s, vt = np.linalg.svd(a)
        smax = s[0] if len(s) else 0.0
        rank = int(np.sum(s > tol * smax)) if smax > 0 else 0
        nullity = ncols - rank
        if nullity != 1:
            raise AmbiguousSolutionError(
                f"nullspace dimension {nullity}, expected 1", nullity=nullity
            )
        vec = [float(v) for v in vt[-1]]
    mx = max(abs(v) for v in vec)
    vec = [div(v, mx) for v in vec]
    for v in vec:
        if v != 0:
            if v < 0:
                vec = [-x for x in vec]
            break
    return vec, rank


def estimate_tensor(signature, correspondences, tol: float = 1e-7):
    """Recover the focal tensor (up to scale) from matched features."""
    rows = linear_rows(signature, correspondences)
    vec, rank = solve_nullspace(rows, tol=tol)
    return FocalTensor.from_flat(4, signature, vec), rank


def align_scale(estimate: FocalTensor, target: FocalTensor):
    """Least-squares scalar lambda minimizing |lambda e - t|."""
    e = estimate.flat()
    t = target.flat()
    denom = sum(x * x for x in e)
    if denom == 0:
        raise ValueError("cannot align a zero estimate")
    return div(sum(x * y for x, y in zip(e, t)), denom)


def alignment_error(estimate: FocalTensor, target: FocalTensor):
    """Max-abs entry of lambda e - t at the optimal lambda, after scaling
    the target to unit max-abs."""
    mx = target.max_abs()
    if mx == 0:
        raise ValueError("target tensor is zero")
    t = FocalTensor(target.dim, target.signature, [div(v, mx) for v in target.values])
    lam = align_scale(estimate, t)
    return max(abs(lam * x - y) for x, y in zip(estimate.flat(), t.flat()))
