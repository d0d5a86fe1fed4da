"""Synthetic scenes, correspondences, and linear tensor recovery.

A correspondence is one image feature per view, kept as its coefficients
on that view's ``FocalTensor`` axis (points on e1..e3, lines on e12, e13,
e23).  Each correspondence whose lifts are incident gives one linear
equation on the tensor entries, the outer product of its features; with
enough of them the tensor spans the nullspace of the stacked system.
"""

from __future__ import annotations

import enum
import itertools
import math
import operator
import random
from fractions import Fraction

import numpy as np

from . import linalg
from .coaction import GroupElement, _primitive_frame, compound_action, random_frame
from .euclidean import MotionMode, embed, random_motion
from .exterior import Multivector
from .focal import FocalTensor
from .scalars import div, is_exact, is_zero, primitive


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
    """Random frames for n views.  A view whose centre, its first column up
    to scale, is an earlier view's (for Euclidean scenes, an equal
    translation) is drawn again: it would leave no one-dimensional kernel."""
    if kind not in (SceneKind.EUCLIDEAN, SceneKind.GENERAL):
        raise ValueError(f"unknown scene kind {kind!r}")
    if rng is None:
        rng = random.Random(seed)
    euclidean = kind is SceneKind.EUCLIDEAN
    drawn, frames = [], []
    while len(frames) < n_views:
        d = random_motion(mode=mode, rng=rng) if euclidean else random_frame(4, rng)
        g = embed(d) if euclidean else d
        if not any(_proportional(g.basepoint(), f.basepoint()) for f in frames):
            drawn.append(d)
            frames.append(g)
    return Scene(frames, motions=drawn if euclidean else None, kind=kind)


def _proportional(a, b):
    """True when the vectors a and b are equal up to scale: all 2x2 minors vanish."""
    return all(a[i] * b[j] == a[j] * b[i] for i, j in itertools.combinations(range(len(a)), 2))


# ---------------------------------------------------------------------------
# Projection


def project_point(g: GroupElement, X):
    """Image coordinates of the ambient point X in the view with frame g:
    components 1..3 of g^-1 X, valid when component 0 is nonzero and they
    are not all zero (X is not the view's centre)."""
    return _image(g.inverse().apply(X))


def _image(y):
    """Components 1..3 of a point y moved into a view's frame, or
    DegenerateProjectionError when component 0 or all of them vanish."""
    if is_zero(y[0], 1e-12):
        raise DegenerateProjectionError("point projects into the base locus")
    if not any(y[1:]):
        raise DegenerateProjectionError("point is the centre of the view")
    return y[1:]


def _integer_projector(g: GroupElement):
    """sign(det G) adj(G) for the primitive integer frame G of the exact
    frame g: a positive multiple of g^-1 with int entries, by no division."""
    G, _unit = _primitive_frame(g)
    adj = linalg.adjugate(G)
    return adj if g.det() > 0 else [[-x for x in row] for row in adj]


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


def _projected_features(views, rng, exact, bound=100):
    """Project a common random ambient point into every view; resample on
    degenerate projections.  Exact views are ``_integer_projector`` matrices
    and take the point cleared to a primitive integer vector, so each image
    is an int positive multiple of what ``project_point`` gives."""
    for _attempt in range(bound):
        X = _random_point(rng, exact, 4)
        try:
            if not exact:
                return [project_point(g, X) for g in views]
            X = primitive(X)[0]
            return [_image([sum(map(operator.mul, row, X)) for row in P]) for P in views]
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
    """``count`` correspondences of the given degrees.  Exact features are
    cleared to primitive integer vectors, and a correspondence whose features
    all equal an earlier one's up to sign is drawn again: it repeats a row."""
    if len(scene.frames) != len(degrees):
        raise ValueError(f"scene has {len(scene.frames)} views, need {len(degrees)}")
    if not set(degrees) <= {1, 2}:
        raise ValueError(f"unsupported feature degrees {degrees}")
    if rng is None:
        rng = random.Random(seed)
    exact = all(is_exact(x) for g in scene.frames for row in g.entries for x in row)
    views = [_integer_projector(g) for g in scene.frames] if exact else scene.frames
    out, seen = [], set()
    while len(out) < count:
        points = _projected_features(views, rng, exact)
        features = [p if d == 1 else _line_through_random(p, rng, exact)
                    for p, d in zip(points, degrees)]
        if exact:
            features = [primitive(f)[0] for f in features]
            key = tuple(max(tuple(f), tuple(-x for x in f)) for f in features)
            if key in seen:
                continue
            seen.add(key)
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


def alignment_error(estimate: FocalTensor, target: FocalTensor):
    """Max-abs entry of lambda e - t after scaling the target t to unit
    max-abs, at the least-squares lambda minimizing |lambda e - t|."""
    mx = target.max_abs()
    if mx == 0:
        raise ValueError("target tensor is zero")
    e, t = estimate.values, [div(v, mx) for v in target.values]
    denom = sum(x * x for x in e)
    if denom == 0:
        raise ValueError("cannot align a zero estimate")
    lam = div(sum(x * y for x, y in zip(e, t)), denom)
    return max(abs(lam * x - y) for x, y in zip(e, t))
