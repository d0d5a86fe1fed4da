"""Workloads of the mft benchmark: inputs from a seed, timed operations, oracles.

A workload object builds its inputs in ``setup`` and then hands out cycles.
A cycle is a generator of ``Op`` values; the runner times ``op.run()``,
sends the output back into the generator (``None`` when the operation
raised or its oracle rejected the output) and checks the output with
``op.check`` outside the timed region.  Untimed preparation for the next
operation, such as perturbing a recovered tensor, happens in the generator
between two ``yield``s.

Every cycle of a workload holds the same operations, so a per-cycle figure
is comparable between runs of different length.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from fractions import Fraction
from itertools import combinations, permutations
from typing import Callable, NamedTuple

import mft
import mft.cli

CAYLEY = mft.MotionMode.CAYLEY_RATIONAL
HAAR = mft.MotionMode.FLOAT_HAAR

# views -> (signature, correspondence generator, invariant factory, count);
# the counts are the CLI defaults, the minimum for a one-dimensional nullspace.
# Library functions are looked up on ``mft`` at call time, so a traced run
# calls the wrappers.
RECOVERY = {
    2: ((1, 1), "correspondences_bifocal", "invariant_bifocal", 8),
    3: ((2, 1, 2), "correspondences_trifocal", "invariant_trifocal", 26),
    4: ((2, 2, 2, 2), "correspondences_quadrifocal", "invariant_quadrifocal", 80),
}
FLOAT_RECOVERY_TOL = 1e-6
CATALOG_WEIGHTS = {"bifocal": -1, "trifocal": -2, "quadrifocal": -3}


class Op(NamedTuple):
    kind: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]


# ---------------------------------------------------------------------------
# Operations and their oracles


def round_trip(views, rng, motion_mode):
    """Scene, correspondences and linear recovery, as ``mft estimate`` does."""
    signature, gen, _, count = RECOVERY[views]
    scene = mft.random_scene(views, mft.SceneKind.EUCLIDEAN, rng=rng, mode=motion_mode)
    matches = getattr(mft, gen)(scene, count, rng=rng)
    estimate, rank = mft.estimate_tensor(signature, matches)
    return scene, estimate, rank


def recovery_oracle(views, tol):
    """Recovered tensor equals the multifocal truth of the scene up to scale:
    exactly when ``tol`` is 0, else within ``tol`` after unit max-abs scaling."""

    def check(out):
        scene, estimate, rank = out
        _, _, invariant, count = RECOVERY[views]
        if rank != count:
            return f"rank {rank}, expected {count}"
        truth = mft.multifocal(getattr(mft, invariant)(), scene.frames)
        err = mft.alignment_error(estimate, truth)
        if not (err == 0 if tol == 0 else abs(err) <= tol):
            return f"alignment error {err}"
        return None

    return check


def verdict_oracle(expected):
    def check(report):
        if report.passed is not expected:
            return f"check_all passed={report.passed}, expected {expected}"
        return None

    return check


def perturbed(tensor, index):
    """Copy of ``tensor`` with one entry moved by 1/1000 of its max-abs entry."""
    values = tensor.flat()
    mx = tensor.max_abs()
    k = index % len(values)
    values[k] = values[k] + (Fraction(mx) / 1000 if isinstance(mx, (int, Fraction)) else mx / 1000)
    return mft.FocalTensor.from_flat(tensor.dim, tensor.signature, values)


def run_cli(argv):
    """In-process ``mft`` call; returns (exit code, stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = mft.cli.main(argv)
    return code, buf.getvalue()


def cli_check_oracle(expected_code):
    def check(out):
        code, text = out
        if code != expected_code:
            return f"exit code {code}, expected {expected_code}"
        if json.loads(text)["report"]["pass"] is not (expected_code == 0):
            return "report verdict disagrees with the exit code"
        return None

    return check


def cartan_oracle(out):
    code, text = out
    doc = json.loads(text)
    if code != 0 or doc["pass"] is not True or doc["failures"] or doc["checked"] < 1:
        return f"verify-cartan exit {code}: {doc}"
    return None


def identity_trial(rng):
    """One ``mft verify-identities`` trial on random Cayley motions."""
    a = mft.random_motion(mode=CAYLEY, rng=rng)
    b = mft.random_motion(mode=CAYLEY, rng=rng)
    ts = mft.TrifocalSlices.from_tensor(mft.trifocal_euclidean(a, b))
    return (
        mft.euclidean_identity_suite(ts, a, b),
        mft.rank_one_certificates(ts, motions=(a, b)),
    )


def identity_oracle(out):
    for report in out:
        if not report.passed or report.max_residual() != 0:
            return f"identity families fail: {report.to_json()}"
    return None


def catalog_weights(trials):
    """``check_weight`` over the catalog with its default seed, as
    ``mft invariant NAME --weight`` runs it.  Out of scope: a random trial
    element with determinant +-1 makes every power match, and check_weight
    then raises on inconsistent weights (e.g. seed 307 * 1000003 + 14)."""
    return {name: mft.check_weight(mft.catalog_lookup(name), trials=trials)
            for name in CATALOG_WEIGHTS}


def weights_oracle(out):
    if out != CATALOG_WEIGHTS:
        return f"weights {out}, expected {CATALOG_WEIGHTS}"
    return None


# ---------------------------------------------------------------------------
# Independent multifocal reference for the verify-corpus tensor oracle


def _leibniz_det(m):
    total = 0
    for perm in permutations(range(len(m))):
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(len(perm)), 2))
        term = -1 if inversions % 2 else 1
        for row, col in enumerate(perm):
            term = term * m[row][col]
        total += term
    return total


def reference_multifocal(invariant, frames):
    """Flat row-major tensor from the definition: entry (J1..Jn) is the sum
    over invariant terms c * prod_i det(g_i[R_i, {0} | J_i]), with
    determinants by the Leibniz formula."""
    dim = invariant.dim
    axes = [list(combinations(range(1, dim), p)) for p in invariant.degrees]
    minors = [
        {(R, J): _leibniz_det([[g.entries[r][c] for c in (0,) + J] for r in R])
         for R in combinations(range(dim), p + 1) for J in axis}
        for g, p, axis in zip(frames, invariant.degrees, axes)
    ]
    cells = [()]
    for axis in axes:
        cells = [cell + (J,) for cell in cells for J in axis]
    out = []
    for cell in cells:
        total = 0
        for key, c in invariant.coeffs.items():
            term = c
            for table, R, J in zip(minors, key, cell):
                term = term * table[(R, J)]
            total += term
        out.append(total)
    return out


# ---------------------------------------------------------------------------
# Workloads


class ExactRecovery:
    """Rational-lane round trips at the CLI counts: per cycle four bifocal and
    four trifocal ones on fresh seeds and one quadrifocal one.  The
    quadrifocal scene is fixed: its elimination dominates the cycle and its
    cost depends on the scene's bit sizes, so a seed-dependent scene would
    make the cycle time vary with the seed rather than with the code."""

    name = "exact-recovery"

    def __init__(self, seed, views=(2, 2, 2, 2, 3, 3, 3, 3, 4)):
        self.seed = seed
        self.views = views

    def setup(self, workdir):
        pass

    def cycle(self, index):
        for position, views in enumerate(self.views):
            key = "quadrifocal" if views == 4 else f"{self.seed}/{index}/{position}"
            rng = random.Random(f"exact-recovery/{key}")
            out = yield Op(f"estimate{views}", lambda v=views, r=rng: round_trip(v, r, CAYLEY),
                           recovery_oracle(views, 0))
            if out is None:
                return


class FloatRecovery:
    """Float-lane round trips over fresh seeds each cycle, plus check_all on the
    recovered trifocal tensor (must pass) and on a perturbed copy (must fail).

    Out of scope: a minimal float system whose smallest nonzero singular value
    falls below the solver's rank tolerance makes ``estimate_tensor`` raise
    ``AmbiguousSolutionError`` although the noiseless problem has one answer
    (one trifocal draw in the first 5,000 cycles tried; the float rank
    decision of ROADMAP item 4).  Each draw is therefore run once untimed
    first, and a draw that raises it is replaced by the next one and listed
    in ``excluded``.  Only ``max_excluded`` draws per run are replaced, so a
    change that makes such draws common still fails the run.
    """

    name = "float-recovery"
    max_excluded = 4

    def __init__(self, seed):
        self.seed = seed
        self.excluded = []

    def setup(self, workdir):
        pass

    def _draw(self, index, views):
        """Key of the first draw outside the out-of-scope class."""
        key = f"float-recovery/{self.seed}/{index}/{views}"
        while len(self.excluded) < self.max_excluded:
            try:
                round_trip(views, random.Random(key), HAAR)
            except mft.AmbiguousSolutionError:
                self.excluded.append(key)
                key += "/next"
                continue
            except Exception:  # any other error shows in the timed run
                pass
            break
        return key

    def cycle(self, index):
        trifocal = None
        for views in (2, 3, 4):
            rng = random.Random(self._draw(index, views))
            out = yield Op(f"estimate{views}", lambda v=views, r=rng: round_trip(v, r, HAAR),
                           recovery_oracle(views, FLOAT_RECOVERY_TOL))
            if out is None:
                return
            if views == 3:
                trifocal = out[1]
        if (yield Op("check", lambda: mft.check_all(trifocal), verdict_oracle(True))) is None:
            return
        wrong = perturbed(trifocal, index)
        yield Op("check", lambda: mft.check_all(wrong), verdict_oracle(False))


class _Scene(NamedTuple):
    frames: list
    trifocal: object
    wrong: object
    trifocal_file: str
    wrong_file: str


class VerifyCorpus:
    """Rational-lane verifiers, no solver: multifocal construction, check_all
    and the CLI check on true and perturbed tensors, one identity-suite trial,
    catalog weights and the Cartan identity.  Accept and reject verdicts are
    mixed in every cycle."""

    name = "verify-corpus"
    pool = 16  # scenes per run; rational check cost varies with the scene
    weight_trials = 2

    def __init__(self, seed):
        self.seed = seed

    def setup(self, workdir):
        rng = random.Random(f"verify-corpus/{self.seed}/scenes")
        self.invariants = (mft.invariant_bifocal(), mft.invariant_trifocal(),
                           mft.invariant_quadrifocal())
        self.scenes = []
        for p in range(self.pool):
            frames = [mft.embed(mft.random_motion(mode=CAYLEY, rng=rng)) for _ in range(4)]
            trifocal = mft.multifocal(self.invariants[1], frames[:3])
            wrong = perturbed(trifocal, p)
            paths = []
            for label, tensor in (("true", trifocal), ("perturbed", wrong)):
                path = os.path.join(workdir, f"{label}-{p}.json")
                with open(path, "w") as fh:
                    json.dump({"tensor": tensor.to_json()}, fh)
                paths.append(path)
            self.scenes.append(_Scene(frames, trifocal, wrong, *paths))
        self._references = {}

    def _tensor_oracle(self, p):
        def check(out):
            if p not in self._references:
                frames = self.scenes[p].frames
                self._references[p] = [reference_multifocal(inv, frames[: inv.arity()])
                                       for inv in self.invariants]
            for tensor, ref in zip(out, self._references[p]):
                if tensor.flat() != ref:
                    return f"multifocal {tensor.signature} differs from the reference"
            return None

        return check

    def cycle(self, index):
        p = index % self.pool
        sc = self.scenes[p]
        bi, tri, quad = self.invariants
        rng = random.Random(f"verify-corpus/{self.seed}/{index}/identities")
        cartan_seed = self.seed * 1_000_003 + index
        steps = [
            Op("tensor", lambda: (mft.multifocal(bi, sc.frames[:2]),
                                  mft.multifocal(tri, sc.frames[:3]),
                                  mft.multifocal(quad, sc.frames)), self._tensor_oracle(p)),
            Op("check", lambda: mft.check_all(sc.trifocal), verdict_oracle(True)),
            Op("check", lambda: mft.check_all(sc.wrong), verdict_oracle(False)),
            Op("identities", lambda: identity_trial(rng), identity_oracle),
            Op("weight", lambda: catalog_weights(self.weight_trials), weights_oracle),
            Op("cartan", lambda: run_cli(["verify-cartan", "--seed", str(cartan_seed)]),
               cartan_oracle),
            Op("cli", lambda: run_cli(["--mode", "rational", "check", sc.trifocal_file]),
               cli_check_oracle(0)),
            Op("cli", lambda: run_cli(["--mode", "rational", "check", sc.wrong_file]),
               cli_check_oracle(1)),
        ]
        for op in steps:
            if (yield op) is None:
                return


WORKLOADS = {w.name: w for w in (ExactRecovery, FloatRecovery, VerifyCorpus)}
