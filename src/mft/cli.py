"""Command line interface.

All subcommands emit JSON on stdout with a "schema": "mft/1" field.
Exit codes: 0 success (checks passed), 1 checks failed, 2 usage or input
error.  Scalar mode comes from --mode or the MFT_MODE environment variable.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import random
import sys

from .constraints import TrifocalSlices, check_all, euclidean_identity_suite, rank_one_certificates
from .coaction import GroupElement
from .estimation import (
    AmbiguousSolutionError,
    SceneKind,
    alignment_error,
    correspondences_bifocal,
    correspondences_quadrifocal,
    correspondences_trifocal,
    estimate_tensor,
    random_scene,
    residuals,
)
from .euclidean import MotionMode, embed, random_motion, trifocal_euclidean
from .focal import FocalTensor, multifocal
from .invariants import WEDGE_MAX_DIM, catalog_lookup, check_weight
from .polyforms import cartan_apply, random_form
from .scalars import TOL, is_zero, scalar_to_json

SCHEMA = "mft/1"

# views -> (invariant, signature, generator, least and default count: entries - 1)
_VIEWS = {
    2: ("bifocal", (1, 1), correspondences_bifocal, 8),
    3: ("trifocal", (2, 1, 2), correspondences_trifocal, 26),
    4: ("quadrifocal", (2, 2, 2, 2), correspondences_quadrifocal, 80),
}
MAX_WEIGHT_TRIALS = 10  # with WEDGE_MAX_DIM, bounds the slowest `mft invariant --weight`


def _emit(obj):
    obj["schema"] = SCHEMA
    json.dump(obj, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _mode(args):
    name = args.mode or os.environ.get("MFT_MODE", "float")
    if name not in ("float", "rational"):
        raise ValueError(f"MFT_MODE must be float or rational, got {name!r}")
    return name


def _motion_mode(mode):
    return MotionMode.CAYLEY_RATIONAL if mode == "rational" else MotionMode.FLOAT_HAAR


def cmd_gen_scene(args):
    mode = _mode(args)
    rng = random.Random(args.seed)
    motions = [random_motion(mode=_motion_mode(mode), rng=rng) for _ in range(args.views)]
    _emit(
        {
            "mode": mode,
            "views": args.views,
            "motions": [mo.to_json() for mo in motions],
            "frames": [embed(mo).to_json() for mo in motions],
        }
    )
    return 0


def _finite(text):
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"non-finite number {text} in JSON input")
    return x


def _load_json(path):
    """Parse a JSON object from a file; NaN, Infinity and overflowing
    numbers are input errors, not scalars."""
    with open(path) as fh:
        obj = json.load(fh, parse_float=_finite, parse_constant=_finite)
    if not isinstance(obj, dict):
        raise ValueError(f"{path} does not hold a JSON object")
    return obj


def cmd_tensor(args):
    frames = _load_json(args.scene)["frames"]
    if not isinstance(frames, list):
        raise ValueError(f"scene frames must be a list of frames, got {frames!r}")
    frames = [GroupElement.from_json(f) for f in frames]
    if args.invariant is None and len(frames) not in _VIEWS:
        raise ValueError(f"mft tensor needs a scene of 2 to 4 frames, got {len(frames)}")
    inv = catalog_lookup(args.invariant or _VIEWS[len(frames)][0])
    t = multifocal(inv, frames)
    _emit({"invariant": inv.name, "tensor": t.to_json()})
    return 0


def _tol(args):
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise ValueError(f"--tol must be finite and at least 0, got {args.tol}")
    return args.tol


def cmd_check(args):
    tol = _tol(args)
    doc = _load_json(args.tensor)
    doc = doc.get("tensor", doc)
    if not isinstance(doc, dict):
        raise ValueError(f"{args.tensor}: the tensor must be a JSON object")
    # the one shape check_all takes, checked before from_json builds the
    # index subsets of an arbitrary dim and signature
    if doc.get("dim") != 4 or doc.get("signature") != [2, 1, 2]:
        raise ValueError("check_all expects a dim-4 tensor of signature (2,1,2)")
    t = FocalTensor.from_json(doc)
    report = check_all(t, tol=tol)
    _emit({"report": report.to_json()})
    return 0 if report.passed else 1


def cmd_estimate(args):
    mode = _mode(args)
    name, signature, gen, least = _VIEWS[args.views]
    count = least if args.count is None else args.count
    if count < 1:
        raise ValueError(f"--count must be at least 1, got {count}")
    if count < least:
        raise ValueError(f"--count must be at least {least} for {args.views} views, got {count}")
    rng = random.Random(args.seed)
    scene = random_scene(
        args.views, SceneKind.EUCLIDEAN, rng=rng, mode=_motion_mode(mode)
    )
    cs = gen(scene, count, rng=rng)
    t_true = multifocal(catalog_lookup(name), scene.frames)
    try:
        est, rank = estimate_tensor(signature, cs)
    except AmbiguousSolutionError as exc:
        _emit({"error": str(exc), "nullity": exc.nullity})
        return 1
    err = alignment_error(est, t_true)
    res = residuals(t_true, cs)
    ok = is_zero(err, 1e-6)
    _emit(
        {
            "mode": mode,
            "views": args.views,
            "correspondences": count,
            "rank": rank,
            "alignment_error": scalar_to_json(err),
            "max_true_residual": scalar_to_json(max(abs(v) for v in res)),
            "tensor": est.to_json(),
            "pass": ok,
        }
    )
    return 0 if ok else 1


def cmd_verify_identities(args):
    mode = _mode(args)
    tol = _tol(args)
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    rng = random.Random(args.seed)
    worst = 0.0
    reports = []
    ok = True
    for trial in range(args.trials):
        a = random_motion(mode=_motion_mode(mode), rng=rng)
        b = random_motion(mode=_motion_mode(mode), rng=rng)
        ts = TrifocalSlices.from_tensor(trifocal_euclidean(a, b))
        rep = euclidean_identity_suite(ts, a, b, tol=tol)
        rep.families.extend(rank_one_certificates(ts, motions=(a, b), tol=tol).families)
        ok = ok and rep.passed
        worst = max(worst, float(rep.max_residual()))
        reports.append(rep.to_json())
    _emit({"mode": mode, "trials": args.trials, "max_residual": worst, "pass": ok,
           "reports": reports if args.verbose else reports[:1]})
    return 0 if ok else 1


def cmd_verify_cartan(args):
    rng = random.Random(args.seed)
    failures = []
    checked = 0
    for dim in (2, 3, 4):
        for p in range(0, dim + 1):
            for q in range(0, 4 - p):
                f = random_form(dim, p, q, rng)
                lhs = cartan_apply(f)
                rhs = (p + q) * f
                checked += 1
                if lhs != rhs:
                    failures.append({"dim": dim, "p": p, "q": q})
    _emit({"checked": checked, "failures": failures, "pass": not failures})
    return 0 if not failures else 1


def cmd_invariant(args):
    if not 1 <= args.trials <= MAX_WEIGHT_TRIALS:
        raise ValueError(f"--trials must be between 1 and {MAX_WEIGHT_TRIALS}, got {args.trials}")
    inv = catalog_lookup(args.name)
    out = {"invariant": inv.to_json()}
    if args.weight:
        out["weight"] = check_weight(inv, trials=args.trials)
    _emit(out)
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # main reports it as one error line
        raise ValueError(f"{self.prog}: {message}")


@functools.cache  # main may run many times in one process
def build_parser():
    parser = _Parser(
        prog="mft", description="multi-focal tensor construction and checking"
    )
    parser.add_argument("--mode", choices=("float", "rational"), default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-scene", help="sample a random Euclidean scene")
    p.add_argument("--views", type=int, default=3, choices=(2, 3, 4))
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("tensor", help="build a focal tensor from a scene file")
    p.add_argument("scene", help="JSON scene file from gen-scene")
    p.add_argument("--invariant", default=None)

    p = sub.add_parser("check", help="run the constraint corpus on a tensor file")
    p.add_argument("tensor", help="JSON tensor file")
    p.add_argument("--tol", type=float, default=TOL, help="finite, >= 0")

    p = sub.add_parser("estimate", help="round-trip: scene, correspondences, recovery")
    p.add_argument("--views", type=int, default=3, choices=(2, 3, 4))
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("verify-identities", help="slice identity suite on random motions")
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=TOL, help="finite, >= 0")
    p.add_argument("--verbose", action="store_true")

    p = sub.add_parser("verify-cartan", help="check the differential pair identity")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("invariant", help="dump a cataloged invariant")
    p.add_argument("name", help=f"bifocal|trifocal|quadrifocal|wedge:m,p1,p2, m <= {WEDGE_MAX_DIM}")
    p.add_argument("--weight", action="store_true", help="also measure the det power")
    p.add_argument("--trials", type=int, default=10,
                   help=f"random frames for --weight, 1 to {MAX_WEIGHT_TRIALS}")

    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        # looked up by name at each call, so a rebound cmd_* (perfbench's
        # tracer rebinds them) runs although the parser is built once
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except SystemExit as exc:  # --help
        return exc.code or 0
    except KeyError as exc:
        print(f"error: missing key {exc}", file=sys.stderr)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
