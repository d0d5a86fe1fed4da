"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload exact-recovery --seed 1 --seconds 25 --trace 0

Runs the workload in a fresh single-threaded worker process (``worker.py``),
checks every output there, and prints a report line followed by the result
line ``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones from a traced run.  Exits 1 when any output was wrong and 2
when the benchmark cannot run (no ``src/mft`` in this checkout, a worker
that crashed or overran).  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench-out")
WORKLOADS = ("exact-recovery", "float-recovery", "verify-corpus")
BLAS_ENV = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
SETUP_PROBES = 6  # extra set-up-only processes; setup_s is the median of these and the run's own
TIME_LIMIT_S = 170

# The layers named in README.md.  Calls, raised calls and self-time share are
# printed for each; times in ms only for the shared kernels that every
# workload exercises, so that no time reads a constant 0.  The report line
# carries calls, ms, self_ms, self_pct and failed of every traced function.
LAYERS = (
    ["linalg.nullspace", "linalg.rank", "coaction.GroupElement.inverse", "coaction.psi",
     "coaction.compound_matrix", "focal.multifocal", "exterior.minor", "exterior.wedge",
     "invariants.check_weight", "invariants.transform", "polyforms.cartan_apply", "cli.main"]
    + [f"estimation.{f}" for f in ("random_scene", "correspondences_bifocal",
                                   "correspondences_trifocal", "correspondences_quadrifocal",
                                   "linear_rows", "solve_nullspace", "project_point")]
    + [f"constraints.{f}" for f in ("check_all", "trifocal_det_cubics", "epipolar_sextics",
                                    "braid_residual", "rank_one_certificates",
                                    "euclidean_identity_suite")]
)
PER_LAYER = (
    [(f"{layer}.{field}", unit) for layer in LAYERS
     for field, unit in (("calls", "calls/cycle"), ("failed", "calls/cycle"), ("self_pct", "%"))]
    + [(f"linalg.nullspace.{k}", u) for k, u in (("rows", "count"), ("cols", "count"),
                                                 ("in_max_bits", "bits"), ("out_max_bits", "bits"))]
    + [("estimation.project_point.useful_ratio", "ratio")]
    + [(name, "ms/cycle") for name in (
        "coaction.GroupElement.inverse.ms", "coaction.GroupElement.inverse.self_ms",
        "linalg.rref.ms", "linalg.rref.self_ms", "linalg.inverse.ms", "linalg.det.self_ms",
        "linalg.mat_mul.self_ms", "euclidean.random_motion.ms")]
    + [("import_ms", "ms"), ("trace_overhead_frac", "ratio")]
)


def git_sha():
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:])) as fh:
                return fh.read().strip()
        return head
    except OSError:
        return "unknown"


def spawn(args, extra, deadline):
    """Run one worker; returns (its result document, seconds from spawn to ready)."""
    out = os.path.join(OUT, f"worker-{os.getpid()}-{time.monotonic_ns()}.json")
    env = dict(os.environ, PYTHONHASHSEED="0", **BLAS_ENV)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--out", out, *extra]
    start = time.monotonic()
    try:
        subprocess.run(cmd, env=env, check=True, timeout=max(1.0, deadline - start))
        with open(out) as fh:
            doc = json.load(fh)
    finally:
        if os.path.exists(out):
            os.remove(out)
    return doc, doc["ready"] - start


def kind_summary(records):
    out = {}
    for kind in sorted({r[1] for r in records}):
        times = [r[2] for r in records if r[1] == kind]
        entry = {"n": len(times), "p50_ms": 1000 * statistics.median(times)}
        if len(times) >= 100:  # at least ten samples beyond the 90th percentile
            entry["p90_ms"] = 1000 * statistics.quantiles(times, n=10, method="inclusive")[8]
        out[kind] = entry
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not os.path.isfile(os.path.join(ROOT, "src", "mft", "__init__.py")):
        print(f"error: no src/mft package under {ROOT}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_path = os.path.join(OUT, f"spans-{tag}.tsv")
    try:
        setups = [] if args.trace else [
            spawn(args, ["--setup-only"], deadline)[1] for _ in range(SETUP_PROBES)]
        extra = ["--trace", "1", "--spans", spans_path] if args.trace else []
        doc, setup = spawn(args, extra, deadline)
    except (subprocess.SubprocessError, OSError, ValueError, KeyError) as exc:
        print(f"error: worker failed: {exc}", file=sys.stderr)
        return 2
    setups.append(setup)

    records, cycles = doc["records"], doc["cycles"]
    failures = [r for r in records if r[3] is not None]
    attempted = len(records)
    correct_ops = attempted - len(failures)
    if args.trace:
        metrics = {name: {"value": doc["layers"][name], "unit": unit} for name, unit in PER_LAYER}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": correct_ops / sum(cycles), "unit": "1/s"},
            "cycle_ms_p50": {"value": 1000 * statistics.median(cycles), "unit": "ms"},
            "peak_rss_mb": {"value": doc["peak_rss_kb"] / 1024, "unit": "MiB"},
        }
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "python": doc["python"],
        "numpy": doc["numpy"], "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_ENV,
        "cycles": len(cycles),
        "failed_frac": len(failures) / attempted, "setup_samples_s": setups,
        "import_s": doc["import_s"],
        "ops": {k: v["n"] for k, v in kind_summary(records).items()},
        "first_failures": failures[:5], "excluded_draws": doc["excluded"],
    }
    if args.trace:
        report.update({k: doc[k] for k in ("traced_cycles", "spans", "spans_dropped",
                                           "overhead_cycles", "cycle_ms_untraced")})
        report["spans_file"] = os.path.relpath(spans_path, ROOT)
        report["layers"] = doc["layers"]
    else:
        report["latency"] = kind_summary(records)
    with open(os.path.join(OUT, f"run-{tag}.json"), "w") as fh:
        json.dump({"report": report, "metrics": metrics}, fh, indent=1)
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
