"""One workload in one fresh process: import, set up, run cycles, check outputs.

Started by ``run.py`` with the BLAS thread variables pinned to 1.  Writes
one JSON document to ``--out``; with ``--setup-only`` it stops after
building the inputs, so that ``run.py`` can time set-up several times.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_mft():
    """Import mft from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import mft

    elapsed = time.perf_counter() - start
    if os.path.dirname(os.path.dirname(os.path.abspath(mft.__file__))) != SRC:
        raise ImportError(f"mft imported from {mft.__file__}, not from {SRC}")
    return mft, elapsed


def run_cycles(workload, seconds, tracer=None):
    """Whole cycles until the next one would overrun ``seconds`` of timed work
    (at least one).  Returns per-operation records and per-cycle seconds."""
    records, cycles = [], []
    timed = 0.0
    while not cycles or timed + timed / len(cycles) <= seconds:
        index = len(cycles)
        gen = workload.cycle(index)
        spent = 0.0
        try:
            op = next(gen)
            while True:
                if tracer is not None:
                    tracer.op = f"{index}:{len(records)}"
                start = time.perf_counter()
                try:
                    out, error = op.run(), None
                except Exception as exc:  # a raising operation counts as failed
                    out, error = None, f"raised {type(exc).__name__}: {exc}"
                elapsed = time.perf_counter() - start
                if tracer is not None:
                    tracer.op = None
                if error is None:
                    try:
                        error = op.check(out)
                    except Exception as exc:  # an output the oracle cannot read is wrong
                        error = f"oracle raised {type(exc).__name__}: {exc}"
                records.append([index, op.kind, elapsed, error])
                spent += elapsed
                op = gen.send(None if error else out)
        except StopIteration:
            pass
        cycles.append(spent)
        timed += spent
    return records, cycles


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", default=None, help="file for the traced spans")
    args = parser.parse_args(argv)

    mft, import_s = import_mft()
    import numpy

    import workloads

    workdir = tempfile.mkdtemp(prefix="inputs-", dir=os.path.dirname(os.path.abspath(args.out)))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed)
        workload.setup(workdir)
        result = {"ready": time.monotonic(), "import_s": import_s}
        if not args.setup_only:
            result.update(measure(workload, args, mft, import_s))
            result["excluded"] = getattr(workload, "excluded", [])
            result["python"] = sys.version.split()[0]
            result["numpy"] = numpy.__version__
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


def measure(workload, args, mft, import_s):
    if not args.trace:
        records, cycles = run_cycles(workload, args.seconds)
        return {"records": records, "cycles": cycles,
                "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}

    # Untraced and traced halves over the same cycles, for the overhead.
    from tracer import Tracer

    plain_records, plain = run_cycles(workload, args.seconds / 2)
    tracer = Tracer()
    names = tracer.install(mft)
    records, traced = run_cycles(workload, args.seconds / 2, tracer)
    common = min(len(plain), len(traced))
    layers = tracer.layer_metrics(names, len(traced), sum(traced))
    layers["import_ms"] = 1000 * import_s
    layers["trace_overhead_frac"] = sum(traced[:common]) / sum(plain[:common]) - 1
    if args.spans:
        with open(args.spans, "w") as fh:
            tracer.write_spans(fh)
    return {"records": plain_records + records, "cycles": traced,
            "layers": layers, "traced_cycles": len(traced),
            "spans": len(tracer.spans), "spans_dropped": tracer.dropped,
            "overhead_cycles": common,
            "cycle_ms_untraced": 1000 * statistics.median(plain)}


if __name__ == "__main__":
    sys.exit(main())
