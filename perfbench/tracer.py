"""Spans around the public functions of the mft modules, from outside the package.

``Tracer.install`` wraps every public module-level function that an mft
module defines (plus the methods in ``METHODS``) and rebinds each wrapper
under every name that refers to the original, in every mft module and in
the package namespace.  Internal calls such as ``cli`` calling the
``check_all`` it imported, or ``coaction`` and ``invariants`` calling their
own ``minor``, therefore go through the spans too.

Spans are recorded only while ``op`` is set, i.e. inside a timed operation.
Each span keeps its operation id and its parent span; the totals per name
(calls, inclusive time, self time, raised calls) are kept as they happen,
and the first ``MAX_SPANS`` spans are kept for writing out at the end.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time
from fractions import Fraction

# Hot leaf helpers: tracing them would cost more than the work they do and
# they are no layer of their own.
EXCLUDE = {"exterior.index_subsets", "exterior.merge_sign"}
EXCLUDE_MODULES = {"scalars"}
METHODS = [("coaction", "GroupElement", "inverse")]
MAX_SPANS = 200_000  # spans kept for writing out; later ones are only counted


def _bits(x):
    if isinstance(x, (int, Fraction)):
        x = Fraction(x)
        return max(abs(x.numerator).bit_length(), x.denominator.bit_length())
    return 0


def _matrix_bits(rows):
    return max((_bits(x) for row in rows for x in row), default=0)


class Tracer:
    def __init__(self):
        self.op = None  # id of the timed operation, None outside one
        self.stats = {}  # name -> [calls, total s, self s, raised]
        self.extra = {}  # name -> number, maxima of input sizes
        self.spans = []  # (span id, parent id, op id, name, start, end, raised)
        self.dropped = 0
        self._stack = []  # [span id, child seconds] per open span
        self._next_id = 0

    # -- installation ------------------------------------------------------

    def install(self, package):
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        targets = {}  # original function -> wrapper
        for mod in modules[1:]:
            short = mod.__name__.rsplit(".", 1)[1]
            if short in EXCLUDE_MODULES:
                continue
            for attr, fn in list(vars(mod).items()):
                name = f"{short}.{attr}"
                if (attr.startswith("_") or name in EXCLUDE or not callable(fn)
                        or isinstance(fn, type) or getattr(fn, "__module__", None) != mod.__name__):
                    continue
                targets[fn] = self.wrap(name, fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                try:
                    wrapper = targets.get(value)
                except TypeError:  # unhashable module attribute
                    continue
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
        for short, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"{package.__name__}.{short}"], cls_name)
            setattr(cls, meth, self.wrap(f"{short}.{cls_name}.{meth}", getattr(cls, meth)))
        return sorted({w.__trace_name__ for w in targets.values()} | {
            f"{s}.{c}.{m}" for s, c, m in METHODS})

    def wrap(self, name, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = [self._next_id, 0.0]
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            self._stack.append(span)
            raised = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised = True
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - start
                if self._stack:
                    self._stack[-1][1] += duration
                st = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
                st[0] += 1
                st[1] += duration
                st[2] += duration - span[1]
                st[3] += raised
                if len(self.spans) < MAX_SPANS:
                    self.spans.append((span[0], parent, self.op, name, start, end, raised))
                else:
                    self.dropped += 1
            if observe is not None:
                start = time.perf_counter()
                observe(self, args, result)
                if self._stack:  # keep the observation out of the parent's self time
                    self._stack[-1][1] += time.perf_counter() - start
            return result

        traced.__trace_name__ = name
        return traced

    def _maximum(self, key, value):
        self.extra[key] = max(self.extra.get(key, 0), value)

    # -- results -------------------------------------------------------------

    def layer_metrics(self, names, cycles, op_seconds):
        """Per-cycle means of calls, ms, self_ms and raised calls for each
        traced name, its self time as a percentage of the traced operations'
        time, and the maxima recorded by the observers."""
        out = {}
        for name in names:
            calls, total, self_s, raised = self.stats.get(name, (0, 0.0, 0.0, 0))
            out[f"{name}.calls"] = calls / cycles
            out[f"{name}.ms"] = total * 1000 / cycles
            out[f"{name}.self_ms"] = self_s * 1000 / cycles
            out[f"{name}.self_pct"] = 100 * self_s / op_seconds
            out[f"{name}.failed"] = raised / cycles
        for key in NULLSPACE_KEYS:
            out[key] = self.extra.get(key, 0)
        calls, _, _, raised = self.stats.get("estimation.project_point", (0, 0.0, 0.0, 0))
        out["estimation.project_point.useful_ratio"] = (calls - raised) / calls if calls else 1.0
        return out

    def write_spans(self, fh):
        for span in self.spans:
            fh.write("%d\t%s\t%s\t%s\t%.9f\t%.9f\t%d\n" % (
                span[0], "" if span[1] is None else span[1], span[2], span[3],
                span[4], span[5], span[6]))


def _observe_nullspace(tracer, args, result):
    rows = args[0]
    tracer._maximum("linalg.nullspace.rows", len(rows))
    tracer._maximum("linalg.nullspace.cols", len(rows[0]) if rows else 0)
    tracer._maximum("linalg.nullspace.in_max_bits", _matrix_bits(rows))
    tracer._maximum("linalg.nullspace.out_max_bits", _matrix_bits(result))


NULLSPACE_KEYS = ("linalg.nullspace.rows", "linalg.nullspace.cols",
                  "linalg.nullspace.in_max_bits", "linalg.nullspace.out_max_bits")
OBSERVERS = {"linalg.nullspace": _observe_nullspace}
