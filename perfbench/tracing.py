"""Outside-in span tracer for qpcut's layers.

The tracer replaces each traced function with a wrapper in the module where
its caller looks the name up (``qpcut.bnb.reduce`` for the branch-and-bound
search loop, ``qpcut.projgrad.project`` for the gradient-projection loop, and so
on), so no file of the solver changes.  Spans are kept in memory with a
parent link and a per-solve id and written out at the end.  ``project`` is
called hundreds of thousands of times per pass, so its spans are folded into
one (count, seconds) record per parent span instead of one record per call.

A span's self time is its duration minus the durations of its direct
children.  The self times of all spans under one solve add up to the root
span, whose own self time is the search-loop code no wrapped layer covers.
"""

from __future__ import annotations

import itertools
import json
import time
from collections import defaultdict

import qpcut.bnb
import qpcut.projgrad
from qpcut.qp import InfeasibleSubproblemError

__all__ = ["ROOT", "TRACED", "Tracer"]

ROOT = "bnb.solve"

# (module whose global is replaced, attribute, span name)
TRACED = (
    (qpcut.bnb, "sdp_shift", "bounds.sdp_shift"),
    (qpcut.bnb, "sigma_shift", "bounds.sigma_shift"),
    (qpcut.bnb, "reduce", "qp.reduce"),
    (qpcut.bnb, "build_relaxation", "bounds.build_relaxation"),
    (qpcut.bnb, "project", "projgrad.project"),
    (qpcut.bnb, "solve_convex", "projgrad.solve_convex"),
    (qpcut.bnb, "upper_bound_from", "bnb.upper_bound_from"),
    (qpcut.bnb, "descend_nonconvex", "projgrad.descend_nonconvex"),
    (qpcut.bnb, "round_to_binary", "rounding.round_to_binary"),
    (qpcut.bnb, "check_local_min", "optimality.check_local_min"),
    (qpcut.bnb, "descent_direction", "optimality.descent_direction"),
    (qpcut.projgrad, "project", "projgrad.project"),
    (qpcut.projgrad, "certified_lower_bound", "bounds.certified_lower_bound"),
)
FOLDED = frozenset({"projgrad.project"})

# span record fields
_ID, _PARENT, _SOLVE, _NAME, _START, _END, _CHILD = range(7)


class Tracer:
    """Records spans while installed; use as a context manager."""

    def __init__(self):
        self.spans = []  # finished span records
        self.folded = defaultdict(lambda: [0, 0.0])  # (parent id, name) -> [calls, seconds]
        self.counters = defaultdict(int)
        self._stack = []
        self._ids = itertools.count()
        self._solves = itertools.count()
        self._saved = []

    def __enter__(self):
        for module, attr, name in TRACED:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False

    def solve(self, fn, *args, **kwargs):
        """Run one solve under a root span with a fresh solve id."""
        return self._span(ROOT, next(self._solves), fn, args, kwargs)

    def _span(self, name, solve_id, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1] if stack else None
        rec = [next(self._ids), parent[_ID] if parent else -1, solve_id, name, 0.0, 0.0, 0.0]
        stack.append(rec)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            rec[_START], rec[_END] = t0, t1
            if parent is not None:
                parent[_CHILD] += t1 - t0
            self.spans.append(rec)

    def _wrap(self, name, fn):
        stack, counters, folded = self._stack, self.counters, self.folded
        perf_counter = time.perf_counter
        hook = _RESULT_HOOKS.get(name)

        if name in FOLDED:
            # a folded function must be a leaf: it calls nothing traced
            def traced(*args, **kwargs):
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    parent = stack[-1]
                    parent[_CHILD] += dt
                    agg = folded[(parent[_ID], name)]
                    agg[0] += 1
                    agg[1] += dt

        else:

            def traced(*args, **kwargs):
                solve_id = stack[-1][_SOLVE] if stack else -1
                try:
                    result = self._span(name, solve_id, fn, args, kwargs)
                except InfeasibleSubproblemError:
                    counters[name + ".infeasible"] += 1
                    raise
                if hook is not None:
                    hook(counters, result)
                return result

        traced.__wrapped__ = fn
        return traced

    # -- results ----------------------------------------------------------

    def layer_totals(self):
        """{name: [calls, self seconds, total seconds]} over every recorded span."""
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for rec in self.spans:
            dur = rec[_END] - rec[_START]
            row = out[rec[_NAME]]
            row[0] += 1
            row[1] += dur - rec[_CHILD]
            row[2] += dur
        for (_, name), (calls, secs) in self.folded.items():
            row = out[name]
            row[0] += calls
            row[1] += secs
            row[2] += secs
        return out

    def solve_closure(self):
        """Per solve id: (sum of self times under the solve, root span duration)."""
        self_sum = defaultdict(float)
        root = {}
        for rec in self.spans:
            dur = rec[_END] - rec[_START]
            self_sum[rec[_SOLVE]] += dur - rec[_CHILD]
            if rec[_NAME] == ROOT:
                root[rec[_SOLVE]] = dur
        solve_of = {rec[_ID]: rec[_SOLVE] for rec in self.spans}
        for (parent, _), (_, secs) in self.folded.items():
            self_sum[solve_of[parent]] += secs
        return {sid: (self_sum[sid], root[sid]) for sid in root}

    def write(self, fh, **extra):
        """Append spans as JSON lines; folded spans carry a call count."""
        for rec in self.spans:
            row = dict(zip(("id", "parent", "solve", "name", "start", "end", "child_s"), rec))
            fh.write(json.dumps({**extra, **row}) + "\n")
        for (parent, name), (calls, secs) in self.folded.items():
            row = {"parent": parent, "name": name, "calls": calls, "s": secs}
            fh.write(json.dumps({**extra, **row}) + "\n")


def _solve_convex_result(counters, result):
    report, _ = result
    counters["projgrad.relax_iters"] += report.iterations
    counters["projgrad.relax_converged"] += bool(report.converged)


def _descend_result(counters, report):
    counters["projgrad.descent_iters"] += report.iterations


_RESULT_HOOKS = {
    "projgrad.solve_convex": _solve_convex_result,
    "projgrad.descend_nonconvex": _descend_result,
}
