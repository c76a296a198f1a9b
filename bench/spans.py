"""Span recording for the traced run.

``Tracer.install()`` wraps the public functions of each ``tracelab`` layer on
the pipeline path, at every name they are bound to, and records one span per
call: name, start, end, parent span and pipeline-call id, plus counts taken
from the result (states run, guard hits, hot paths found, ...).  Spans stay in
memory until ``write``.  Self time is a span's duration minus its children's.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import zip_longest


@dataclass
class Layer:
    calls: int = 0
    self_s: float = 0.0
    counts: list = field(default_factory=list)

    def count(self, i: int = 0) -> int:
        return self.counts[i] if i < len(self.counts) else 0


# Counts taken from a call's result (and arguments), as tuples that add up
# elementwise across spans.

def _len(r, args):
    return (len(r),)


def _states(r, args):
    return (len(r.states),)


def _hit(r, args):
    return (int(bool(r)),)


def _stitched(r, args):
    return (len(r.stitched),)


def _rewrites(r, args):
    return (len(args[0].stitched - r),)


def _verdicts(r, args):
    return (len(r.verdicts), sum(v.passed for v in r.verdicts))


class Tracer:
    def __init__(self):
        # (name, start, end, parent index or -1, call id, counts)
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self.call = None

    def span(self, name: str, fn, count=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                r = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.call, ())
            if count is not None:
                spans[idx] = (name, start, end, parent, self.call, count(r, args))
            return r
        return wrapped

    @contextmanager
    def pipeline_call(self, call_id):
        """Marks the spans recorded inside as belonging to one pipeline call."""
        self.call = call_id
        try:
            yield
        finally:
            self.call = None

    @contextmanager
    def install(self):
        """Wraps every binding on the pipeline path; restores them on exit."""
        mod = importlib.import_module
        cli, domains, gen, hotpath = (mod(f"tracelab.{m}") for m in ("cli", "domains", "gen", "hotpath"))
        lang, observe, optimize, textio = (mod(f"tracelab.{m}") for m in ("lang", "observe", "optimize", "textio"))
        # (owner, attribute, span name, count); owners that bind the same
        # function separately get the same span name
        targets = [
            (cli, "run", "semantics.run", _states),
            (observe, "run", "semantics.run", _states),
            (domains.StoreAbstraction, "contains", "domains.contains", _hit),
            (hotpath, "count", "hotpath.count", None),
            (hotpath, "hot_n", "hotpath.hot_n", _len),
            (hotpath, "topo_order", "hotpath.topo_order", None),
            (hotpath, "sloop", "hotpath.sloop", _len),
            (hotpath, "hotcut", "hotpath.hotcut", None),
            (hotpath, "abstract_trace", "hotpath.abstract_trace", None),
            (cli, "extract_nested", "extract.extract", _stitched),
            (optimize, "extract_nested", "extract.extract", _stitched),
            (optimize, "optimize_full", "optimize.optimize", None),
            (observe, "equiv_check", "observe.equiv_check", _verdicts),
            (textio, "parse_program", "textio.parse", None),
            (textio, "print_program", "textio.print", None),
            (lang, "well_formed", "lang.well_formed", None),
            (cli, "well_formed", "lang.well_formed", None),
            (gen, "gen_program", "gen.program", None),
        ]
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in targets]
        saved_passes = dict(optimize.PASSES)
        try:
            for owner, attr, name, count in targets:
                setattr(owner, attr, self.span(name, getattr(owner, attr), count))
            for key, fn in saved_passes.items():
                optimize.PASSES[key] = self.span("optimize.optimize", fn, _rewrites)
            yield self
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)
            optimize.PASSES.update(saved_passes)

    def layers(self) -> dict[str, Layer]:
        """Calls, summed self time and summed counts per span name."""
        child_time = defaultdict(float)
        for name, start, end, parent, call, n in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, Layer] = defaultdict(Layer)
        for i, (name, start, end, parent, call, n) in enumerate(self.spans):
            agg = out[name]
            agg.calls += 1
            agg.self_s += end - start - child_time[i]
            agg.counts = [a + b for a, b in zip_longest(agg.counts, n, fillvalue=0)]
        return out

    def write(self, path) -> None:
        with open(path, "w") as f:
            for name, start, end, parent, call, n in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "call": call, "count": n}) + "\n")
