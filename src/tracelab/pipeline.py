"""The tracing-JIT loop as a library: run, mine, stitch and optimize, check.

Each round runs the current program from every initial store, mines the
traces' hot paths against the input program (nested extraction calls
previously stitched paths like subroutines) and stitches and optimizes the
first one.  The final program must be well-formed, and it is checked against
the input by store changes (sc), or by outputs (out) when dead-store
elimination ran, since dse does not preserve store changes; an out check
refuses a program with no output to see.  Each failing verdict is minimized
by the check that judged it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence

from . import hotpath, lang, observe, optimize
from .lang import Program
from .semantics import Store, run


class PipelineError(Exception):
    pass


@dataclass(frozen=True)
class PipelineReport:
    hotpaths: tuple[tuple[hotpath.HotPath, int], ...]  # the hot path of each round, with its count
    program: Program  # the final program
    check: observe.EquivReport  # the final program against the input
    minimized: dict[observe.Verdict, tuple[observe.Verdict, int]]  # per failing verdict: see shrink


def mine(p: Program, original: Program, stores: Sequence[Store], budget: int,
         threshold: int, domain: str) -> list[tuple[hotpath.HotPath, int]]:
    """The threshold-hot paths of the hotcuts of p's runs from the stores, in
    first-found order, each with the count of the run that found it first; p
    is ranked once.  With p == original these are the paper's alpha-hot_N."""
    traces = [run(p, rho, budget).states for rho in stores]
    rank = hotpath.topo_order(p)
    found: dict[hotpath.HotPath, int] = {}
    for tr in traces:
        for hp, c in hotpath.hot_n(hotpath.hotcut(tr, original), threshold, domain, p, rank):
            found.setdefault(hp, c)
    return list(found.items())


def pipeline(p: Program, stores: Sequence[Store], domain: str, threshold: int, budget: int,
             passes: Sequence[str], rounds: int,
             xs: Optional[frozenset[str]] = None) -> PipelineReport:
    """Up to ``rounds`` rounds of mining and ``optimize_full`` with the named
    passes, stopping early when no hot path is found, then the check of the
    result; ``xs`` are the outputs an out check sees (see ``out_equiv_check``)."""
    if rounds < 1:
        raise PipelineError("rounds must be at least 1")
    if "dse" in passes:
        check = functools.partial(observe.out_equiv_check, xs=xs)
        # passes never add or remove a put, so an out check that would observe
        # nothing is refused here, before any mining
        check(p, p, (), budget)
    else:
        check = observe.sc_equiv_check
    current = p
    hotpaths = []
    for _ in range(rounds):
        found = mine(current, p, stores, budget, threshold, domain)
        if not found:
            break
        hotpaths.append(found[0])
        current = optimize.optimize_full(current, found[0][0],
                                         [optimize.PASSES[name] for name in passes], p)
    wf = lang.well_formed(current)
    if wf:
        raise PipelineError("pipeline produced an ill-formed program: " + "; ".join(wf))

    report = check(p, current, stores, budget)
    minimized = {v: shrink(p, current, v.initial, budget, check)
                 for v in report.verdicts if not v.passed}
    return PipelineReport(tuple(hotpaths), current, report, minimized)


def shrink(p1: Program, p2: Program, rho: Store, budget: int,
           check) -> tuple[observe.Verdict, int]:
    """Deterministic shrinking: halve the bound store and the budget while the
    failure persists under ``check``, the equivalence check that judged it.
    Returns the verdict on the smallest failing store and that budget."""
    store = rho

    def fails(s: Store, b: int) -> bool:
        return not check(p1, p2, [s], b).passed

    changed = True
    while changed:
        changed = False
        if budget > 2 and fails(store, budget // 2):
            budget //= 2
            changed = True
        keys = sorted(store.keys())
        if len(keys) > 1:
            half = Store({k: v for k, v in store.items() if k in keys[: len(keys) // 2]})
            if fails(half, budget):
                store = half
                changed = True
    return check(p1, p2, [store], budget).verdicts[0], budget
