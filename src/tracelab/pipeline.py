"""The tracing-JIT loop as a library: run, mine, stitch and optimize, check.

Each round mines the runs of the current program, one per initial store, for
hot paths against the input program (nested extraction calls previously
stitched paths like subroutines) and stitches and optimizes the first one.
Mining is lazy: a round mines its runs in order until one yields a hot path,
since it stitches only that one; a round that finds nothing mines them all.
The CLI's ``hot`` lists every hot path.
Each stitched program must be well-formed.  The final program is checked
against the input by store changes (sc), or by outputs (out) when dead-store
elimination ran, since dse does not preserve store changes; an out check
refuses a program with no output to see.  Each failing verdict is minimized
by the check that judged it.

A call runs each program once per store, through ``observe.runs``.  The input
program's runs are round 1's traces and the check's left side.  The runs of
each stitched program are the next round's traces; the runs of the last one
are the check's right side, whether the next round found no hot path or no
round was left.  So a call that finds no hot path makes one run per store,
and a call whose R rounds all stitch makes R + 1.  Only ``shrink`` runs
again, on a failure.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from . import hotpath, lang, observe, optimize
from .lang import Program
from .semantics import Run, Store


class PipelineError(Exception):
    pass


@dataclass(frozen=True)
class PipelineReport:
    hotpaths: tuple[tuple[hotpath.HotPath, int], ...]  # the hot path of each round, with its count
    program: Program  # the final program
    check: observe.EquivReport  # the final program against the input
    minimized: dict[observe.Verdict, tuple[observe.Verdict, int]]  # per failing verdict: see shrink


def mine(p: Program, original: Program, runs: Sequence[Run], threshold: int,
         domain: str) -> Iterator[tuple[hotpath.HotPath, int]]:
    """The threshold-hot paths of the hotcuts of p's runs, yielded in
    first-found order, each with the count of the run that found it first;
    p is ranked once.  Runs are mined one at a time as the caller iterates,
    so ``next`` mines only up to the first run with a hot path.  When p is
    the original, a run is its own hotcut and is mined as it is; these are
    then the paper's alpha-hot_N."""
    rank = hotpath.topo_order(p)
    seen: set[hotpath.HotPath] = set()
    for r in runs:
        cut = r if p is original else hotpath.hotcut(r, original)
        for hp, c in hotpath.hot_n(cut, threshold, domain, p, rank):
            if hp not in seen:
                seen.add(hp)
                yield hp, c


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
    before = current_runs = observe.runs(p, stores, budget)
    current = p
    hotpaths = []
    for _ in range(rounds):
        found = next(mine(current, p, current_runs, threshold, domain), None)
        if found is None:
            break
        hotpaths.append(found)
        current = optimize.optimize_full(current, found[0],
                                         [optimize.PASSES[name] for name in passes], p)
        wf = lang.well_formed(current)
        if wf:
            raise PipelineError("pipeline produced an ill-formed program: " + "; ".join(wf))
        del current_runs  # a round's runs go before the next round's are made
        current_runs = observe.runs(current, stores, budget)

    report = check(p, current, stores, budget, made=(before, current_runs))
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
