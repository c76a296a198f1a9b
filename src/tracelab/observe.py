"""Observational abstractions of traces and the bounded equivalence checker.

``sc`` collapses consecutive equal stores (store changes), ``st`` keeps every
store, and ``out`` keeps restricted stores at output commands only.  All of
them work on anything whose elements carry a ``store`` attribute, so core
traces and while-language traces share them.  An out check refuses programs
with no output command of its variables, which it would pass unobserved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .lang import Program, Put
from .semantics import Run, Store, run

StoreSeq = tuple[Store, ...]


class ObserveError(Exception):
    pass


def sc(states: Sequence) -> StoreSeq:
    out: list[Store] = []
    for s in states:
        if not out or out[-1] != s.store:
            out.append(s.store)
    return tuple(out)


def st(states: Sequence) -> StoreSeq:
    """Every store (test oracle: while-language runs against their compiled
    runs in ``test_gp``)."""
    return tuple(s.store for s in states)


def out(states: Sequence, xs: Iterable[str]) -> StoreSeq:
    put = Put(frozenset(xs))
    return tuple(s.store.restrict(put.vars) for s in states if s.command.action == put)


# ---------------------------------------------------------------------------
# Bounded equivalence checking
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Verdict:
    initial: Store
    passed: bool
    divergence: Optional[int]  # first differing observation index on failure

    def __str__(self):
        tag = "PASS" if self.passed else f"FAIL@{self.divergence}"
        return f"{tag} rho={self.initial}"


@dataclass(frozen=True)
class EquivReport:
    verdicts: tuple[Verdict, ...]
    observation: str  # name of the observation that judged, e.g. "sc"

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def tap(self) -> str:
        lines = []
        for i, v in enumerate(self.verdicts, start=1):
            if v.passed:
                lines.append(f"ok {i} - rho={v.initial} {self.observation}-equal")
            else:
                lines.append(f"not ok {i} - rho={v.initial} diverged at index {v.divergence}")
        return "\n".join(lines)


def _first_divergence(a: StoreSeq, b: StoreSeq) -> Optional[int]:
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return i
    if len(a) != len(b):
        return min(len(a), len(b))
    return None


def compare(o1: StoreSeq, o2: StoreSeq, r1: Run, r2: Run) -> tuple[bool, Optional[int]]:
    div = _first_divergence(o1, o2)
    both_complete = not r1.truncated and not r2.truncated
    if o1 == o2:
        return True, None
    if both_complete:
        return False, div
    # truncated somewhere: a prefix relationship is all the budget can certify
    if div is not None and div < min(len(o1), len(o2)):
        return False, div
    return True, None


def equiv_check(p1: Program, p2: Program, initials: Iterable[Store], budget: int,
                observe: Callable[[Sequence], StoreSeq], name: str) -> EquivReport:
    """Bounded differential check of two deterministic programs.

    For each initial store both programs run to completion or budget; the
    observation sequences must be equal when both runs completed, and in a
    prefix relation otherwise.  ``name`` names the observation in the report.
    """
    verdicts = []
    for rho in initials:
        r1 = run(p1, rho, budget)
        r2 = run(p2, rho, budget)
        o1, o2 = observe(r1.states), observe(r2.states)
        passed, div = compare(o1, o2, r1, r2)
        verdicts.append(Verdict(rho, passed, div))
    return EquivReport(tuple(verdicts), name)


def sc_equiv_check(p1: Program, p2: Program, initials: Iterable[Store],
                   budget: int) -> EquivReport:
    return equiv_check(p1, p2, initials, budget, sc, "sc")


def out_equiv_check(p1: Program, p2: Program, initials: Iterable[Store], budget: int,
                    xs: Optional[Iterable[str]] = None) -> EquivReport:
    """Outputs of ``xs`` (default: the variables of both programs) agree."""
    put = Put(p1.vars() | p2.vars() if xs is None else frozenset(xs))
    if not any(c.action == put for p in (p1, p2) for c in p.commands):
        raise ObserveError(f"out check observes nothing: neither program has {put}")
    return equiv_check(p1, p2, initials, budget, lambda tr: out(tr, put.vars), "out")
