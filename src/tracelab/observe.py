"""Observational abstractions of traces and the bounded equivalence checker.

``sc`` collapses consecutive equal stores (store changes), ``st`` keeps every
store, ``out`` keeps restricted stores at output commands only, and ``osch``
records a store change only when the stable block in front of it performed an
output.  All of them work on anything whose elements carry a ``store``
attribute, so core traces and while-language traces share them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .lang import Program, Put
from .semantics import Run, Store, run

StoreSeq = tuple[Store, ...]


def sc(states: Sequence) -> StoreSeq:
    out: list[Store] = []
    for s in states:
        if not out or out[-1] != s.store:
            out.append(s.store)
    return tuple(out)


def st(states: Sequence) -> StoreSeq:
    return tuple(s.store for s in states)


def _is_put(state, xs: frozenset[str]) -> bool:
    a = state.command.action
    return isinstance(a, Put) and a.vars == xs


def out(states: Sequence, xs: Iterable[str]) -> StoreSeq:
    xs = frozenset(xs)
    return tuple(s.store.restrict(xs) for s in states if _is_put(s, xs))


def osch(states: Sequence, xs: Iterable[str]) -> StoreSeq:
    """Store changes at output points.  A maximal equal-store block contributes
    its restricted store once iff it contains an output command; the pending
    output mark rides forward on the block like the marker rewrite in the
    recursive definition."""
    xs = frozenset(xs)
    result: list[Store] = []
    marked = False
    n = len(states)
    for i, s in enumerate(states):
        is_put = marked or _is_put(s, xs)
        if i == n - 1:
            if is_put:
                result.append(s.store.restrict(xs))
            break
        if s.store == states[i + 1].store:
            marked = is_put
        else:
            if is_put:
                result.append(s.store.restrict(xs))
            marked = False
    return tuple(result)


def alpha_sc(traces: Iterable[Sequence]) -> frozenset[StoreSeq]:
    return frozenset(sc(t) for t in traces)


def alpha_osch(traces: Iterable[Sequence], xs: Iterable[str]) -> frozenset[StoreSeq]:
    xs = frozenset(xs)
    return frozenset(osch(t, xs) for t in traces)


def alpha_rho_sc(traces: Iterable[Sequence], rho: Store) -> frozenset[StoreSeq]:
    """sc images of exactly the traces starting with store rho."""
    return frozenset(sc(t) for t in traces if len(t) > 0 and t[0].store == rho)


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
                observe: Callable[[Sequence], StoreSeq] = sc,
                name: str = "sc") -> EquivReport:
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
                    xs: Iterable[str]) -> EquivReport:
    xs = frozenset(xs)
    return equiv_check(p1, p2, initials, budget, lambda tr: out(tr, xs), "out")
