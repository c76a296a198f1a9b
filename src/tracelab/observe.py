"""Observational abstractions of traces and the bounded equivalence checker.

``sc`` observes store changes, ``st`` keeps every store, and ``out`` keeps
restricted stores at output commands only.  They read a run's record (its
initial store, commands and writes), so core runs and while-language runs
share them.  ``sc`` reads the writes: it gives the initial store, then each
write that changes a value, as the bindings it changes.  Store i + 1 of the
run's stores with consecutive equal stores collapsed is store i updated by
change i + 1, so the two sequences have the same length, and two runs' first
divergence has the same index in both: equal stores up to some index, with
equal changes, stay equal, and the first unequal pair after equal
predecessors is an unequal pair of changes.  A change lists its bindings in
variable order, so equal changes compare equal.  ``out`` replays the writes
once up to the output commands.  An out check refuses programs with no
output command of its variables, which it would pass unobserved.

Every run the checks and the pipeline make goes through ``runs``.  The checks
judge runs: a caller that has the two programs' runs already (the pipeline
mined them) passes them in, and a check makes only the runs it is not given.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .lang import Program, Put
from .semantics import Run, Store, run
from .values import UNDEF

Observations = tuple  # of stores; ``sc`` gives changes after the first
RunPair = tuple[Sequence[Run], Sequence[Run]]


class ObserveError(Exception):
    pass


def runs(p: Program, stores: Iterable[Store], budget: int) -> tuple[Run, ...]:
    """One run of p from each store, in order."""
    return tuple(run(p, rho, budget) for rho in stores)


def sc(r: Run) -> Observations:
    """Store changes: the initial store, then each write that changes a
    value, as the bindings it changes (see the module docstring)."""
    if not r.commands:
        return ()
    m = dict(r.initial.items())
    get, undef = m.get, UNDEF
    out: list = [r.initial]
    for w in r.writes:
        if not w:
            continue
        if len(w) == 1:
            (x, v), = w
            if get(x, undef) == v:
                continue
        else:  # keep the bindings that change a value
            w = tuple((x, v) for x, v in w if get(x, undef) != v)
            if not w:
                continue
        out.append(w)
        m.update(w)  # an unbound variable reads undef, bound to undef or not
    return tuple(out)


def st(r: Run) -> Observations:
    """Every store (test oracle: while-language runs against their compiled
    runs in ``test_gp``)."""
    return tuple(r.stores_at(range(len(r))))


def out(r: Run, xs: Iterable[str]) -> Observations:
    put = Put(frozenset(xs))
    at = [i for i, c in enumerate(r.commands) if c.action == put]
    return tuple(s.restrict(put.vars) for s in r.stores_at(at))


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


def _first_divergence(a: Observations, b: Observations) -> Optional[int]:
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return i
    if len(a) != len(b):
        return min(len(a), len(b))
    return None


def compare(o1: Observations, o2: Observations, r1: Run, r2: Run) -> tuple[bool, Optional[int]]:
    """One walk of the two observation sequences: no divergence means they
    are equal."""
    div = _first_divergence(o1, o2)
    if div is None:
        return True, None
    if not r1.truncated and not r2.truncated:
        return False, div
    # truncated somewhere: a prefix relationship is all the budget can certify
    if div < min(len(o1), len(o2)):
        return False, div
    return True, None


def equiv_check(runs1: Sequence[Run], runs2: Sequence[Run],
                observe: Callable[[Run], Observations], name: str) -> EquivReport:
    """Bounded differential check of two deterministic programs by their
    runs, one of each program per initial store, paired in order.

    The observation sequences must be equal when both runs completed, and in
    a prefix relation otherwise.  ``name`` names the observation in the
    report."""
    verdicts = []
    for r1, r2 in zip(runs1, runs2, strict=True):
        passed, div = compare(observe(r1), observe(r2), r1, r2)
        verdicts.append(Verdict(r1.initial, passed, div))
    return EquivReport(tuple(verdicts), name)


def _runs(p1: Program, p2: Program, initials: Iterable[Store], budget: int,
          made: Optional[RunPair]) -> RunPair:
    if made is not None:
        return made
    initials = tuple(initials)
    return runs(p1, initials, budget), runs(p2, initials, budget)


def sc_equiv_check(p1: Program, p2: Program, initials: Iterable[Store], budget: int,
                   made: Optional[RunPair] = None) -> EquivReport:
    """Store changes agree.  ``made``, when given, holds the runs of p1 and p2
    from ``initials`` at ``budget``, which the caller made already."""
    return equiv_check(*_runs(p1, p2, initials, budget, made), sc, "sc")


def out_equiv_check(p1: Program, p2: Program, initials: Iterable[Store], budget: int,
                    xs: Optional[Iterable[str]] = None,
                    made: Optional[RunPair] = None) -> EquivReport:
    """Outputs of ``xs`` (default: the variables of both programs) agree;
    ``made`` as for ``sc_equiv_check``."""
    put = Put(p1.vars() | p2.vars() if xs is None else frozenset(xs))
    if not any(c.action == put for p in (p1, p2) for c in p.commands):
        raise ObserveError(f"out check observes nothing: neither program has {put}")
    return equiv_check(*_runs(p1, p2, initials, budget, made),
                       lambda r: out(r, put.vars), "out")
