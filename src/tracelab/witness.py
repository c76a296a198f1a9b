"""Executable proof witnesses: trace unfolding, refolding, and respecialization.

These functions move execution traces between a program and its extracted (or
type-specialized) form.  They exist to be checked, not to be fast: every
output is validated against the claimed program's transition relation, which
is the executable content of their well-definedness lemmas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .domains import get_domain
from .extract import StitchResult
from .lang import AddTyped, Command, Guard, Program, find_cmpl
from .semantics import State, Store, eval_expr, trace_linked
from .values import INT, STRING, type_of


class WitnessError(Exception):
    pass


@dataclass(frozen=True)
class WitnessContext:
    """Everything needed to walk a hot path's stitch from either side."""

    source: Program
    st: StitchResult

    @property
    def hp(self):
        return self.st.hp

    @property
    def target(self) -> Program:
        return self.st.transformed

    def entry(self, positive: bool) -> Command:
        cands = [c for c in self.st.stitched
                 if c.label == self.st.entry_label and isinstance(c.action, Guard)
                 and c.action.positive == positive]
        if not cands:
            raise WitnessError("stitch has no entry guard")
        return cands[0]

    def interior_guard(self, i: int, positive: bool) -> Command:
        label = self.st.bbl[i]
        cands = [c for c in self.st.stitched
                 if c.label == label and isinstance(c.action, Guard)
                 and c.action.positive == positive]
        if not cands:
            raise WitnessError(f"no interior guard at index {i}")
        return cands[0]

    def body(self, i: int) -> Command:
        return self.st.body[i]

    def body_exit(self, i: int) -> Optional[Command]:
        label = self.st.ell[i]
        body = self.st.body.get(i)
        for c in self.st.stitched:
            if c.label == label and c != body:
                return c
        return None

    def bar_cmd(self, complement: bool) -> Optional[Command]:
        if self.st.bar is None:
            return None
        c0 = self.hp.commands[0]
        for c in self.target.at(self.st.bar):
            if (c.action == c0.action) != complement:
                return c
        return None

    def sat(self, i: int, store: Store) -> bool:
        a = self.hp.pairs[i][0]
        return get_domain(self.hp.domain).contains(a, store)


def _check(program: Program, states: Sequence[State], what: str):
    if not trace_linked(program, states):
        raise WitnessError(f"{what} produced an illegal trace")


# ---------------------------------------------------------------------------
# Unfolding: source traces into the extracted program
# ---------------------------------------------------------------------------

def tr_out(ctx: WitnessContext, states: Sequence[State]) -> tuple[State, ...]:
    """Unfold occurrences of the hot path in a source trace into its stitch.

    Outside mode enters the stitch at the head command when the entry guard
    holds; inside mode advances position by position, bailing out through the
    matching negative guard or complement exit when the store or the branch
    disagrees with the path.
    """
    hp = ctx.hp
    n = len(hp) - 1
    cmds = hp.commands
    cmpls = [find_cmpl(c, ctx.source) for c in cmds]

    out: list[State] = []
    mode_in = False
    expect = 0
    for s in states:
        rho, c = s.store, s.command
        if not mode_in:
            if c == cmds[0] and ctx.sat(0, rho):
                out.append(State(rho, ctx.entry(True)))
                out.append(State(rho, ctx.body(0)))
                mode_in, expect = (True, 1) if n >= 1 else (False, 0)
            elif c == cmds[0]:
                out.append(State(rho, ctx.entry(False)))
                out.append(State(rho, ctx.bar_cmd(complement=False)))
            elif cmpls[0] is not None and c == cmpls[0] and ctx.sat(0, rho):
                out.append(State(rho, ctx.entry(True)))
                out.append(State(rho, ctx.body_exit(0)))
            elif cmpls[0] is not None and c == cmpls[0]:
                out.append(State(rho, ctx.entry(False)))
                out.append(State(rho, ctx.bar_cmd(complement=True)))
            else:
                out.append(s)
        else:
            i = expect
            if c == cmds[i] and ctx.sat(i, rho):
                out.append(State(rho, ctx.interior_guard(i, True)))
                out.append(State(rho, ctx.body(i)))
                mode_in, expect = (True, i + 1) if i < n else (False, 0)
            elif c == cmds[i]:
                out.append(State(rho, ctx.interior_guard(i, False)))
                out.append(s)
                mode_in = False
            elif cmpls[i] is not None and c == cmpls[i] and ctx.sat(i, rho):
                out.append(State(rho, ctx.interior_guard(i, True)))
                out.append(State(rho, ctx.body_exit(i)))
                mode_in = False
            elif cmpls[i] is not None and c == cmpls[i]:
                out.append(State(rho, ctx.interior_guard(i, False)))
                out.append(s)
                mode_in = False
            else:
                out.append(s)
                mode_in = False
    _check(ctx.target, out, "tr_out")
    return tuple(out)


# ---------------------------------------------------------------------------
# Refolding: extracted-program traces back into the source
# ---------------------------------------------------------------------------

def rtr(ctx: WitnessContext, states: Sequence[State]) -> tuple[State, ...]:
    """Map a trace of the extracted program back onto the source: drop guard
    states (a terminal guard becomes the guarded command itself), send the
    relabeled copies back to their path commands, keep everything else."""
    hp = ctx.hp
    n = len(hp) - 1
    cmds = hp.commands
    cmpls = [find_cmpl(c, ctx.source) for c in cmds]

    guard_index: dict[Command, int] = {}
    if ctx.st.bar is not None:
        guard_index[ctx.entry(True)] = 0
        guard_index[ctx.entry(False)] = 0
    for i in range(1, n + 1):
        if i in ctx.st.bbl:
            try:
                guard_index[ctx.interior_guard(i, True)] = i
                guard_index[ctx.interior_guard(i, False)] = i
            except WitnessError:
                pass

    body_to_src: dict[Command, Command] = {}
    for i, copy in ctx.st.body.items():
        body_to_src[copy] = cmds[i]
        ex = ctx.body_exit(i)
        if ex is not None and cmpls[i] is not None:
            body_to_src[ex] = cmpls[i]
    bar_act = ctx.bar_cmd(complement=False)
    bar_neg = ctx.bar_cmd(complement=True)
    if bar_act is not None:
        body_to_src[bar_act] = cmds[0]
    if bar_neg is not None and cmpls[0] is not None:
        body_to_src[bar_neg] = cmpls[0]

    out: list[State] = []
    last = len(states) - 1
    for k, s in enumerate(states):
        c = s.command
        if c in guard_index:
            if k == last:
                out.append(State(s.store, cmds[guard_index[c]]))
            continue
        if c in body_to_src:
            out.append(State(s.store, body_to_src[c]))
            continue
        out.append(s)
    _check(ctx.source, out, "rtr")
    return tuple(out)


# ---------------------------------------------------------------------------
# Type specialization witnesses
# ---------------------------------------------------------------------------

def td(ctx: WitnessContext, spec_map: dict[Command, Command],
       states: Sequence[State]) -> tuple[State, ...]:
    """De-specialize a trace of the optimized stitch.  A specialized addition
    whose generic evaluation disagrees with the tag can only sit at the head
    of a (stuck) one-state trace; it maps to the one-state generic trace."""
    out: list[State] = []
    rev = {v: k for k, v in spec_map.items()}
    for s in states:
        c = s.command
        if c in rev:
            generic = rev[c]
            out.append(State(s.store, generic))
            want = INT if c.action.expr.tag == "Int" else STRING
            got = type_of(eval_expr(generic.action.expr, s.store))
            if got != want:
                break
        else:
            out.append(s)
    _check(_fragment_program(ctx, ctx.st.stitched), out, "td")
    return tuple(out)


def _optimized_set(ctx: WitnessContext, spec_map: dict[Command, Command]) -> frozenset[Command]:
    return (ctx.st.stitched - frozenset(spec_map)) | frozenset(spec_map.values())


def sp(ctx: WitnessContext, spec_map: dict[Command, Command],
       states: Sequence[State]) -> tuple[State, ...]:
    """Specialize a trace of the unoptimized stitch, truncating to the stuck
    head when its store escapes the governing guard."""
    if not states:
        return ()
    target = _fragment_program(ctx, _optimized_set(ctx, spec_map))
    head = states[0]
    hc = spec_map.get(head.command)
    if hc is not None and isinstance(hc.action.expr, AddTyped):
        i = _body_index(ctx, head.command)
        if i is not None and not ctx.sat(i, head.store):
            result = (State(head.store, hc),)
            _check(target, result, "sp")
            return result
    out = tuple(State(s.store, spec_map.get(s.command, s.command)) for s in states)
    _check(target, out, "sp")
    return out


def _body_index(ctx: WitnessContext, cmd: Command) -> Optional[int]:
    for i, c in ctx.st.body.items():
        if c == cmd:
            return i
    return None


def _fragment_program(ctx: WitnessContext, cmds: frozenset[Command]) -> Program:
    return Program(cmds, ctx.target.entry, ctx.target.arrays)


def specialization_map(st: StitchResult, optimized: frozenset[Command]) -> dict[Command, Command]:
    """Pairs each rewritten stitched command with its optimized form."""
    out: dict[Command, Command] = {}
    by_key = {(c.label, c.succ): c for c in optimized}
    for c in st.stitched:
        d = by_key.get((c.label, c.succ))
        if d is not None and d.action != c.action:
            out[c] = d
    return out


# ---------------------------------------------------------------------------
# Lifting fragment witnesses to whole traces
# ---------------------------------------------------------------------------

def lift_full(f: Callable[[Sequence[State]], Sequence[State]],
              member: frozenset[Command], states: Sequence[State]) -> tuple[State, ...]:
    """Apply ``f`` to every maximal subtrace whose commands lie in ``member``,
    leaving the remaining states unchanged."""
    out: list[State] = []
    i, n = 0, len(states)
    while i < n:
        if states[i].command not in member:
            out.append(states[i])
            i += 1
            continue
        j = i
        while j + 1 < n and states[j + 1].command in member:
            j += 1
        out.extend(f(states[i:j + 1]))
        i = j + 1
    return tuple(out)
