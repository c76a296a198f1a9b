"""Oracles the tests check the library against, which the library never runs.

The transition relation: ``apply_action`` is one action on a copy of a store,
``step`` all program successors of a state and ``trace_linked`` whether a
sequence of states is a partial trace of a program.  ``semantics.run`` must
give exactly the traces ``step`` links (``test_semantics``).

The executable proof witnesses: trace unfolding, refolding and
respecialization.  These functions move execution traces between a program
and its extracted (or type-specialized) form.  They exist to be checked, not
to be fast: every output is validated against the claimed program's
transition relation, which is the executable content of their
well-definedness lemmas (``test_witness``).

They read the stitch from extraction's record (``StitchResult``): the guard
pair, action copy, retargeted nested command and complement exit at each path
index, and the relabeled slow head.  A source complement is the exit's action
and successor under the path command's label.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from tracelab.extract import StitchResult
from tracelab.lang import HALT, Action, AddTyped, Command, Program, is_branching
from tracelab.optimize import _rebody
from tracelab.semantics import ADDITIONS, State, Store, _action, eval_expr


# ---------------------------------------------------------------------------
# The transition relation
# ---------------------------------------------------------------------------

def apply_action(a: Action, store: Store) -> Optional[Store]:
    """New store, or None for bottom (failed test, error, guard miss): the
    action's compiled function on a copy of the store's dict."""
    if is_branching(a):
        return store if _action(a)(store._m) else None
    m = dict(store._m)
    w = _action(a)(m)
    if not w:
        return None if w is None else store
    return Store._of(m)


def step(p: Program, s: State) -> tuple[State, ...]:
    """All program successors of a state; empty means stuck."""
    rho = apply_action(s.command.action, s.store)
    if rho is None or s.command.succ == HALT:
        return ()
    return tuple(State(rho, c) for c in p.at(s.command.succ))


def trace_linked(p: Program, states: Sequence[State]) -> bool:
    """Each state is a step-successor of the last, and every command is in p."""
    for a, b in zip(states, states[1:]):
        if b not in step(p, a):
            return False
    return all(s.command in p.commands for s in states)


# ---------------------------------------------------------------------------
# Witnesses
# ---------------------------------------------------------------------------

class WitnessError(Exception):
    pass


def _sat(st: StitchResult, i: int, store: Store) -> bool:
    a = st.hp.pairs[i][0]
    return a.domain.contains(a, store)


def _relabel(c: Command, label: str) -> Command:
    return Command(label, c.action, c.succ)


def _check(program: Program, states: Sequence[State], what: str):
    if not trace_linked(program, states):
        raise WitnessError(f"{what} produced an illegal trace")


def tr_out(st: StitchResult, states: Sequence[State]) -> tuple[State, ...]:
    """Unfold occurrences of the hot path in a source trace into its stitch.

    Position i (0 outside the stitch) expects path command i or its
    complement, and such a state goes through guard pair i.  If the store is
    in the guard, it goes on to copy i (then position i + 1, or 0 after the
    last) or to exit i (then 0).  If not, it goes on to the negative guard's
    target, which is the slow head at position 0 and the source command itself
    further in, and back to 0.  Any other state is kept and resets to 0.
    """
    cmds = st.hp.commands
    n = len(cmds) - 1
    out: list[State] = []
    i = 0
    for s in states:
        rho, c = s.store, s.command
        ex = st.exits.get(i)
        if c != cmds[i] and (ex is None or c != _relabel(ex, cmds[i].label)):
            out.append(s)
            i = 0
            continue
        if i not in st.guards:
            raise WitnessError(f"stitch has no guard pair at path index {i}")
        yes, no = st.guards[i]
        if _sat(st, i, rho):
            out += [State(rho, yes), State(rho, st.body[i] if c == cmds[i] else ex)]
            i = i + 1 if c == cmds[i] and i < n else 0
        else:
            out += [State(rho, no), State(rho, _relabel(c, no.succ))]
            i = 0
    _check(st.transformed, out, "tr_out")
    return tuple(out)


def rtr(st: StitchResult, source: Program, states: Sequence[State]) -> tuple[State, ...]:
    """Map a trace of the extracted program back onto ``source``: drop guard
    states (a terminal guard becomes the guarded command itself), send the
    copies, retargeted nested commands, exits and slow head back to their
    path commands, keep everything else."""
    cmds = st.hp.commands
    guard_index = {g: i for i, pair in st.guards.items() for g in pair}
    to_src = {c: cmds[i] for i, c in [*st.body.items(), *st.nested.items()]}
    to_src.update((ex, _relabel(ex, cmds[i].label)) for i, ex in st.exits.items())
    to_src.update((c, _relabel(c, cmds[0].label)) for c in st.slow)

    out: list[State] = []
    last = len(states) - 1
    for k, s in enumerate(states):
        c = s.command
        if c in guard_index:
            if k == last:
                out.append(State(s.store, cmds[guard_index[c]]))
        else:
            out.append(State(s.store, to_src.get(c, c)))
    _check(source, out, "rtr")
    return tuple(out)


def td(st: StitchResult, spec_map: dict[Command, Command],
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
            if type(eval_expr(generic.action.expr, s.store)) is not ADDITIONS[c.action.expr.tag]:
                break
        else:
            out.append(s)
    _check(_fragment_program(st, st.stitched), out, "td")
    return tuple(out)


def sp(st: StitchResult, spec_map: dict[Command, Command],
       states: Sequence[State]) -> tuple[State, ...]:
    """Specialize a trace of the unoptimized stitch, truncating to the stuck
    head when its store escapes the governing guard."""
    if not states:
        return ()
    optimized = (st.stitched - frozenset(spec_map)) | frozenset(spec_map.values())
    target = _fragment_program(st, optimized)
    head = states[0]
    hc = spec_map.get(head.command)
    if hc is not None and isinstance(hc.action.expr, AddTyped):
        i = next((i for i, c in st.body.items() if c == head.command), None)
        if i is not None and not _sat(st, i, head.store):
            result = (State(head.store, hc),)
            _check(target, result, "sp")
            return result
    out = tuple(State(s.store, spec_map.get(s.command, s.command)) for s in states)
    _check(target, out, "sp")
    return out


def _fragment_program(st: StitchResult, cmds: frozenset[Command]) -> Program:
    return Program(cmds.union(*st.guards.values()), st.program.entry, st.program.arrays)


def specialization_map(st: StitchResult, optimized: frozenset[Command]) -> dict[Command, Command]:
    """Pairs each copy that the pass rewrote with its optimized form, found
    as ``optimize`` finds a pass's copies: the exits are left out."""
    new = _rebody(st, optimized)
    return {c: new[i] for i, c in st.body.items() if i in new and new[i].action != c.action}


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
