"""Optimizations confined to stitched hot paths, and their composition scheme.

Each optimization maps the stitch's command set to a new command set; the full
transform splices that back next to the untouched remainder.  Boundary
preservation (entry label kept, exit successors kept) is verified structurally
rather than trusted.

After the passes, the guards are sliced: a guard only has to be a sufficient
condition for its copy's rewrite.  Where a pass rewrote copy i, guard pair i
keeps the bindings of the variables the original command reads, over the
universal default; every other pair, the entry pair included, becomes the
universal store, since an unrewritten copy does what its original command
does.  A sliced guard contains every store that the full guard contains and
changes none, so a store that enters the stitch runs rewrites that agree with
the original commands on it, and store changes (sc) are kept.  Slicing runs
on every call, after the passes, so dse sees the full guards; with no pass
no copy is rewritten and every pair becomes the universal store.  A rewrite
of a command of a previously stitched path is undone: no guard pair of this
stitch stands in front of it, and the one of its own stitch was sliced for
that stitch's rewrites.  Like the slicing, dse reads extraction's record by
path index rather than searching the stitch for labels.

Last, the pairs whose sliced positive store is universal are bypassed: such
a guard cannot fail, so both its commands go, and whatever jumped to the
pair (the program entry included) jumps to the positive guard's successor,
followed through further bypassed pairs.  Then only the labels reachable
from the entry are kept, which drops the slow head copies once the entry
pair is gone and the original commands only a dropped negative guard
reached.  Every store takes the positive branch of a universal guard, so a
run of the result is the run through the kept pairs minus the bypassed
guard steps; with no pass nothing is left of the stitch but the original
loop under fresh labels.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Iterable, Sequence

from .domains import (AbstractStore, CPConst, INT, STRING, cp_domain, eval_type,
                      type_domain)
from .extract import StitchResult, extract_nested
from .hotpath import HotPath
from .lang import (Add, AddTyped, Assign, Command, Cond, Guard, Program, Put,
                   action_vars, bexpr_vars, expr_vars, is_branching, subst_expr)
from .values import UNDEF

Optimization = Callable[[StitchResult], frozenset[Command]]


class OptimizeError(Exception):
    pass


# ---------------------------------------------------------------------------
# Type specialization
# ---------------------------------------------------------------------------

def type_specialize(st: StitchResult) -> frozenset[Command]:
    """Replace generic additions in stitched assignments by the type-specific
    form whenever the governing typed guard decides the operand types."""
    if st.hp.domain is not type_domain:
        raise OptimizeError("type specialization needs type-domain guards")
    out = set(st.stitched)
    for i, cmd in st.body.items():
        act = cmd.action
        if not (isinstance(act, Assign) and isinstance(act.expr, Add)):
            continue
        t = eval_type(act.expr, st.hp.pairs[i][0])
        if t == INT:
            new_expr = AddTyped(act.expr.left, act.expr.right, "Int")
        elif t == STRING:
            new_expr = AddTyped(act.expr.left, act.expr.right, "Str")
        else:
            continue
        out.discard(cmd)
        out.add(Command(cmd.label, Assign(act.var, new_expr), cmd.succ))
    return frozenset(out)


# ---------------------------------------------------------------------------
# Constant folding
# ---------------------------------------------------------------------------

def free_vars(commands: Iterable[Command]) -> frozenset[str]:
    """Variables occurring in the commands that are never an assignment target."""
    occurring: set[str] = set()
    assigned: set[str] = set()
    for c in commands:
        a = c.action
        occurring |= action_vars(a)
        if isinstance(a, Assign):
            assigned.add(a.var)
    return frozenset(occurring - assigned)


def const_fold(st: StitchResult) -> frozenset[Command]:
    """Substitute constants recorded by the cp guards for free variables in
    stitched assignment right-hand sides."""
    if st.hp.domain is not cp_domain:
        raise OptimizeError("constant folding needs cp-domain guards")
    fv = free_vars(st.stitched)
    out = set(st.stitched)
    for i, cmd in st.body.items():
        act = cmd.action
        if not isinstance(act, Assign):
            continue
        guard_store = st.hp.pairs[i][0]
        binding = {}
        for y in expr_vars(act.expr) & fv:
            slot = guard_store.get(y)
            if isinstance(slot, CPConst) and slot.value is not UNDEF:
                binding[y] = slot.value
        if not binding:
            continue
        out.discard(cmd)
        out.add(Command(cmd.label, Assign(act.var, subst_expr(act.expr, binding)), cmd.succ))
    return frozenset(out)


# ---------------------------------------------------------------------------
# Dead store elimination (demo of a non-sc-preserving optimization)
# ---------------------------------------------------------------------------

def _action_reads(cmd: Command) -> frozenset[str]:
    a = cmd.action
    if isinstance(a, Assign):
        return expr_vars(a.expr)
    if isinstance(a, Cond):
        return bexpr_vars(a.test)
    if isinstance(a, Put):
        return a.vars
    return action_vars(a)


def dead_store_eliminate(st: StitchResult) -> frozenset[Command]:
    """Remove stitched assignments whose value is overwritten before any read,
    output, or possible exit from the stitch; whatever jumped to a removed
    copy jumps to its successor.

    The walk from copy i reads the record at the path positions after i, in
    order and round the loop.  A guard pair that can fail or guards a copy
    with an exit, a position inside a previously stitched path (no guard
    pair, no body entry), a read of the variable and a branch stop it.  It
    steps over a copy an earlier pass deleted and over a universal guard of
    a nested path; only a reassignment reached first makes the store dead.
    """
    n = len(st.hp.commands)

    def universal(c: Command) -> bool:
        return c.action.store.domain.is_universal(c.action.store)

    def overwritten(i: int, z: str) -> bool:
        for j in ((i + k) % n for k in range(1, n + 1)):
            cmd = st.body.get(j)
            if j in st.guards and (j in st.exits or not universal(st.guards[j][0])):
                return False
            if cmd is None:
                if j not in st.guards:
                    return False
            elif isinstance(cmd.action, Guard):
                if not universal(cmd):
                    return False
            elif z in _action_reads(cmd) or is_branching(cmd.action):
                return False
            elif isinstance(cmd.action, Assign) and cmd.action.var == z:
                return True
        return False

    candidates = [cmd for i, cmd in sorted(st.body.items(), key=lambda e: str(e[1]))
                  if isinstance(cmd.action, Assign) and overwritten(i, cmd.action.var)]
    out = set(st.stitched)
    for dead in candidates:
        out.discard(dead)
        rewired = {c for c in out if c.succ == dead.label}
        for c in rewired:
            out.discard(c)
            out.add(Command(c.label, c.action, dead.succ))
    return frozenset(out)


# ---------------------------------------------------------------------------
# Full composition
# ---------------------------------------------------------------------------

def _exit_successors(cmds: Iterable[Command], stitch_labels: frozenset[str]) -> frozenset[str]:
    return frozenset(c.succ for c in cmds if c.succ not in stitch_labels)


def _rebody(st: StitchResult, new: frozenset[Command]) -> dict[int, Command]:
    """The action copies after a pass: at each copy's label, the command with
    the copy's action, else the only command left there (passes rewrite the
    action or the successor of a copy, never both, and may delete it)."""
    at: dict[str, list[Command]] = {}
    for c in new:
        at.setdefault(c.label, []).append(c)
    body = {}
    for i, c in st.body.items():
        cands = at.get(c.label, [])
        same = [d for d in cands if d.action == c.action]
        if same or len(cands) == 1:
            body[i] = (same or cands)[0]
    return body


def _slice(a: AbstractStore, reads: frozenset[str]) -> AbstractStore:
    """``a`` cut down to the variables in ``reads`` and the members
    ``name_k`` of the arrays among them, over the universal default."""
    keep = {x: a.get(x) for x in reads}
    keep.update((x, v) for x, v in a.items if x.rsplit("_", 1)[0] in reads)
    return a.domain.make(keep, a.domain.top().default)


def _sliced_guards(st: StitchResult, cur: StitchResult) -> frozenset[Command]:
    """``cur.stitched`` with each guard pair cut down to what its copy's
    rewrite relies on: the variables the original command reads when the
    copy was rewritten, nothing otherwise.  A pair is found by its label,
    since dse may have rewired the positive guard's successor.  A rewritten
    command of a previously stitched path (no guard pair here) gets its
    action back."""
    universal = st.hp.domain.top()
    sliced = {yes.label: universal for yes, _ in st.guards.values()}
    undo = {}
    for i, copy in cur.body.items():
        if copy.action == st.body[i].action:
            continue
        if i in st.guards:
            yes = st.guards[i][0]
            sliced[yes.label] = _slice(yes.action.store, _action_reads(st.body[i]))
        else:
            undo[copy] = Command(copy.label, st.body[i].action, copy.succ)

    def cut(c: Command) -> Command:
        if c in undo:
            return undo[c]
        if c.label in sliced and isinstance(c.action, Guard):
            return Command(c.label, Guard(sliced[c.label], c.action.positive), c.succ)
        return c

    return frozenset(map(cut, cur.stitched))


def _bypassed(st: StitchResult, cmds: frozenset[Command]) -> Program:
    """The program of ``cmds``, entered where ``st.transformed`` is, without
    this stitch's guard pairs whose positive store is universal: whatever
    jumped to such a pair jumps to its positive guard's successor, followed
    through further bypassed pairs (dse may have rewired a guard to the next
    pair), and only the labels reachable from the entry are kept.  A cycle of
    bypassed pairs (dse deleted every copy of a branchless loop) keeps the
    first pair on it in path order, so the loop still has a command to run."""
    index = {yes.label: i for i, (yes, _) in st.guards.items()}
    universal = [c for c in cmds if c.label in index and isinstance(c.action, Guard)
                 and c.action.positive and c.action.store.domain.is_universal(c.action.store)]
    skip = {c.label: c.succ for c in sorted(universal, key=lambda c: index[c.label])}

    def target(label: str) -> str:
        seen = set()
        while label in skip and label not in seen:
            seen.add(label)
            label = skip[label]
        return label

    for label in list(skip):
        skip.pop(target(label), None)  # present only when the chain closes a cycle
    q = Program(frozenset(Command(c.label, c.action, target(c.succ))
                          for c in cmds if c.label not in skip),
                target(st.transformed.entry), st.transformed.arrays)
    reached, todo = {q.entry}, [q.entry]
    while todo:
        for c in q.at(todo.pop()):
            if c.succ not in reached:
                reached.add(c.succ)
                todo.append(c.succ)
    return Program(frozenset(c for c in q.commands if c.label in reached), q.entry, q.arrays)


def optimize_full(p: Program, hp: HotPath, passes: Sequence[Optimization],
                  original: Program) -> Program:
    """Extract once, run the passes in turn on the stitch (each sees the
    previous pass's output), slice the guards, splice the result next to the
    remainder, then bypass the guard pairs that cannot fail and keep what the
    entry still reaches."""
    st = extract_nested(p, hp, original)
    cur = st
    for opt in passes:
        new = opt(cur)
        cur = replace(cur, stitched=new, body=_rebody(cur, new))
    new = _sliced_guards(st, cur)

    old_labels = st.stitch_labels()
    new_labels = frozenset(c.label for c in new)
    if not new_labels <= old_labels | ({st.entry_label} - {None}):
        raise OptimizeError("optimization invented labels outside the stitch")
    if st.entry_label is not None and st.entry_label not in new_labels:
        raise OptimizeError("optimization dropped the stitch entry")
    if not _exit_successors(new, new_labels) <= _exit_successors(st.stitched, old_labels):
        raise OptimizeError("optimization changed the stitch exits")

    return _bypassed(st, (st.transformed.commands - st.stitched) | new)


PASSES: dict[str, Optimization] = {
    "ts": type_specialize,
    "cf": const_fold,
    "dse": dead_store_eliminate,
}
