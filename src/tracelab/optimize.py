"""Optimizations confined to stitched hot paths, and their composition.

A pass maps the stitch (``StitchResult``) to a new set of stitched commands
and may only rewrite the action of a copy or delete a copy.  ``optimize_full``
checks that rather than trusting it: it reads the output back as a new
``body`` (``_rebody``) and refuses it unless it is exactly the stitch so
derived.  Each pass sees the previous one's output.  Passes read extraction's
record by path index rather than searching the stitch for labels.

One residual step then builds the program.  As the paper's residual program
guards an optimized path with sufficient conditions, it walks each stitch
once in path order with an abstract store, from top: a kept guard pair meets
the walk state with its slice, a copy a pass deleted or whose action is
``skip`` leaves it as it is, any other copy applies the domain's transfer
function (``post``) to the pass's action, and a command of a previously
stitched path, which has no guard pair here, resets it to top.  ``post`` of
a test narrows the state, as a conditional filters the store: a store that
passes a test copy, in either polarity, evaluated its operands to values of
the classes the operators take, so after ``(i <= 10)`` the walk knows
``i: Int`` (in the type domain; see ``StoreAbstraction.post``).  Guard pair
i is kept only when a pass rewrote copy i, its slice is not universal, and
the walk state at the pair is not already below the slice.  The slice is the
binding of each variable the original command reads, over the universal
default; an unrewritten copy does what its original command does, so its
pair goes.  The walk is sound because a stitch's interior is entered only
along its own chain (a pair's label is the successor of the command before
it on the path and of nothing else), and its head pair, which the entry and
the back edge both reach, is walked from top.  A sliced guard contains every
store that the full guard contains and changes none, and a dropped pair
fails on no store that reaches it, so store changes (sc) are kept.

A kept pair j then folds into the earliest kept pair i < j whose stretch
i..j-1 holds no command of a previously stitched path and no copy that
writes a variable, or an array family, that j's slice binds: pair i tests
the meet of both slices, and pair j goes.  A store that passes pair i still
lies in j's slice at j, since nothing on the chain between them changed
what the slice binds.  A store that pair i now refuses goes to the original
command at i, which runs the same actions as the stitch, so a stronger
guard only sends more stores to original code, and sc is kept.

A jump to a dropped pair (the program entry included) goes to its positive
guard's successor, and a jump to a deleted copy or a ``skip`` copy to the
copy's successor, followed through further drops.  A ``skip`` changes no
store and tests nothing, so dropping it removes only a step that sc, which
collapses consecutive equal stores, does not see; a ``put`` copy stays, as
out observes it, and original code keeps its skips.  If that route is a
cycle (dse deleted every copy of a branchless loop, or the loop is all
skips), its first pair in path order is kept with the universal store.  Then
only labels the entry reaches are kept, which drops the slow head copies and
the original commands only a dropped negative guard reached; with no pass
the stitch is the original loop under fresh labels, less its skip copies.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Iterable, Sequence

from .domains import AbstractStore, CPConst, cp_domain, eval_type, type_domain
from .extract import StitchResult, extract_nested
from .hotpath import HotPath
from .lang import (Add, AddTyped, ArrayAssign, Assign, Command, Expr, Guard, Lit, Program,
                   Skip, is_branching, node_vars, subst_expr)
from .semantics import ADDITIONS, member_of
from .values import TYPE_OF_CLASS, UNDEF

Optimization = Callable[[StitchResult], frozenset[Command]]


class OptimizeError(Exception):
    pass


# ---------------------------------------------------------------------------
# Type specialization
# ---------------------------------------------------------------------------

def _rewrite_assignments(st: StitchResult,
                         rewrite: Callable[[Expr, AbstractStore], Expr]) -> frozenset[Command]:
    """The stitch with the right-hand side of each assignment copy i
    replaced by ``rewrite`` of it under guard store i, where that differs."""
    out = set(st.stitched)
    for i, cmd in st.body.items():
        act = cmd.action
        if isinstance(act, Assign):
            new = rewrite(act.expr, st.hp.pairs[i][0])
            if new is not act.expr:
                out.discard(cmd)
                out.add(Command(cmd.label, Assign(act.var, new), cmd.succ))
    return frozenset(out)


_ADD_TAGS = {TYPE_OF_CLASS[cls]: tag for tag, cls in ADDITIONS.items()}  # by operand type


def type_specialize(st: StitchResult) -> frozenset[Command]:
    """Replace generic additions in stitched assignments by the type-specific
    form whenever the governing typed guard decides the operand types."""
    if st.hp.domain is not type_domain:
        raise OptimizeError("type specialization needs type-domain guards")

    def specialize(e: Expr, a: AbstractStore) -> Expr:
        tag = _ADD_TAGS.get(eval_type(e, a)) if isinstance(e, Add) else None
        return e if tag is None else AddTyped(e.left, e.right, tag)

    return _rewrite_assignments(st, specialize)


# ---------------------------------------------------------------------------
# Constant folding
# ---------------------------------------------------------------------------

def free_vars(commands: Iterable[Command]) -> frozenset[str]:
    """Variables occurring in the commands that are never an assignment target."""
    occurring: set[str] = set()
    assigned: set[str] = set()
    for c in commands:
        a = c.action
        occurring |= node_vars(a)
        if isinstance(a, Assign):
            assigned.add(a.var)
    return frozenset(occurring - assigned)


def const_fold(st: StitchResult) -> frozenset[Command]:
    """Substitute constants recorded by the cp guards for free variables in
    stitched assignment right-hand sides."""
    if st.hp.domain is not cp_domain:
        raise OptimizeError("constant folding needs cp-domain guards")
    fv = free_vars(st.stitched)

    def fold(e: Expr, a: AbstractStore) -> Expr:
        return subst_expr(e, {y: slot.value for y in node_vars(e) & fv
                              if isinstance(slot := a.get(y), CPConst) and slot.value is not UNDEF})

    return _rewrite_assignments(st, fold)


# ---------------------------------------------------------------------------
# Dead store elimination (demo of a non-sc-preserving optimization)
# ---------------------------------------------------------------------------

def _action_reads(cmd: Command) -> frozenset[str]:
    """The variables the action names, less an assignment's target."""
    a = cmd.action
    return node_vars(a.expr if isinstance(a, Assign) else a)


def dead_store_eliminate(st: StitchResult) -> frozenset[Command]:
    """Delete the stitched assignments whose value is overwritten before any
    read, output, or possible exit from the stitch.  A store is dead only if
    it cannot stick: an assignment of undef sticks the run, and deleting it
    would let the optimized run go on where the original stopped, so only a
    literal right-hand side is deleted.

    The walk from copy i reads the record at the path positions after i, in
    order and round the loop.  A guard pair that can fail or guards a copy
    with an exit, a position inside a previously stitched path (no guard
    pair, no nested command), a read of the variable and a branch stop it.
    It steps over a copy an earlier pass deleted and over a universal guard
    of a nested path; only a reassignment reached first makes the store dead.
    """
    n = len(st.hp.commands)

    def universal(c: Command) -> bool:
        return c.action.store.domain.is_universal(c.action.store)

    def overwritten(i: int, z: str) -> bool:
        for j in ((i + k) % n for k in range(1, n + 1)):
            cmd = st.body.get(j, st.nested.get(j))
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

    return st.stitched - {cmd for i, cmd in st.body.items()
                          if isinstance(cmd.action, Assign) and isinstance(cmd.action.expr, Lit)
                          and overwritten(i, cmd.action.var)}


# ---------------------------------------------------------------------------
# Full composition
# ---------------------------------------------------------------------------

def _rebody(st: StitchResult, new: frozenset[Command]) -> dict[int, Command]:
    """The copies after a pass: copy i is the command of ``new`` at its label
    and successor, which a pass keeps, and is absent if the pass deleted it.
    The exits are left out: a branching copy shares its label with its exit."""
    exits = frozenset(st.exits.values())
    at = {(c.label, c.succ): c for c in new - exits}
    return {i: at[c.label, c.succ] for i, c in st.body.items() if (c.label, c.succ) in at}


def _written(cur: StitchResult, start: int, stop: int) -> frozenset[str]:
    """The variables, and the array families, that the copies at path
    positions start..stop-1 assign; a copy a pass deleted assigns nothing."""
    acts = [cur.body[j].action for j in range(start, stop) if j in cur.body]
    return frozenset([a.var for a in acts if isinstance(a, Assign)]
                     + [a.array for a in acts if isinstance(a, ArrayAssign)])


def _slice(a: AbstractStore, reads: frozenset[str]) -> AbstractStore:
    """``a`` cut down to the variables in ``reads`` and the members
    (``semantics.member_of``) of the arrays among them, over the universal
    default."""
    keep = {x: a.get(x) for x in reads}
    keep.update((x, v) for x, v in a.items if member_of(x)[0] in reads)
    return a.domain.make(keep, a.domain.top().default)


def _residual(st: StitchResult, cur: StitchResult) -> Program:
    """The program of ``st.transformed`` with the passes' stitch ``cur`` in
    place, its guard pairs kept, folded or dropped as the module docstring
    says."""
    dom = st.hp.domain
    route: dict[str, str] = {}  # where a jump to a dropped label goes, in path order
    stores: dict[str, AbstractStore] = {}
    state = dom.top()  # the walk: what every store reaching position i is known to be in
    kept: list[int] = []  # the positions of the pairs kept since the walk was last top
    for i in range(len(st.hp.commands)):
        if i not in st.guards:  # a command of a previously stitched path
            state, kept = dom.top(), []
            continue
        yes, c, copy = st.guards[i][0], st.body[i], cur.body.get(i)
        a = stores[yes.label] = (dom.top() if copy is None or copy.action == c.action
                                 else _slice(yes.action.store, _action_reads(c)))
        met = dom.meet(state, a)
        if met is state:  # implied, or universal: a universal slice is above any state
            route[yes.label] = yes.succ
        else:
            state = met
            # the earliest kept pair since which no copy wrote what this slice binds
            into = next((k for k in kept if _slice(a, _written(cur, k, i)) is dom.top()), None)
            if into is None:
                kept.append(i)
            else:  # folded: the earlier pair tests both slices
                label = st.guards[into][0].label
                stores[label] = dom.meet(stores[label], a)
                route[yes.label] = yes.succ
        if copy is None or isinstance(copy.action, Skip):
            route[c.label] = c.succ
        else:
            state = dom.post(copy.action, state)

    def target(label: str) -> str:
        if label not in route:
            return label
        seen = set()
        while label in route and label not in seen:
            seen.add(label)
            label = route[label]
        return label

    for label in list(route):
        route.pop(target(label), None)  # present only when the route closes a cycle

    def residual(c: Command) -> Command:
        act, succ = c.action, target(c.succ)
        if c.label in stores and isinstance(act, Guard) and act.store is not stores[c.label]:
            act = Guard(stores[c.label], act.positive)
        return c if act is c.action and succ == c.succ else Command(c.label, act, succ)

    built = [residual(c) for c in (st.transformed.commands - st.stitched) | cur.stitched
             if c.label not in route]
    succs: dict[str, list[str]] = {}
    for c in built:
        succs.setdefault(c.label, []).append(c.succ)
    entry = target(st.transformed.entry)
    reached, todo = {entry}, [entry]
    while todo:
        for succ in succs.get(todo.pop(), ()):
            if succ not in reached:
                reached.add(succ)
                todo.append(succ)
    return Program(frozenset(c for c in built if c.label in reached), entry, st.transformed.arrays)


def optimize_full(p: Program, hp: HotPath, passes: Sequence[Optimization],
                  original: Program) -> Program:
    """Extract once, run the passes in turn on the stitch (each sees the
    previous pass's output), refuse an output that is more than the stitch
    with copies rewritten or deleted, and build the residual program."""
    st = extract_nested(p, hp, original)
    cur = st
    for opt in passes:
        new = opt(cur)
        cur = replace(cur, body=_rebody(cur, new))
        if new != cur.stitched:
            raise OptimizeError("optimization did more than rewrite or delete copies")
    return _residual(st, cur)


PASSES: dict[str, Optimization] = {
    "ts": type_specialize,
    "cf": const_fold,
    "dse": dead_store_eliminate,
}
