"""The while/bail comparison language: baseline semantics, recording tracer,
compilation into labeled commands, and the cross-model checks.

Statements are command sequences in continuation style; ``bail B to S`` jumps
out of an extracted trace into residual code S, discarding the continuation.
The recorder follows the published rules.  Recording starts at a true loop
guard.  A recording step is the baseline step (``gp_step``) plus a record of
the head it ran: a skip or an inner while records ``skip``, an assignment
records itself, and an if records the bail of the branch not taken.  A bail
aborts recording, and re-reaching the subject loop stitches ``while B do t``
in place (with the identity optimization).  Statements are hash-consed like
the core syntax (``lang.Node``), so a statement equals only itself.

Recording and checking load the miner, extraction and the check
(``hotpath``, ``extract``, ``observe``) on their first call, so that
``gen``, which only compiles statements, runs none of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .lang import (BExpr, Command, Expr, HALT, Node, Program, Skip as CoreSkip,
                   Assign as CoreAssign, Cond, negate_bexpr, rename_equal)
from .semantics import Run, State, Store, eval_bexpr, eval_expr, fires
from .values import Bool, UNDEF


class GPError(Exception):
    pass


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

class GSkip(Node):
    def __str__(self):
        return "skip;"


class GAssign(Node):
    var: str
    expr: Expr

    def __str__(self):
        return f"{self.var} := {self.expr};"


class GIf(Node):
    test: BExpr
    body: "Stm"

    def __str__(self):
        return stm_str((self,))


class GWhile(Node):
    test: BExpr
    body: "Stm"

    def __str__(self):
        return stm_str((self,))


class GBail(Node):
    test: BExpr
    target: "Stm"

    def __str__(self):
        return stm_str((self,))


GCmd = Union[GSkip, GAssign, GIf, GWhile, GBail]
Stm = tuple[GCmd, ...]
EMPTY: Stm = ()
# each block statement's head word and the keyword between its test and its
# block (``if B then { s }``), as ``stm_str`` prints and
# ``textio.parse_gp_program`` reads them
BLOCKS = {GIf: ("if", "then"), GWhile: ("while", "do"), GBail: ("bail", "to")}


def stm_str(s: Stm) -> str:
    """``s`` as text, a block as ``if B then { s1 s2 }``, printed from one
    stack so that no call nests per block."""
    out, todo = [], [*reversed(s)]
    while todo:
        c = todo.pop()
        words = BLOCKS.get(type(c))
        if words is None:  # a statement without a block, or a block's "}"
            out.append(str(c))
            continue
        body = c.target if type(c) is GBail else c.body
        out.append(f"{words[0]} {c.test} {words[1]} {{" + ("" if body else "  }"))
        if body:
            todo += ["}", *reversed(body)]
    return " ".join(out)


def _unfolded_if(w: GWhile, k: Stm) -> Stm:
    return (GIf(w.test, w.body + (w,)),) + k


# ---------------------------------------------------------------------------
# Baseline small-step semantics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GPState:
    store: Store
    stm: Stm

    def __str__(self):
        return f"<{self.store}, {stm_str(self.stm)}>"


def gp_step(s: GPState) -> Optional[GPState]:
    """One baseline step, or None when stuck (empty program, undefined test
    or assignment; undefined values stick like in the core language).  An if
    and a bail share one rule: a true test goes on to the if's body or the
    bail's target, a false one to the continuation."""
    rho, stm = s.store, s.stm
    if not stm:
        return None
    head, k = stm[0], stm[1:]
    if isinstance(head, GSkip):
        return GPState(rho, k)
    if isinstance(head, GAssign):
        v = eval_expr(head.expr, rho)
        return None if v is UNDEF else GPState(rho.set(head.var, v), k)
    if isinstance(head, (GIf, GBail)):
        b = eval_bexpr(head.test, rho)
        if b is UNDEF:
            return None
        taken = head.body + k if isinstance(head, GIf) else head.target
        return GPState(rho, taken if b.value else k)
    if isinstance(head, GWhile):
        return GPState(rho, _unfolded_if(head, k))
    raise GPError(f"not a statement head: {head!r}")


class GPRun(Run):
    """A baseline run: ``commands`` holds the statement left to run at each
    state, so its states are ``GPState``s."""

    state = GPState


def gp_run(stm: Stm, rho0: Store, budget: int) -> GPRun:
    """The baseline run from rho0, truncated at ``budget`` states, recorded
    as a core run is: the write of an assignment step is its one binding."""
    cur = GPState(rho0, stm)
    stms, writes = [stm], []
    while (nxt := gp_step(cur)) is not None and len(stms) < budget:
        head = cur.stm[0]
        writes.append(((head.var, nxt.store.get(head.var)),) if isinstance(head, GAssign) else ())
        stms.append(nxt.stm)
        cur = nxt
    reason = "budget" if nxt is not None else "halt" if not cur.stm else "stuck"
    return GPRun(rho0, tuple(stms), tuple(writes), reason)


# ---------------------------------------------------------------------------
# Compilation into the core language
# ---------------------------------------------------------------------------

class GPCompiler:
    """Injective statement labeling plus the compilation functions.

    Labels are handed out per distinct statement in first-encounter order, so
    a shared continuation compiles to the same label wherever it occurs.
    """

    def __init__(self):
        self._labels: dict[Stm, str] = {}
        self._stms: dict[str, Stm] = {}

    def label(self, s: Stm) -> str:
        got = self._labels.get(s)
        if got is None:
            got = f"s{len(self._labels)}"
            self._labels[s] = got
            self._stms[got] = s
        return got

    def first_commands(self, s: Stm) -> tuple[Command, ...]:
        """The commands at s's label, labeling successors in tuple order."""
        l = self.label
        if not s:
            return (Command(l(s), CoreSkip(), HALT),)
        head, k = s[0], s[1:]
        if isinstance(head, GSkip):
            return (Command(l(s), CoreSkip(), l(k)),)
        if isinstance(head, GAssign):
            return (Command(l(s), CoreAssign(head.var, head.expr), l(k)),)
        if isinstance(head, GIf):
            return (Command(l(s), Cond(head.test), l(head.body + k)),
                    Command(l(s), Cond(negate_bexpr(head.test)), l(k)))
        if isinstance(head, GWhile):
            return (Command(l(s), CoreSkip(), l(_unfolded_if(head, k))),)
        if isinstance(head, GBail):
            return (Command(l(s), Cond(head.test), l(head.target)),
                    Command(l(s), Cond(negate_bexpr(head.test)), l(k)))
        raise GPError(f"not a statement head: {head!r}")

    def compile(self, s: Stm) -> Program:
        cmds: set[Command] = set()
        worklist = [s]
        done: set[Stm] = set()
        while worklist:
            cur = worklist.pop()
            if cur in done:
                continue
            done.add(cur)
            first = self.first_commands(cur)
            cmds.update(first)
            worklist.extend(self._stms[c.succ] for c in first if c.succ != HALT)
        return Program(frozenset(cmds), self.label(s))

    def compile_state(self, s: GPAnyState) -> State:
        """The command the statement is about to run: of an if or bail head's
        two commands the one that fires, an error when their test is undefined."""
        first = self.first_commands(s.stm)
        if len(first) > 1:
            first = [c for c in first if fires(c.action, s.store)]
            if not first:
                raise GPError(f"undefined test at state {s}")
        return State(s.store, first[0])

    def compile_trace(self, states: Sequence[GPAnyState]) -> tuple[State, ...]:
        """Recording states compile through their current program component."""
        return tuple(self.compile_state(s) for s in states)


# ---------------------------------------------------------------------------
# Tracing relation (recording mode)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GPTState:
    """Recording state: entry loop, trace so far, current program."""

    store: Store
    kw: Stm  # always while-headed
    trace: Stm
    stm: Stm

    def __str__(self):
        return f"<{self.store}, recording {stm_str(self.trace)!r}, at {stm_str(self.stm)}>"


GPAnyState = Union[GPState, GPTState]


def _t1_pattern(s: GPState) -> Optional[tuple[Stm, Stm]]:
    """Matches the unfolded-if of a while loop: returns (kw, body-continuation)."""
    if not s.stm:
        return None
    head, k = s.stm[0], s.stm[1:]
    if not isinstance(head, GIf) or not head.body:
        return None
    w = head.body[-1]
    if isinstance(w, GWhile) and head.body[:-1] == w.body and w.test == head.test:
        return ((w,) + k, w.body + (w,) + k)
    return None


def gp_trace_step(s: GPAnyState, record_on: Optional[Stm] = None) -> Optional[GPAnyState]:
    """One step of the combined baseline/tracing relation.

    From a plain state, recording starts when the state is the unfolded if of
    ``record_on`` (or of any loop when unset) with a true test; otherwise the
    baseline applies.  In recording mode the subject loop stitches, a bail
    aborts recording, and any other head takes the baseline step and appends
    its record to the trace.
    """
    if isinstance(s, GPState):
        m = _t1_pattern(s)
        if m is not None:
            kw, cont = m
            if (record_on is None or kw == record_on) and \
                    eval_bexpr(s.stm[0].test, s.store) == Bool(True):
                return GPTState(s.store, kw, EMPTY, cont)
        return gp_step(s)

    rho, kw, t, stm = s.store, s.kw, s.trace, s.stm
    if stm == kw:
        # stitch rule; the optimization is the identity
        return GPState(rho, (GWhile(stm[0].test, t),) + stm[1:])
    nxt = gp_step(GPState(rho, stm))
    if nxt is None or isinstance(stm[0], GBail):
        return nxt  # stuck, or recording aborted
    head, k = stm[0], stm[1:]
    if isinstance(head, GAssign):
        rec = head
    elif isinstance(head, GIf):  # the bail of the branch not taken
        rec = (GBail(negate_bexpr(head.test), k) if eval_bexpr(head.test, rho).value
               else GBail(head.test, head.body + k))
    else:
        rec = GSkip()
    return GPTState(nxt.store, kw, t + (rec,), nxt.stm)


# ---------------------------------------------------------------------------
# Hot-path recording and the equivalence check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RecordResult:
    trace_stm: Stm            # the recorded trace t
    stitched: Stm             # (while B do t) K, the post-stitch program
    hot_path: tuple[Command, ...]
    compiled_program: Program


def gp_record_hot_path(stm: Stm, rho0: Store, budget: int) -> RecordResult:
    """Drive the tracing relation on a while-headed program until the stitch
    rule fires; returns the recorded trace and its hot path in the compiled
    program, mined by the storeless loop selector."""
    from . import hotpath
    if not stm or not isinstance(stm[0], GWhile):
        raise GPError("recording needs a while-headed program")
    comp = GPCompiler()
    program = comp.compile(stm)

    cur: GPAnyState = GPState(rho0, stm)
    states: list[GPAnyState] = [cur]
    stitched: Optional[Stm] = None
    for _ in range(budget):
        was_recording = isinstance(cur, GPTState)
        nxt = gp_trace_step(cur, record_on=stm)
        if nxt is None:
            raise GPError(f"stuck before any stitch: {cur}")
        if was_recording and isinstance(nxt, GPState):
            if nxt.stm and isinstance(nxt.stm[0], GWhile) and cur.stm == cur.kw:
                stitched = nxt.stm
                break
            raise GPError("recording aborted at a bail command")
        states.append(nxt)
        cur = nxt
    if stitched is None:
        raise GPError("budget exhausted before the stitch rule fired")

    t = states[-1].trace
    cmds = tuple(s.command for s in comp.compile_trace(states))
    hp = cmds[:-1]
    mined = (cmds[i:j + 1] for i, j in hotpath.sloop(cmds, hotpath.topo_order(program)))
    if hp not in mined:
        raise GPError("recorded path was not mined back from the compiled trace")
    return RecordResult(t, stitched, hp, program)


@dataclass(frozen=True)
class GPEquivResult:
    passed: bool
    renaming: Optional[dict[str, str]]
    record: RecordResult


def gp_equivalence_check(stm: Stm, rho0: Store, budget: int) -> GPEquivResult:
    """Records a hot path, then checks that compiling the stitched program
    agrees with the guardless extraction of the compiled original (equality up
    to renaming, entry onto entry: both start in the stitched loop), and that
    both programs have the same store-change behavior from rho0 at this
    budget."""
    from .extract import extract_gp
    from .observe import compare, sc
    rec = gp_record_hot_path(stm, rho0, budget)
    left = GPCompiler().compile(rec.stitched)
    right = extract_gp(rec.compiled_program, rec.hot_path)
    renaming = rename_equal(left, right)

    r1 = gp_run(stm, rho0, budget)
    r2 = gp_run(rec.stitched, rho0, budget)
    agree, _ = compare(sc(r1), sc(r2), r1, r2)
    return GPEquivResult(renaming is not None and agree, renaming, rec)
