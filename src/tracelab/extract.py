"""Program transforms that stitch hot paths into guarded linear chains.

The plain transform removes the path's head conditional, re-adds it under a
fresh relabeling as the slow entry, and splices in the stitch: an entry guard
pair at the head label, one freshly labeled copy of each path action, a guard
pair in front of every interior copy, and complement exits back into original
code.  The nested variant additionally relabels into and out of previously
stitched paths so they are called like subroutines.  The while-language
variant adds a guardless relabeled chain only and enters the program there.

``extract_nested`` records every command it builds by role and path index
(``StitchResult``), so that optimizations and the proof witnesses read the
stitch from that record rather than searching the program for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .hotpath import HotPath
from .lang import Command, Guard, LabelScope, Program, find_cmpl


class ExtractError(Exception):
    pass


@dataclass(frozen=True)
class StitchResult:
    """The commands extraction built into ``program``, one field per role,
    each keyed by its index i on the hot path (``hp.commands[i]``):

    - ``guards[i]``: the (positive, negative) guard pair in front of copy i;
      ``guards[0]`` is the entry pair at the head label.  Pairs and copies
      are at exactly the indices of the path's original commands;
    - ``body[i]``: the freshly labeled action copy of command i;
    - ``nested[i]``: command i of a previously stitched path, retargeted into
      this stitch when command i + 1 is original;
    - ``exits[i]``: the complement exit beside copy i, when command i branches;
    - ``slow``: the relabeled head and its complement, if any; empty without
      ``guards[0]``.

    ``stitched`` (the guards, body, nested commands and exits) and
    ``transformed`` (``program`` with the head and the retargeted commands
    swapped for the stitch and the slow copies) are derived.  Optimization
    passes may only rewrite or delete copies (``optimize.optimize_full``).
    """

    program: Program
    hp: HotPath
    guards: dict[int, tuple[Command, Command]]
    body: dict[int, Command]
    nested: dict[int, Command]
    exits: dict[int, Command]
    slow: tuple[Command, ...]

    @cached_property
    def stitched(self) -> frozenset[Command]:
        return frozenset([*(c for g in self.guards.values() for c in g), *self.body.values(),
                          *self.nested.values(), *self.exits.values()])

    @cached_property
    def transformed(self) -> Program:
        cmds = self.hp.commands
        head = [Command(cmds[0].label, c.action, c.succ) for c in self.slow]
        return self.program.replace(remove=[*head, *(cmds[i] for i in self.nested)],
                                    add=self.stitched | frozenset(self.slow))


def extract_nested(p_current: Program, hp: HotPath, p_original: Program) -> StitchResult:
    """Stitch ``hp`` into ``p_current``; commands of ``hp`` outside
    ``p_original`` belong to previously stitched paths and are nested rather
    than copied.  With every command in the original program this is exactly
    the plain transform.  A path that leaves the same stitched command twice
    is refused: retargeting it twice would make its label nondeterministic."""
    cmds = hp.commands
    n = len(cmds) - 1
    for c in cmds:
        if c not in p_current.commands:
            raise ExtractError(f"hot path command not in program: {c}")
    in_orig = [c in p_original.commands for c in cmds]
    scope = LabelScope.fresh_for(p_current, p_original)

    def guard_pair(i: int, label: str, no: str) -> tuple[Command, Command]:
        a = hp.pairs[i][0]
        return (Command(label, Guard(a, True), scope.ell(i)),
                Command(label, Guard(a, False), no))

    c0 = cmds[0]
    guards: dict[int, tuple[Command, Command]] = {}
    body: dict[int, Command] = {}
    nested: dict[int, Command] = {}
    exits: dict[int, Command] = {}
    slow: tuple[Command, ...] = ()

    if in_orig[0]:
        # (1)-(3): swap the head for a guard pair, keep a relabeled slow copy
        bar = scope.bar(c0.label)
        cmpl0 = find_cmpl(c0, p_current)
        head = (c0,) if cmpl0 is None else (c0, cmpl0)
        slow = tuple(Command(bar, c.action, c.succ) for c in head)
        guards[0] = guard_pair(0, c0.label, bar)

    for i, ci in enumerate(cmds):
        if i == n:
            nxt = c0.label
        else:
            nxt = scope.bbl(i + 1) if in_orig[i + 1] else cmds[i + 1].label
        if in_orig[i]:
            # (4)/(7): the freshly labeled action copy
            body[i] = Command(scope.ell(i), ci.action, nxt)
            # (5): complement exit
            compl = find_cmpl(ci, p_current)
            if compl is not None:
                exits[i] = Command(scope.ell(i), compl.action, compl.succ)
            # (6): interior guard pair in front of the copy
            if i >= 1:
                guards[i] = guard_pair(i, scope.bbl(i), ci.label)
        elif i < n and in_orig[i + 1]:
            # (8)-(9): retarget a nested path's exit into this stitch
            if any(cmds[j] == ci for j in nested):
                raise ExtractError(f"hot path leaves the stitched command {ci} twice")
            nested[i] = Command(ci.label, ci.action, nxt)

    return StitchResult(p_current, hp, guards, body, nested, exits, slow)


def extract(p: Program, hp: HotPath) -> StitchResult:
    """The paper's plain extraction: every hot-path command must be in ``p``
    (test oracle: the extract, optimize and witness tests stitch with it)."""
    return extract_nested(p, hp, p)


def extract_gp(p_w: Program, hp_commands: tuple[Command, ...]) -> Program:
    """Guardless extraction for compiled while-programs.

    The path starts with the loop's skip/conditional head; when it has no
    branching command past the loop test there is nothing to stitch and the
    program is returned unchanged.  Otherwise a relabeled copy of the whole
    path is added, with complement exits into the original code, and the
    program is entered at the copy of the path head: it starts in its
    stitched loop, as the compiled ``(while B do t) K`` does.
    """
    cmds = tuple(hp_commands)
    if not cmds:
        raise ExtractError("empty hot path")
    for a, b in zip(cmds, cmds[1:]):
        if a.succ != b.label:
            raise ExtractError(f"broken path: {a} then {b}")
    if cmds[-1].succ != cmds[0].label:
        raise ExtractError("path does not loop back to its first command")
    for c in cmds:
        if c not in p_w.commands:
            raise ExtractError(f"hot path command not in program: {c}")

    n = len(cmds) - 1
    if all(find_cmpl(cmds[i], p_w) is None for i in range(2, n + 1)):
        return p_w

    scope = LabelScope.fresh_for(p_w)
    ell = {i: scope.ell(i) for i in range(n + 1)}
    added: set[Command] = set()
    for i, ci in enumerate(cmds):
        nxt = ell[0 if i == n else i + 1]
        added.add(Command(ell[i], ci.action, nxt))
        compl = find_cmpl(ci, p_w)
        if compl is not None:
            added.add(Command(ell[i], compl.action, compl.succ))
    return Program(p_w.commands | added, ell[0], p_w.arrays)
