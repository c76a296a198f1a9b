"""Program transforms that stitch hot paths into guarded linear chains.

The plain transform removes the path's head conditional, re-adds it under a
fresh relabeling as the slow entry, and splices in the stitch: an entry guard
pair at the head label, one freshly labeled copy of each path action, a guard
pair in front of every interior copy, and complement exits back into original
code.  The nested variant additionally relabels into and out of previously
stitched paths so they are called like subroutines.  The while-language
variant adds a guardless relabeled chain only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .domains import get_domain
from .hotpath import HotPath
from .lang import Command, Guard, LabelScope, Program, find_cmpl


class ExtractError(Exception):
    pass


@dataclass(frozen=True)
class StitchResult:
    transformed: Program
    stitched: frozenset[Command]
    hp: HotPath
    ell: dict[int, str]  # fresh labels of the action copies, by path index
    bbl: dict[int, str]  # fresh labels of the interior guard pairs
    bar: Optional[str]   # fresh label of the relabeled slow head, if any
    body: dict[int, Command]  # the action-copy command per path index

    @property
    def entry_label(self) -> Optional[str]:
        """Label of the entry guard pair; None when the path head is itself
        part of a previously stitched path (no entry clause then)."""
        return self.hp.commands[0].label if self.bar is not None else None

    def stitch_labels(self) -> frozenset[str]:
        return frozenset(c.label for c in self.stitched)


def _guard_pair(label: str, domain: str, store, yes: str, no: str) -> tuple[Command, Command]:
    return (Command(label, Guard(domain, store, True), yes),
            Command(label, Guard(domain, store, False), no))


def extract_nested(p_current: Program, hp: HotPath, p_original: Program) -> StitchResult:
    """Stitch ``hp`` into ``p_current``; commands of ``hp`` outside
    ``p_original`` belong to previously stitched paths and are nested rather
    than copied.  With every command in the original program this is exactly
    the plain transform.  A path that leaves the same stitched command twice
    is refused: retargeting it twice would make its label nondeterministic."""
    get_domain(hp.domain)  # fail fast on unregistered guard domains
    cmds = hp.commands
    n = len(cmds) - 1
    for c in cmds:
        if c not in p_current.commands:
            raise ExtractError(f"hot path command not in program: {c}")
    in_orig = [c in p_original.commands for c in cmds]

    scope = LabelScope.fresh_for(p_current, p_original)
    ell = {i: scope.ell(i) for i in range(n + 1)}
    bbl = {i: scope.bbl(i) for i in range(1, n + 1)}

    c0 = cmds[0]
    a0 = hp.pairs[0][0]
    removed: set[Command] = set()
    added: set[Command] = set()
    stitched: set[Command] = set()
    body: dict[int, Command] = {}
    bar: Optional[str] = None

    cmpl0 = find_cmpl(c0, p_current)

    if in_orig[0]:
        # (1)-(3): swap the head for a guard pair, keep a relabeled slow copy
        bar = scope.bar(c0.label)
        removed.add(c0)
        added.add(Command(bar, c0.action, c0.succ))
        if cmpl0 is not None:
            removed.add(cmpl0)
            added.add(Command(bar, cmpl0.action, cmpl0.succ))
        entry = _guard_pair(c0.label, hp.domain, a0, ell[0], bar)
        added.update(entry)
        stitched.update(entry)

    for i in range(n + 1):
        ci = cmds[i]
        ai = hp.pairs[i][0]
        if in_orig[i]:
            # (4)/(7): the freshly labeled action copy
            if i == n:
                copy = Command(ell[n], ci.action, c0.label)
            elif in_orig[i + 1]:
                copy = Command(ell[i], ci.action, bbl[i + 1])
            else:
                copy = Command(ell[i], ci.action, cmds[i + 1].label)
            added.add(copy)
            stitched.add(copy)
            body[i] = copy
            # (5): complement exit
            compl = find_cmpl(ci, p_current)
            if compl is not None:
                exit_cmd = Command(ell[i], compl.action, compl.succ)
                added.add(exit_cmd)
                stitched.add(exit_cmd)
            # (6): interior guard pair in front of the copy
            if i >= 1:
                pair = _guard_pair(bbl[i], hp.domain, ai, ell[i], ci.label)
                added.update(pair)
                stitched.update(pair)
        else:
            # (8)-(9): retarget a nested path's exit into this stitch
            if i < n and in_orig[i + 1]:
                if ci in removed:
                    raise ExtractError(f"hot path leaves the stitched command {ci} twice")
                removed.add(ci)
                retarget = Command(ci.label, ci.action, bbl[i + 1])
                added.add(retarget)
                stitched.add(retarget)
                body[i] = retarget

    transformed = p_current.replace(remove=removed, add=added)
    return StitchResult(transformed, frozenset(stitched), hp, ell, bbl, bar, body)


def extract(p: Program, hp: HotPath) -> StitchResult:
    """Plain trace extraction: every hot-path command must be in ``p``."""
    return extract_nested(p, hp, p)


def extract_gp(p_w: Program, hp_commands: tuple[Command, ...]) -> Program:
    """Guardless extraction for compiled while-programs.

    The path starts with the loop's skip/conditional head; when it has no
    branching command past the entry conditional there is nothing to stitch
    and the program is returned unchanged.  Otherwise a relabeled copy of the
    whole path is added, with complement exits into the original code.
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
    return p_w.replace(add=added)
