"""Hot-path mining: loop-path selection over recorded traces.

A loop path is a trace segment that jumps back to its own first command; it is
hot when its store-abstracted image occurs at least N times in the abstracted
trace.  Backward jumps are recognized against a reverse-postorder numbering of
the command flow graph (cyclic graphs have no true topological order; back
edge = target rank <= source rank is the usual compiler reading).

Counting is one pass over the loop segments: every occurrence of a loop
path's image is a segment itself (same commands, same tests), except one that
ends at the trace's last state, which has no successor state, so each image
also checks that trailing window.  Occurrences of one path never overlap: the
second's first command would be an interior head of the first.

A mining call (``pipeline.mine``) ranks the program's commands once and
mines every trace against that one order.  Abstraction follows store
identity: the states a firing test leaves with the same store object share
one abstract store, so equal stores in a run of them compare by identity when
paths are counted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .domains import AbstractStore, StoreAbstraction, get_domain
from .lang import Command, Cond, Guard, HALT, Not, Program, find_cmpl
from .semantics import State


class HotPathError(Exception):
    pass


# ---------------------------------------------------------------------------
# Topological order (reverse postorder)
# ---------------------------------------------------------------------------

def _branch_key(c: Command) -> bool:
    """Positive branches explore first, so a loop's head ranks at or before
    its exit commands; negations and failing guards are the cold side."""
    a = c.action
    return (isinstance(a, Cond) and isinstance(a.test, Not)) or \
        (isinstance(a, Guard) and not a.positive)


def topo_order(p: Program) -> dict[Command, int]:
    """The rank of each command in a reverse-postorder DFS from the entry,
    positive branches first, ties in ``Program.at``'s order; commands
    unreachable from the entry are numbered afterwards the same way."""
    post: list[Command] = []
    visited: set[Command] = set()

    def dfs(root: Command) -> None:
        stack: list[tuple[Command, int]] = [(root, 0)]
        visited.add(root)
        while stack:
            cmd, i = stack.pop()
            succs = () if cmd.succ == HALT else \
                tuple(sorted(p.at(cmd.succ), key=_branch_key))
            if i < len(succs):
                stack.append((cmd, i + 1))
                nxt = succs[i]
                if nxt not in visited:
                    visited.add(nxt)
                    stack.append((nxt, 0))
            else:
                post.append(cmd)

    for c in (*p.at(p.entry), *p.sorted_commands):
        if c not in visited:
            dfs(c)
    return {c: i for i, c in enumerate(reversed(post))}


# ---------------------------------------------------------------------------
# Loop paths
# ---------------------------------------------------------------------------

def sloop(states: Sequence[State], rank: dict[Command, int], p: Program) -> list[tuple[int, int]]:
    """All loop-path segments of a state sequence, as (i, j) index pairs:
    suc(C_j) = lbl(C_i), C_i ranked at or before C_j, and no interior
    re-occurrence of C_i or its complement."""
    n = len(states) - 1  # j must have a successor state in the sequence
    segments: list[tuple[int, int]] = []
    for i in range(n):
        ci = states[i].command
        blockers = {ci, find_cmpl(ci, p)} - {None}
        for j in range(i, n):
            cj = states[j].command
            if j > i and cj in blockers:
                break
            if cj.succ == ci.label and rank[ci] <= rank[cj]:
                segments.append((i, j))
    return segments


def count(abs_tr: Sequence[tuple[AbstractStore, Command]],
          segments: Sequence[tuple[int, int]]) -> dict[tuple, int]:
    """Occurrences of each segment's image, in first-occurrence order: one per
    segment, plus one if the window that ends the trace has the image too
    (occurrences of a loop path never overlap; see the module docstring)."""
    counts: dict[tuple, int] = {}
    for i, j in segments:
        image = tuple(abs_tr[i:j + 1])
        if image not in counts:
            counts[image] = int(tuple(abs_tr[-len(image):]) == image)
        counts[image] += 1
    return counts


# ---------------------------------------------------------------------------
# Hot paths
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HotPath:
    """Abstracted loop path: each command with the abstract store that will
    guard it."""

    pairs: tuple[tuple[AbstractStore, Command], ...]

    def __post_init__(self):
        # interior pairs need not be successor-linked: nested paths cut
        # previously stitched regions down to their entry and exit commands
        if not self.pairs:
            raise HotPathError("empty hot path")
        cmds = self.commands
        if cmds[-1].succ != cmds[0].label:
            raise HotPathError("path does not loop back to its first command")
        head = cmds[0].label
        if any(c.label == head for c in cmds[1:]):
            raise HotPathError("interior occurrence of the first command's label")

    @property
    def domain(self) -> StoreAbstraction:
        """The domain of the stores: a miner abstracts a trace in one domain."""
        return self.pairs[0][0].domain

    @property
    def commands(self) -> tuple[Command, ...]:
        return tuple(c for _, c in self.pairs)

    def __len__(self):
        return len(self.pairs)

    def __str__(self):
        return " ; ".join(f"({a}) {c}" for a, c in self.pairs)


def abstract_trace(states: Sequence[State], domain_tag: str) -> list[tuple[AbstractStore, Command]]:
    """Pairs each state's command with the abstraction of its store.  A state
    that carries its predecessor's store object on (a test fired) shares the
    predecessor's element instead of abstracting the store again."""
    dom = get_domain(domain_tag)
    out: list[tuple[AbstractStore, Command]] = []
    store = a = None
    for s in states:
        if s.store is not store:
            store = s.store
            a = dom.alpha([store])
        out.append((a, s.command))
    return out


def hot_n(states: Sequence[State], n: int, domain_tag: str, p: Program,
          rank: Optional[dict[Command, int]] = None) -> list[tuple[HotPath, int]]:
    """N-hot paths of one trace with their counts, in first-occurrence order:
    abstracted loop segments whose image occurs n times or more, tallied by
    ``count`` in one pass over the segments (linear in their total length)."""
    if n < 1:
        raise HotPathError("threshold must be >= 1")
    if rank is None:
        rank = topo_order(p)
    counts = count(abstract_trace(states, domain_tag), sloop(states, rank, p))
    return [(HotPath(pairs), c) for pairs, c in counts.items() if c >= n]


# ---------------------------------------------------------------------------
# Nested variant: cut previously stitched regions down to entry/exit states
# ---------------------------------------------------------------------------

def hotcut(states: Sequence[State], original: Program) -> tuple[State, ...]:
    """Drops interior states of runs of commands outside the original program,
    keeping each run's first and last state: a state stays when its command
    or a neighbour's is in the original program, or when it ends the trace."""
    inside = [s.command in original.commands for s in states]
    last = len(states) - 1
    return tuple(s for i, s in enumerate(states)
                 if inside[i] or i == 0 or i == last or inside[i - 1] or inside[i + 1])
