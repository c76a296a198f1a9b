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
mines its traces against that one order.  Abstraction reads a run's writes,
since a nonrelational abstraction commutes with an update:
alpha(rho[x -> v]) = alpha(rho)[x -> alpha(v)].  A run's initial store is
abstracted whole by ``alpha``; after that, each binding a step writes has its
one slot re-abstracted, and a state keeps its predecessor's element object
when no slot changes.  ``hotcut`` gives the two states it joins around a
dropped stretch the composition of the stretch's writes, so a cut run is
abstracted the same way.  Counting then numbers each distinct (element,
command) pair once, so images are tuples of small ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Optional, Sequence

from .domains import AbstractStore, StoreAbstraction, get_domain
from .lang import Command, HALT, Program, find_cmpl, is_negation
from .semantics import Run, compose


class HotPathError(Exception):
    pass


# ---------------------------------------------------------------------------
# Topological order (reverse postorder)
# ---------------------------------------------------------------------------

def topo_order(p: Program) -> dict[Command, int]:
    """The rank of each command in a reverse-postorder DFS from the entry,
    positive branches first, ties in ``Program.at``'s order; commands
    unreachable from the entry are numbered afterwards the same way, from
    DFS roots in ``sorted_commands`` order.  That order prints every action,
    a guard's with its store, so it is built only when such commands exist."""
    post: list[Command] = []
    visited: set[Command] = set()

    def dfs(root: Command) -> None:
        stack: list[tuple[Command, int]] = [(root, 0)]
        visited.add(root)
        while stack:
            cmd, i = stack.pop()
            # positive branches explore first, so a loop's head ranks at or
            # before its exit commands; negations are the cold side
            succs = () if cmd.succ == HALT else \
                tuple(sorted(p.at(cmd.succ), key=lambda c: is_negation(c.action)))
            if i < len(succs):
                stack.append((cmd, i + 1))
                nxt = succs[i]
                if nxt not in visited:
                    visited.add(nxt)
                    stack.append((nxt, 0))
            else:
                post.append(cmd)

    for c in p.at(p.entry):
        if c not in visited:
            dfs(c)
    for c in p.sorted_commands if len(visited) < len(p.commands) else ():
        if c not in visited:
            dfs(c)
    return {c: i for i, c in enumerate(reversed(post))}


# ---------------------------------------------------------------------------
# Loop paths
# ---------------------------------------------------------------------------

def sloop(commands: Sequence[Command], rank: dict[Command, int],
          p: Program) -> list[tuple[int, int]]:
    """All loop-path segments of a trace's commands, as (i, j) index pairs:
    suc(C_j) = lbl(C_i), C_i ranked at or before C_j, and no interior
    re-occurrence of C_i or its complement.

    Each distinct command is looked up once, into a row of small ints: its
    id, its complement's id (its own when it has none), the ids of its label
    and its successor label, and its rank.  The scan compares ints only."""
    n = len(commands) - 1  # j must have a successor state in the sequence
    ids: dict[Command, int] = {}
    labels: dict[str, int] = {}
    table: dict[Command, tuple[int, int, int, int, int]] = {}
    for c in commands[:n]:
        if c not in table:
            m = find_cmpl(c, p) or c
            table[c] = (ids.setdefault(c, len(ids)), ids.setdefault(m, len(ids)),
                        labels.setdefault(c.label, len(labels)),
                        labels.setdefault(c.succ, len(labels)), rank[c])
    rows = [table[c] for c in commands[:n]]
    own = [r[0] for r in rows]
    succ = [r[3] for r in rows]
    ranks = [r[4] for r in rows]
    segments: list[tuple[int, int]] = []
    for i, (a, b, head, _, r) in enumerate(rows):
        if succ[i] == head:
            segments.append((i, i))
        for j in range(i + 1, n):
            k = own[j]
            if k == a or k == b:
                break
            if succ[j] == head and r <= ranks[j]:
                segments.append((i, j))
    return segments


def count(abs_tr: Sequence[tuple[AbstractStore, Command]],
          segments: Sequence[tuple[int, int]]) -> dict[tuple, int]:
    """Occurrences of each segment's image, in first-occurrence order: one per
    segment, plus one if the window that ends the trace has the image too
    (occurrences of a loop path never overlap; see the module docstring).

    Each distinct (element, command) pair is numbered once, in trace order,
    so an image is counted as a tuple of small ints; the distinct images are
    mapped back to tuples of pairs at the end."""
    ids: dict[tuple[AbstractStore, Command], int] = {}
    sym = [ids.setdefault(pair, len(ids)) for pair in abs_tr]
    counts: dict[tuple[int, ...], int] = {}
    for i, j in segments:
        image = tuple(sym[i:j + 1])
        if image not in counts:
            counts[image] = int(tuple(sym[-len(image):]) == image)
        counts[image] += 1
    pairs = list(ids)
    return {tuple(pairs[k] for k in image): c for image, c in counts.items()}


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


def abstract_trace(r: Run, domain_tag: str) -> list[tuple[AbstractStore, Command]]:
    """Pairs each command of a run with the abstraction of its store: the
    initial store is abstracted whole, and each later store by re-slotting
    the bindings of the write that leads to it, sharing the predecessor's
    element when no slot changes."""
    if not r.commands:
        return []
    dom = get_domain(domain_tag)
    of, default = dom.of, dom.undef_slot
    a = dom.alpha([r.initial])
    slots = dict(a.items)  # the bindings of a
    out = [(a, r.commands[0])]
    for w, c in zip(r.writes, islice(r.commands, 1, None)):
        for x, v in w:
            slot = of(v)
            if slot != slots.get(x, default):
                slots[x] = slot
                a = None  # made anew from the slots below
        if a is None:
            a = dom.make(slots)
        out.append((a, c))
    return out


def hot_n(r: Run, n: int, domain_tag: str, p: Program,
          rank: Optional[dict[Command, int]] = None) -> list[tuple[HotPath, int]]:
    """N-hot paths of one run with their counts, in first-occurrence order:
    abstracted loop segments whose image occurs n times or more, tallied by
    ``count`` in one pass over the segments (linear in their total length)."""
    if n < 1:
        raise HotPathError("threshold must be >= 1")
    if rank is None:
        rank = topo_order(p)
    counts = count(abstract_trace(r, domain_tag), sloop(r.commands, rank, p))
    return [(HotPath(pairs), c) for pairs, c in counts.items() if c >= n]


# ---------------------------------------------------------------------------
# Nested variant: cut previously stitched regions down to entry/exit states
# ---------------------------------------------------------------------------

def hotcut(r: Run, original: Program) -> Run:
    """Drops interior states of stretches of commands outside the original
    program, keeping each stretch's first and last state: a state stays when
    its command or a neighbour's is in the original program, or when it ends
    the trace.  Two kept states joined around a dropped stretch are linked by
    the composed writes of the stretch.  A run that keeps every state is
    returned as it is."""
    inside = list(map(original.commands.__contains__, r.commands))
    last = len(inside) - 1
    keep = [i for i in range(len(inside))
            if inside[i] or i == 0 or i == last or inside[i - 1] or inside[i + 1]]
    if len(keep) == len(inside):
        return r
    ws = r.writes
    writes = tuple(ws[i] if j == i + 1 else compose(ws[i:j]) for i, j in zip(keep, keep[1:]))
    return Run(r.initial, tuple(r.commands[i] for i in keep), writes, r.reason)
