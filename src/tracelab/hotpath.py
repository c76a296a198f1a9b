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

No pass rescans the trace.  In a well-formed program the commands at a
label are one command and its complement, so a segment cannot contain a
second visit of its first command's label; ``sloop`` keeps the latest visit
of each label in one forward pass, which leaves at most one segment per end
(O(n + S log S) for n states and S <= n segments, with the sort by start).
``topo_order`` orders each label's branches once per call, and ``hotcut``
finds the stretches it drops in one scan of a byte mask of the commands.

A mining call (``pipeline.mine``) ranks the program's commands once and
mines its traces against that one order.  Abstraction reads a run's writes,
since a nonrelational abstraction commutes with an update:
alpha(rho[x -> v]) = alpha(rho)[x -> alpha(v)].  A run's initial store is
abstracted whole by ``alpha``; after that, each binding a step writes has its
one slot re-abstracted, and a state keeps its predecessor's element object
when no slot changes.  ``hotcut`` gives the two states it joins around a
dropped stretch the composition of the stretch's writes, so a cut run is
abstracted the same way.  Elements and commands are hash-consed, so every
test of them here is by identity.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import islice
from operator import itemgetter
from typing import Optional, Sequence

from .domains import AbstractStore, StoreAbstraction, get_domain
from .lang import Command, Program, is_negation
from .semantics import Run, compose


class HotPathError(Exception):
    pass


# ---------------------------------------------------------------------------
# Topological order (reverse postorder)
# ---------------------------------------------------------------------------

def topo_order(p: Program) -> dict[Command, int]:
    """The rank of each command reachable from the entry, in a
    reverse-postorder DFS from it, positive branches first, ties in
    ``Program.at``'s order.  A run visits only reachable commands, so its
    segments are ranked in full.  Each label's commands are put in branch
    order once per call, not at every stack pop."""
    # positive branches explore first, so a loop's head ranks at or before
    # its exit commands; negations are the cold side
    order = {label: cs if len(cs) == 1 else tuple(sorted(cs, key=lambda c: is_negation(c.action)))
             for label, cs in p.by_label.items()}
    post: list[Command] = []
    visited: set[Command] = set()
    for root in p.at(p.entry):
        if root in visited:
            continue
        stack: list[tuple[Command, int]] = [(root, 0)]
        visited.add(root)
        while stack:
            cmd, i = stack.pop()
            succs = order.get(cmd.succ, ())
            if i < len(succs):
                stack.append((cmd, i + 1))
                nxt = succs[i]
                if nxt not in visited:
                    visited.add(nxt)
                    stack.append((nxt, 0))
            else:
                post.append(cmd)
    return {c: i for i, c in enumerate(reversed(post))}


# ---------------------------------------------------------------------------
# Loop paths
# ---------------------------------------------------------------------------

def sloop(commands: Sequence[Command], rank: dict[Command, int]) -> list[tuple[int, int]]:
    """All loop-path segments of a trace's commands, as (i, j) index pairs in
    increasing order: suc(C_j) = lbl(C_i), C_i ranked at or before C_j, and
    no interior re-occurrence of C_i or its complement.

    In a well-formed program the commands at a label are one command
    and its complement, so that last condition says that no state in
    (i, j] visits C_i's label.  One forward pass keeps the latest visit of
    each label: the one segment that can end at j starts at the latest visit
    of suc(C_j) up to j (j itself for a self-loop), and is kept when the
    ranks allow.  The segments, at most one per end, are then sorted by
    start, which is the order ``count``'s first occurrences follow: O(n + S
    log S) for n states and S <= n segments."""
    last: dict[str, int] = {}
    segments: list[tuple[int, int]] = []
    for j, c in enumerate(commands[:-1]):  # j needs a successor state
        last[c.label] = j
        i = last.get(c.succ)
        if i is not None and rank[commands[i]] <= rank[c]:
            segments.append((i, j))
    segments.sort(key=itemgetter(0))  # stable: the ends of one start stay in order
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
    ``count`` in one pass over the segments (linear in their total length).
    A run with no loop segment is not abstracted."""
    if n < 1:
        raise HotPathError("threshold must be >= 1")
    get_domain(domain_tag)  # an unknown tag is an error, with or without segments
    if rank is None:
        rank = topo_order(p)
    segments = sloop(r.commands, rank)
    counts = count(abstract_trace(r, domain_tag) if segments else [], segments)
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
    returned as it is.

    By that rule the dropped states are the interiors of the maximal runs of
    three or more outside states, so one scan of a byte mask of the commands
    finds them, and each such run's writes are composed once: linear in the
    trace."""
    mask = bytes(map(original.commands.__contains__, r.commands))
    cmds, ws = r.commands, r.writes
    commands: list[Command] = []
    writes: list = []
    at = 0  # the first state not yet copied
    for stretch in re.finditer(b"\x00{3,}", mask):
        first, last = stretch.start(), stretch.end() - 1
        commands += cmds[at:first + 1]
        writes += ws[at:first]
        writes.append(compose(ws[first:last]))
        at = last
    if not at:
        return r
    commands += cmds[at:]
    writes += ws[at:]
    return Run(r.initial, tuple(commands), tuple(writes), r.reason)
