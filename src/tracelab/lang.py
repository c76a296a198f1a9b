"""Syntax of the labeled-command language.

A program is a finite set of commands ``L: A -> L'`` plus an entry label.
Well-formedness requires every conditional (and guard) to come with a unique
complement command at the same label.  The distinguished successor ``.`` marks
final commands; it is never the label of a command.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Optional, Union

from .values import Value, value_str

HALT = "."  # successor of final commands, never a command label


class LangError(Exception):
    pass


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Lit:
    value: Value

    def __str__(self):
        return value_str(self.value)


@dataclass(frozen=True)
class Var:
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Add:
    left: "Expr"
    right: "Expr"

    def __str__(self):
        return f"({self.left} + {self.right})"


@dataclass(frozen=True)
class AddTyped:
    """Type-specific addition; tag is "Int" or "Str"."""

    left: "Expr"
    right: "Expr"
    tag: str

    def __str__(self):
        return f"({self.left} +{self.tag} {self.right})"


@dataclass(frozen=True)
class Mod:
    left: "Expr"
    right: "Expr"

    def __str__(self):
        return f"({self.left} % {self.right})"


@dataclass(frozen=True)
class Index:
    """Array read; arrays are families of variables name_0, name_1, ..."""

    array: str
    index: "Expr"

    def __str__(self):
        return f"{self.array}[{self.index}]"


Expr = Union[Lit, Var, Add, AddTyped, Mod, Index]


# ---------------------------------------------------------------------------
# Boolean expressions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Tt:
    def __str__(self):
        return "tt"


@dataclass(frozen=True)
class Ff:
    def __str__(self):
        return "ff"


@dataclass(frozen=True)
class Leq:
    left: Expr
    right: Expr

    def __str__(self):
        return f"({self.left} <= {self.right})"


@dataclass(frozen=True)
class Eq:
    left: Expr
    right: Expr

    def __str__(self):
        return f"({self.left} = {self.right})"


@dataclass(frozen=True)
class Not:
    arg: "BExpr"

    def __str__(self):
        return f"!{self.arg}"


@dataclass(frozen=True)
class And:
    left: "BExpr"
    right: "BExpr"

    def __str__(self):
        return f"({self.left} && {self.right})"


BExpr = Union[Tt, Ff, Leq, Eq, Not, And]


def negate_bexpr(b: BExpr) -> BExpr:
    """Negation with the !!B = B normalization, so complements are involutive."""
    if isinstance(b, Not):
        return b.arg
    return Not(b)


def expr_vars(e: Expr) -> frozenset[str]:
    if isinstance(e, Lit):
        return frozenset()
    if isinstance(e, Var):
        return frozenset({e.name})
    if isinstance(e, (Add, AddTyped, Mod)):
        return expr_vars(e.left) | expr_vars(e.right)
    if isinstance(e, Index):
        return expr_vars(e.index) | frozenset({e.array})
    raise LangError(f"not an expression: {e!r}")


def bexpr_vars(b: BExpr) -> frozenset[str]:
    if isinstance(b, (Tt, Ff)):
        return frozenset()
    if isinstance(b, (Leq, Eq)):
        return expr_vars(b.left) | expr_vars(b.right)
    if isinstance(b, Not):
        return bexpr_vars(b.arg)
    if isinstance(b, And):
        return bexpr_vars(b.left) | bexpr_vars(b.right)
    raise LangError(f"not a boolean expression: {b!r}")


def subst_expr(e: Expr, binding: Mapping[str, Value]) -> Expr:
    """Syntactic substitution of variables by literal values."""
    if isinstance(e, Lit):
        return e
    if isinstance(e, Var):
        return Lit(binding[e.name]) if e.name in binding else e
    if isinstance(e, Add):
        return Add(subst_expr(e.left, binding), subst_expr(e.right, binding))
    if isinstance(e, AddTyped):
        return AddTyped(subst_expr(e.left, binding), subst_expr(e.right, binding), e.tag)
    if isinstance(e, Mod):
        return Mod(subst_expr(e.left, binding), subst_expr(e.right, binding))
    if isinstance(e, Index):
        return Index(e.array, subst_expr(e.index, binding))
    raise LangError(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# Actions and commands
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Skip:
    def __str__(self):
        return "skip"


@dataclass(frozen=True)
class Assign:
    var: str
    expr: Expr

    def __str__(self):
        return f"{self.var} := {self.expr}"


@dataclass(frozen=True)
class ArrayAssign:
    array: str
    index: Expr
    expr: Expr

    def __str__(self):
        return f"{self.array}[{self.index}] := {self.expr}"


@dataclass(frozen=True)
class Cond:
    test: BExpr

    def __str__(self):
        return str(self.test)


@dataclass(frozen=True)
class Guard:
    """Membership test of the concrete store in an abstract store's concretization.

    ``store`` is an AbstractStore, which carries the domain whose gamma
    applies; negative polarity succeeds exactly when membership fails.
    """

    store: object  # domains.AbstractStore; hashable with a stable repr
    positive: bool = True

    def __str__(self):
        head = "guard" if self.positive else "!guard"
        return f"{head} {self.store.domain.tag} {self.store}"


@dataclass(frozen=True)
class Put:
    vars: frozenset[str]

    def __str__(self):
        return "put {" + ", ".join(sorted(self.vars)) + "}"


Action = Union[Skip, Assign, ArrayAssign, Cond, Guard, Put]


def is_branching(a: Action) -> bool:
    """Conditionals and guards are the actions that require complements."""
    return isinstance(a, (Cond, Guard))


def negate_action(a: Action) -> Action:
    if isinstance(a, Cond):
        return Cond(negate_bexpr(a.test))
    if isinstance(a, Guard):
        return Guard(a.store, not a.positive)
    raise LangError(f"action has no complement: {a}")


def action_vars(a: Action) -> frozenset[str]:
    if isinstance(a, Skip):
        return frozenset()
    if isinstance(a, Assign):
        return frozenset({a.var}) | expr_vars(a.expr)
    if isinstance(a, ArrayAssign):
        return frozenset({a.array}) | expr_vars(a.index) | expr_vars(a.expr)
    if isinstance(a, Cond):
        return bexpr_vars(a.test)
    if isinstance(a, Guard):
        return frozenset(a.store.keys())
    if isinstance(a, Put):
        return a.vars
    raise LangError(f"not an action: {a!r}")


@dataclass(frozen=True)
class Command:
    label: str
    action: Action
    succ: str

    def __str__(self):
        return f"{self.label}: {self.action} -> {self.succ}"

    def __post_init__(self):
        if self.label == HALT:
            raise LangError(f"'{HALT}' cannot label a command")
        # the value the dataclass would compute, kept: commands key the
        # miner's and the interpreter's dicts, and a guard's action is deep
        object.__setattr__(self, "_hash", hash((self.label, self.action, self.succ)))

    def __hash__(self):
        return self._hash


def command_key(c: Command) -> tuple:
    """Deterministic sort key (actions never mention labels, so str is stable)."""
    return (c.label, str(c.action), c.succ)


# ---------------------------------------------------------------------------
# Programs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Program:
    commands: frozenset[Command]
    entry: str
    arrays: tuple[tuple[str, int], ...] = ()  # declared array families (name, size)

    @cached_property
    def by_label(self) -> Mapping[str, tuple[Command, ...]]:
        table: dict[str, list[Command]] = {}
        for c in self.commands:
            table.setdefault(c.label, []).append(c)
        return {l: tuple(sorted(cs, key=command_key)) for l, cs in table.items()}

    def at(self, label: str) -> tuple[Command, ...]:
        return self.by_label.get(label, ())

    def labels(self) -> frozenset[str]:
        return frozenset(self.by_label)

    @cached_property
    def complements(self) -> Mapping[Command, tuple[Command, ...]]:
        """Each branching command, mapped to the commands at its label whose
        action is its negation: exactly one in a well-formed program.  The
        only place complements are looked up."""
        table: dict[Command, tuple[Command, ...]] = {}
        for cmds in self.by_label.values():
            for c in cmds:
                if is_branching(c.action):
                    neg = negate_action(c.action)
                    table[c] = tuple(d for d in cmds if d.action == neg)
        return table

    @cached_property
    def nondeterministic(self) -> frozenset[str]:
        """The labels where a run has more than one way on: labels with
        several commands that are not one branching command and its
        complement."""
        return frozenset(
            l for l, cmds in self.by_label.items()
            if len(cmds) > 1 and not (len(cmds) == 2 and cmds[1] in self.complements.get(cmds[0], ())))

    @cached_property
    def sorted_commands(self) -> tuple[Command, ...]:
        return tuple(sorted(self.commands, key=command_key))

    def vars(self) -> frozenset[str]:
        out: set[str] = set()
        for c in self.commands:
            out |= action_vars(c.action)
        return frozenset(out)

    def replace(self, remove: Iterable[Command] = (), add: Iterable[Command] = ()) -> "Program":
        cmds = (self.commands - frozenset(remove)) | frozenset(add)
        return Program(cmds, self.entry, self.arrays)


def find_cmpl(c: Command, p: Program) -> Optional[Command]:
    """The unique complement of c in p; None when c does not branch or its
    complement is missing or not unique (``well_formed`` reports which)."""
    if not is_branching(c.action):
        return None
    matches = p.complements.get(c, ())
    return matches[0] if len(matches) == 1 else None


def well_formed(p: Program) -> list[str]:
    """Diagnostics; empty list means well-formed and deterministic."""
    out = []
    for c in p.sorted_commands:
        if is_branching(c.action):
            matches = p.complements[c]
            if len(matches) == 0:
                out.append(f"no complement for conditional at {c.label}: {c}")
            elif len(matches) > 1:
                out.append(f"multiple complements for conditional at {c.label}: {c}")
    for label in sorted(p.nondeterministic):
        out.append(f"nondeterministic label {label}: {len(p.at(label))} commands")
    if p.entry not in p.by_label:
        out.append(f"entry label {p.entry} has no command")
    return out


# ---------------------------------------------------------------------------
# Equality up to label renaming
# ---------------------------------------------------------------------------

def _action_fp(c: Command) -> tuple:
    return (str(c.action), c.succ == HALT)


def _refine_colors(p: Program) -> dict[str, int]:
    """Iterated successor-color refinement; stable partition of labels."""
    labels = sorted(p.by_label)
    color = {l: 0 for l in labels}

    def signature(l: str) -> tuple:
        sig = []
        for c in p.at(l):
            succ = ("halt",) if c.succ == HALT else ("lbl", color.get(c.succ, -1))
            sig.append((_action_fp(c), succ))
        return tuple(sorted(sig))

    for _ in range(len(labels) + 1):
        sigs = {l: (color[l], signature(l)) for l in labels}
        canon = {s: i for i, s in enumerate(sorted(set(sigs.values())))}
        new = {l: canon[sigs[l]] for l in labels}
        if new == color:
            break
        color = new
    return color


def _apply_renaming(p: Program, m: Mapping[str, str]) -> frozenset[Command]:
    return frozenset(
        Command(m[c.label], c.action, HALT if c.succ == HALT else m[c.succ])
        for c in p.commands
    )


def rename_equal(p1: Program, p2: Program) -> Optional[dict[str, str]]:
    """A label bijection making the command sets equal, or None.

    Compares the command sets only; entry labels do not participate (extracted
    stitches are reachable from fresh heads, not necessarily from the entry).
    Color refinement narrows the candidates, assignments propagate through
    successors (unique per action on deterministic labels), and a backtracking
    search anchored at the verification of the full renaming settles the rest;
    deterministic throughout.
    """
    if len(p1.commands) != len(p2.commands):
        return None
    l1, l2 = sorted(p1.by_label), sorted(p2.by_label)
    if len(l1) != len(l2):
        return None
    c1, c2 = _refine_colors(p1), _refine_colors(p2)

    def groups(p, colors):
        g: dict[tuple, list[str]] = {}
        for l in p.by_label:
            key = (colors[l], tuple(sorted(_action_fp(c) for c in p.at(l))))
            g.setdefault(key, []).append(l)
        return g

    g1, g2 = groups(p1, c1), groups(p2, c2)
    if set(g1) != set(g2) or any(len(g1[k]) != len(g2[k]) for k in g1):
        return None

    cands = {l: sorted(g2[k]) for k in g1 for l in g1[k]}
    order = sorted(l1, key=lambda l: (len(cands[l]), l))

    mapping: dict[str, str] = {}
    taken: dict[str, str] = {}

    def assign(l: str, t: str, trail: list[str]) -> bool:
        """Map l to t and chase the forced successor assignments."""
        queue = [(l, t)]
        while queue:
            a, b = queue.pop()
            if a in mapping:
                if mapping[a] != b:
                    return False
                continue
            if b in taken or b not in cands.get(a, ()):
                return False
            mapping[a] = b
            taken[b] = a
            trail.append(a)
            ours, theirs = p1.at(a), p2.at(b)
            if len(ours) != len(theirs):
                return False
            by_fp: dict[tuple, list[Command]] = {}
            for d in theirs:
                by_fp.setdefault(_action_fp(d), []).append(d)
            for c in ours:
                ds = by_fp.get(_action_fp(c), [])
                if not ds:
                    return False
                if len(ds) == 1 and c.succ != HALT:
                    queue.append((c.succ, ds[0].succ))
                # ambiguous fingerprints (nondeterministic labels) are left to
                # the final verification
        return True

    def undo(trail: list[str]) -> None:
        for a in trail:
            taken.pop(mapping.pop(a))

    def search(i: int) -> bool:
        while i < len(order) and order[i] in mapping:
            i += 1
        if i == len(order):
            return _apply_renaming(p1, mapping) == p2.commands
        l = order[i]
        for t in cands[l]:
            if t in taken:
                continue
            trail: list[str] = []
            if assign(l, t, trail) and search(i + 1):
                return True
            undo(trail)
        return False

    if not search(0):
        return None
    return dict(mapping)


# ---------------------------------------------------------------------------
# Fresh labels
# ---------------------------------------------------------------------------

_SCOPE_RE = re.compile(r"#(\d+)")


@dataclass
class LabelScope:
    """Namespaced fresh labels for one extraction: h<i>#k, g<i>#k, bar<L>#k.

    The scope index k is chosen above every index already present, so the three
    families are disjoint from each other and from the target program's labels.
    """

    index: int

    @classmethod
    def fresh_for(cls, *programs: Program) -> "LabelScope":
        top = 0
        for p in programs:
            for l in p.labels():
                for m in _SCOPE_RE.finditer(l):
                    top = max(top, int(m.group(1)))
        return cls(top + 1)

    def ell(self, i: int) -> str:
        return f"h{i}#{self.index}"

    def bbl(self, i: int) -> str:
        return f"g{i}#{self.index}"

    def bar(self, label: str) -> str:
        return f"bar_{label}#{self.index}"
