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

    def __eq__(self, other):
        # Python takes True for 1, but a raw bool is no value: a literal
        # equals another of the same class only, so ``x := True`` is not
        # ``x := 1`` and does not share its compiled closure
        return type(other) is Lit and type(self.value) is type(other.value) \
            and self.value == other.value

    def __hash__(self):
        return hash(self.value)

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


def is_negation(a: Action) -> bool:
    """Whether ``a`` is a ``!B`` test or a ``!guard``: the side of a branch
    that sorts first and that mining explores last."""
    return isinstance(a, Cond) and isinstance(a.test, Not) or \
        isinstance(a, Guard) and not a.positive


def action_vars(a: Action) -> frozenset[str]:
    """The program variables the action names; a guard's store keys are not
    among them."""
    if isinstance(a, (Skip, Guard)):
        return frozenset()
    if isinstance(a, Assign):
        return frozenset({a.var}) | expr_vars(a.expr)
    if isinstance(a, ArrayAssign):
        return frozenset({a.array}) | expr_vars(a.index) | expr_vars(a.expr)
    if isinstance(a, Cond):
        return bexpr_vars(a.test)
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
        """The commands at each label, in ``command_key`` order.  A label
        with one command is not sorted: the key prints the action, and a
        guard's action prints its whole store."""
        table: dict[str, list[Command]] = {}
        for c in self.commands:
            table.setdefault(c.label, []).append(c)
        return {l: tuple(cs) if len(cs) == 1 else tuple(sorted(cs, key=command_key))
                for l, cs in table.items()}

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
    bad = [c for c, matches in p.complements.items() if len(matches) != 1]
    for c in sorted(bad, key=command_key):  # the key prints the action
        kind = "multiple complements" if p.complements[c] else "no complement"
        out.append(f"{kind} for conditional at {c.label}: {c}")
    for label in sorted(p.nondeterministic):
        out.append(f"nondeterministic label {label}: {len(p.at(label))} commands")
    if p.entry not in p.by_label:
        out.append(f"entry label {p.entry} has no command")
    return out


# ---------------------------------------------------------------------------
# Equality up to label renaming
# ---------------------------------------------------------------------------

def rename_equal(p1: Program, p2: Program) -> Optional[dict[str, str]]:
    """The label bijection that maps ``p1`` onto ``p2``, entry onto entry, or None.

    One forced walk from the entry pair: actions never mention labels, and a
    well-formed label holds one command or a branching command and its
    complement, so the commands at a label pair are paired by action and their
    successors pair up in turn.  The mapping is returned only if it covers
    every label of both programs; a label the entry cannot reach, or two
    commands with the same action at one label, makes the programs compare
    unequal.
    """
    mapping: dict[str, str] = {}
    taken: set[str] = set()
    todo = [(p1.entry, p2.entry)]
    while todo:
        a, b = todo.pop()
        if a in mapping:
            if mapping[a] != b:
                return None
            continue
        if b in taken:
            return None
        mapping[a] = b
        taken.add(b)
        ours = {c.action: c.succ for c in p1.at(a)}
        theirs = {d.action: d.succ for d in p2.at(b)}
        if (len(ours) != len(p1.at(a)) or len(theirs) != len(p2.at(b))
                or ours.keys() != theirs.keys()):
            return None
        for action, succ in ours.items():
            if (succ == HALT) != (theirs[action] == HALT):
                return None
            if succ != HALT:
                todo.append((succ, theirs[action]))
    if mapping.keys() != p1.by_label.keys() or taken != p2.by_label.keys():
        return None
    return mapping


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
