"""Syntax of the labeled-command language.

A program is a finite set of commands ``L: A -> L'`` plus an entry label.
Well-formedness requires every conditional (and guard) to come with a unique
complement command at the same label.  The distinguished successor ``.`` marks
final commands; it is never the label of a command.

Syntax is hash-consed (Ershov 1958; Filliatre and Conchon 2006): building an
expression, test, action or command (a ``Node``) returns the one live node
with equal fields, so equal nodes are one object, and ``==`` and ``hash`` are
identity, done in C and never recursing.  ``Interning`` builds every node
itself, with no dataclass: a node class lists its fields as annotations, a
call gives them by position, ``__post_init__`` checks the new node, fields
cannot be assigned or deleted (``dataclasses.FrozenInstanceError``), and
``repr`` prints ``Add(left=Var(name='x'), right=Lit(value=1))`` as a
dataclass would.

A binary node (``Infix``) prints as ``(left op right)`` from the one ``op``
spelling its class declares, which is what ``textio`` parses; a literal
prints as ``values.value_str`` writes it, a string as an ASCII JSON string.

``node_vars`` and ``subst_expr`` walk a node by its declared fields
(``__match_args__``), not by its kind: one table names the fields that name
variables, and only ``Var`` is substituted.
"""

from __future__ import annotations

import re
import weakref
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
from typing import Mapping, Optional, Union

from .values import Value, int_of, int_str, value_str

HALT = "."  # successor of final commands, never a command label


class LangError(Exception):
    pass


_NODES: dict[tuple, "_Ref"] = {}


class _Ref(weakref.ref):
    """A table entry's reference to its node, which knows its key."""

    __slots__ = ("key",)


def _drop(ref: _Ref, nodes: dict = _NODES) -> None:
    """The callback of every entry: a dead node leaves the table, unless its
    key already holds a newer node.  The table is bound as a default, so a
    node that dies while the interpreter shuts down still finds it."""
    if nodes.get(ref.key) is ref:
        del nodes[ref.key]


_DEAD = weakref.ref(set())  # a reference whose object is gone: a miss


class Interning(type):
    """The metaclass of ``Node``.  A class's fields are its annotations and
    those of its bases, bases first (``__match_args__``).  A call gives every
    field by position and returns the live node keyed by the class and the
    fields, and by a literal's value's class (``Lit(True)`` is not
    ``Lit(1)``).  Only a new key builds a node: its fields are set in order,
    ``__post_init__`` runs, and the table then holds the node weakly, by a
    reference whose callback drops the entry.  ``==`` and ``hash`` are the
    identity's.  It is the only table keyed by node."""

    def __init__(cls, *args):
        super().__init__(*args)
        fields = {}
        for c in reversed(cls.__mro__):
            fields.update(dict.fromkeys(c.__dict__.get("__annotations__", ())))
        cls.__match_args__ = tuple(fields)

    def __call__(cls, *args):
        key = (cls, type(args[0]), *args) if cls is Lit and args else (cls, *args)
        node = _NODES.get(key, _DEAD)()
        if node is None:
            fields = cls.__match_args__
            if len(args) != len(fields):
                raise TypeError(f"{cls.__name__}() takes {len(fields)} fields "
                                f"({', '.join(fields)}) but {len(args)} were given")
            node = object.__new__(cls)
            for name, value in zip(fields, args):
                object.__setattr__(node, name, value)
            node.__post_init__()
            ref = _NODES[key] = _Ref(node, _drop)
            ref.key = key
        return node


class Node(metaclass=Interning):
    """A hash-consed node: a subclass lists its fields as annotations."""

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

class Lit(Node):
    value: Value

    def __str__(self):
        return value_str(self.value)


class Var(Node):
    name: str

    def __str__(self):
        return self.name


class Infix(Node):
    """A binary node, printed ``(left op right)``.  Each subclass declares
    its spelling ``op`` once, as a plain class attribute (an annotation would
    make it a field), and ``textio`` builds its parser from these spellings."""

    left: Node  # two expressions, or two tests (``And``)
    right: Node

    def __str__(self):
        return f"({self.left} {self.op} {self.right})"


class Add(Infix):
    op = "+"


class AddTyped(Infix):
    """Type-specific addition: ``tag`` is a key of ``semantics.ADDITIONS``
    ("Int" or "Str"), spelled after the ``+`` (``+Int``)."""

    tag: str

    @staticmethod
    def spelling(tag: str) -> str:
        return Add.op + tag

    @property
    def op(self):
        return self.spelling(self.tag)


class Mod(Infix):
    op = "%"


class Index(Node):
    """Array read; arrays are families of variables name_0, name_1, ..."""

    array: str
    index: "Expr"

    def __str__(self):
        return f"{self.array}[{self.index}]"


Expr = Union[Lit, Var, Add, AddTyped, Mod, Index]


# ---------------------------------------------------------------------------
# Boolean expressions
# ---------------------------------------------------------------------------

class Tt(Node):
    def __str__(self):
        return "tt"


class Ff(Node):
    def __str__(self):
        return "ff"


class Leq(Infix):
    op = "<="


class Eq(Infix):
    op = "="


class Not(Node):
    arg: "BExpr"

    def __str__(self):
        return f"!{self.arg}"


class And(Infix):
    op = "&&"


BExpr = Union[Tt, Ff, Leq, Eq, Not, And]


def negate_bexpr(b: BExpr) -> BExpr:
    """Negation with the !!B = B normalization, so complements are involutive."""
    if isinstance(b, Not):
        return b.arg
    return Not(b)


# ---------------------------------------------------------------------------
# Actions and commands
# ---------------------------------------------------------------------------

class Skip(Node):
    def __str__(self):
        return "skip"


class Assign(Node):
    var: str
    expr: Expr

    def __str__(self):
        return f"{self.var} := {self.expr}"


class ArrayAssign(Node):
    array: str
    index: Expr
    expr: Expr

    def __str__(self):
        return f"{self.array}[{self.index}] := {self.expr}"


class Cond(Node):
    test: BExpr

    def __str__(self):
        return str(self.test)


class Guard(Node):
    """Membership test of the concrete store in an abstract store's concretization.

    ``store`` is an AbstractStore, which carries the domain whose gamma
    applies; negative polarity succeeds exactly when membership fails.
    """

    store: object  # a domains.AbstractStore
    positive: bool

    def __str__(self):
        head = "guard" if self.positive else "!guard"
        return f"{head} {self.store.domain.tag} {self.store}"


class Put(Node):
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


# the fields that name a variable (``Put.vars`` names a set of them)
_NAMING = {(Var, "name"), (Index, "array"), (Assign, "var"), (ArrayAssign, "array"), (Put, "vars")}


def node_vars(node: Node) -> frozenset[str]:
    """The program variables an expression, test or action names: its
    naming fields and those of the nodes in its fields.  A guard names none,
    since its store's keys are not variables."""
    out: set[str] = set()
    for field in node.__match_args__:
        v = getattr(node, field)
        if isinstance(v, Node):
            out |= node_vars(v)
        elif (type(node), field) in _NAMING:
            out.update((v,) if type(v) is str else v)
    return frozenset(out)


def subst_expr(e: Expr, binding: Mapping[str, Value]) -> Expr:
    """Syntactic substitution of variables by literal values: a bound
    ``Var`` becomes its ``Lit``, and any other expression is rebuilt from its
    fields."""
    if type(e) is Var:
        return Lit(binding[e.name]) if e.name in binding else e
    fields = (getattr(e, f) for f in e.__match_args__)
    return type(e)(*(subst_expr(v, binding) if isinstance(v, Node) else v for v in fields))


class Command(Node):
    label: str
    action: Action
    succ: str

    def __str__(self):
        return f"{self.label}: {self.action} -> {self.succ}"

    def __post_init__(self):
        if self.label == HALT:
            raise LangError(f"'{HALT}' cannot label a command")


def command_key(c: Command) -> tuple:
    """Deterministic sort key (actions never mention labels, so str is stable)."""
    return (c.label, str(c.action), c.succ)


def _label_order(cs: list[Command]) -> tuple[Command, ...]:
    """Several commands at one label, in ``command_key`` order."""
    if len(cs) == 2:
        c, d = cs
        if is_branching(c.action) and negate_action(c.action) == d.action \
                and is_negation(c.action) != is_negation(d.action):
            return (d, c) if is_negation(d.action) else (c, d)
    return tuple(sorted(cs, key=command_key))


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
        """The commands at each label, in ``command_key`` order.  The key
        prints the action, and a guard's action prints its whole store, so
        only a label with several commands that are not a complement pair
        is sorted by it: a complement pair with one negation (``!B`` or
        ``!guard``) puts it first, as the key does."""
        table: dict[str, list[Command]] = {}
        for c in self.commands:
            table.setdefault(c.label, []).append(c)
        return {l: tuple(cs) if len(cs) == 1 else _label_order(cs) for l, cs in table.items()}

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
        return frozenset().union(*(node_vars(c.action) for c in self.commands))


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
                    top = max(top, int_of(m.group(1)))
        return cls(top + 1)

    def ell(self, i: int) -> str:
        return f"h{i}#{int_str(self.index)}"

    def bbl(self, i: int) -> str:
        return f"g{i}#{int_str(self.index)}"

    def bar(self, label: str) -> str:
        return f"bar_{label}#{int_str(self.index)}"
