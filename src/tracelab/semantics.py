"""Concrete semantics: expression/action evaluation, transitions, bounded runs.

Evaluation is total with ``undef`` as the error value; actions map a store to a
new store or to bottom (None here), and bottom is what makes states stick.
Array reads resolve their index concretely against the variable family
``name_<i>``; an array write to an unbound member is an error (out of bounds).

A run takes the one command at a label, or resolves a complement pair (a
branching command and its complement, as recorded in the program's complement
table) by evaluating the test of its first command once, three-valued: true
takes that command, false takes its complement, and undef leaves both stuck,
so the run takes the first command (the least ``command_key``) and ends there.
A test that fires leaves the store unchanged, so the store is carried on
without evaluating the test again.  Any other label with several commands is
nondeterministic and raises ``SemanticsError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from . import lang
from .lang import (Add, AddTyped, ArrayAssign, Assign, BExpr, Command, Cond,
                   Expr, Guard, HALT, Index, Lit, Mod, Not, And, Leq, Eq, Tt,
                   Ff, Program, Put, Skip, Var)
from .values import Bool, UNDEF, UValue, Value, is_value, value_str


class SemanticsError(Exception):
    pass


# ---------------------------------------------------------------------------
# Stores and states
# ---------------------------------------------------------------------------

class Store:
    """Immutable finite map from variables to values; absence reads as undef."""

    __slots__ = ("_m", "_hash")

    def __init__(self, bindings: Mapping[str, Value] | Iterable[tuple[str, Value]] = ()):
        m = dict(bindings)
        for k, v in m.items():
            if not is_value(v):
                raise SemanticsError(f"not a storable value for {k}: {v!r}")
        self._m = m
        self._hash: Optional[int] = None

    def get(self, var: str) -> UValue:
        return self._m.get(var, UNDEF)

    def set(self, var: str, value: Value) -> "Store":
        """The store with ``var`` bound to ``value``; only the new value is
        checked, since every other binding was checked when it was stored."""
        if not is_value(value):
            raise SemanticsError(f"not a storable value for {var}: {value!r}")
        out = Store.__new__(Store)
        out._m = {**self._m, var: value}
        out._hash = None
        return out

    def keys(self):
        return self._m.keys()

    def items(self):
        return self._m.items()

    def restrict(self, vars: Iterable[str]) -> "Store":
        xs = set(vars)
        return Store({k: v for k, v in self._m.items() if k in xs})

    def __eq__(self, other):
        return isinstance(other, Store) and self._m == other._m

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self._m.items()))
        return self._hash

    def __str__(self):
        inner = ", ".join(f"{k}/{value_str(v)}" for k, v in sorted(self._m.items()))
        return f"[{inner}]"

    def __repr__(self):
        return str(self)

    def __len__(self):
        return len(self._m)


@dataclass(frozen=True)
class State:
    store: Store
    command: Command

    def __str__(self):
        return f"<{self.store}, {self.command}>"


Trace = tuple[State, ...]


@dataclass(frozen=True)
class Run:
    """A bounded maximal trace; truncated means the budget ran out first."""

    states: Trace
    truncated: bool

    def __len__(self):
        return len(self.states)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def eval_expr(e: Expr, store: Store) -> UValue:
    if isinstance(e, Lit):
        return e.value
    if isinstance(e, Var):
        return store.get(e.name)
    if isinstance(e, Add):
        v1, v2 = eval_expr(e.left, store), eval_expr(e.right, store)
        if _is_int(v1) and _is_int(v2):
            return v1 + v2
        if isinstance(v1, str) and isinstance(v2, str):
            return v1 + v2
        return UNDEF
    if isinstance(e, AddTyped):
        v1, v2 = eval_expr(e.left, store), eval_expr(e.right, store)
        if e.tag == "Int":
            return v1 + v2 if _is_int(v1) and _is_int(v2) else UNDEF
        if e.tag == "Str":
            return v1 + v2 if isinstance(v1, str) and isinstance(v2, str) else UNDEF
        raise SemanticsError(f"unknown addition tag {e.tag}")
    if isinstance(e, Mod):
        v1, v2 = eval_expr(e.left, store), eval_expr(e.right, store)
        if _is_int(v1) and _is_int(v2) and v2 != 0:
            return v1 % v2
        return UNDEF
    if isinstance(e, Index):
        idx = eval_expr(e.index, store)
        if not _is_int(idx):
            return UNDEF
        return store.get(f"{e.array}_{idx}")
    raise SemanticsError(f"not an expression: {e!r}")


def eval_bexpr(b: BExpr, store: Store) -> UValue:
    """Three-valued: Bool(True), Bool(False), or undef."""
    if isinstance(b, Tt):
        return Bool(True)
    if isinstance(b, Ff):
        return Bool(False)
    if isinstance(b, Leq):
        v1, v2 = eval_expr(b.left, store), eval_expr(b.right, store)
        if _is_int(v1) and _is_int(v2):
            return Bool(v1 <= v2)
        if isinstance(v1, str) and isinstance(v2, str):
            return Bool(v2.startswith(v1))  # prefix order, not lexicographic
        return UNDEF
    if isinstance(b, Eq):
        v1, v2 = eval_expr(b.left, store), eval_expr(b.right, store)
        if _is_int(v1) and _is_int(v2):
            return Bool(v1 == v2)
        if isinstance(v1, str) and isinstance(v2, str):
            return Bool(v1 == v2)
        if isinstance(v1, Bool) and isinstance(v2, Bool):
            return Bool(v1 == v2)
        return UNDEF
    if isinstance(b, Not):
        v = eval_bexpr(b.arg, store)
        return UNDEF if v is UNDEF else Bool(not v.value)
    if isinstance(b, And):
        v1, v2 = eval_bexpr(b.left, store), eval_bexpr(b.right, store)
        if v1 is UNDEF or v2 is UNDEF:
            return UNDEF
        return Bool(v1.value and v2.value)
    raise SemanticsError(f"not a boolean expression: {b!r}")


def apply_action(a: lang.Action, store: Store) -> Optional[Store]:
    """New store, or None for bottom (failed test, error, guard miss)."""
    if isinstance(a, (Skip, Put)):
        return store
    if isinstance(a, Assign):
        v = eval_expr(a.expr, store)
        return None if v is UNDEF else store.set(a.var, v)
    if isinstance(a, ArrayAssign):
        idx = eval_expr(a.index, store)
        if not _is_int(idx):
            return None
        member = f"{a.array}_{idx}"
        if store.get(member) is UNDEF:
            return None  # out of bounds: only initialized members are writable
        v = eval_expr(a.expr, store)
        return None if v is UNDEF else store.set(member, v)
    if isinstance(a, (Cond, Guard)):
        return store if fires(a, store) else None
    raise SemanticsError(f"not an action: {a!r}")


def fires(a: lang.Action, store: Store) -> Optional[bool]:
    """Three-valued test of a conditional or guard: whether it fires, None
    when the test is undef (then neither it nor its complement fires)."""
    if isinstance(a, Cond):
        v = eval_bexpr(a.test, store)
        return None if v is UNDEF else v.value
    return a.store.domain.contains(a.store, store) == a.positive


# ---------------------------------------------------------------------------
# Collecting versions
# ---------------------------------------------------------------------------

def collecting_eval(e: Expr, stores: Iterable[Store]) -> set[UValue]:
    """The values of e over a set of stores (test oracle: ``abstract_add_type``
    soundness in ``test_domains``)."""
    return {eval_expr(e, s) for s in stores}


# ---------------------------------------------------------------------------
# Transitions and bounded runs
# ---------------------------------------------------------------------------

def step(p: Program, s: State) -> tuple[State, ...]:
    """All program successors of a state; empty means stuck (the relation
    ``trace_linked`` checks witnesses against; test oracle in ``test_gp``)."""
    rho = apply_action(s.command.action, s.store)
    if rho is None or s.command.succ == HALT:
        return ()
    nexts = p.at(s.command.succ)
    return tuple(State(rho, c) for c in nexts)


def run(p: Program, rho0: Store, budget: int) -> Run:
    """The unique maximal trace from the entry, truncated at ``budget`` states."""
    if budget < 1:
        raise SemanticsError("budget must be at least 1")
    label, rho = p.entry, rho0
    if not p.at(label):
        raise SemanticsError(f"no command at entry label {label}")
    states: list[State] = []
    nondeterministic = p.nondeterministic
    while True:
        cmds = p.at(label)
        if label in nondeterministic:
            raise SemanticsError(
                f"nondeterministic choice at label {label}: {[str(c) for c in cmds]}")
        if len(states) == budget:
            # truncated: one more state would have been possible
            return Run(tuple(states), truncated=True)
        if len(cmds) == 1:
            c = cmds[0]
            nxt = apply_action(c.action, rho)
        else:
            taken = fires(cmds[0].action, rho)
            c = cmds[1] if taken is False else cmds[0]
            nxt = None if taken is None else rho
        states.append(State(rho, c))
        if nxt is None or c.succ == HALT or not p.at(c.succ):
            return Run(tuple(states), truncated=False)
        label, rho = c.succ, nxt


def trace_linked(p: Program, states: Sequence[State]) -> bool:
    """Checks the partial-trace linkage: each state is a step-successor of the
    last (the witnesses' validation; test oracle in ``test_gp``)."""
    for a, b in zip(states, states[1:]):
        if b not in step(p, a):
            return False
    return all(s.command in p.commands for s in states)
