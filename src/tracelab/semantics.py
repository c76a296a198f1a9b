"""Concrete semantics: expression/action evaluation, transitions, bounded runs.

Evaluation is total with ``undef`` as the error value; actions map a store to a
new store or to bottom (None here), and bottom is what makes states stick.
Array reads resolve their index concretely against the variable family
``name_<i>``; an array write to an unbound member is an error (out of bounds).

Every expression, test and action is compiled once into a closure, shared by
equal nodes for as long as something holds it: an expression closure reads
the store's dict and returns a value or undef, a test closure returns True,
False or None (undef), and an action closure takes a store, writes its
binding into the store's dict and returns the write (see ``Run``), or None
for bottom; a branching action returns its three-valued test instead.  So an
action is given only a store that nothing else holds: the run's live store,
or ``apply_action``'s copy.  ``eval_expr``, ``eval_bexpr``, ``apply_action``
and ``fires`` call these closures; there is no second evaluator.

The shapes that generated programs and the sieve run, before and after the
type-specialization pass, are specialized, so that a step makes few Python
calls: ``+``, ``+Int`` and ``+Str`` of a variable and a variable or a
literal, ``%`` of a variable by a nonzero literal, ``<=`` of a variable and
an int literal, ``=`` against a literal (the ``%`` or array read on its left
stays one call) and an array read at a variable are each one closure that
reads the dict itself.  Every other shape takes the general rule.  A write
stores its value without checking it: each operator tests its operands'
classes and a read gives a stored value, so only a literal can give what
is not a value (a raw Python bool).  Only a write of such a literal, found
when it compiles, checks its value, and so raises when it runs.

A run compiles its program once, on first use, into a table with one entry
per label; an entry holds its command's compiled step and the index of its
successor's entry, so a step looks nothing up by label.  The run takes the
one command at a label, or resolves a complement pair (a branching command
and its complement, as recorded in the program's complement table) by one
three-valued test: true takes the tested command, false its complement, and
undef leaves both stuck, so the run takes the pair's least command (by
``command_key``) and ends there.  A pair led by a negation (``!B`` or
``!guard``, which sort first) tests the positive side and swaps the two,
which spares the negation's work.  A test
that fires leaves the store unchanged, so the store is carried on without
evaluating the test again; a guard visit is therefore one
``StoreAbstraction.contains`` call, looked up when the guard runs.  Any other
label with several commands is nondeterministic and raises ``SemanticsError``.
The table does not keep its program alive.

A run steps one private dict in place: each step writes at most one
binding, so a ``Run`` records its initial store, the command of each state
and the write of each step, and copies no store.  Every action of the run
is given one ``Store`` view of that dict, which never leaves the run; a
guard tests that view.  Mining and the observations
read the writes; ``Run.stores`` and ``Run.states`` replay them on demand,
for the witnesses, the CLI's ``trace`` and the tests, and
``Run.stores_at`` replays them once up to the stores asked for.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable, Mapping, Optional, Sequence

from . import lang
from .lang import (Add, AddTyped, ArrayAssign, Assign, BExpr, Command, Cond,
                   Expr, Guard, HALT, Index, Lit, Mod, Not, And, Leq, Eq, Tt,
                   Ff, Program, Put, Skip, Var, is_branching)
from .values import Bool, FF, TT, UNDEF, UValue, Value, is_value, value_str


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
        return Store._of({**self._m, var: value})

    @staticmethod
    def _of(m: dict) -> "Store":
        """The store over ``m``, whose values are checked already."""
        out = Store.__new__(Store)
        out._m = m
        out._hash = None
        return out

    def keys(self):
        return self._m.keys()

    def items(self):
        return self._m.items()

    def restrict(self, vars: Iterable[str]) -> "Store":
        xs = set(vars)
        return Store._of({k: v for k, v in self._m.items() if k in xs})

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


# What one step writes: (variable, value) bindings in variable order, each
# variable once.  A step of a run writes one binding (an assignment) or none;
# a write joined from several steps (``compose``) may bind more.  An undef
# value unbinds: only runs built from given stores unbind.
Write = tuple[tuple[str, UValue], ...]


def _update(m: dict, w: Write) -> None:
    for x, v in w:
        if v is UNDEF:
            m.pop(x, None)
        else:
            m[x] = v


def compose(writes: Iterable[Write]) -> Write:
    """The one write that has the effect of ``writes`` applied in order: the
    last binding of each variable (sorting compares variables only, since
    each is bound once)."""
    return tuple(sorted(dict(chain.from_iterable(writes)).items()))


@dataclass(frozen=True)
class Run:
    """A bounded maximal trace: its initial store, the command of each state,
    and the write of each step (``writes[i]`` takes the store of state i to
    that of state i + 1).  ``reason`` says why it ended: ``halt`` (the last
    command jumps to the halt label), ``stuck`` (no next state), or
    ``budget`` (one more state was possible)."""

    initial: Store
    commands: tuple[Command, ...]
    writes: tuple[Write, ...]
    reason: str

    @property
    def truncated(self) -> bool:
        return self.reason == "budget"

    @property
    def stores(self) -> tuple[Store, ...]:
        """The store of each state, rebuilt from the writes at each call; a
        step that writes nothing keeps its predecessor's store object."""
        if not self.commands:
            return ()
        out = [self.initial]
        m = dict(self.initial._m)
        for w in self.writes:
            if w:
                _update(m, w)
                out.append(Store._of(dict(m)))
            else:
                out.append(out[-1])
        return tuple(out)

    def stores_at(self, positions: Iterable[int]) -> list[Store]:
        """The stores of the states at ``positions``, in increasing order, by
        one replay of the writes."""
        out = []
        m = dict(self.initial._m)
        done = 0
        for i in positions:
            for w in self.writes[done:i]:
                _update(m, w)
            done = i
            out.append(Store._of(dict(m)))
        return out

    @property
    def states(self) -> tuple[State, ...]:
        """The trace as states, built anew at each call."""
        return tuple(map(State, self.stores, self.commands))

    def __len__(self):
        return len(self.commands)


# ---------------------------------------------------------------------------
# Compilation: one closure per node, shared by equal nodes
# ---------------------------------------------------------------------------

def _compiler(kind: str, rules: Mapping[type, Callable]):
    """The compile function of one kind of node: it picks the rule for the
    node's type and keeps each closure for as long as anything else holds
    it, so equal nodes share one closure across programs."""
    closures: weakref.WeakValueDictionary = weakref.WeakValueDictionary()

    def compile_(node):
        fn = closures.get(node)
        if fn is None:
            rule = rules.get(type(node))
            if rule is None:
                raise SemanticsError(f"not {kind}: {node!r}")
            fn = closures[node] = rule(node)
        return fn

    return compile_


def _lit(e):
    v = e.value
    return lambda m: v


def _var(e):
    name, undef = e.name, UNDEF
    return lambda m: m.get(name, undef)


# The specialized shapes (see the module docstring) read the dict
# themselves.  An unbound variable reads None there, whose class no operator
# accepts, so it acts as undef.

def _var_lit(e, classes) -> Optional[tuple[str, Value]]:
    if type(e.left) is Var and type(e.right) is Lit and type(e.right.value) in classes:
        return e.left.name, e.right.value
    return None


def _add(e):
    undef = UNDEF
    if type(e.left) is Var and type(e.right) is Var:
        x, y = e.left.name, e.right.name

        def add_vv(m):
            a, b = m.get(x), m.get(y)
            t = type(a)
            return a + b if t is type(b) and (t is int or t is str) else undef
        return add_vv
    vl = _var_lit(e, (int, str))
    if vl:
        x, k = vl
        t = type(k)
        return lambda m: a + k if type(a := m.get(x)) is t else undef
    f, g = _expr(e.left), _expr(e.right)

    def add(m):
        a, b = f(m), g(m)
        t = type(a)
        return a + b if t is type(b) and (t is int or t is str) else undef
    return add


def _add_typed(e):
    undef = UNDEF
    want = {"Int": int, "Str": str}.get(e.tag)
    if want is None:
        raise SemanticsError(f"unknown addition tag {e.tag}")
    # the type-specialization pass makes these of the shapes ``_add`` inlines
    if type(e.left) is Var and type(e.right) is Var:
        x, y = e.left.name, e.right.name
        return lambda m: a + b if type(a := m.get(x)) is type(b := m.get(y)) is want else undef
    vl = _var_lit(e, (want,))
    if vl:
        x, k = vl
        return lambda m: a + k if type(a := m.get(x)) is want else undef
    f, g = _expr(e.left), _expr(e.right)

    def add_typed(m):
        a, b = f(m), g(m)
        return a + b if type(a) is type(b) is want else undef
    return add_typed


def _mod(e):
    vl = _var_lit(e, (int,))
    if vl and vl[1]:  # x % 0 is undef, which the general rule gives
        (x, k), undef = vl, UNDEF
        return lambda m: a % k if type(a := m.get(x)) is int else undef
    f, g, undef = _expr(e.left), _expr(e.right), UNDEF

    def mod(m):
        a, b = f(m), g(m)
        return a % b if type(a) is type(b) is int and b else undef
    return mod


def _index(e):
    if type(e.index) is Var:
        y, prefix, undef = e.index.name, e.array + "_", UNDEF
        return lambda m: m.get(prefix + str(i), undef) if type(i := m.get(y)) is int else undef
    f, prefix, undef = _expr(e.index), e.array + "_", UNDEF

    def index(m):
        i = f(m)
        return m.get(prefix + str(i), undef) if type(i) is int else undef
    return index


def _tt(b):
    return lambda m: True


def _ff(b):
    return lambda m: False


def _leq(b):
    vl = _var_lit(b, (int,))
    if vl:
        x, k = vl
        return lambda m: a <= k if type(a := m.get(x)) is int else None
    f, g = _expr(b.left), _expr(b.right)

    def leq(m):
        x, y = f(m), g(m)
        t = type(x)
        if t is type(y):
            if t is int:
                return x <= y
            if t is str:
                return y.startswith(x)  # prefix order, not lexicographic
        return None
    return leq


def _eq(b):
    if type(b.right) is Lit and type(b.right.value) in (int, str, Bool):
        # the left of the generated tests is a ``%`` or an array read
        f, k = _expr(b.left), b.right.value
        t = type(k)
        return lambda m: a == k if type(a := f(m)) is t else None
    f, g = _expr(b.left), _expr(b.right)

    def eq(m):
        x, y = f(m), g(m)
        t = type(x)
        return x == y if t is type(y) and (t is int or t is str or t is Bool) else None
    return eq


def _not(b):
    f = _test(b.arg)

    def not_(m):
        v = f(m)
        return None if v is None else not v
    return not_


def _and(b):
    f, g = _test(b.left), _test(b.right)

    def and_(m):
        x = f(m)
        if x is None:
            return None
        y = g(m)
        return None if y is None else x and y
    return and_


def _no_write(store):
    return ()


def _skip(a):
    return _no_write


def _write(m: dict, var: str, v: Value) -> Write:
    """Binds ``var`` to ``v`` in ``m``, once ``v`` is checked."""
    if not is_value(v):
        raise SemanticsError(f"not a storable value for {var}: {v!r}")
    m[var] = v
    return ((var, v),)


def _storable(e: Expr) -> bool:
    """Whether ``e`` gives only values or undef, so that a write may store
    its value unchecked.  Each operator tests its operands' classes and a
    read gives a stored value, so only a literal can give what no store may
    hold (a raw Python bool, say)."""
    return type(e) is not Lit or is_value(e.value) or e.value is UNDEF


def _assign(a):
    f, var, undef = _expr(a.expr), a.var, UNDEF
    if not _storable(a.expr):
        return lambda store: _write(store._m, var, f(store._m))

    def assign(store):
        m = store._m
        v = f(m)
        if v is undef:
            return None
        m[var] = v
        return ((var, v),)
    return assign


def _array_assign(a):
    f, g, prefix, undef = _expr(a.index), _expr(a.expr), a.array + "_", UNDEF
    checked = not _storable(a.expr)

    def array_assign(store):
        m = store._m
        i = f(m)
        if type(i) is not int:
            return None
        member = prefix + str(i)
        if member not in m:
            return None  # out of bounds: only initialized members are writable
        v = g(m)
        if v is undef:
            return None
        if checked:
            return _write(m, member, v)
        m[member] = v
        return ((member, v),)
    return array_assign


def _cond(a):
    f = _test(a.test)
    return lambda store: f(store._m)


def _guard(a):
    abstract, domain, positive = a.store, a.store.domain, a.positive
    # ``contains`` is looked up at every visit, so a wrapped or patched
    # membership test sees each guard run
    if positive:
        return lambda store: domain.contains(abstract, store)
    return lambda store: not domain.contains(abstract, store)


# expressions: dict -> value or undef
_expr = _compiler("an expression", {
    Lit: _lit, Var: _var, Add: _add, AddTyped: _add_typed, Mod: _mod, Index: _index})
# tests: dict -> True, False or None (undef)
_test = _compiler("a boolean expression", {
    Tt: _tt, Ff: _ff, Leq: _leq, Eq: _eq, Not: _not, And: _and})
# actions: Store -> Write or None (bottom), the write made in the Store's
# dict; a branching action is its three-valued test of the Store instead
_action = _compiler("an action", {
    Skip: _skip, Put: _skip, Assign: _assign, ArrayAssign: _array_assign,
    Cond: _cond, Guard: _guard})


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

_TRUTH = {True: TT, False: FF, None: UNDEF}


def eval_expr(e: Expr, store: Store) -> UValue:
    return _expr(e)(store._m)


def eval_bexpr(b: BExpr, store: Store) -> UValue:
    """Three-valued: Bool(True), Bool(False), or undef."""
    return _TRUTH[_test(b)(store._m)]


def apply_action(a: lang.Action, store: Store) -> Optional[Store]:
    """New store, or None for bottom (failed test, error, guard miss)."""
    if is_branching(a):
        return store if _action(a)(store) else None
    new = Store._of(dict(store._m))
    w = _action(a)(new)
    if not w:
        return None if w is None else store
    return new


def fires(a: lang.Action, store: Store) -> Optional[bool]:
    """Three-valued test of a conditional or guard: whether it fires, None
    when the test is undef (then neither it nor its complement fires)."""
    return _action(a)(store)


# ---------------------------------------------------------------------------
# Collecting versions
# ---------------------------------------------------------------------------

def collecting_eval(e: Expr, stores: Iterable[Store]) -> set[UValue]:
    """The values of e over a set of stores (test oracle: ``abstract_add_type``
    soundness in ``test_domains``)."""
    f = _expr(e)
    return {f(s._m) for s in stores}


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


# One entry per label, successors by index into the table (None at HALT and
# at a label without commands):
#   (step, command, successor, None, None, None) for one command, whose step
#   gives its write or None (bottom);
#   (test, command, successor, complement, its successor, stuck) for a
#   complement pair, whose test is three-valued: true takes the command,
#   false the complement, and undef sticks at ``stuck``, the pair's least
#   command; a pair led by a negation tests the positive side;
#   (raiser, None, None, None, None, None) for a nondeterministic label.
_Table = tuple[tuple[tuple, ...], Optional[int]]  # the entries, the entry label's index
_TABLES: weakref.WeakKeyDictionary[Program, _Table] = weakref.WeakKeyDictionary()


def _raiser(message: str):
    def raise_(store):
        raise SemanticsError(message)
    return raise_


def _negated(a) -> bool:
    """Whether ``a`` is a ``!B`` test or a ``!guard``."""
    return type(a) is Cond and type(a.test) is Not or type(a) is Guard and not a.positive


def _alone(test):
    """The step of a test without its complement: no write, or bottom."""
    return lambda store: () if test(store) else None


def _step_table(p: Program) -> _Table:
    table = _TABLES.get(p)
    if table is not None:
        return table
    index = {label: i for i, label in enumerate(p.by_label)}
    entries = []
    for label, cmds in p.by_label.items():
        c = cmds[0]
        if label in p.nondeterministic:
            entries.append((_raiser(f"nondeterministic choice at label {label}: "
                                    f"{[str(c) for c in cmds]}"), None, None, None, None, None))
        elif len(cmds) == 2:
            yes, no = cmds[::-1] if _negated(c.action) else cmds
            entries.append((_action(yes.action), yes, index.get(yes.succ),
                            no, index.get(no.succ), c))
        elif is_branching(c.action):
            entries.append((_alone(_action(c.action)), c, index.get(c.succ), None, None, None))
        else:
            entries.append((_action(c.action), c, index.get(c.succ), None, None, None))
    table = _TABLES[p] = (tuple(entries), index.get(p.entry))
    return table


def run(p: Program, rho0: Store, budget: int) -> Run:
    """The unique maximal trace from the entry, truncated at ``budget`` states."""
    if budget < 1:
        raise SemanticsError("budget must be at least 1")
    entries, at = _step_table(p)
    if at is None:
        raise SemanticsError(f"no command at entry label {p.entry}")
    m = dict(rho0._m)
    view = Store._of(m)  # the live store; it never leaves this call
    commands: list[Command] = []
    writes: list[Write] = []
    add_command, add_write = commands.append, writes.append
    entry = entries[at]
    for _ in range(budget):
        fn, c, at, other, other_at, stuck = entry
        w = fn(view)
        if other is not None:
            if w:
                w = ()
            elif w is None:
                c = stuck
            else:
                c, at, w = other, other_at, ()
        add_command(c)
        if w is None or at is None:
            reason = "halt" if w is not None and c.succ == HALT else "stuck"
            return Run(rho0, tuple(commands), tuple(writes), reason)
        add_write(w)
        entry = entries[at]
    if entry[1] is None:
        entry[0](view)  # a nondeterministic label: raises
    # one more state would have been possible; the step to it is not recorded
    writes.pop()
    return Run(rho0, tuple(commands), tuple(writes), "budget")


def trace_linked(p: Program, states: Sequence[State]) -> bool:
    """Checks the partial-trace linkage: each state is a step-successor of the
    last (the witnesses' validation; test oracle in ``test_gp``)."""
    for a, b in zip(states, states[1:]):
        if b not in step(p, a):
            return False
    return all(s.command in p.commands for s in states)
