"""Concrete semantics: expression/action evaluation, transitions, bounded runs.

Evaluation is total with ``undef`` as the error value; actions map a store to a
new store or to bottom (None here), and bottom is what makes states stick.
Array reads resolve their index concretely against the variable family
``name_<i>``; an array write to an unbound member is an error (out of bounds).

Every expression, test and action is compiled once into a function, shared
by equal nodes while something holds it: an expression's reads the store's
dict and gives a value or undef, a test's gives True, False or None (undef),
and an action's takes a store that nothing else holds (the run's live store
or ``apply_action``'s copy), writes its binding into the store's dict and
returns the write (see ``Run``), or None for bottom; a branching action's
returns its three-valued test.  ``eval_expr``, ``eval_bexpr``,
``apply_action`` and ``fires`` call these functions; there is no second
evaluator.

The functions are emitted as Python source, one emitter per node kind: an
expression emits a Python expression over the store's dict ``m``, a test a
three-valued one, and every action but a guard one function body with its
operands inline, so an action is one call.  Each operator tests its
operands' classes once; a literal's class is known when it compiles, so its
test is dropped, and that is the only specialization.  A node's names and
literals are parameters of a factory (``def make(k1, ...)``), never its
source, so the source depends on the node's shape only and no program text
reaches ``exec``.  Each distinct source is compiled once, into a factory
kept for the life of the process (shapes are few); all factories share one
globals dict.  An operand nested deeper than ``_DEPTH`` is a call of its own
function, so no source nests deeper than Python's parser takes.

A run compiles its program once into a table with one entry per label,
holding its command's compiled step and the index of its successor's entry.
The run takes the one command at a label, or resolves a complement pair (a
branching command and its complement) by one three-valued test: true takes
the tested command, false its complement, and undef sticks at the pair's
least command (by ``command_key``).  A pair led by a negation (``!B`` or
``!guard``, which sort first) tests the positive side and swaps.  A test
that fires leaves the store unchanged, so it is not evaluated again, and a
guard visit is one ``StoreAbstraction.contains`` call, looked up at each
visit.  Any other label with several commands is nondeterministic and
raises ``SemanticsError``.  The table does not keep its program alive.

A run steps one private dict in place, given to every action as one
``Store`` view that never leaves the run, so a ``Run`` records its initial
store, the command of each state and the write of each step, and copies no
store.  Mining and the observations read the writes; ``Run.stores`` and
``Run.states`` replay them on demand, and ``Run.stores_at`` replays them
once up to the stores asked for.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable, Mapping, Optional, Sequence

from . import lang
from .lang import (Add, AddTyped, ArrayAssign, Assign, BExpr, Command, Cond,
                   Expr, Guard, HALT, Index, Lit, Mod, Not, And, Leq, Eq, Tt,
                   Ff, Program, Put, Skip, Var, is_branching, is_negation)
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
# Compilation: one emitter per node kind, one function per node
# ---------------------------------------------------------------------------

def _dispatch(kind: str, rules: Mapping[type, Callable]) -> Callable:
    """The rule for the type of the node given first, applied to the rest."""
    def apply(node, *args):
        rule = rules.get(type(node))
        if rule is None:
            raise SemanticsError(f"not {kind}: {node!r}")
        return rule(node, *args)
    return apply


# An operand nested deeper than this is a call of its own function, so no
# source opens more parentheses than Python's parser takes (200).
_DEPTH = 16


class _Emitter:
    """The source of one node's function and the values of its parameters:
    ``k1, k2, ...`` carry the node's names, literals and too deep operands'
    functions, and ``t1, t2, ...`` are temporaries, so the source depends on
    the node's shape only."""

    def __init__(self):
        self.values: list = []
        self.temps = 0
        self.depth = 0
        self.deep: list = []  # (parameter index, compile, node) of too deep operands

    def param(self, value) -> str:
        self.values.append(value)
        return f"k{len(self.values)}"

    def temp(self) -> str:
        self.temps += 1
        return f"t{self.temps}"

    def expr(self, e: Expr) -> str:
        return self._operand(e, _emit_expr, _expr)

    def test(self, b: BExpr) -> str:
        return self._operand(b, _emit_test, _test)

    def _operand(self, node, emit: Callable, compile_: Callable) -> str:
        """The Python expression of an expression or a test over ``m``, or
        past ``_DEPTH`` a call of its own function (compiled in
        ``function``, so that compiles nest once per ``_DEPTH`` levels)."""
        if self.depth == _DEPTH:
            self.deep.append((len(self.values), compile_, node))
            return f"{self.param(None)}(m)"
        self.depth += 1
        out = emit(node, self)
        self.depth -= 1
        return out

    def classed(self, operands: Sequence[Expr], formulas: Mapping[type, str], fail: str) -> str:
        """An operator whose operands must all be of one class in
        ``formulas``, which gives the result for that class over the
        operands (``{0}``, ``{1}``); otherwise ``fail``.  A literal's class
        is known here, so only the other operands are tested."""
        known = {type(e.value) for e in operands if type(e) is Lit}
        if len(known) > 1 or not known <= formulas.keys():
            return fail
        names, tested = [], []
        for e in operands:
            if type(e) is Lit:
                names.append(self.param(e.value))
            else:
                names.append(self.temp())
                tested.append(f"type({names[-1]} := {self.expr(e)})")
        if known or len(formulas) == 1:
            (cls,) = known or formulas
            result = formulas[cls].format(*names)
            return f"({result} if {' is '.join(tested + [cls.__name__])} else {fail})" \
                if tested else result
        c, body = self.temp(), fail
        for cls, formula in reversed(formulas.items()):
            body = f"{formula.format(*names)} if {c} is {cls.__name__} else {body}"
        head = " is ".join([f"({c} := {tested[0]})"] + tested[1:])
        return f"(({body}) if {head} else {fail})"

    def function(self, arg: str, body: Sequence[str]) -> Callable:
        """The function of ``arg`` with ``body``: its source's one factory,
        given this node's parameter values."""
        for i, compile_, node in self.deep:
            self.values[i] = compile_(node)
        params = ", ".join(f"k{i}" for i in range(1, len(self.values) + 1))
        src = "".join([f"def make({params}):\n    def f({arg}):\n",
                       *(f"        {line}\n" for line in body), "    return f\n"])
        make = _FACTORIES.get(src)
        if make is None:
            scope: dict = {}
            exec(src, _GLOBALS, scope)
            make = _FACTORIES[src] = scope["make"]
        return make(*self.values)


# Every factory, by its source, for the life of the process; all share one
# globals dict, and a node's names and literals reach its function as
# closure cells.
_FACTORIES: dict[str, Callable] = {}
_GLOBALS = {"undef": UNDEF, "Bool": Bool, "SemanticsError": SemanticsError}


def _member(em: _Emitter, array: str, index: Expr) -> str:
    """The array member an index names, or None when the index is no int."""
    return em.classed([index], {int: em.param(array + "_") + " + str({0})"}, "None")


def _add_typed(e, em):
    want = {"Int": int, "Str": str}.get(e.tag)
    if want is None:
        raise SemanticsError(f"unknown addition tag {e.tag}")
    return em.classed([e.left, e.right], {want: "{0} + {1}"}, "undef")


# expressions: a value or undef
_emit_expr = _dispatch("an expression", {
    Lit: lambda e, em: em.param(e.value),
    Var: lambda e, em: f"m.get({em.param(e.name)}, undef)",
    Add: lambda e, em: em.classed([e.left, e.right], {int: "{0} + {1}", str: "{0} + {1}"},
                                  "undef"),
    AddTyped: _add_typed,
    Mod: lambda e, em: em.classed([e.left, e.right], {int: "({0} % {1} if {1} else undef)"},
                                  "undef"),
    Index: lambda e, em: f"m.get({_member(em, e.array, e.index)}, undef)",
})


def _not(b, em):
    t = em.temp()
    return f"(None if ({t} := {em.test(b.arg)}) is None else not {t})"


def _and(b, em):
    t, u = em.temp(), em.temp()
    return f"(None if ({t} := {em.test(b.left)}) is None or " \
           f"({u} := {em.test(b.right)}) is None else {t} and {u})"


# tests: True, False or None (undef)
_emit_test = _dispatch("a boolean expression", {
    Tt: lambda b, em: "True",
    Ff: lambda b, em: "False",
    # ``<=`` on strings is the prefix order, not the lexicographic one
    Leq: lambda b, em: em.classed([b.left, b.right],
                                  {int: "{0} <= {1}", str: "{1}.startswith({0})"}, "None"),
    Eq: lambda b, em: em.classed([b.left, b.right], {
        int: "{0} == {1}", str: "{0} == {1}", Bool: "{0}.value == {1}.value"}, "None"),
    Not: _not,
    And: _and,
})


def _assignment(em: _Emitter, target: str, member: Optional[str], e: Expr) -> list[str]:
    """The body that binds ``target`` to ``e``'s value; a ``member`` sets
    ``target`` and sticks unless it is bound (only initialized array members
    are writable).  Only a literal can give what is not a value, so only its
    write raises."""
    bound = f"({target} := {member}) not in m or " if member else ""
    write = [f"m[{target}] = v", f"return (({target}, v),)"] \
        if type(e) is not Lit or is_value(e.value) or e.value is UNDEF \
        else [f"raise SemanticsError('not a storable value for %s: %r' % ({target}, v))"]
    return ["m = store._m", f"if {bound}(v := {em.expr(e)}) is undef:",
            "    return None", *write]


def _guard(a):
    abstract, domain, positive = a.store, a.store.domain, a.positive
    # ``contains`` is looked up at every visit, so a wrapped or patched
    # membership test sees each guard run
    if positive:
        return lambda store: domain.contains(abstract, store)
    return lambda store: not domain.contains(abstract, store)


def _emitted(arg: str, body: Callable) -> Callable:
    """The rule of a node kind whose function's body ``body(node, em)`` emits."""
    def rule(node):
        em = _Emitter()
        return em.function(arg, body(node, em))
    return rule


def _compiler(rule: Callable) -> Callable:
    """A compile function that keeps each node's function for as long as
    anything else holds it, so equal nodes share one function across
    programs."""
    functions: weakref.WeakValueDictionary = weakref.WeakValueDictionary()

    def compile_(node):
        fn = functions.get(node)
        if fn is None:
            fn = functions[node] = rule(node)
        return fn

    return compile_


# expressions: dict -> value or undef
_expr = _compiler(_emitted("m", lambda e, em: [f"return {em.expr(e)}"]))
# tests: dict -> True, False or None (undef)
_test = _compiler(_emitted("m", lambda b, em: [f"return {em.test(b)}"]))
# actions: Store -> Write or None (bottom), the write made in the Store's
# dict; a branching action is its three-valued test of the Store instead
_skip = _emitted("store", lambda a, em: ["return ()"])
_action = _compiler(_dispatch("an action", {
    Skip: _skip, Put: _skip, Guard: _guard,
    Assign: _emitted("store", lambda a, em: _assignment(em, em.param(a.var), None, a.expr)),
    ArrayAssign: _emitted("store", lambda a, em: _assignment(
        em, em.temp(), _member(em, a.array, a.index), a.expr)),
    Cond: _emitted("store", lambda a, em: ["m = store._m", f"return {em.test(a.test)}"]),
}))


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
            yes, no = cmds[::-1] if is_negation(c.action) else cmds
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
