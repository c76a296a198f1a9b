"""Concrete semantics: expression and action evaluation, bounded runs.

Evaluation is total with ``undef`` as the error value; actions map a store to a
new store or to bottom (None here), and bottom is what makes states stick.
Array reads resolve their index concretely against the variable family
``name_<i>``; an array write to an unbound member is an error (out of bounds),
and an index of more digits than Python prints names no member.

Every expression, test and action is compiled once into a function of a
store's dict, kept on its node (equal nodes are one node, ``lang.Node``): an
expression's gives a value or undef, a test's True, False or None (undef),
and an action's writes its binding into a dict that nothing else holds (the
run's) and returns the write (see ``Run``), or None for bottom; a branching
action's returns its three-valued test.  No function refers to its node, so
none keeps its node alive.  ``eval_expr``, ``eval_bexpr`` and ``fires`` call
these functions with a ``Store``'s dict; there is no second evaluator.

The functions are emitted as Python source, one emitter per node kind: an
expression emits a Python expression over the store's dict ``m``, a test a
three-valued one, and an action one function body with its operands inline,
so an action is one call.  Each operator tests its operands' classes once; a
literal's class is known when it compiles, so its test is dropped, and that
is the only specialization.  An expression operator's formula and totality
per operand class are one table, ``OPERATORS``, and a comparison's one more,
``COMPARISONS``; the emitter compiles from them, and the abstract type
semantics E^t (``domains.eval_type``) and the narrowing of a passed test
(``StoreAbstraction.post``) are read off them.  A node's names and literals
are parameters of a factory (``def make(k1, ...)``), never its source, so
the source depends on the node's shape only and no program text reaches
``exec``.  Each distinct source is compiled once, into a factory kept for
the life of the process (shapes are few); all factories share one globals
dict.  An operand nested deeper than ``_DEPTH`` is a call of its own
function, so no source nests deeper than Python's parser takes.

An abstract store (``domains.AbstractStore``) compiles the same way, into
its membership test ``membership``: whether a mapping (a run's dict or a
``Store``) lies in gamma of the store.  Each binding is its domain's
``slot_test`` on the value read (in the type domain one class comparison,
in cp one equality), the bindings are one conjunction, and a default that
is not universal adds a pass over the mapping's other variables.  A
binding's variable and class or constant are factory parameters too, and a
conjunction past ``_SPAN`` bindings is one of calls, so no source grows with
its store.  A positive guard's function is its store's membership test, a
negative guard's is ``not`` of that function (a run never calls it, as a
pair tests its positive side), and ``StoreAbstraction.contains`` calls the
same test: membership is defined once.

A run compiles its program once into a table with one entry per label,
holding its command's compiled step and the index of its successor's entry.
The run takes the one command at a label, or resolves a complement pair (a
branching command and its complement) by one three-valued test: true takes
the tested command, false its complement, and undef sticks at the pair's
least command (by ``command_key``).  A pair led by a negation (``!B`` or
``!guard``, which sort first) tests the positive side and swaps.  A test
that fires leaves the store unchanged, so it is not evaluated again, and a
guard visit is one call of the guard's compiled function on the dict.  Any
other label with several commands is nondeterministic and raises
``SemanticsError``.  The table is kept on its program and refers
to commands only.

A run steps one private dict in place and hands the dict itself to every
action, with no ``Store`` view made, so a ``Run`` records its initial store,
the command of each state and the write of each step, and copies no
store.  Mining and the observations read the writes; ``Run.stores_at`` is
the one replay of them, once up to the stores asked for (``Run.states`` asks
for all), and positions that no write separates share one ``Store``.

A string that ``+`` or ``+Str`` builds holds at most ``STR_MAX`` = 2^20
characters, so no run exhausts memory by doubling a string.  Only the
emitted string formula tests the bound; a longer result raises ``TooLong``
(a ``SemanticsError``), and ``run`` ends at that state with the reason
``length``, a truncated run.
"""

from __future__ import annotations

import sys
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


# the most characters a string that ``+`` or ``+Str`` builds may hold
STR_MAX = 2 ** 20


class TooLong(SemanticsError):
    """A ``+`` or ``+Str`` would build a string of more than ``STR_MAX``
    characters: ``run`` ends there, and any other evaluation raises."""


def _too_long():
    raise TooLong(f"a string would hold more than {STR_MAX} characters")


# ---------------------------------------------------------------------------
# Stores and states
# ---------------------------------------------------------------------------

class Store:
    """Immutable finite map from variables to values; absence reads as undef."""

    __slots__ = ("_m",)

    def __init__(self, bindings: Mapping[str, Value] | Iterable[tuple[str, Value]] = ()):
        m = dict(bindings)
        for k, v in m.items():
            if not is_value(v):
                raise SemanticsError(f"not a storable value for {k}: {v!r}")
        self._m = m

    def get(self, var: str, default=UNDEF) -> UValue:
        return self._m.get(var, default)

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
        return hash(frozenset(self._m.items()))

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
    command jumps to the halt label), ``stuck`` (no next state), ``budget``
    (one more state was possible) or ``length`` (the last state's step would
    build a string longer than ``STR_MAX``)."""

    initial: Store
    commands: tuple[Command, ...]
    writes: tuple[Write, ...]
    reason: str
    state = State  # the class of its states

    @property
    def truncated(self) -> bool:
        """Whether the run stopped short of its end: the checks judge it by
        prefix."""
        return self.reason in ("budget", "length")

    def stores_at(self, positions: Iterable[int]) -> list[Store]:
        """The stores of the states at ``positions``, in increasing order, by
        one replay of the writes: positions that no write separates share
        one ``Store``, the initial store up to the first write."""
        out, store, done = [], self.initial, 0
        m = dict(store._m)
        for i in positions:
            writes, done = self.writes[done:i], i
            if any(writes):
                for x, v in chain.from_iterable(writes):
                    if v is UNDEF:
                        m.pop(x, None)
                    else:
                        m[x] = v
                store = Store._of(dict(m))
            out.append(store)
        return out

    @property
    def states(self) -> tuple[State, ...]:
        """The trace as states, built anew at each call."""
        return tuple(map(self.state, self.stores_at(range(len(self))), self.commands))

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
_GLOBALS = {"undef": UNDEF, "Bool": Bool, "SemanticsError": SemanticsError,
            "too_long": _too_long}
# the formula of a string ``+``: its result, held in a local ``s`` that no
# other emitted code names, unless it is longer than STR_MAX
_CONCAT = f"(s if len(s := {{0}} + {{1}}) <= {STR_MAX} else too_long())"


# an int index of more digits than Python prints (0: no limit) names no member
_BOUND = 10 ** sys.get_int_max_str_digits() if sys.get_int_max_str_digits() else float("inf")


def _member(em: _Emitter, array: str, index: Expr) -> str:
    """The array member an index names, or None when the index is no int."""
    name = f"{em.param(array + '_')} + str({{0}})"
    return em.classed([index], {int: f"({name} if {em.param(-_BOUND)} < {{0}} < "
                                     f"{em.param(_BOUND)} else None)"}, "None")


def member_of(key: str) -> tuple[Optional[str], Optional[int]]:
    """``(array, i)`` when ``key`` is the member that ``array[i]`` names
    (``_member``): a nonempty ``array``, ``_`` and ``str(i)``; otherwise
    ``(None, None)``.  So ``a_01`` and ``a_-0`` name no member, and ``a_-1``
    names ``a[-1]``."""
    array, _, digits = key.rpartition("_")
    unsigned = digits[1:] if digits[:1] == "-" else digits
    if not (array and unsigned.isascii() and unsigned.isdigit()):  # a plain name, most often
        return None, None
    try:
        i = int(digits)
    except ValueError:  # more digits than ``_member`` names
        return None, None
    return (array, i) if array and str(i) == digits else (None, None)


# The class each typed addition's tag names: ``x +Int y`` is ``+`` on ints only.
ADDITIONS = {"Int": int, "Str": str}
_PLUS = {int: "{0} + {1}", str: _CONCAT}

# The expression operators by node class (a typed addition by its tag): for
# each operand class taken, the result's formula over the operands ``{0}`` and
# ``{1}``, of that class, and whether it is total there; other operands give undef.
OPERATORS: dict = {
    Add: (_PLUS, True),
    Mod: ({int: "({0} % {1} if {1} else undef)"}, False),  # x % 0 is undef
    **{tag: ({cls: _PLUS[cls]}, True) for tag, cls in ADDITIONS.items()},
}


def operator(e) -> tuple[Mapping[type, str], bool]:
    """The table's entry of a binary expression node."""
    entry = OPERATORS.get(e.tag if type(e) is AddTyped else type(e))
    if entry is None:
        raise SemanticsError(f"no operator: {e!r}")
    return entry


def _binary(e, em):
    return em.classed([e.left, e.right], operator(e)[0], "undef")


# expressions: a value or undef
_emit_expr = _dispatch("an expression", {
    Lit: lambda e, em: em.param(e.value),
    Var: lambda e, em: f"m.get({em.param(e.name)}, undef)",
    Add: _binary, AddTyped: _binary, Mod: _binary,
    Index: lambda e, em: f"m.get({_member(em, e.array, e.index)}, undef)",
})


def _not(b, em):
    t = em.temp()
    return f"(None if ({t} := {em.test(b.arg)}) is None else not {t})"


def _and(b, em):
    t, u = em.temp(), em.temp()
    return f"(None if ({t} := {em.test(b.left)}) is None or " \
           f"({u} := {em.test(b.right)}) is None else {t} and {u})"


# The comparisons by node class: for each operand class taken, the test's
# formula over the operands ``{0}`` and ``{1}``, of that class; other operands
# give undef.  ``<=`` on strings is the prefix order, not the lexicographic one.
COMPARISONS: dict = {
    Leq: {int: "{0} <= {1}", str: "{1}.startswith({0})"},
    Eq: {int: "{0} == {1}", str: "{0} == {1}", Bool: "{0}.value == {1}.value"},
}


def _compare(b, em):
    return em.classed([b.left, b.right], COMPARISONS[type(b)], "None")


# tests: True, False or None (undef)
_emit_test = _dispatch("a boolean expression", {
    Tt: lambda b, em: "True",
    Ff: lambda b, em: "False",
    Leq: _compare, Eq: _compare,
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
    return [f"if {bound}(v := {em.expr(e)}) is undef:",
            "    return None", *write]


# A conjunction of more bindings than this is a conjunction of calls, each
# of a function over at most this many of them, so no guard's source grows
# with its store.
_SPAN = 32


def _all_of(em: _Emitter, domain, items: Sequence[tuple[str, object]]) -> str:
    """The Python test over ``m`` that each ``(variable, slot)`` binding
    holds its variable's value, by the domain's ``slot_test``; past
    ``_SPAN`` bindings, calls of the tests of consecutive runs of them."""
    if len(items) > _SPAN:
        n = -(-len(items) // _SPAN)
        return " and ".join(f"{em.param(_conjunction(domain, items[i:i + n]))}(m)"
                            for i in range(0, len(items), n))
    return " and ".join(domain.slot_test(slot, f"m.get({em.param(x)}, undef)", em.param)
                        for x, slot in items) or "True"


def _conjunction(domain, items) -> Callable:
    em = _Emitter()
    return em.function("m", [f"return {_all_of(em, domain, items)}"])


def _membership(a, em: _Emitter) -> list[str]:
    """The body that decides whether the store ``m`` (any mapping with
    ``get`` and ``items``) lies in gamma(a).  A universal default leaves the
    conjunction of a's bindings; bottom holds no store; any other default
    also tests every variable of ``m`` that a leaves to it."""
    domain = a.domain
    if domain.value_universal(a.default):
        return [f"return {_all_of(em, domain, a.items)}"]
    if a.default == domain.bot_slot:
        return ["return False"]
    return [f"if not ({_all_of(em, domain, a.items)}):", "    return False",
            "for x, v in m.items():",
            f"    if x not in {em.param(a.keys())} and not "
            f"({domain.slot_test(a.default, 'v', em.param)}):",
            "        return False",
            "return True"]


def _emitted(arg: str, body: Callable) -> Callable:
    """The rule of a node kind whose function's body ``body(node, em)`` emits."""
    def rule(node):
        em = _Emitter()
        return em.function(arg, body(node, em))
    return rule


def _compiler(rule: Callable) -> Callable:
    """A compile function that keeps each node's function on the node, so
    programs that share a node share its function."""
    def compile_(node):
        fn = node.__dict__.get("_fn")
        if fn is None:
            fn = node.__dict__["_fn"] = rule(node)
        return fn

    return compile_


# expressions: dict -> value or undef
_expr = _compiler(_emitted("m", lambda e, em: [f"return {em.expr(e)}"]))
# tests: dict -> True, False or None (undef)
_test = _compiler(_emitted("m", lambda b, em: [f"return {em.test(b)}"]))
# actions: dict -> Write or None (bottom), the write made in the dict; a
# branching action is its three-valued test of the dict instead
_skip = _emitted("m", lambda a, em: ["return ()"])
# abstract stores: mapping -> whether it lies in gamma of the store
membership = _compiler(_emitted("m", _membership))
_action = _compiler(_dispatch("an action", {
    Skip: _skip, Put: _skip,
    Guard: lambda a: membership(a.store) if a.positive else (
        lambda m, member=membership(a.store): not member(m)),
    Assign: _emitted("m", lambda a, em: _assignment(em, em.param(a.var), None, a.expr)),
    ArrayAssign: _emitted("m", lambda a, em: _assignment(
        em, em.temp(), _member(em, a.array, a.index), a.expr)),
    Cond: _emitted("m", lambda a, em: [f"return {em.test(a.test)}"]),
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


def fires(a: lang.Action, store: Store) -> Optional[bool]:
    """Three-valued test of a conditional or guard: whether it fires, None
    when the test is undef (then neither it nor its complement fires)."""
    return _action(a)(store._m)


# ---------------------------------------------------------------------------
# Bounded runs
# ---------------------------------------------------------------------------

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


def _raiser(message: str):
    def raise_(m):
        raise SemanticsError(message)
    return raise_


def _alone(test):
    """The step of a test without its complement: no write, or bottom."""
    return lambda m: () if test(m) else None


def _step_table(p: Program) -> _Table:
    """The program's table, built at its first run and kept on it."""
    table = p.__dict__.get("_steps")
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
    table = p.__dict__["_steps"] = (tuple(entries), index.get(p.entry))
    return table


def run(p: Program, rho0: Store, budget: int) -> Run:
    """The unique maximal trace from the entry, truncated at ``budget`` states."""
    if budget < 1:
        raise SemanticsError("budget must be at least 1")
    entries, at = _step_table(p)
    if at is None:
        raise SemanticsError(f"no command at entry label {p.entry}")
    m = dict(rho0._m)
    commands: list[Command] = []
    writes: list[Write] = []
    add_command, add_write = commands.append, writes.append
    entry = entries[at]
    try:
        for _ in range(budget):
            fn, c, at, other, other_at, stuck = entry
            w = fn(m)
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
    except TooLong:  # the state whose step would build the string is the last
        add_command(c if other is None else stuck)
        return Run(rho0, tuple(commands), tuple(writes), "length")
    if entry[1] is None:
        entry[0](m)  # a nondeterministic label: raises
    # one more state would have been possible; the step to it is not recorded
    writes.pop()
    return Run(rho0, tuple(commands), tuple(writes), "budget")
