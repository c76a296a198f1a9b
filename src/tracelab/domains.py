"""Pluggable store abstractions: one-point, types, constant propagation.

Each domain abstracts sets of concrete stores nonrelationally, by pointwise
lifting of a flat value lattice.  A domain supplies only the facts of its
lattice: ``of(v)``, the slot of one value; ``bot_slot`` and ``top_slot``; and
the text hooks ``value_str`` and ``parse_value`` (the type domain also types
stored expressions, ``stored_slot``, by E^t, which ``eval_type`` reads off
``semantics.OPERATORS``).  The lattice operations (order, join, meet,
membership, alpha) and everything built on them are shared, in
``StoreAbstraction``.  Elements are kept sparse: a binding equal to
the element's default is dropped, and the default of any alpha image is the
abstraction of {undef}, matching the display convention of omitting v/undef
bindings.  Concretizations are never materialized: membership in one is
decided by a function that ``semantics`` compiles once per element from its
domain's ``slot_test`` (``semantics.membership``); guards run it, and the
``contains`` predicate calls it.  An abstract store carries the domain that
built it, so the store alone decides which gamma applies; the registry only
maps the names that text uses (guard literals, ``--domain``) to the three
domains.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

from . import lang
from .semantics import ADDITIONS, COMPARISONS, member_of, membership, operator
from .values import (BOT_T, Bool, TOP_T, TYPE_OF_CLASS, UNDEF, UNDEF_T, UValue, int_of,
                     type_of, value_str)


class DomainError(Exception):
    pass


# ---------------------------------------------------------------------------
# Abstract stores
# ---------------------------------------------------------------------------

class AbstractStore(lang.Node):
    """Nonrelational abstract store: finite exceptions over a default slot
    value, in the store abstraction ``domain`` that built it.  Hash-consed
    (``lang.Node``): equal elements are one object, however built."""

    domain: StoreAbstraction
    items: tuple[tuple[str, object], ...]  # sorted, values != default
    default: object

    def get(self, var: str):
        for k, v in self.items:
            if k == var:
                return v
        return self.default

    def keys(self) -> frozenset[str]:
        return frozenset(k for k, _ in self.items)

    def __str__(self):
        return self.domain.pretty(self)

    def __repr__(self):
        return f"<{self.domain.tag} {self}>"


def _canon(domain: StoreAbstraction, bindings: dict[str, object], default: object) -> AbstractStore:
    items = tuple(sorted((k, v) for k, v in bindings.items() if v != default))
    return AbstractStore(domain, items, default)


class StoreAbstraction(ABC):
    """Behavioral interface of a store abstraction (Galois-style, sparse
    elements) over a flat value lattice: ``bot_slot`` below the slots of
    single values (``of``), each below ``top_slot`` and incomparable to the
    others."""

    tag: str
    bot_slot: object
    top_slot: object
    # the slot of each value class, for a domain whose slot of a value
    # depends only on the value's class (``of(v)`` is ``class_slots[type(v)]``)
    class_slots: Optional[dict[type, object]] = None

    @abstractmethod
    def of(self, v: UValue):
        """The slot of one value: an atom, or top in a one-point lattice."""

    @abstractmethod
    def value_str(self, a) -> str:
        ...

    @abstractmethod
    def parse_value(self, text: str):
        ...

    # -- the flat value lattice -----------------------------------------------
    def value_leq(self, a, b) -> bool:
        return a == self.bot_slot or b == self.top_slot or a == b

    def value_join(self, a, b):
        """Least upper bound: two incomparable slots join to top."""
        if self.value_leq(a, b):
            return b
        return a if self.value_leq(b, a) else self.top_slot

    def value_meet(self, a, b):
        """Greatest lower bound: two incomparable slots have disjoint
        concretizations."""
        if self.value_leq(a, b):
            return a
        return b if self.value_leq(b, a) else self.bot_slot

    def value_has(self, a, v: UValue) -> bool:
        """Decides v in gamma(a), that is of(v) <= a."""
        return self.value_leq(self.of(v), a)

    def value_universal(self, a) -> bool:
        """gamma(a) is all of UValue."""
        return a == self.top_slot

    def value_alpha(self, values: Iterable[UValue]):
        """The least slot covering finitely many values."""
        slot = self.bot_slot
        for v in values:
            slot = self.value_join(slot, self.of(v))
        return slot

    def stored_slot(self, expr, a: AbstractStore):
        """A slot over every value ``expr`` takes in a store of gamma(a):
        top, unless a domain evaluates expressions (the type domain)."""
        return self.top_slot

    # -- store level ----------------------------------------------------------
    @cached_property
    def undef_slot(self):
        return self.of(UNDEF)

    def make(self, bindings: dict[str, object], default: object = None) -> AbstractStore:
        return _canon(self, bindings, self.undef_slot if default is None else default)

    def top(self) -> AbstractStore:
        return self._top

    @cached_property
    def _top(self) -> AbstractStore:
        # kept here, so that a call is one attribute read rather than an
        # intern-table lookup, or a new element when nothing else holds it
        return AbstractStore(self, (), self.top_slot)

    def bottom(self) -> AbstractStore:
        return AbstractStore(self, (), self.bot_slot)

    def alpha(self, stores: Iterable) -> AbstractStore:
        """The least element over finitely many stores, slot by slot.  One
        store, the case of every traced state, binds each of its variables to
        the slot of its value, with no join."""
        stores = list(stores)
        if len(stores) == 1:
            of = self.of
            return _canon(self, {x: of(v) for x, v in stores[0].items()}, self.undef_slot)
        if not stores:
            return self.bottom()
        keys = set().union(*(s.keys() for s in stores))
        return _canon(self, {x: self.value_alpha([s.get(x) for s in stores]) for x in keys},
                      self.undef_slot)

    def leq(self, a1: AbstractStore, a2: AbstractStore) -> bool:
        """a1 below a2 per slot and default: their meet is a1, and elements
        are canonical and hash-consed, so that is one identity test."""
        return self.meet(a1, a2) is a1

    def meet(self, a1: AbstractStore, a2: AbstractStore) -> AbstractStore:
        """a1 and a2 met per slot and default: gamma(a1 meet a2) is
        gamma(a1) & gamma(a2)."""
        if a2 is self._top:  # the unit, and the slice of every copy no pass rewrote
            return a1
        meet, d1, d2 = self.value_meet, a1.default, a2.default
        m1, m2 = dict(a1.items), dict(a2.items)
        return _canon(self, {x: meet(m1.get(x, d1), m2.get(x, d2)) for x in m1.keys() | m2.keys()},
                      meet(d1, d2))

    def post(self, action, a: AbstractStore) -> AbstractStore:
        """Abstract transfer of one action: every store of gamma(a) that the
        action does not stick lands in gamma(post(action, a)).  An assignment
        binds its variable to the stored slot (``stored_slot``) and is bottom
        when that slot holds undef at most, since an undef assignment sticks.
        An array store joins the stored slot into the known members of its
        family; a member left to the default is unbound, whose write sticks,
        or the default is top, as a finite store is undef almost everywhere.
        A test (``Cond``) that a store passes, in either polarity, evaluated
        every operand to a value of a class its operator takes there
        (``semantics.OPERATORS`` and ``COMPARISONS``; an array index is an
        int), since any other operand gives undef, which passes neither
        polarity.  In a domain whose slots are classes (``class_slots``) the
        classes left for an operand are those the operator takes that both
        operands' stored slots admit, the rule of ``eval_type``; a variable
        operand with one class left is met with its slot, and a test with an
        operand with none left is bottom (``_passed``).  ``!`` and ``&&``
        narrow through their operands, as both sides of an ``&&`` are
        evaluated.  Every other action, and a test in any other domain, is
        the identity."""
        if isinstance(action, lang.Cond) and self.class_slots:
            need: dict[str, object] = {}
            if not self._passed(action.test, a, need):
                return self.bottom()
            bindings = dict(a.items)
            met = {x: self.value_meet(bindings.get(x, a.default), slot) for x, slot in need.items()}
            if all(bindings.get(x, a.default) == slot for x, slot in met.items()):
                return a
            return _canon(self, {**bindings, **met}, a.default)
        if not isinstance(action, (lang.Assign, lang.ArrayAssign)):
            return a
        v = self.stored_slot(action.expr, a)
        if not self.value_universal(v) and self.value_leq(v, self.undef_slot):
            return self.bottom()
        if isinstance(action, lang.Assign):
            bindings = dict(a.items)
            if bindings.get(action.var, a.default) == v:
                return a
            bindings[action.var] = v
            return _canon(self, bindings, a.default)
        return _canon(self, {x: self.value_join(s, v) if member_of(x)[0] == action.array else s
                             for x, s in a.items}, a.default)

    def _passed(self, b, a: AbstractStore, need: dict) -> bool:
        """Adds to ``need`` the slot each variable's value lies in when the
        test ``b`` gives true or false on a store of gamma(a); False when no
        such store can exist."""
        if isinstance(b, lang.Not):
            return self._passed(b.arg, a, need)
        if isinstance(b, lang.And):
            return self._passed(b.left, a, need) and self._passed(b.right, a, need)
        if type(b) in COMPARISONS:
            return self._operands(b, COMPARISONS[type(b)], a, need)
        return True  # tt, ff

    def _operands(self, node, classes: Iterable[type], a: AbstractStore, need: dict) -> bool:
        """Adds to ``need`` what both operands of ``node`` evaluating to
        values of one class among ``classes`` tells: the classes that each
        operand's stored slot admits (top, or the class's own slot), as
        ``eval_type`` reads them."""
        # the slot of a class is below top and its own slot only (the lattice is flat)
        known = {self.stored_slot(node.left, a), self.stored_slot(node.right, a)} - {self.top_slot}
        fits = [c for c in classes if known <= {self.class_slots[c]}]
        return bool(fits) and self._evaluated(node.left, fits, a, need) \
            and self._evaluated(node.right, fits, a, need)

    def _evaluated(self, e, classes: list[type], a: AbstractStore, need: dict) -> bool:
        """Adds to ``need`` what ``e`` evaluating to a value of a class in
        ``classes`` tells: a variable has that class if it is one, an array
        index is an int, and an operator's operands have the result's class."""
        if isinstance(e, lang.Var):
            if len(classes) == 1:
                need[e.name] = self.value_meet(need.get(e.name, self.top_slot),
                                               self.class_slots[classes[0]])
            return True
        if isinstance(e, lang.Lit):
            return type(e.value) in classes
        if isinstance(e, lang.Index):
            return self._evaluated(e.index, [int], a, need)
        return self._operands(e, [c for c in operator(e)[0] if c in classes], a, need)

    def slot_test(self, slot, v: str, param) -> str:
        """The Python test that the value of the expression ``v`` lies in
        gamma(slot), each object it names made a factory parameter by
        ``param`` (``semantics`` emits membership from it): true for top,
        else whether the value's class is the one class whose slot it is
        (``class_slots``; no class has the bottom slot).  A domain whose
        slot of a value is not its class's overrides it (cp)."""
        if slot == self.top_slot:
            return "True"
        cls = next((c for c, s in (self.class_slots or {}).items() if s == slot), None)
        return "False" if cls is None else f"type({v}) is {param(cls)}"

    def contains(self, a: AbstractStore, store) -> bool:
        """Decides store in gamma(a), for a store given as any mapping from
        variables to values (a ``Store`` or a run's dict), read through
        ``get(x, UNDEF)`` and ``items()``.  A non-universal default constrains
        every variable the store binds, including the unmentioned ones;
        gamma(bottom) is empty unless the bottom slot is universal (one-point:
        bottom is top).  The decision is the call of a's compiled membership
        test (``semantics.membership``), the function its guards run."""
        return membership(a)(store)

    def is_universal(self, a: AbstractStore) -> bool:
        """gamma(a) is the whole store space: a is top, the one canonical
        element with a universal default and no binding."""
        return a is self.top()

    def pretty(self, a: AbstractStore) -> str:
        """``{x: V, a: V[n]}`` over an undef default; any other default is
        a trailing ``*: V``, and ``bot``/``top`` stand for the bare bottom
        and universal elements."""
        if a.default != self.undef_slot and not a.items:
            if a.default == self.bot_slot:
                return "bot"
            if self.value_universal(a.default):
                return "top"
        parts = []
        for k, v, count in _compress_families(a.items):
            if count is None:
                parts.append(f"{k}: {self.value_str(v)}")
            else:
                parts.append(f"{k}: {self.value_str(v)}[{count}]")
        if a.default != self.undef_slot:
            parts.append(f"*: {self.value_str(a.default)}")
        return "{" + ", ".join(parts) + "}"


def _compress_families(items) -> list[tuple[str, object, Optional[int]]]:
    """Display name_0..name_{n-1} sharing one slot value as ``name: V[n]``."""
    members = [(k, v, *member_of(k)) for k, v in items]
    groups: dict[str, dict[int, object]] = {}
    for _, v, name, i in members:
        if name is not None:
            groups.setdefault(name, {})[i] = v
    full = {name: (next(iter(idxs.values())), len(idxs)) for name, idxs in groups.items()
            if len(idxs) >= 2 and set(idxs) == set(range(len(idxs)))
            and len(set(idxs.values())) == 1}
    out: list[tuple[str, object, Optional[int]]] = []
    for k, v, name, _ in members:
        if name not in full:
            out.append((k, v, None))
        elif full[name]:  # the family, at its first member; None once printed
            out.append((name, *full[name]))
            full[name] = None
    return out


# ---------------------------------------------------------------------------
# One-point domain
# ---------------------------------------------------------------------------

class OnePointDomain(StoreAbstraction):
    """Store# = {top}: every store set abstracts to the same element."""

    tag = "onepoint"
    bot_slot = top_slot = "the-one-point"

    def of(self, v):
        return self.top_slot

    def value_str(self, a):
        raise DomainError("one-point elements print as {}")

    def parse_value(self, text):
        raise DomainError("one-point store literals are {}")


# ---------------------------------------------------------------------------
# Type domain
# ---------------------------------------------------------------------------

TYPE_NAMES = (BOT_T, *TYPE_OF_CLASS.values(), TOP_T)


class TypeDomain(StoreAbstraction):
    """Pointwise lifting of the five-point type lattice (plus Bool for arrays)."""

    tag = "type"
    bot_slot, top_slot = BOT_T, TOP_T
    of = staticmethod(type_of)
    class_slots = TYPE_OF_CLASS

    def value_str(self, a):
        return a

    def stored_slot(self, expr, a):
        return eval_type(expr, a)

    def parse_value(self, text):
        # a typed addition's tag names its class's type too: ``Str`` is String
        t = TYPE_OF_CLASS[ADDITIONS[text]] if text in ADDITIONS else text
        if t not in TYPE_NAMES:
            raise DomainError(f"unknown type name: {text}")
        return t


# ---------------------------------------------------------------------------
# Constant propagation domain
# ---------------------------------------------------------------------------

class _CPBot:
    def __repr__(self):
        return "bot"


class _CPTop:
    def __repr__(self):
        return "top"


CP_BOT = _CPBot()
CP_TOP = _CPTop()


@dataclass(frozen=True)
class CPConst:
    """A single known value; undef is a constant like any other."""

    value: UValue

    def __repr__(self):
        return value_str(self.value)


class CPDomain(StoreAbstraction):
    """Flat constant lattice per variable: bot <= each value <= top."""

    tag = "cp"
    bot_slot, top_slot = CP_BOT, CP_TOP
    of = CPConst

    def slot_test(self, slot, v, param):
        # of(v) == CPConst(c) exactly when v == c
        if type(slot) is CPConst:
            return f"{v} == {param(slot.value)}"
        return super().slot_test(slot, v, param)

    def value_str(self, a):
        return repr(a)

    def parse_value(self, text):
        if text == "top":
            return CP_TOP
        if text == "bot":
            return CP_BOT
        if text == "undef":
            return CPConst(UNDEF)
        if text == "tt":
            return CPConst(Bool(True))
        if text == "ff":
            return CPConst(Bool(False))
        return CPConst(int_of(text))


# ---------------------------------------------------------------------------
# Registry: the domains by the name text uses for them
# ---------------------------------------------------------------------------

onepoint_domain = OnePointDomain()
type_domain = TypeDomain()
cp_domain = CPDomain()
_REGISTRY = {d.tag: d for d in (onepoint_domain, type_domain, cp_domain)}


def get_domain(tag: str) -> StoreAbstraction:
    try:
        return _REGISTRY[tag]
    except KeyError:
        raise DomainError(f"unregistered store abstraction: {tag}") from None


def domain_tags() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


# ---------------------------------------------------------------------------
# Abstract type semantics of expressions
# ---------------------------------------------------------------------------

def eval_type(e, tstore: AbstractStore) -> str:
    """E^t: the abstract type of an expression under a type-domain store,
    read off ``semantics.OPERATORS``: Bot if an operand is Bot; the type of a
    class the operator takes if both operands have it (Top if partial); Top
    if each operand has that type or Top; otherwise Undef."""
    if tstore.domain is not type_domain:
        raise DomainError("eval_type needs a type-domain store")
    if isinstance(e, lang.Lit):
        return type_of(e.value)
    if isinstance(e, lang.Var):
        return tstore.get(e.name)
    if isinstance(e, lang.Index):
        return TOP_T  # index resolution is concrete; no relational precision here
    formulas, total = operator(e)
    types = {eval_type(e.left, tstore), eval_type(e.right, tstore)}
    if BOT_T in types:
        return BOT_T
    for t in map(TYPE_OF_CLASS.get, formulas):
        if types == {t}:
            return t if total else TOP_T
        if types <= {t, TOP_T}:
            return TOP_T
    return UNDEF_T
