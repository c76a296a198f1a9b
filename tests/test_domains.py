import itertools
import random
import time

import pytest
from hypothesis import assume, example, given, strategies as st

from tracelab import domains
from tracelab.domains import (AbstractStore, CPConst, CP_BOT, CP_TOP, cp_domain, eval_type,
                              get_domain, onepoint_domain, type_domain)
from tracelab.lang import (Add, AddTyped, And, ArrayAssign, Assign, Cond, Eq, Index, Leq, Lit,
                           Mod, Not, Var, negate_bexpr)
from tracelab.semantics import COMPARISONS, Store, eval_bexpr, eval_expr, member_of
from tracelab.textio import _Cursor, _parse_abstract_store, tokenize
from tracelab.values import (BOOL, BOT_T, Bool, INT, STRING, TOP_T, TT, UNDEF,
                             UNDEF_T, type_of)
from tests.oracles import apply_action

type_alpha, type_leq = type_domain.value_alpha, type_domain.value_leq

SAMPLE_VALUES = (-1, 0, 1, "", "a", UNDEF)


# ---------------------------------------------------------------------------
# one-point domain
# ---------------------------------------------------------------------------

def test_onepoint_collapses_everything():
    top = onepoint_domain.top()
    assert onepoint_domain.alpha([Store({"x": 1}), Store({"x": "a"})]) == top
    assert onepoint_domain.alpha([]) == top
    assert onepoint_domain.contains(top, Store())
    assert onepoint_domain.meet(top, top) is top
    assert onepoint_domain.is_universal(top)
    assert str(top) == "{}"


# ---------------------------------------------------------------------------
# type domain
# ---------------------------------------------------------------------------

def test_type_alpha_cases():
    assert type_alpha({3, -7}) == INT
    assert type_alpha({UNDEF}) == UNDEF_T
    assert type_alpha({3, "a"}) == TOP_T
    assert type_alpha(set()) == BOT_T
    assert type_alpha({TT}) == BOOL


@pytest.mark.parametrize("tag", ["onepoint", "type", "cp"])
def test_value_alpha_is_least_covering_slot(tag):
    # check against the lattice directly: smallest t with S subset gamma(t)
    dom = get_domain(tag)
    values = _STORE_VALUES + (UNDEF,)
    gammas = {
        "onepoint": {dom.top_slot: set(values)},
        "type": {BOT_T: set(), INT: {-1, 0, 1}, STRING: {"", "a"}, BOOL: {TT, Bool(False)},
                 UNDEF_T: {UNDEF}, TOP_T: set(values)},
        "cp": {CP_BOT: set(), CP_TOP: set(values), **{CPConst(v): {v} for v in values}},
    }[tag]
    universe = list(gammas)
    for size in (0, 1, 2, 3):
        for s in itertools.combinations(values, size):
            s = set(s)
            best = [t for t in universe if s <= gammas[t]]
            least = min(best, key=lambda t: sum(dom.value_leq(u, t) for u in universe))
            assert dom.value_alpha(s) == least


def test_type_store_membership():
    a = type_domain.make({"x": STRING, "y": TOP_T})
    assert type_domain.contains(a, Store({"x": "foo", "y": 3}))
    assert not type_domain.contains(a, Store({"x": 1, "y": 3}))
    # absent guard slots read as Undef: a bound extra variable fails
    assert not type_domain.contains(a, Store({"x": "foo", "y": 3, "z": 0}))
    assert type_domain.contains(a, Store({"x": "foo"}))  # y: Top admits undef


def test_type_guard_paper_block():
    a = type_domain.make({"x": STRING, "y": STRING})
    assert type_domain.contains(a, Store({"x": "foo", "y": "bar"}))
    b = type_domain.make({"x": STRING, "y": UNDEF_T})
    assert type_domain.contains(b, Store({"x": "foo"}))


def test_type_alpha_empty_is_bottom():
    bot = type_domain.alpha([])
    assert bot == type_domain.bottom()
    for x in ("x", "anything"):
        assert bot.get(x) == BOT_T
    assert not type_domain.contains(bot, Store())


def test_alpha_of_empty_store_is_undef_pointwise():
    a = type_domain.alpha([Store()])
    assert a.get("x") == UNDEF_T
    assert a.items == ()  # sparse: the undef default carries it


# ---------------------------------------------------------------------------
# E^t, the abstract type semantics
# ---------------------------------------------------------------------------

def test_abstract_add_golden_cases():
    tstore = type_domain.make({"x": STRING, "y": STRING})
    e = Add(Var("x"), Var("y"))
    assert eval_type(e, tstore) == STRING
    assert eval_type(e, type_domain.make({"x": INT, "y": STRING})) == UNDEF_T
    assert eval_type(e, type_domain.make({"x": INT, "y": TOP_T})) == TOP_T
    assert eval_type(e, type_domain.make({"x": STRING, "y": BOT_T})) == BOT_T
    assert eval_type(Index("a", Var("x")), tstore) == TOP_T  # the member read is not typed


def _gamma_samples(t):
    return {
        BOT_T: [], INT: [-1, 0, 1], STRING: ["", "a"], BOOL: [TT, Bool(False)],
        UNDEF_T: [UNDEF], TOP_T: [-1, 0, 1, "", "a", TT, UNDEF],
    }[t]


@pytest.mark.parametrize("e", [Add(Var("x"), Var("y")), AddTyped(Var("x"), Var("y"), "Int"),
                               AddTyped(Var("x"), Var("y"), "Str"), Mod(Var("x"), Var("y"))],
                         ids=["add", "add-int", "add-str", "mod"])
def test_eval_type_is_alpha_of_the_collecting_image(e):
    """E^t is the best approximation, on samples: over all 36 pairs of
    operand types, the type of ``x op y`` is alpha of its values over the
    stores whose x and y are drawn from the samples of those types (Top's
    include tt, and 0 for ``%``)."""
    wrong = []
    for t1, t2 in itertools.product(domains.TYPE_NAMES, repeat=2):
        stores = [Store({x: v for x, v in (("x", v1), ("y", v2)) if v is not UNDEF})
                  for v1 in _gamma_samples(t1) for v2 in _gamma_samples(t2)]
        image = type_alpha({eval_expr(e, s) for s in stores})
        if eval_type(e, type_domain.make({"x": t1, "y": t2})) != image:
            wrong.append((t1, t2, image))
    assert wrong == []


@st.composite
def _expr_strategy(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        kind = draw(st.sampled_from(["lit_int", "lit_str", "var"]))
        if kind == "lit_int":
            return Lit(draw(st.integers(-3, 3)))
        if kind == "lit_str":
            return Lit(draw(st.sampled_from(["", "a", "ab"])))
        return Var(draw(st.sampled_from(["x", "y", "z"])))
    left, right = draw(_expr_strategy(depth + 1)), draw(_expr_strategy(depth + 1))
    kind = draw(st.sampled_from(["add", "add_int", "add_str", "mod"]))
    if kind == "add":
        return Add(left, right)
    if kind == "mod":
        return Mod(left, right)
    return AddTyped(left, right, "Int" if kind == "add_int" else "Str")


@given(_expr_strategy(), st.randoms(use_true_random=False))
@example(Mod(Lit(1), Lit(0)), random.Random(0))  # x % 0 is undef
def test_eval_type_soundness(e, rng):
    tstore_bindings = {}
    store_bindings = {}
    for v in ("x", "y", "z"):
        t = rng.choice([INT, STRING, UNDEF_T, TOP_T])
        tstore_bindings[v] = t
        concrete = rng.choice(_gamma_samples(t))
        if concrete is not UNDEF:
            store_bindings[v] = concrete
    tstore = type_domain.make(tstore_bindings)
    rho = Store(store_bindings)
    assert type_domain.contains(tstore, rho)
    assert type_leq(type_of(eval_expr(e, rho)), eval_type(e, tstore))


# ---------------------------------------------------------------------------
# guard membership against its reference definition
# ---------------------------------------------------------------------------

_VARS = ("x", "y", "z", "primes_0", "primes_1")
_STORE_VALUES = (-1, 0, 1, "", "a", TT, Bool(False))
_SLOTS = {
    "type": tuple(domains.TYPE_NAMES),
    "cp": (CP_BOT, CP_TOP) + tuple(CPConst(v) for v in _STORE_VALUES + (UNDEF,)),
}


def _contains_by_scan(dom, a, store):
    """The quadratic definition: every key of either side, looked up by a
    linear scan of the element's bindings."""
    if a.default == dom.bot_slot and not dom.value_universal(a.default):
        return False
    for x in a.keys() | frozenset(store.keys()):
        slot = next((v for k, v in a.items if k == x), a.default)
        if not dom.value_leq(dom.of(store.get(x)), slot):
            return False
    return True


def _element(draw, dom):
    """An element of ``dom`` over ``_VARS`` with an undef, bottom or top default."""
    default = draw(st.sampled_from(["undef", "bot", "top"]))
    default = {"undef": dom.undef_slot, "bot": dom.bot_slot, "top": dom.top().default}[default]
    slots = st.sampled_from(_SLOTS.get(dom.tag, (default,)))
    return dom.make(draw(st.dictionaries(st.sampled_from(_VARS), slots, max_size=4)), default)


@st.composite
def _element_and_store(draw):
    dom = get_domain(draw(st.sampled_from(sorted(_SLOTS))))
    a = _element(draw, dom)
    # the store may bind keys the element leaves out and miss keys it binds;
    # it is often drawn from gamma of the bindings so that both answers show up
    bindings = draw(st.dictionaries(st.sampled_from(_VARS), st.sampled_from(_STORE_VALUES),
                                    max_size=5))
    if draw(st.booleans()):
        for x, slot in a.items:
            fits = [v for v in _STORE_VALUES if dom.value_leq(dom.of(v), slot)]
            if fits:
                bindings[x] = draw(st.sampled_from(fits))
    return dom, a, Store(bindings)


@pytest.mark.parametrize("tag", ["onepoint", "type", "cp"])
def test_value_join_and_meet_are_the_bounds_of_the_order(tag):
    """Exhaustively over the slots: value_leq is a partial order, value_join
    is the least upper bound and value_meet the greatest lower bound."""
    dom = get_domain(tag)
    slots = _SLOTS.get(tag, (dom.top_slot,))
    leq = dom.value_leq
    for a, b, c in itertools.product(slots, repeat=3):
        assert leq(a, a) and (a == b or not (leq(a, b) and leq(b, a)))
        assert not (leq(a, b) and leq(b, c)) or leq(a, c)
    for a, b in itertools.product(slots, repeat=2):
        upper = [c for c in slots if leq(a, c) and leq(b, c)]
        lower = [c for c in slots if leq(c, a) and leq(c, b)]
        join, meet = dom.value_join(a, b), dom.value_meet(a, b)
        assert join in upper and all(leq(join, c) for c in upper), (a, b)
        assert meet in lower and all(leq(c, meet) for c in lower), (a, b)


@given(_element_and_store())
def test_contains_agrees_with_the_scan_definition(case):
    dom, a, store = case
    assert dom.contains(a, store) == _contains_by_scan(dom, a, store)


@st.composite
def _element_with_any_default_and_store(draw):
    """An element of any domain whose bindings and default are any slots
    (bottom, top and single values), and a store, often one that fits the
    bindings."""
    dom = get_domain(draw(st.sampled_from(["onepoint", "type", "cp"])))
    slots = st.sampled_from(_SLOTS.get(dom.tag, (dom.top_slot,)))
    a = dom.make(draw(st.dictionaries(st.sampled_from(_VARS), slots, max_size=4)), draw(slots))
    bindings = draw(st.dictionaries(st.sampled_from(_VARS), st.sampled_from(_STORE_VALUES),
                                    max_size=5))
    if draw(st.booleans()):
        for x, slot in a.items:
            fits = [v for v in _STORE_VALUES if dom.value_leq(dom.of(v), slot)]
            if fits:
                bindings[x] = draw(st.sampled_from(fits))
    return dom, a, Store(bindings)


@given(_element_with_any_default_and_store())
@example((type_domain, type_domain.make({"y": BOT_T}, TOP_T), Store({"y": 1})))
@example((onepoint_domain, onepoint_domain.make({}, onepoint_domain.bot_slot), Store({"x": 1})))
@example((cp_domain, cp_domain.make({"x": CPConst(1)}, CP_TOP), Store({"x": 1})))
@example((type_domain, type_domain.make({"x": INT}, INT), Store({"x": 1, "y": 2})))
def test_contains_agrees_with_the_per_variable_definition(case):
    """Membership, whatever the default, is ``of(v)`` below its slot on every variable
    that either side binds (bottom holds nothing unless it is top)."""
    dom, a, store = case
    assert dom.contains(a, store) == _contains_by_scan(dom, a, store)


# every family member bound to one slot, over a universal or an undef default
_FAMILY = 5000


@pytest.mark.parametrize("dom, slot, value, other", [
    (type_domain, INT, 7, "a"), (cp_domain, CPConst(7), 7, 8)], ids=["type", "cp"])
@pytest.mark.parametrize("default", ["top", "undef"])
def test_a_guard_over_a_long_family_decides_as_the_scan(dom, slot, value, other, default):
    """A guard whose store binds a 5,000-member family decides, in both
    polarities, as the scan does, and compiles in bounded time: no factory
    source it adds tests more than ``_SPAN`` bindings."""
    from tracelab import semantics
    from tracelab.lang import Guard
    family = f"long_{dom.tag}_{default}"
    a = dom.make({f"{family}_{i}": slot for i in range(_FAMILY)},
                 dom.top_slot if default == "top" else dom.undef_slot)
    before = set(semantics._FACTORIES)
    start = time.perf_counter()
    yes, no = semantics.fires(Guard(a, True), Store()), semantics.fires(Guard(a, False), Store())
    assert time.perf_counter() - start < 5.0 and (yes, no) == (False, True)
    assert all(src.count("m.get(") <= semantics._SPAN for src in set(semantics._FACTORIES) - before)
    full = {f"{family}_{i}": value for i in range(_FAMILY)}
    stores = [Store(full), Store({**full, f"{family}_4999": other}),
              Store({**full, f"{family}_0": other}), Store({**full, "x": value}),
              Store({k: v for k, v in full.items() if k != f"{family}_2500"})]
    answers = [_contains_by_scan(dom, a, rho) for rho in stores]
    assert answers == [True, False, False, default == "top", False]
    for rho, answer in zip(stores, answers):
        assert semantics.fires(Guard(a, True), rho) is answer
        assert semantics.fires(Guard(a, False), rho) is (not answer)
        assert dom.contains(a, rho) is answer


@pytest.mark.parametrize("first, second", [
    (type_domain.make({"shape_x": INT}, TOP_T), type_domain.make({"shape_y": STRING}, TOP_T)),
    (cp_domain.make({"shape_x": CPConst(1)}, CP_TOP),
     cp_domain.make({"shape_y": CPConst("a")}, CP_TOP)),
    (type_domain.make({"shape_x": INT, "shape_y": BOOL}),
     type_domain.make({"shape_x": STRING, "shape_z": INT}))], ids=["type", "cp", "tail"])
@pytest.mark.parametrize("positive", [True, False])
def test_guards_of_one_shape_share_one_factory(first, second, positive):
    """Names, classes and constants are factory parameters, so guards that
    differ only in them share one factory and one code object."""
    from tracelab import semantics
    from tracelab.lang import Guard
    f = semantics._action(Guard(first, positive))
    count = len(semantics._FACTORIES)
    g = semantics._action(Guard(second, positive))
    assert len(semantics._FACTORIES) == count and f is not g and f.__code__ is g.__code__


def test_every_guard_visit_of_the_finals_decides_as_the_scan(type_ts_finals):
    """At every guard state of the runs of the type/ts finals of generated
    programs 0-299 and of the sieve, the run took the guard's side exactly
    when the scan puts the store in gamma of the guard's store."""
    from tracelab.lang import Guard
    from tracelab.semantics import run
    visits = 0
    for _, final, stores, budget in type_ts_finals:
        for rho in stores:
            r = run(final, rho, budget)
            at = [i for i, c in enumerate(r.commands) if type(c.action) is Guard]
            for i, store in zip(at, r.stores_at(at)):
                g = r.commands[i].action
                assert _contains_by_scan(g.store.domain, g.store, store) is g.positive
            visits += len(at)
    assert visits > 10000


# ---------------------------------------------------------------------------
# meet and the abstract transfer function, in every domain
# ---------------------------------------------------------------------------

_ALL_DOMAINS = st.sampled_from(["onepoint", "type", "cp"]).map(get_domain)


def _member(draw, dom, a):
    """A store of gamma(a) that binds only ``_VARS``, or None when gamma(a)
    has no such store."""
    if not dom.value_leq(dom.of(UNDEF), a.default):
        return None
    bindings = {}
    for x in _VARS:
        fits = [v for v in _STORE_VALUES + (UNDEF,) if dom.value_leq(dom.of(v), a.get(x))]
        if not fits:
            return None
        v = draw(st.sampled_from(fits))
        if v is not UNDEF:
            bindings[x] = v
    return Store(bindings)


_EXPRS = st.recursive(
    st.sampled_from([Lit(-1), Lit(0), Lit(1), Lit("a"), Lit(TT)])
    | st.sampled_from(_VARS).map(Var),
    lambda e: (st.builds(Add, e, e) | st.builds(AddTyped, e, e, st.sampled_from(["Int", "Str"]))
               | st.builds(Mod, e, e) | st.builds(Index, st.just("primes"), e)),
    max_leaves=4)
_TESTS = st.recursive(
    st.builds(Leq, _EXPRS, _EXPRS) | st.builds(Eq, _EXPRS, _EXPRS),
    lambda b: st.builds(Not, b) | st.builds(And, b, b), max_leaves=3)
_ACTIONS = (st.builds(Assign, st.sampled_from(_VARS), _EXPRS)
            | st.builds(ArrayAssign, st.just("primes"),
                        st.sampled_from([Lit(0), Lit(1), Var("x")]), _EXPRS)
            # a test in both polarities: its copy, or its complement's
            | st.builds(lambda b, positive: Cond(b if positive else negate_bexpr(b)),
                        _TESTS, st.booleans()))


@st.composite
def _element_and_member(draw):
    dom = draw(_ALL_DOMAINS)
    a = _element(draw, dom)
    rho = _member(draw, dom, a)
    assume(rho is not None)
    return dom, a, rho


@given(_element_and_member(), _ACTIONS)
# a test passed on operands of a class other than the first its operator takes
@example((type_domain, type_domain.top(), Store({"x": "a"})), Cond(Leq(Var("x"), Lit("a"))))
@example((type_domain, type_domain.top(), Store({"x": "", "y": "a"})),
         Cond(Not(Leq(Var("y"), Var("x")))))
@example((type_domain, type_domain.top(), Store({"x": TT})), Cond(Eq(Lit(TT), Var("x"))))
def test_post_is_sound(case, action):
    """Every store of gamma(a) that the action does not stick, or that a
    test passes, lands in gamma(post(action, a))."""
    dom, a, rho = case
    assert dom.contains(a, rho)
    after = apply_action(action, rho)
    assert after is None or dom.contains(dom.post(action, a), after)


@st.composite
def _member_and_test(draw):
    """A type element a, a store of gamma(a) and a test defined on it: each
    comparison is of two operands of one class its operator takes, each a
    variable the store binds to a value of that class, a literal of it, or
    their sum.  The type domain is the one whose ``post`` of a test narrows
    (onepoint and cp return the element)."""
    a = _element(draw, type_domain)
    rho = _member(draw, type_domain, a)
    assume(rho is not None)

    def operand(cls):
        leaves = st.sampled_from([Var(x) for x, v in rho.items() if type(v) is cls]
                                 + [Lit(v) for v in _STORE_VALUES if type(v) is cls])
        if cls is Bool:
            return draw(leaves)
        return draw(leaves | st.builds(Add, leaves, leaves))

    def comparison():
        op = draw(st.sampled_from([Leq, Eq]))
        cls = draw(st.sampled_from(list(COMPARISONS[op])))
        return op(operand(cls), operand(cls))

    b = comparison()
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["not", "and", "and-after"]))
        b = Not(b) if kind == "not" else And(b, comparison()) if kind == "and" else \
            And(comparison(), b)
    return a, rho, b


@given(_member_and_test())
def test_post_of_the_polarity_a_member_passes_is_sound(case):
    """A store of gamma(a) on which a test is defined passes it in one
    polarity, and lies in gamma(post) of that polarity's copy: every draw
    passes its test, where a drawn action seldom does."""
    a, rho, b = case
    value = eval_bexpr(b, rho)
    assume(value is not UNDEF)
    action = Cond(b if value == TT else negate_bexpr(b))
    assert apply_action(action, rho) is rho
    assert type_domain.contains(type_domain.post(action, a), rho)


@given(st.data(), _ALL_DOMAINS, st.sampled_from(["first", "second", "any"]))
def test_meet_is_the_intersection(data, dom, source):
    """gamma(a meet b) is gamma(a) & gamma(b), on stores drawn from either
    concretization or at random."""
    a, b = _element(data.draw, dom), _element(data.draw, dom)
    if source == "any":
        rho = Store(data.draw(st.dictionaries(st.sampled_from(_VARS), st.sampled_from(_STORE_VALUES))))
    else:
        rho = _member(data.draw, dom, a if source == "first" else b)
    assume(rho is not None)
    assert dom.contains(dom.meet(a, b), rho) == (dom.contains(a, rho) and dom.contains(b, rho))


@given(st.data(), _ALL_DOMAINS)
def test_equal_elements_are_one_object(data, dom):
    """Elements are hash-consed: equal elements are one object whether
    ``make``, ``alpha``, ``meet``, ``post`` or the constructor built them."""
    rho = Store(data.draw(st.dictionaries(st.sampled_from(_VARS), st.sampled_from(_STORE_VALUES))))
    x, v = data.draw(st.sampled_from(_VARS)), data.draw(st.sampled_from(_STORE_VALUES))
    a = dom.alpha([rho])
    after = dom.make({**dict(a.items), x: dom.stored_slot(Lit(v), a)})
    equal_groups = [
        [a, dom.make({k: dom.of(w) for k, w in rho.items()}), dom.alpha([rho, rho]),
         dom.meet(a, dom.top()), AbstractStore(dom, tuple(list(a.items)), a.default)],
        [after, dom.post(Assign(x, Lit(v)), a)],
        [dom.top(), dom.meet(dom.top(), dom.top()), dom.make({}, dom.top_slot)],
        [dom.bottom(), dom.meet(a, dom.bottom())],
    ]
    for group in equal_groups:
        assert all(e is group[0] for e in group)


def test_the_type_domain_refines_post_by_the_stored_type():
    """An assignment whose value is undef sticks, so nothing gets past it;
    an array store joins its value's type into the family's known members.
    The cp domain only forgets the assigned variable."""
    a = type_domain.make({"x": INT, "s": STRING, "primes_0": BOOL}, type_domain.top().default)
    assert type_domain.post(Assign("y", Add(Var("x"), Var("s"))), a) == type_domain.bottom()
    assert type_domain.post(Assign("y", Add(Var("x"), Var("x"))), a).get("y") == INT
    stored = type_domain.post(ArrayAssign("primes", Var("x"), Var("x")), a)
    assert (stored.get("primes_0"), stored.get("x")) == (TOP_T, INT)
    assert cp_domain.post(Assign("y", Lit(3)), cp_domain.make({"y": CPConst(3)})).get("y") is CP_TOP


_TOP_DEFAULT = type_domain.top().default


@pytest.mark.parametrize("test, binds", [
    (Leq(Var("i"), Lit(10)), {"i": INT}),
    (Eq(Mod(Var("i"), Lit(3)), Lit(0)), {"i": INT}),  # % takes ints only
    (Eq(Index("primes", Var("i")), Lit(TT)), {"i": INT}),  # an index is an int
    (Not(Eq(Var("s"), Lit("a"))), {"s": STRING}),
    (Leq(Add(Var("x"), Lit(1)), Var("y")), {"x": INT}),
    (And(Leq(Var("i"), Lit(10)), Eq(Var("s"), Lit("a"))), {"i": INT, "s": STRING}),
    (Leq(Var("x"), Var("y")), {}),  # Int and String both fit
])
def test_a_passed_test_binds_the_class_of_its_operands(test, binds):
    """A test that passes, in either polarity, evaluated each operand to a
    value of a class its operator takes there; over top, post binds each
    variable whose class that decides, and nothing else."""
    for action in (Cond(test), Cond(negate_bexpr(test))):
        assert type_domain.post(action, type_domain.top()) is type_domain.make(binds, _TOP_DEFAULT)


def test_a_test_no_store_passes_is_bottom_and_other_domains_keep_the_element():
    """A string and an int compare to undef, so nothing passes (x <= "a")
    when x is an Int.  The one-point and cp domains' slots are not classes:
    their post of a test is the element itself."""
    a = type_domain.make({"x": INT}, _TOP_DEFAULT)
    assert type_domain.post(Cond(Leq(Var("x"), Lit("a"))), a) is type_domain.bottom()
    assert type_domain.post(Cond(Leq(Var("x"), Var("y"))), a) is \
        type_domain.make({"x": INT, "y": INT}, _TOP_DEFAULT)
    for dom in (onepoint_domain, cp_domain):
        for a in (dom.top(), dom.make({"i": dom.of(1)})):
            assert dom.post(Cond(Leq(Var("i"), Lit(10))), a) is a


# ---------------------------------------------------------------------------
# constant propagation domain
# ---------------------------------------------------------------------------

def test_cp_alpha_golden():
    s1 = Store({"x": 2, "y": "foo", "z": 1})
    s2 = Store({"x": 2, "y": "bar"})
    a = cp_domain.alpha([s1, s2])
    assert a.get("x") == CPConst(2)
    assert a.get("y") is CP_TOP
    assert a.get("z") is CP_TOP
    assert a.get("w") == CPConst(UNDEF)  # display convention: omitted
    assert str(a) == "{x: 2, y: top, z: top}"


def test_cp_bottom_slot_empties_gamma():
    a = cp_domain.make({"x": CPConst(2), "y": CP_TOP, "w": CP_BOT})
    for rho in (Store(), Store({"x": 2}), Store({"x": 2, "w": 1})):
        assert not cp_domain.contains(a, rho)


def test_cp_gamma_characterization():
    a = cp_domain.make({"x": CPConst(2), "y": CP_TOP, "w": CPConst("foo")})
    assert cp_domain.contains(a, Store({"x": 2, "y": 9, "w": "foo"}))
    assert cp_domain.contains(a, Store({"x": 2, "w": "foo"}))
    assert not cp_domain.contains(a, Store({"x": 2, "y": 9, "w": "foo", "z": 1}))
    assert not cp_domain.contains(a, Store({"x": 3, "y": 9, "w": "foo"}))


def test_cp_guard_examples():
    a = cp_domain.make({"x": CPConst(2), "y": CPConst("foo")})
    assert not cp_domain.contains(a, Store({"x": 2, "y": 3}))
    assert not cp_domain.contains(a, Store({"x": 2, "y": "foo", "z": 4}))
    assert not cp_domain.contains(a, Store({"x": 2}))
    assert cp_domain.contains(a, Store({"x": 2, "y": "foo"}))
    b = cp_domain.make({"x": CPConst(2), "y": CP_TOP})
    assert cp_domain.contains(b, Store({"x": 2, "y": "foo"}))
    assert cp_domain.contains(b, Store({"x": 2}))


# ---------------------------------------------------------------------------
# shared Galois-style properties
# ---------------------------------------------------------------------------

def _store_universe():
    rng = random.Random(11)
    out = []
    for _ in range(40):
        bindings = {}
        for v in ("x", "y"):
            roll = rng.random()
            if roll < 0.25:
                continue
            bindings[v] = rng.choice([-1, 0, 1, "", "a", TT])
        out.append(Store(bindings))
    return out


@pytest.mark.parametrize("tag", ["onepoint", "type", "cp"])
def test_alpha_monotone(tag):
    dom = get_domain(tag)
    universe = _store_universe()
    rng = random.Random(5)
    for _ in range(60):
        s2 = rng.sample(universe, rng.randrange(0, 6))
        s1 = [s for s in s2 if rng.random() < 0.6]
        a1 = dom.alpha(s1)
        assert dom.meet(a1, dom.alpha(s2)) is a1


@pytest.mark.parametrize("tag", ["onepoint", "type", "cp"])
def test_alpha_sound(tag):
    dom = get_domain(tag)
    universe = _store_universe()
    rng = random.Random(6)
    for _ in range(60):
        ss = rng.sample(universe, rng.randrange(1, 6))
        a = dom.alpha(ss)
        assert all(dom.contains(a, s) for s in ss)


@pytest.mark.parametrize("tag", ["type", "cp"])
def test_alpha_is_least_covering(tag):
    """Adjunction on a finite sub-universe: alpha(S) is below every element
    that covers S."""
    dom = get_domain(tag)
    universe = _store_universe()
    rng = random.Random(7)
    for _ in range(40):
        ss = rng.sample(universe, rng.randrange(1, 5))
        a = dom.alpha(ss)
        other = dom.alpha(rng.sample(universe, rng.randrange(1, 6)))
        if all(dom.contains(other, s) for s in ss):
            assert dom.meet(a, other) is a


@pytest.mark.parametrize("tag", ["type", "cp"])
def test_leq_is_partial_order(tag):
    dom = get_domain(tag)
    universe = _store_universe()
    rng = random.Random(8)
    elems = [dom.alpha(rng.sample(universe, rng.randrange(0, 5))) for _ in range(25)]
    for a in elems:
        assert dom.meet(a, a) is a
    for a, b in itertools.product(elems, repeat=2):
        if dom.meet(a, b) is a and dom.meet(b, a) is b:
            assert a == b
    for a, b, c in zip(elems, elems[1:], elems[2:]):
        if dom.meet(a, b) is a and dom.meet(b, c) is b:
            assert dom.meet(a, c) is a


def _parse_literal(tag, text):
    toks = tokenize(text)
    return _parse_abstract_store(_Cursor(toks, [None] * len(toks)), tag)


def test_store_literal_roundtrip():
    from tracelab.textio import _Cursor, _parse_abstract_store, tokenize

    def parse(tag, text):
        toks = tokenize(text)
        return _parse_abstract_store(_Cursor(toks, [None] * len(toks)), tag)

    for tag, text in [
        ("type", "{k: Int, primes: Bool[100], s: String}"),
        ("type", "{x: Top}"),
        ("cp", '{a: 2, s: "foo", t: tt, u: top, v: bot}'),
        ("onepoint", "{}"),
    ]:
        assert str(parse(tag, text)) == text
    # explicit undef-default bindings canonicalize away
    assert parse("type", "{x: Top, y: Undef}") == parse("type", "{x: Top}")
    assert parse("cp", "{x: 2, y: undef}") == parse("cp", "{x: 2}")


def test_non_undef_defaults_print_as_a_trailing_star():
    for tag, text in [
        ("type", "{i: Int, k: Int, *: Top}"),
        ("type", "{x: Int, *: Bot}"),
        ("cp", "{a: 2, *: top}"),
    ]:
        assert str(_parse_literal(tag, text)) == text


@given(_element_and_store(), st.booleans())
def test_every_element_parses_back_from_its_literal(case, top_default):
    """Any default prints: undef by omission, bot/top bare, else as ``*: V``;
    half the cases have the universal default of a sliced guard."""
    dom, a, _ = case
    if top_default:
        a = dom.make(dict(a.items), dom.top().default)
    assert _parse_literal(dom.tag, str(a)) == a


def test_only_the_members_an_index_names_print_as_a_family():
    """A key is a member of ``a`` only when ``a[i]`` names it for an int
    ``i`` (``semantics.member_of``): ``a_01`` is not ``a_1``, so no element
    prints as a family with a member it lacks, and each parses back."""
    for keys, text in [
        (["a_0", "a_01"], "{a_0: Int, a_01: Int}"),
        (["a_0", "a_1", "a_01"], "{a: Int[2], a_01: Int}"),
        (["a_0", "a_1", "a_2", "a_00"], "{a: Int[3], a_00: Int}"),
        (["a_0", "a_1", "a_-1"], "{a_-1: Int, a_0: Int, a_1: Int}"),  # a[-1] is a member
    ]:
        a = type_domain.make(dict.fromkeys(keys, INT))
        assert str(a) == text
        if "-" not in text:  # a name holds no minus sign
            assert _parse_literal("type", text) is a


def test_member_of_names_exactly_what_an_index_reads():
    for i in (-12, -1, 0, 7, 10 ** 40):
        key = f"arr_{i}"
        assert member_of(key) == ("arr", i)
        assert eval_expr(Index("arr", Lit(i)), Store({key: 5})) == 5
    assert member_of("a_b_3") == ("a_b", 3)
    for key in ("arr_01", "arr_-0", "arr_+1", "arr_ 1", "arr_1_0x", "arr_\u0663", "arr_1\n",
                "_1", "arr", "arr_", f"arr_{'9' * 5000}", f"arr_-{'9' * 5000}", "x", "i",
                "a_b", "arr_-", "arr_--1", "arr_-01", "arr_1.0", "arr_\u00b9", "arr_-\u0663",
                "arr_\uff11", "arr_1 "):
        assert member_of(key) == (None, None), key
    a = type_domain.make({"arr_1": INT, "arr_01": INT}, type_domain.top().default)
    stored = type_domain.post(ArrayAssign("arr", Var("i"), Lit("s")), a)
    assert (stored.get("arr_1"), stored.get("arr_01")) == (TOP_T, INT)


def test_unregistered_domain():
    with pytest.raises(domains.DomainError):
        get_domain("octagon")
