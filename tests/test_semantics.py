import itertools

import pytest
from hypothesis import example, given, strategies as st

from tracelab import lang
from tracelab.lang import Add, AddTyped, Assign, Cond, Index, Leq, Lit, Mod, Var
from tracelab.semantics import (STR_MAX, SemanticsError, State, Store, TooLong, eval_bexpr,
                                eval_expr, run)
from tracelab.values import Bool, FF, TT, UNDEF, value_str
from tests.conftest import DOUBLING_SRC, command_at, oracle_cases
from tests.oracles import apply_action, step, trace_linked


def test_eval_add_undef_operand():
    rho = Store({"x": 3, "z": "foo"})
    assert eval_expr(Add(Var("x"), Var("y")), rho) is UNDEF


def test_eval_typed_add_mixed():
    rho = Store()
    assert eval_expr(AddTyped(Lit(2), Lit("a"), "Int"), rho) is UNDEF
    assert eval_expr(AddTyped(Lit(2), Lit(3), "Int"), rho) == 5
    assert eval_expr(AddTyped(Lit("a"), Lit("b"), "Str"), rho) == "ab"
    assert eval_expr(AddTyped(Lit(1), Lit(2), "Str"), rho) is UNDEF


def test_eval_string_concat():
    rho = Store({"x": "ab", "y": "cd"})
    # direct concatenation oracle
    assert eval_expr(Add(Var("x"), Var("y")), rho) == "ab" + "cd"


def test_eval_mod():
    rho = Store({"x": 7})
    assert eval_expr(Mod(Var("x"), Lit(3)), rho) == 1
    assert eval_expr(Mod(Var("x"), Lit(0)), rho) is UNDEF
    assert eval_expr(Mod(Lit("a"), Lit(3)), rho) is UNDEF


def test_eval_array_read():
    rho = Store({"a_0": 5, "a_1": 7, "i": 1})
    assert eval_expr(Index("a", Var("i")), rho) == 7
    assert eval_expr(Index("a", Lit(9)), rho) is UNDEF
    assert eval_expr(Index("a", Lit("x")), rho) is UNDEF


def test_bexpr_undef_comparison():
    rho = Store({"y": 3, "z": "foo"})
    assert eval_bexpr(Leq(Var("y"), Var("x")), rho) is UNDEF


def test_bexpr_tt():
    assert eval_bexpr(lang.Tt(), Store()) == TT


def test_bexpr_string_prefix_order():
    rho = Store()
    assert eval_bexpr(Leq(Lit("ab"), Lit("abc")), rho) == TT
    assert eval_bexpr(Leq(Lit("ab"), Lit("ba")), rho) == FF
    assert eval_bexpr(Leq(Lit(""), Lit("x")), rho) == TT


@given(st.text(alphabet="ab", max_size=4), st.text(alphabet="ab", max_size=4))
def test_leq_matches_prefix_oracle(s1, s2):
    want = any(s2 == s1 + tail for tail in [s2[len(s1):]] if s2.startswith(s1))
    got = eval_bexpr(Leq(Lit(s1), Lit(s2)), Store())
    assert got == Bool(want)


def test_bexpr_undef_propagation():
    rho = Store()
    undef_cmp = Leq(Var("u"), Lit(1))
    assert eval_bexpr(lang.Not(undef_cmp), rho) is UNDEF
    assert eval_bexpr(lang.And(undef_cmp, lang.Ff()), rho) is UNDEF
    assert eval_bexpr(lang.And(lang.Ff(), undef_cmp), rho) is UNDEF


def test_eq_across_kinds():
    rho = Store()
    assert eval_bexpr(lang.Eq(Lit(1), Lit(TT)), rho) is UNDEF
    assert eval_bexpr(lang.Eq(Lit(TT), Lit(TT)), rho) == TT
    assert eval_bexpr(lang.Eq(Lit("a"), Lit("b")), rho) == FF


def test_apply_action_guard_type():
    from tracelab.domains import type_domain
    from tracelab.values import STRING, UNDEF_T
    g = lang.Guard(type_domain.make({"x": STRING, "y": UNDEF_T}), True)
    rho = Store({"x": "foo"})
    assert apply_action(g, rho) == rho
    assert apply_action(g, Store({"x": 1})) is None


def test_apply_action_skip_and_put():
    rho = Store({"x": 1})
    assert apply_action(lang.Skip(), rho) == rho
    assert apply_action(lang.Put(frozenset({"x"})), rho) == rho


def test_apply_action_undef_assignment_sticks():
    rho = Store({"y": 3, "z": "foo"})
    assert apply_action(Assign("x", Add(Var("y"), Var("z"))), rho) is None


def test_apply_action_array_bounds():
    a = lang.ArrayAssign("p", Var("k"), Lit(FF))
    assert apply_action(a, Store({"k": 0, "p_0": TT})) == Store({"k": 0, "p_0": FF})
    assert apply_action(a, Store({"k": 3, "p_0": TT})) is None  # out of bounds
    assert apply_action(a, Store({"p_0": TT})) is None  # undefined index


def test_an_index_too_long_to_print_names_no_member():
    """A member's name holds its index's digits: an int index of more digits
    than Python prints (4,300 by default) names no member, so a read at it
    is undef and a write sticks, while a 4,300-digit index names its own."""
    big = 10 ** 5000
    rho = Store({"x": big, "y": -big, "a_0": 1})
    for index in (Var("x"), Var("y"), Lit(big), Add(Var("x"), Lit(1)), Mod(Var("x"), Lit(big + 1))):
        assert eval_expr(Index("a", index), rho) is UNDEF
        assert apply_action(lang.ArrayAssign("a", index, Lit(2)), rho) is None
    long = 10 ** 4299
    rho = Store({"x": long, f"a_{long}": 1})
    assert eval_expr(Index("a", Var("x")), rho) == 1
    assert apply_action(lang.ArrayAssign("a", Var("x"), Lit(2)), rho) == \
        Store({"x": long, f"a_{long}": 2})


@pytest.mark.parametrize("v", [7 ** 6000, -(7 ** 6000), 10 ** 4400 + 1, 10 ** 4300],
                         ids=["7^6000", "-7^6000", "10^4400+1", "10^4300"])
def test_an_int_of_more_digits_than_str_gives_prints_in_full(v):
    text = value_str(v)
    digits = text.lstrip("-")
    assert text.startswith("-") == (v < 0) and 10 ** (len(digits) - 1) <= abs(v) < 10 ** len(digits)
    n = 0
    for i in range(0, len(digits), 1000):
        n = n * 10 ** len(digits[i:i + 1000]) + int(digits[i:i + 1000])
    assert n == abs(v)


def test_step_on_final_and_conditional(loop_program):
    c1c = command_at(loop_program, "L1", lambda c: str(c.action).startswith("!"))
    s = State(Store({"x": 24}), c1c)
    (nxt,) = step(loop_program, s)
    assert nxt.command == command_at(loop_program, "L5")
    assert nxt.store == s.store
    assert step(loop_program, nxt) == ()  # successor is the final marker


def test_step_returns_both_branch_commands(loop_program):
    c0 = command_at(loop_program, "L0")
    succs = step(loop_program, State(Store(), c0))
    assert len(succs) == 2
    assert {s.command.label for s in succs} == {"L1"}
    assert all(s.store == Store({"x": 0}) for s in succs)
    # exactly one of the pair can fire afterwards
    live = [s for s in succs if step(loop_program, s)]
    assert len(live) == 1


def test_run_terminates_loop(loop_program, loop_run):
    assert not loop_run.truncated
    final = loop_run.states[-1]
    assert final.store == Store({"x": 24})
    assert final.command.label == "L5"
    assert final.command.succ == lang.HALT
    xs = [s.store.get("x") for s in loop_run.states if s.store.get("x") is not UNDEF]
    assert [x for x, _ in itertools.groupby(xs)] == \
        [0, 1, 2, 3, 6, 7, 8, 9, 12, 13, 14, 15, 18, 19, 20, 21, 24]


def test_run_budget_one(loop_program):
    r = run(loop_program, Store(), 1)
    assert len(r.states) == 1 and r.truncated


def test_run_linkage(loop_program, loop_run):
    assert trace_linked(loop_program, loop_run.states)


def test_run_rejects_nondeterminism():
    from tracelab.textio import parse_program
    p = parse_program("#entry L0\nL0: skip -> L1\nL1: skip -> L2\nL1: x := 1 -> L2\nL2: skip -> .\n")
    with pytest.raises(SemanticsError):
        run(p, Store(), 10)


def test_collecting_semantics():
    rho = Store({"y": 3, "z": "foo"})
    e = Add(Var("y"), Var("z"))
    assert {eval_expr(e, s) for s in {rho}} == {UNDEF}
    assert apply_action(Assign("x", e), rho) is None
    assert eval_bexpr(Leq(Var("y"), Var("x")), rho) is UNDEF
    assert {eval_expr(e, s) for s in set()} == set()


def test_collecting_enumeration_oracle():
    stores = {Store({"x": x, "y": y}) for x in (1, 2) for y in (10, 20)}
    got = {eval_expr(Add(Var("x"), Var("y")), s) for s in stores}
    want = {x + y for x in (1, 2) for y in (10, 20)}  # brute-force enumeration
    assert got == want


def test_put_and_skip_preserve_store(loop_program, loop_run):
    for s in loop_run.states:
        if isinstance(s.command.action, (lang.Skip, lang.Put)):
            nxt = step(loop_program, s)
            assert all(t.store == s.store for t in nxt)


def test_typed_add_agrees_when_types_match():
    import random
    rng = random.Random(7)
    for _ in range(200):
        a, b = rng.randrange(-9, 9), rng.randrange(-9, 9)
        rho = Store({"a": a, "b": b})
        generic = eval_expr(Add(Var("a"), Var("b")), rho)
        typed = eval_expr(AddTyped(Var("a"), Var("b"), "Int"), rho)
        assert generic == typed


def test_run_nondeterminism_past_the_budget_raises():
    # the state after the last one decides truncated, so its label is checked too
    from tracelab.textio import parse_program
    p = parse_program("#entry L0\nL0: skip -> L1\nL1: skip -> L2\nL1: x := 1 -> L2\nL2: skip -> .\n")
    with pytest.raises(SemanticsError, match="nondeterministic choice at label L1"):
        run(p, Store(), 1)


def test_run_undef_test_takes_least_command_and_sticks():
    from tracelab.textio import parse_program
    p = parse_program("#entry L0\nL0: (x <= 1) -> L1\nL0: !(x <= 1) -> L1\nL1: skip -> .\n")
    for budget in (1, 5):
        r = run(p, Store(), budget)
        assert [str(s.command) for s in r.states] == ["L0: !(x <= 1) -> L1"]
        assert not r.truncated
    assert [str(s.command) for s in run(p, Store({"x": 0}), 5).states] == \
        ["L0: (x <= 1) -> L1", "L1: skip -> ."]


def test_run_tests_each_guard_once(monkeypatch, sieve_program, sieve_store):
    """A guard pair costs one membership test per visit: the chosen side's
    store is carried on, not tested again when it fires.  Each guard's
    compiled function is wrapped to count its calls."""
    from tracelab import semantics
    from tracelab.hotpath import hot_n
    from tracelab.optimize import optimize_full, type_specialize
    hp = hot_n(run(sieve_program, sieve_store, 20000), 2, "type", sieve_program)[0][0]
    p = optimize_full(sieve_program, hp, [type_specialize], sieve_program)
    calls = []
    for c in p.commands:
        if isinstance(c.action, lang.Guard):
            fn = semantics._action(c.action)
            monkeypatch.setitem(c.action.__dict__, "_fn",
                                lambda m, fn=fn, a=c.action: calls.append(a) or fn(m))
    monkeypatch.delitem(p.__dict__, "_steps", raising=False)  # built anew, from the wrappers
    r = run(p, sieve_store, 20000)
    guards = sum(isinstance(s.command.action, lang.Guard) for s in r.states)
    assert guards > 100 and not r.truncated
    assert len(calls) == guards


def test_set_checks_only_the_new_value(monkeypatch):
    from tracelab import semantics
    rho = Store({f"v{i}": i for i in range(100)})
    checked = []
    is_value = semantics.is_value
    monkeypatch.setattr(semantics, "is_value", lambda v: checked.append(v) or is_value(v))
    out = rho.set("v0", -1)
    assert checked == [-1]
    assert (out.get("v0"), rho.get("v0"), len(out)) == (-1, 0, 100)
    assert out == Store({**{f"v{i}": i for i in range(100)}, "v0": -1})
    with pytest.raises(SemanticsError):
        rho.set("v1", UNDEF)


def test_a_raw_bool_is_not_a_value():
    from tracelab.values import is_value, type_of
    with pytest.raises(TypeError, match="raw Python bool"):
        type_of(True)
    assert not is_value(True)
    assert [is_value(v) for v in (0, "", TT, UNDEF)] == [True, True, True, False]


def test_a_run_keeps_no_program_alive(loop_program):
    import gc
    import weakref
    from tracelab.textio import print_program, parse_program
    p = parse_program(print_program(loop_program))
    ref = weakref.ref(p)
    assert not run(p, Store(), 1000).truncated
    del p
    gc.collect()
    assert ref() is None


def test_a_compiled_node_keeps_no_node_alive():
    """A node keeps its own function, and no function refers to a node, so
    a node that nothing else holds leaves with its function."""
    import gc
    import weakref
    e = Add(Var("only_in_this_test"), Lit(3))
    a = Assign("y", e)
    assert apply_action(a, Store({"only_in_this_test": 1})).get("y") == 4
    refs = [weakref.ref(n) for n in (a, e, e.left)]
    del a, e
    gc.collect()
    assert [r() for r in refs] == [None, None, None]


# ---------------------------------------------------------------------------
# run against the step relation, and why a run ends
# ---------------------------------------------------------------------------

def _run_by_steps(p, rho, budget):
    """The run by its definition: ``step`` iterated from the entry.  Of the
    candidate states at a label, the one whose action does not stick goes
    on; when every one sticks (an undef test), the first in ``Program.at``'s
    order is the last state.  Returns the states and why the run ended."""
    def pick(cands):
        live = [s for s in cands if apply_action(s.command.action, s.store) is not None]
        assert len(live) <= 1
        return live[0] if live else cands[0]

    states = [pick([State(rho, c) for c in p.at(p.entry)])]
    while True:
        last = states[-1]
        nxt = step(p, last)
        if not nxt:
            halts = last.command.succ == lang.HALT and \
                apply_action(last.command.action, last.store) is not None
            return tuple(states), "halt" if halts else "stuck"
        if len(states) == budget:
            return tuple(states), "budget"
        states.append(pick(nxt))


def test_run_is_the_step_relation_iterated():
    """Generated programs 0-59 and their type/ts finals, from four stores
    each, at a budget they finish within and one that truncates them: the
    run has the states and the reason the step relation gives, and the
    stores its writes rebuild are the step relation's stores."""
    reasons = set()
    for p, _, rho, budget, r in oracle_cases():
        states, reason = _run_by_steps(p, rho, budget)
        assert r.states == states
        assert (r.reason, r.truncated) == (reason, reason == "budget")
        stores = tuple(s.store for s in states)
        assert r.stores_at(range(len(r))) == list(stores)
        assert r.initial is rho and len(r) == len(states)
        assert len(r.writes) == len(r) - 1
        for a, w, b in zip(stores, r.writes, stores[1:]):
            assert len(w) <= 1 and Store({**dict(a.items()), **dict(w)}) == b
        ends = [0, len(r) // 3, len(r) - 1]
        assert r.stores_at(ends) == [stores[i] for i in ends]
        reasons.add(reason)
    assert reasons == {"halt", "stuck", "budget"}


def test_a_run_says_why_it_ended(loop_program):
    from tracelab.gen import gen_program
    assert run(loop_program, Store(), 2000).reason == "halt"
    assert run(loop_program, Store(), 5).reason == "budget"
    # an assignment of undef sticks: it is the last state, and the run did not halt
    r = run(gen_program(3), Store({"x": TT}), 2000)
    assert (len(r), r.reason, r.truncated) == (4, "stuck", False)
    assert str(r.commands[-1]) == "s3: w := (w + 3) -> s5"
    # so does an undef test, and a test with no complement that fails
    from tracelab.textio import parse_program
    p = parse_program("#entry L0\nL0: (x <= 1) -> L1\nL0: !(x <= 1) -> L1\nL1: skip -> .\n")
    assert run(p, Store(), 5).reason == "stuck"
    p = parse_program("#entry L0\nL0: (x <= 1) -> L1\nL1: skip -> .\n")
    assert [run(p, Store({"x": x}), 5).reason for x in (1, 2)] == ["halt", "stuck"]
    # a run that halts at the budget's last state halted
    assert run(p, Store({"x": 1}), 2).reason == "halt"


def test_stores_at_shares_one_store_between_writes(sieve_program, sieve_store):
    """Over every position of the sieve run, ``stores_at`` gives one
    ``Store`` object to the positions that no write separates and a new one
    after each write, and each equals the initial store with the writes
    before it applied one by one."""
    r = run(sieve_program, sieve_store, 20000)
    stores = r.stores_at(range(len(r)))
    assert stores[0] is r.initial and len(stores) == len(r)
    replayed = r.initial
    for i, w in enumerate(r.writes):
        assert (stores[i + 1] is stores[i]) == (w == ())
        for x, v in w:
            replayed = replayed.set(x, v)
        assert stores[i + 1] == replayed
    assert sum(w == () for w in r.writes) > 100
    # a subset of the positions gets the same stores, one object per stretch
    some = r.stores_at([0, 0, 5, 6, len(r) - 1])
    assert some == [stores[i] for i in (0, 0, 5, 6, len(r) - 1)] and some[0] is some[1]


@pytest.mark.parametrize("op", sorted(DOUBLING_SRC))
def test_a_doubling_string_ends_the_run_at_the_bound(op):
    """The state whose step would build a string of more than ``STR_MAX``
    characters is the run's last, with the reason ``length``: a truncated
    run, whose stores are all within the bound."""
    from tracelab.textio import parse_program
    p = parse_program(DOUBLING_SRC[op])
    r = run(p, Store({"z": "a"}), 2000)
    assert (len(r), r.reason, r.truncated) == (21, "length", True)
    assert r.commands[-1] == command_at(p, "L0")
    assert len(r.stores_at([len(r) - 1])[0].get("z")) == STR_MAX
    # a budget that ends the run first still ends it; the last state's step
    # is taken, to tell whether one more state was possible
    assert [run(p, Store({"z": "a"}), n).reason for n in (20, 21)] == ["budget", "length"]


def test_a_concatenation_past_the_bound_raises_outside_a_run():
    rho = Store({"z": "a" * (STR_MAX // 2), "y": "a" * (STR_MAX // 2 + 1)})
    assert len(eval_expr(Add(Var("z"), Var("z")), rho)) == STR_MAX
    for e in (Add(Var("z"), Var("y")), AddTyped(Var("y"), Var("y"), "Str"),
              Add(Add(Var("z"), Var("z")), Lit("b"))):
        with pytest.raises(TooLong):
            eval_expr(e, rho)
    assert issubclass(TooLong, SemanticsError)
    with pytest.raises(SemanticsError):
        apply_action(Assign("x", Add(Var("y"), Var("z"))), rho)
    # ints and Booleans never meet the bound
    assert eval_expr(Add(Lit(10 ** 400), Lit(10 ** 400)), rho) == 2 * 10 ** 400


def test_a_test_that_concatenates_past_the_bound_ends_at_the_pairs_least_command():
    from tracelab.textio import parse_program
    p = parse_program("#entry L0\nL0: (x <= (z + z)) -> L1\nL0: !(x <= (z + z)) -> L1\n"
                      "L1: z := z + z -> L0\n")
    r = run(p, Store({"z": "a", "x": "b"}), 2000)
    assert r.reason == "length" and str(r.commands[-1]) == "L0: !(x <= (z + z)) -> L1"


def test_typed_string_addition_is_still_typed_str():
    from tracelab.domains import eval_type, type_domain
    from tracelab.values import STRING
    a = type_domain.make({"z": STRING})
    assert eval_type(AddTyped(Var("z"), Var("z"), "Str"), a) == STRING
    assert eval_type(Add(Var("z"), Var("z")), a) == STRING


# ---------------------------------------------------------------------------
# expressions and tests against a reference evaluator
# ---------------------------------------------------------------------------

_REF_VALUES = (-2, 0, 1, 3, "", "a", "ab", "b", TT, FF)
# a_a is bound but is no member: a string index reads undef
_REF_VARS = ("x", "y", "a_0", "a_1", "a_a")


def _ref_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _ref_expr(e, env):
    """The expression semantics, one node kind at a time; env maps the bound
    variables."""
    if isinstance(e, Lit):
        return e.value
    if isinstance(e, Var):
        return env.get(e.name, UNDEF)
    if isinstance(e, Index):
        i = _ref_expr(e.index, env)
        return env.get(f"{e.array}_{i}", UNDEF) if _ref_int(i) else UNDEF
    x, y = _ref_expr(e.left, env), _ref_expr(e.right, env)
    ints = _ref_int(x) and _ref_int(y)
    strs = isinstance(x, str) and isinstance(y, str)
    if isinstance(e, Add):
        return x + y if ints or strs else UNDEF
    if isinstance(e, AddTyped):
        return x + y if (ints if e.tag == "Int" else strs) else UNDEF
    assert isinstance(e, Mod)
    return x % y if ints and y != 0 else UNDEF


def _ref_bexpr(b, env):
    if isinstance(b, (lang.Tt, lang.Ff)):
        return TT if isinstance(b, lang.Tt) else FF
    if isinstance(b, lang.Not):
        v = _ref_bexpr(b.arg, env)
        return UNDEF if v is UNDEF else Bool(not v.value)
    if isinstance(b, lang.And):
        x, y = _ref_bexpr(b.left, env), _ref_bexpr(b.right, env)
        return UNDEF if UNDEF in (x, y) else Bool(x.value and y.value)
    x, y = _ref_expr(b.left, env), _ref_expr(b.right, env)
    if _ref_int(x) and _ref_int(y):
        return Bool(x <= y if isinstance(b, Leq) else x == y)
    if isinstance(x, str) and isinstance(y, str):
        return Bool(y[:len(x)] == x if isinstance(b, Leq) else x == y)
    if isinstance(b, lang.Eq) and isinstance(x, Bool) and isinstance(y, Bool):
        return Bool(x.value == y.value)
    return UNDEF


_leaves = st.one_of(st.sampled_from(_REF_VALUES).map(Lit),
                    st.sampled_from(_REF_VARS + ("u",)).map(Var))
_exprs = st.recursive(_leaves, lambda sub: st.one_of(
    st.builds(Add, sub, sub), st.builds(Mod, sub, sub),
    st.builds(AddTyped, sub, sub, st.sampled_from(["Int", "Str"])),
    st.builds(Index, st.just("a"), sub)), max_leaves=6)
_bexprs = st.recursive(
    st.one_of(st.just(lang.Tt()), st.just(lang.Ff()),
              st.builds(Leq, _exprs, _exprs), st.builds(lang.Eq, _exprs, _exprs)),
    lambda sub: st.one_of(st.builds(lang.Not, sub), st.builds(lang.And, sub, sub)),
    max_leaves=4)
_envs = st.dictionaries(st.sampled_from(_REF_VARS), st.sampled_from(_REF_VALUES))


def _same(got, want):
    return type(got) is type(want) and got == want


@given(_exprs, _envs)
@example(Add(Var("x"), Lit("b")), {"x": "a"})
@example(Mod(Var("x"), Lit(0)), {"x": 3})
@example(AddTyped(Lit(1), Lit("a"), "Int"), {})
@example(AddTyped(Lit("a"), Var("x"), "Str"), {"x": 1})
@example(Index("a", Lit("a")), {"a_0": 1, "a_a": 1})
@example(Index("a", Var("x")), {"x": 1, "a_0": 1})
def test_eval_expr_matches_the_reference(e, env):
    assert _same(eval_expr(e, Store(env)), _ref_expr(e, env))


@given(_bexprs, _envs)
@example(Leq(Lit("ab"), Var("x")), {"x": "abc"})
@example(Leq(Lit("a"), Lit("b")), {})
@example(lang.Eq(Var("x"), Lit(FF)), {"x": FF})
@example(lang.Eq(Lit(TT), Lit(1)), {})
@example(lang.Not(Leq(Var("u"), Lit(0))), {})
@example(lang.And(lang.Ff(), Leq(Var("u"), Lit(0))), {})
@example(lang.And(Leq(Var("u"), Lit(0)), lang.Tt()), {})
def test_eval_bexpr_matches_the_reference(b, env):
    assert _same(eval_bexpr(b, Store(env)), _ref_bexpr(b, env))


# ---------------------------------------------------------------------------
# every operand shape of every operator, against the reference
# ---------------------------------------------------------------------------

# Each operator tests its operands' classes, except a literal's, which is
# known when the node compiles and drops its test; so a variable, a literal
# and a nested operator each emit another source for the operator.  Every
# pairing of these on the left with a variable or a literal on the right is
# checked here with every class of literal and operand: ints (0 and
# negative), strs (empty and a prefix of another), Bools, and undef, both
# unbound and computed.
_SHAPE_VALUES = (-3, 0, 2, "", "a", "ab", "b", TT, FF)
_LEFTS = (Var("x"), Lit(2), Lit("a"), Lit(TT), Mod(Var("x"), Lit(2)), Index("a", Var("x")))
# a Bool literal is another object than the store's Bool of the same value
_RIGHTS = (Var("y"), Var("u")) + tuple(
    Lit(Bool(v.value) if isinstance(v, Bool) else v) for v in _SHAPE_VALUES)
_SHAPE_ENVS = tuple(
    {**{k: v for k, v in (("x", x), ("y", y)) if v is not UNDEF}, "a_0": FF, "a_2": "ab"}
    for x in _SHAPE_VALUES + (UNDEF,) for y in _SHAPE_VALUES + (UNDEF,))
_SHAPE_OPS = {"+": Add, "%": Mod, "+Int": lambda l, r: AddTyped(l, r, "Int"),
              "+Str": lambda l, r: AddTyped(l, r, "Str"), "<=": Leq, "=": lang.Eq}


def _shapes(op):
    return [_SHAPE_OPS[op](left, right) for left in _LEFTS for right in _RIGHTS]


def _ref_apply(a, env):
    """The store ``a`` leads to, as a dict; None for bottom; SemanticsError
    when it would store what is not a value."""
    from tracelab.values import is_value
    if isinstance(a, Cond):
        return env if _ref_bexpr(a.test, env) == TT else None
    if isinstance(a, Assign):
        target = a.var
    else:
        i = _ref_expr(a.index, env)
        target = f"{a.array}_{i}"
        if not _ref_int(i) or target not in env:
            return None  # only a bound member is writable
    v = _ref_expr(a.expr, env)
    if v is UNDEF:
        return None
    return {**env, target: v} if is_value(v) else SemanticsError


def _apply(a, env):
    try:
        out = apply_action(a, Store(env))
    except SemanticsError:
        return SemanticsError
    return None if out is None else dict(out.items())


@pytest.mark.parametrize("op", ["+", "%", "+Int", "+Str"])
def test_every_expression_shape_matches_the_reference(op):
    for e in _shapes(op):
        for env in _SHAPE_ENVS:
            assert _same(eval_expr(e, Store(env)), _ref_expr(e, env)), (str(e), env)
            a = Assign("z", e)
            assert _apply(a, env) == _ref_apply(a, env), (str(a), env)


@pytest.mark.parametrize("op", ["<=", "="])
def test_every_test_shape_fires_as_the_reference(op):
    from tracelab.semantics import fires
    truth = {TT: True, FF: False, UNDEF: None}
    for b in _shapes(op):
        for env in _SHAPE_ENVS:
            want = _ref_bexpr(b, env)
            assert fires(Cond(b), Store(env)) is truth[want], (str(b), env)
            assert fires(Cond(lang.Not(b)), Store(env)) is \
                truth[_ref_bexpr(lang.Not(b), env)], (str(b), env)
            assert _same(eval_bexpr(b, Store(env)), want), (str(b), env)


def test_array_writes_and_raw_literals_match_the_reference():
    """An array write changes only a bound member: an index out of bounds,
    unbound or not an int sticks.  A raw Python bool literal raises where it
    would be stored, and sticks where the write never happens; inside an
    operator it is undef."""
    actions = [lang.ArrayAssign("a", index, rhs)
               for index in (Var("x"), Lit(0), Lit(1), Lit(2), Lit(-3), Lit("a"))
               for rhs in (Var("y"), Lit(7), Add(Var("y"), Lit(1)), Lit(True))]
    actions += [Assign("z", Lit(True)), Assign("z", Add(Lit(True), Lit(1))),
                Assign("z", Lit(False))]
    outcomes = set()
    for a in actions:
        for env in _SHAPE_ENVS:
            want = _ref_apply(a, env)
            assert _apply(a, env) == want, (str(a), env)
            outcomes.add(want if want in (None, SemanticsError) else "stored")
    assert outcomes == {None, SemanticsError, "stored"}
    with pytest.raises(SemanticsError, match="not a storable value for z: True"):
        apply_action(Assign("z", Lit(True)), Store())
    with pytest.raises(SemanticsError, match="not a storable value for a_2: False"):
        apply_action(lang.ArrayAssign("a", Var("x"), Lit(False)), Store({"x": 2, "a_2": 0}))
    assert apply_action(Assign("z", Lit(UNDEF)), Store()) is None


@pytest.mark.parametrize("b", [Leq(Var("x"), Lit(0)), Leq(Var("x"), Lit("a")),
                               Leq(Var("x"), Var("y")), lang.Eq(Mod(Var("x"), Lit(2)), Lit(0)),
                               lang.Eq(Index("a", Var("x")), Lit(FF)), lang.Eq(Var("x"), Var("y"))],
                         ids=str)
def test_a_pair_led_by_its_negation_takes_the_side_the_reference_takes(b):
    """``!B`` sorts before ``B``, and the run tests B and swaps: true takes
    B, false takes !B, and undef sticks at !B, the least command."""
    from tracelab.textio import parse_program
    p = parse_program(f"#entry L0\nL0: {b} -> L1\nL0: !{b} -> L2\n"
                      "L1: skip -> .\nL2: skip -> .\n")
    for env in _SHAPE_ENVS:
        r = run(p, Store(env), 10)
        taken = {TT: [f"L0: {b} -> L1", "L1: skip -> ."],
                 FF: [f"L0: !{b} -> L2", "L2: skip -> ."],
                 UNDEF: [f"L0: !{b} -> L2"]}[_ref_bexpr(b, env)]
        assert [str(c) for c in r.commands] == taken, env
        assert r.reason == ("stuck" if len(taken) == 1 else "halt")


def test_type_guards_fire_as_the_reference():
    """A guard with a universal default tests the type of each of its
    bindings, an unbound variable's type being Undef."""
    from tracelab.domains import onepoint_domain, type_domain
    from tracelab.semantics import fires
    from tracelab.values import type_of
    slots = {"x": "Int", "y": "String", "u": "Undef", "a_0": "Bool"}
    guards = [type_domain.make(dict(items), "Top")
              for n in range(len(slots) + 1) for items in itertools.combinations(slots.items(), n)]
    guards.append(onepoint_domain.top())
    for a in guards:
        for positive in (True, False):
            for env in _SHAPE_ENVS:
                want = all(type_of(env.get(x, UNDEF)) == t for x, t in a.items)
                assert fires(lang.Guard(a, positive), Store(env)) is (want == positive), env


def test_a_raw_bool_literal_shares_no_closure_with_an_int_literal():
    """Python takes True for 1, so a closure cache keyed by plain equality
    would run ``z := True`` as a live program's ``z := 1``."""
    from tracelab.textio import parse_program
    p = parse_program("#entry L0\nL0: z := 1 -> L1\nL1: y := (1 + 1) -> .\n")
    assert run(p, Store(), 5).reason == "halt"  # p's closures stay alive with p
    with pytest.raises(SemanticsError, match="not a storable value for z: True"):
        apply_action(Assign("z", Lit(True)), Store())
    assert eval_expr(Add(Lit(True), Lit(1)), Store()) is UNDEF
    assert Lit(True) != Lit(1) and Lit(False) != Lit(0) and Lit(TT) == Lit(Bool(True))


def test_each_test_without_a_complement_runs_its_own_test():
    """Lone tests at several labels each keep their own test (a step built
    in a loop must not read the loop's last test)."""
    from tracelab.textio import parse_program
    for src in ("#entry L0\nL0: (x <= 5) -> L1\nL1: (x <= 1) -> L2\nL2: skip -> .\n",
                "#entry L0\nL0: (x <= 1) -> L1\nL1: (x <= 5) -> L2\nL2: skip -> .\n"):
        p = parse_program(src)
        for x in (0, 3, 9):
            states, reason = _run_by_steps(p, Store({"x": x}), 10)
            r = run(p, Store({"x": x}), 10)
            assert (r.states, r.reason) == (states, reason), (src, x)


# ---------------------------------------------------------------------------
# emitted functions: whole actions, hostile text, one factory per shape
# ---------------------------------------------------------------------------

@given(_exprs, _exprs, _bexprs, _envs)
@example(Var("x"), Lit(TT), lang.Eq(Index("a", Var("x")), Lit(TT)), {"x": 0, "a_0": TT})
@example(Lit(1), Mod(Var("x"), Lit(0)), lang.Not(Leq(Var("x"), Lit("a"))), {"a_1": 2, "x": 3})
def test_actions_of_any_depth_match_the_reference(e1, e2, b, env):
    from tracelab.semantics import fires
    truth = {TT: True, FF: False, UNDEF: None}
    for a in (Assign("z", e1), Assign("z", e2), lang.ArrayAssign("a", e1, e2)):
        assert _apply(a, env) == _ref_apply(a, env), str(a)
    for test in (b, lang.Not(b)):
        assert fires(Cond(test), Store(env)) is truth[_ref_bexpr(test, env)], str(test)


# quotes, backslashes, a newline, a comment sign, keywords, format braces,
# and the identifiers of the emitted source
_HOSTILE = ('"', "'", "\\", '\\"', "'''", "a\nb", "#", "x)", "{0}", "if", "None",
            "m", "undef", "k1", "t1", "t3", "v", "store", "write", "Bool", "int", "make")


def test_hostile_names_and_literals_evaluate_as_the_reference():
    """No name or literal of a program reaches the emitted source: built
    through the library API, they evaluate as the reference evaluates them."""
    for n, text in itertools.product(_HOSTILE, repeat=2):
        env = {n: text, n + "_0": 4, n + "_1": text, "i": 0}
        exprs = [Var(n), Lit(text), Add(Var(n), Lit(text)), Add(Lit(text), Var(n)),
                 AddTyped(Var(n), Lit(text), "Str"), Index(n, Var("i")), Index(n, Lit(1)),
                 Mod(Index(n, Lit(0)), Lit(3))]
        for e in exprs:
            assert _same(eval_expr(e, Store(env)), _ref_expr(e, env)), (n, text, str(e))
            for a in (Assign(n, e), lang.ArrayAssign(n, Lit(0), e)):
                assert _apply(a, env) == _ref_apply(a, env), (n, text, str(a))
            for b in (lang.Eq(e, Lit(text)), Leq(Lit(text), e), lang.Not(lang.Eq(Var(n), e))):
                assert _same(eval_bexpr(b, Store(env)), _ref_bexpr(b, env)), (n, text, str(b))
                assert _apply(Cond(b), env) == _ref_apply(Cond(b), env), (n, text, str(b))


def test_actions_that_differ_in_names_and_int_literals_share_one_factory():
    """A node's names and literals are parameters of its factory, so its
    emitted source depends on its shape only."""
    from tracelab import semantics
    codes = set()
    for i in range(1000):
        w, a = f"w{i}", f"a{i}"
        e = Add(Mod(Var(w), Lit(i + 2)), AddTyped(Lit(i), Index(a, Var(w)), "Int"))
        env = {w: i + 1, f"{a}_{i + 1}": 5}
        assert _apply(Assign(f"v{i}", e), env) == {**env, f"v{i}": (i + 1) + i + 5}
        codes.add(semantics._action(Assign(f"v{i}", e)).__code__)
    assert len(codes) == 1


@pytest.mark.parametrize("n", [17, 150])
def test_deep_operand_chains_match_the_reference(n):
    """A left-nested chain of ``n`` operators, as the parser builds ``x + 1
    + ... + 1`` and ``B && ... && B``, evaluates as the reference: an
    operand nested too deep for one function's source is a call of its
    own."""
    env = {"x": 3, "a_0": 0}
    e, b = Var("x"), lang.Tt()
    for i in range(n):
        e = Add(e, Lit(1)) if i % 3 else Index("a", Mod(e, Lit(1)))
        b = lang.And(b, lang.Not(Leq(Var("x"), Lit(i - 2))))
    assert _same(eval_expr(e, Store(env)), _ref_expr(e, env))
    assert _same(eval_bexpr(b, Store(env)), _ref_bexpr(b, env))
    for a in (Assign("z", e), lang.ArrayAssign("a", Mod(e, Lit(1)), e), Cond(b)):
        assert _apply(a, env) == _ref_apply(a, env)


def test_deep_chains_parse_and_run():
    """``tracelab run``'s path: a parsed 150-term ``+`` and ``&&`` chain."""
    from tracelab.textio import parse_program
    terms = " + 1" * 150
    tests = " && ".join(["(x <= 200)"] * 150)
    p = parse_program(f"#entry L0\nL0: x := x{terms} -> L1\nL1: ({tests}) -> .\n")
    r = run(p, Store({"x": 0}), 10)
    assert (r.reason, r.stores_at([len(r) - 1])[0].get("x")) == ("halt", 150)
