import random

import pytest
from hypothesis import given, strategies as hst

from tracelab import observe
from tracelab.hotpath import hotcut
from tracelab.lang import Command, Put, Skip
from tracelab.observe import out, out_equiv_check, sc, sc_equiv_check, st
from tracelab.semantics import State, Store, run, trace_linked
from tracelab.textio import parse_program
from tracelab.values import FF, UNDEF
from tests.conftest import command_at, oracle_cases, run_of, writes_of


def _state(bindings, label="L", action=None, succ="M"):
    return State(Store(bindings), Command(label, action or Skip(), succ))


def test_sc_collapses_consecutive_stores(loop_program, loop_run):
    # the initial store, then the binding that changes it
    seq = sc(run_of(loop_run.states[:2]))
    assert seq == (Store(), (("x", 0),))


def test_sc_all_skip_trace():
    states = [_state({"a": 1}) for _ in range(5)]
    assert sc(run_of(states)) == (Store({"a": 1}),)
    assert sc(run_of([])) == ()


def test_sc_is_subsequence_of_st(loop_run):
    full = st(loop_run)
    changes = _rebuilt(sc(loop_run))
    assert len(changes) <= len(full)
    it = iter(full)
    assert all(any(x == y for y in it) for x in changes)  # subsequence check


def test_sc_stuttering_idempotent(loop_run):
    rng = random.Random(3)
    states = list(loop_run.states[:20])
    stuttered = []
    for s in states:
        stuttered.append(s)
        if rng.random() < 0.4:
            stuttered.append(State(s.store, Command("pad", Skip(), "pad")))
    assert sc(run_of(stuttered)) == sc(run_of(states))


def test_out_filters_put_states():
    xs = frozenset({"x"})
    s1 = _state({"x": 1, "y": 9})
    s2 = _state({"x": 2, "y": 9}, action=Put(xs))
    s3 = _state({"x": 3})
    assert out(run_of([s1, s2, s3]), xs) == (Store({"x": 2}),)
    assert out(run_of([s1, s3]), xs) == ()
    # only exact put sets for this observation record
    assert out(run_of([_state({"x": 1}, action=Put(frozenset({"x", "y"})))]), xs) == ()


def test_sc_equiv_check_self(loop_program):
    rep = sc_equiv_check(loop_program, loop_program, [Store(), Store({"x": 3})], 500)
    assert rep.passed
    assert all(v.divergence is None for v in rep.verdicts)
    assert rep.tap().startswith("ok 1")


def test_sc_equiv_check_detects_change(loop_program):
    c4 = command_at(loop_program, "L4")
    from tracelab.lang import Add, Assign, Lit, Var
    mutated = loop_program.replace(
        remove=[c4], add=[Command("L4", Assign("x", Add(Var("x"), Lit(4))), "L1")])
    rep = sc_equiv_check(loop_program, mutated, [Store()], 500)
    assert not rep.passed
    v = rep.verdicts[0]
    assert v.divergence is not None
    assert "not ok" in rep.tap()


def test_sc_equiv_prefix_rule_under_truncation(loop_program):
    rep = sc_equiv_check(loop_program, loop_program, [Store()], 5)
    assert rep.passed  # equal prefixes, both truncated


def test_sc_equiv_requires_equality_on_termination():
    p1 = parse_program("#entry L0\nL0: x := 1 -> L1\nL1: skip -> .\n")
    p2 = parse_program("#entry L0\nL0: x := 1 -> L1\nL1: x := 2 -> L2\nL2: skip -> .\n")
    rep = sc_equiv_check(p1, p2, [Store()], 100)
    assert not rep.passed  # both terminated, one sc is a strict prefix


def test_out_equiv_check(dse_program):
    rep = out_equiv_check(dse_program, dse_program, [Store({"x": -3})], 200, {"x", "z"})
    assert rep.passed


def test_out_check_refuses_programs_without_put():
    """Generated programs have no put, so an out check of them would compare
    two empty observations and pass; it is refused instead (sc fails)."""
    from tracelab.gen import gen_program, gen_stores
    p3, p4 = gen_program(3), gen_program(4)
    stores = gen_stores(3, p3.vars() | p4.vars(), 2)
    assert not sc_equiv_check(p3, p4, stores, 2000).passed
    with pytest.raises(observe.ObserveError, match=r"neither program has put \{i, w, x\}"):
        out_equiv_check(p3, p4, stores, 2000, p3.vars() | p4.vars())


def _collapsed(states):
    """Store changes as stores: consecutive equal stores collapsed."""
    changes = []
    for s in states:
        if not changes or changes[-1] != s.store:
            changes.append(s.store)
    return tuple(changes)


def _sc_by_scan(states):
    """``sc`` straight from its definition, over states: the first store,
    then the bindings in which each store differs from the one before, at
    each store that differs."""
    stores = _collapsed(states)
    return stores[:1] + writes_of(stores)


def _rebuilt(changes):
    """The stores that ``sc``'s changes lead to from its first store."""
    stores = list(changes[:1])
    for w in changes[1:]:
        m = dict(stores[-1].items())
        for x, v in w:
            if v is UNDEF:
                del m[x]
            else:
                m[x] = v
        stores.append(Store(m))
    return tuple(stores)


def _out_by_scan(states, xs):
    put = Put(frozenset(xs))
    return tuple(s.store.restrict(xs) for s in states if s.command.action == put)


def _assert_observed_as_scanned(r, states):
    assert sc(r) == _sc_by_scan(states)
    assert _rebuilt(sc(r)) == _collapsed(states)
    xs = {x for s in states for x in s.store.keys()} | {"x"}
    assert out(r, xs) == _out_by_scan(states, xs)


@pytest.mark.parametrize("budget", [1, 7, 2000])
def test_observations_of_a_run_agree_with_a_scan_of_its_states(budget):
    """A run keeps its stores and commands apart; its states are built from
    them, and ``sc`` and ``out`` over the run see what a scan of those states
    sees.  Generated programs put every variable when they halt."""
    from tracelab.gen import gen_program, gen_stores
    from tests.test_pipeline import _with_put
    seen = 0
    for seed in range(30):
        p = _with_put(gen_program(seed))
        put = Put(p.vars())
        for rho in gen_stores(seed, p.vars(), 2):
            r = run(p, rho, budget)
            assert r.states == tuple(map(State, r.stores_at(range(len(r))), r.commands))
            assert len(r) == len(r.states) <= budget and trace_linked(p, r.states)
            assert sc(r) == _sc_by_scan(r.states)
            outputs = _out_by_scan(r.states, put.vars)
            assert out(r, put.vars) == outputs
            seen += bool(outputs)
    if budget == 2000:
        assert seen  # runs that halt put their final store


def test_sc_and_out_over_writes_agree_with_store_scans():
    """``sc`` and ``out`` read the writes; on the runs of generated programs
    (with a put of every variable at the halt) and their type/ts finals, and
    on the finals' runs cut against the original, whose joined neighbours
    carry the composed writes of a dropped stretch, they agree with scans of
    the stores."""
    from tests.test_hotpath import _hotcut_by_deletion
    composed = 0
    for q, p, _, _, r in oracle_cases(with_put=True):
        _assert_observed_as_scanned(r, r.states)
        if q is not p:
            cut = hotcut(r, p)
            states = _hotcut_by_deletion(r.states, p)
            assert cut.states == states
            _assert_observed_as_scanned(cut, states)
            composed += any(len(w) > 1 for w in cut.writes)
    assert composed


def test_sc_diverges_where_the_collapsed_stores_do():
    """Each run of a generated program and its final, against the run of the
    next generated program from the same store, and against the next run in
    the list: ``sc`` has the length and the verdict, divergence index
    included, of the collapsed stores."""
    cases = oracle_cases()
    programs = list(dict.fromkeys(p for _, p, _, _, _ in cases))
    following = dict(zip(programs, programs[1:] + programs[:1]))
    pairs = [(r, run(following[p], rho, budget)) for _, p, rho, budget, r in cases]
    pairs += [(r1, r2) for (*_, r1), (*_, r2) in zip(cases, cases[1:])]
    diverged = 0
    for r1, r2 in pairs:
        s1, s2 = _collapsed(r1.states), _collapsed(r2.states)
        assert (len(sc(r1)), len(sc(r2))) == (len(s1), len(s2))
        verdict = observe.compare(sc(r1), sc(r2), r1, r2)
        assert verdict == observe.compare(s1, s2, r1, r2)
        diverged += verdict[1] not in (None, 0)
    assert diverged > 100


_hand_values = hst.sampled_from([0, 1, "a", FF])
_hand_stores = hst.dictionaries(hst.sampled_from(["x", "y", "z"]), _hand_values).map(Store)


@given(hst.lists(hst.tuples(_hand_stores, hst.integers(1, 3), hst.booleans()), max_size=12))
def test_sc_and_out_of_hand_built_runs_that_stutter(steps):
    """Stores that repeat, bind, rebind and unbind, some at a put of x."""
    states = [State(rho, Command("L", Put(frozenset({"x"})) if at_put else Skip(), "L"))
              for rho, times, at_put in steps for _ in range(times)]
    _assert_observed_as_scanned(run_of(states), states)
