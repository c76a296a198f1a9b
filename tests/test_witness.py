import pytest

from tracelab import gen, observe, pipeline
from tracelab.extract import extract_nested
from tracelab.hotpath import hot_n, hotcut
from tracelab.lang import AddTyped, Assign, Command, Lit, Program, Var, find_cmpl
from tracelab.observe import sc
from tracelab.optimize import type_specialize
from tracelab.semantics import State, Store, run
from tracelab.textio import parse_program
from tests.conftest import SHARED_EXIT_SRC, command_at, run_of
from tests.oracles import (WitnessError, lift_full, rtr, sp, specialization_map, td,
                           trace_linked, tr_out)


@pytest.fixture(scope="module")
def loop_st(loop_program):
    r = run(loop_program, Store(), 1000)
    hp1 = hot_n(r, 2, "onepoint", loop_program)[0][0]
    return extract_nested(loop_program, hp1, loop_program)


def _named_stitch(st):
    return {
        "H0": st.guards[0][0], "H0c": st.guards[0][1],
        "H1": st.body[0], "H1c": st.exits[0],
        "H2": st.guards[1][0], "H2c": st.guards[1][1],
        "H3": st.body[1],
        "H4": st.guards[2][0], "H4c": st.guards[2][1],
        "H5": st.body[2], "H5c": st.exits[2],
        "barA": st.slow[0], "barN": st.slow[1],
    }


def _loop_cmd(p, name):
    table = {
        "C0": ("L0", None), "C1": ("L1", False), "C1c": ("L1", True),
        "C2": ("L2", None), "C3": ("L3", False), "C3c": ("L3", True),
        "C4": ("L4", None), "C5": ("L5", None),
    }
    label, neg = table[name]
    if neg is None:
        return command_at(p, label)
    return command_at(p, label, lambda c: str(c.action).startswith("!") == neg)


def _trace(p, pairs):
    return tuple(State(Store({} if x is None else {"x": x}), _loop_cmd(p, n))
                 for x, n in pairs)


def test_tr_out_golden_unfolding(loop_program, loop_st):
    tau = _trace(loop_program, [
        (3, "C0"), (0, "C1"), (0, "C2"), (1, "C3c"), (1, "C1"), (1, "C2"),
        (2, "C3c"), (2, "C1"), (2, "C2"), (3, "C3"), (3, "C4"),
    ])
    assert trace_linked(loop_program, tau)
    got = tr_out(loop_st, tau)
    names = _named_stitch(loop_st)
    want_cmds = ["C0"] + ["H0", "H1", "H2", "H3", "H4", "H5"] * 2 \
        + ["H0", "H1", "H2", "H3", "H4", "H5c"] + ["C4"]
    assert len(got) == 20
    for s, w in zip(got, want_cmds):
        expected = names[w] if w in names else _loop_cmd(loop_program, w)
        assert s.command == expected
    assert sc(run_of(got)) == sc(run_of(tau))


def test_tr_out_empty(loop_st):
    assert tr_out(loop_st, ()) == ()


def test_rtr_golden_refolding(loop_program, loop_st):
    # the published fragment ends on the source conditional itself; the
    # refolding keeps it through the fall-through case
    names = _named_stitch(loop_st)
    mk = lambda x, n: State(Store({"x": x}), names[n])
    body = (
        mk(2, "H4"), mk(2, "H5"), mk(2, "H0"), mk(2, "H1"), mk(2, "H2"),
        mk(2, "H3"), mk(3, "H4"), mk(3, "H5c"),
        State(Store({"x": 3}), _loop_cmd(loop_program, "C4")),
    )
    sigma = body + (State(Store({"x": 6}), _loop_cmd(loop_program, "C1")),)
    got = rtr(loop_st, loop_program, sigma)
    want = _trace(loop_program, [
        (2, "C3c"), (2, "C1"), (2, "C2"), (3, "C3"), (3, "C4"), (6, "C1"),
    ])
    assert got == want
    assert sc(run_of(got)) == sc(run_of(sigma))
    # the legal-trace variant ends at the entry guard instead; the terminal
    # guard refolds to the same head conditional
    sigma2 = body + (mk(6, "H0"),)
    assert trace_linked(loop_st.transformed, sigma2)
    assert rtr(loop_st, loop_program, sigma2) == want
    assert trace_linked(loop_program, rtr(loop_st, loop_program, sigma2))


def test_rtr_no_stitched_states_is_identity(loop_program, loop_st):
    tau = _trace(loop_program, [(3, "C4"), (6, "C1"), (6, "C2")])
    assert rtr(loop_st, loop_program, tau) == tau


def test_rtr_terminal_guard_singleton(loop_program, loop_st):
    names = _named_stitch(loop_st)
    s = State(Store({"x": 1}), names["H2"])
    got = rtr(loop_st, loop_program, (s,))
    assert got == (State(Store({"x": 1}), _loop_cmd(loop_program, "C2")),)
    # entry guard terminal maps to the path head
    s0 = State(Store({"x": 1}), names["H0"])
    assert rtr(loop_st, loop_program, (s0,)) == \
        (State(Store({"x": 1}), _loop_cmd(loop_program, "C1")),)


def test_rtr_refolds_a_nested_stitch(loop_program, loop_st):
    """The second round's path runs through the first stitch, and its
    retargeted nested command refolds to that stitch's command: a run of the
    twice stitched program maps onto the once stitched one, with the same
    store changes."""
    p1 = loop_st.transformed
    hp2 = hot_n(hotcut(run(p1, Store(), 2000), loop_program), 2, "onepoint", p1)[0][0]
    st2 = extract_nested(p1, hp2, loop_program)
    assert list(st2.nested) == [1]
    r = run(st2.transformed, Store(), 2000).states
    assert sc(run_of(rtr(st2, p1, r))) == sc(run_of(r))


def test_tr_out_guard_failure_midpath(cf_program):
    """With cp guards, a store that escapes the recorded constants bails out
    through the negative interior guard."""
    from tracelab.domains import CPConst, CP_TOP, cp_domain
    from tracelab.hotpath import HotPath
    a = cp_domain.make({"x": CP_TOP, "a": CPConst(2)})
    c2 = command_at(cf_program, "L2", lambda c: not str(c.action).startswith("!"))
    c3 = command_at(cf_program, "L3", lambda c: not str(c.action).startswith("!"))
    c4 = command_at(cf_program, "L4")
    hp = HotPath(((a, c2), (a, c3), (a, c4)))
    st = extract_nested(cf_program, hp, cf_program)
    # a = 9 violates the guards: entry fails, the slow copies run
    tau = tuple(State(Store({"x": 0, "a": 9}), c) for c in (c2, c3)) + \
        (State(Store({"x": 0, "a": 9}), c4), State(Store({"x": 9, "a": 9}), c2),)
    assert trace_linked(cf_program, tau)
    got = tr_out(st, tau)
    assert got[0].command == st.guards[0][1]
    assert got[1].command == st.slow[0]
    assert sc(run_of(got)) == sc(run_of(tau))
    # mixed store: passes the entry guard, fails an interior one
    rho_ok = Store({"x": 0, "a": 2})
    tau2 = (State(rho_ok, c2), State(rho_ok, c3))
    got2 = tr_out(st, tau2)
    assert got2[0].command == st.guards[0][0]
    assert got2[1].command == st.body[0]
    assert got2[2].command == st.guards[1][0]


def test_witness_sc_preserved_on_all_prefixes(loop_program, loop_st):
    r = run(loop_program, Store(), 1000)
    for k in range(1, len(r.states) + 1):
        prefix = r.states[:k]
        assert sc(run_of(tr_out(loop_st, prefix))) == sc(run_of(prefix))
    r2 = run(loop_st.transformed, Store(), 1000)
    for k in range(1, len(r2.states) + 1):
        prefix = r2.states[:k]
        assert sc(run_of(rtr(loop_st, loop_program, prefix))) == sc(run_of(prefix))


def test_witnesses_refuse_a_trace_that_is_not_linked(loop_program, loop_st):
    tau = _trace(loop_program, [(3, "C4"), (6, "C2")])  # L4 goes on to L1, not L2
    with pytest.raises(WitnessError):
        rtr(loop_st, loop_program, tau)


@pytest.mark.parametrize("domain", ["onepoint", "type"])
@pytest.mark.parametrize("seed", range(10))
def test_witnesses_on_generated_programs(seed, domain):
    """Unfolding then refolding a source run gives it back, and both
    witnesses keep store changes, for the first hot path of each program."""
    p = gen.gen_program(seed)
    stores = gen.gen_stores(seed, gen.SAMPLE_VARS, 4)
    hp = list(pipeline.mine(p, p, observe.runs(p, stores, 2000), 2, domain))[0][0]
    st = extract_nested(p, hp, p)
    for rho in stores:
        tau = run(p, rho, 2000).states
        unfolded = tr_out(st, tau)
        assert rtr(st, p, unfolded) == tau
        assert sc(run_of(unfolded)) == sc(run_of(tau))
        r = run(st.transformed, rho, 2000).states
        assert sc(run_of(rtr(st, p, r))) == sc(run_of(r))


def test_round_trip_command_projection(loop_program, loop_st):
    """Fully-in-path iterations: rtr(tr_out(s)) restores the source commands."""
    tau = _trace(loop_program, [
        (0, "C1"), (0, "C2"), (1, "C3c"), (1, "C1"), (1, "C2"), (2, "C3c"),
    ])
    back = rtr(loop_st, loop_program, tr_out(loop_st, tau))
    assert [s.command for s in back] == [s.command for s in tau]
    assert back == tau


# ---------------------------------------------------------------------------
# specialization witnesses
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def sieve_ts(sieve_program, sieve_store):
    r = run(sieve_program, sieve_store, 5000)
    hp1 = hot_n(r, 2, "type", sieve_program)[0][0]
    st = extract_nested(sieve_program, hp1, sieve_program)
    smap = specialization_map(st, type_specialize(st))
    return st, smap


def test_specialization_map_holds_only_the_rewritten_addition():
    """The exit at L2 shares its label and successor with the copy of L2's
    positive branch; it is not taken for a rewrite of that copy, so ``sp``
    keeps it in the optimized fragment."""
    p = parse_program(SHARED_EXIT_SRC)
    hp = list(pipeline.mine(p, p, observe.runs(p, [Store({"x": 0, "y": 1})], 500), 2, "type"))[0][0]
    st = extract_nested(p, hp, p)
    add = st.body[1]
    assert specialization_map(st, type_specialize(st)) == {
        add: Command(add.label, Assign("x", AddTyped(Var("x"), Lit(1), "Int")), add.succ)}


def test_sp_td_identity_under_guards(sieve_program, sieve_store, sieve_ts):
    st, smap = sieve_ts
    p1 = st.transformed
    r = run(p1, sieve_store, 6000)
    member = st.stitched.union(*st.guards.values())  # the whole stitch, pairs included
    # collect a maximal in-stitch fragment of the unoptimized extraction
    frag = []
    for s in r.states:
        if s.command in member:
            frag.append(s)
        elif frag:
            break
    frag = tuple(frag)
    assert len(frag) >= 4
    onward = sp(st, smap, frag)
    assert sc(run_of(onward)) == sc(run_of(frag))
    back = td(st, smap, onward)
    assert back == frag
    assert sc(run_of(back)) == sc(run_of(onward))


def test_sp_truncates_on_guard_violation(sieve_ts):
    st, smap = sieve_ts
    generic = st.body[2]  # k := k + i
    bad = Store({"k": "oops", "i": 1})
    got = sp(st, smap, (State(bad, generic), ))
    assert len(got) == 1
    spec = got[0].command
    assert str(spec.action) == "k := (k +Int i)"


def test_td_stuck_head_singleton(sieve_ts):
    st, smap = sieve_ts
    spec = smap[st.body[2]]
    bad = Store({"k": "oops", "i": 1})
    got = td(st, smap, (State(bad, spec),))
    assert got == (State(bad, st.body[2]),)


def test_td_sp_empty():
    assert lift_full(lambda s: s, frozenset(), ()) == ()


# ---------------------------------------------------------------------------
# lift_full
# ---------------------------------------------------------------------------

def test_lift_full_segments(loop_program, loop_st):
    r = run(loop_st.transformed, Store(), 400)
    member = loop_st.stitched
    calls = []

    def probe(seg):
        calls.append(tuple(seg))
        return seg

    out = lift_full(probe, member, r.states)
    assert out == r.states
    # oracle: maximal runs computed independently
    want = []
    cur = []
    for s in r.states:
        if s.command in member:
            cur.append(s)
        elif cur:
            want.append(tuple(cur))
            cur = []
    if cur:
        want.append(tuple(cur))
    assert calls == want
    assert all(len(seg) >= 1 for seg in calls)
    assert len(calls) >= 2


def test_lift_full_no_member_states(loop_program, loop_st):
    r = run(loop_program, Store(), 50)
    assert lift_full(lambda s: (), loop_st.stitched, r.states) == r.states


def test_lift_full_composes_sp(sieve_store, sieve_ts):
    """Full-trace specialization: the ts rewrite under full guards accepts
    the lifted trace (the witnesses prove ts; guard slicing only weakens
    guards, which test_optimize's inclusion test covers)."""
    st, smap = sieve_ts
    p1 = st.transformed
    p_opt = Program((p1.commands - st.stitched) | type_specialize(st), p1.entry, p1.arrays)
    r = run(p1, sieve_store, 4000)
    lifted = lift_full(lambda seg: sp(st, smap, seg), st.stitched, r.states)
    assert trace_linked(p_opt, lifted)
    assert sc(run_of(lifted)) == sc(r)
