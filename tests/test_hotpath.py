from unittest import mock

import pytest
from hypothesis import given, strategies as st

from tracelab import hotpath, observe
from tracelab.domains import get_domain, onepoint_domain
from tracelab.extract import extract
from tracelab.hotpath import (HotPath, HotPathError, count, hot_n, hotcut, sloop,
                              topo_order)
from tracelab.lang import Assign, Command, Lit, Skip, find_cmpl, is_negation
from tracelab.semantics import Run, State, Store, run
from tracelab.textio import parse_program
from tracelab.values import FF, TT, UNDEF
from tests.conftest import command_at, oracle_cases, run_of


def _cmds(p, labels_actions):
    return [command_at(p, l, lambda c, s=s: str(c.action) == s) for l, s in labels_actions]


# ---------------------------------------------------------------------------
# topological order
# ---------------------------------------------------------------------------

def test_topo_order_loop(loop_program):
    rank = topo_order(loop_program)
    c1 = command_at(loop_program, "L1", lambda c: not str(c.action).startswith("!"))
    c3c = command_at(loop_program, "L3", lambda c: str(c.action).startswith("!"))
    assert rank[c1] <= rank[c3c]
    assert not rank[c3c] <= rank[c1]


def test_topo_order_self_loop():
    p = parse_program("#entry L\nL: skip -> L\n")
    rank = topo_order(p)
    c = command_at(p, "L")
    assert rank[c] == 0


def test_topo_order_straight_line_matches_dfs_oracle():
    src = "#entry L0\n" + "\n".join(f"L{i}: skip -> L{i+1}" for i in range(5)) \
        + "\nL5: skip -> .\n"
    p = parse_program(src)
    rank = topo_order(p)
    ranks = {c.label: r for c, r in rank.items()}
    assert ranks == {f"L{i}": i for i in range(6)}


def _dfs_oracle_rank(p):
    """Recursive reverse-postorder with the same branch ordering."""
    post = []
    seen = set()

    def go(c):
        seen.add(c)
        if c.succ != ".":
            for nxt in sorted(p.at(c.succ), key=lambda n: is_negation(n.action)):
                if nxt not in seen:
                    go(nxt)
        post.append(c)

    for c in (*p.at(p.entry), *p.sorted_commands):
        if c not in seen:
            go(c)
    return {c: i for i, c in enumerate(reversed(post))}


def test_topo_matches_recursive_oracle(loop_program, cf_program, sieve_program):
    for p in (loop_program, cf_program, sieve_program):
        assert topo_order(p) == _dfs_oracle_rank(p)


def test_topo_order_matches_the_oracle_on_generated_finals_and_unreachable_commands():
    """``topo_order`` reads the sorted commands only when the entry leaves
    some unvisited; its ranks are the oracle's, which always seeds from them.
    Each final program is also ranked behind a fresh entry that halts, so
    that none of its commands is reachable."""
    from tracelab import gen, pipeline
    from tracelab.lang import HALT, Program
    for seed in range(30):
        stores = gen.gen_stores(seed, ("x", "y", "z", "w", "s", "i", "j"), 4)
        final = pipeline.pipeline(gen.gen_program(seed), stores, "type", 2, 2000, ["ts"],
                                  3).program
        fresh = Program(final.commands, final.entry, final.arrays)  # no cached tables
        cut_off = Program(final.commands | {Command("E#0", Skip(), HALT)}, "E#0", final.arrays)
        for p in (fresh, cut_off):
            rank = topo_order(p)
            assert ("sorted_commands" in p.__dict__) == (p is cut_off), seed
            assert rank == _dfs_oracle_rank(p), seed


def test_topo_order_prints_no_guard_store(sieve_program, sieve_store, monkeypatch):
    """Branches are ordered by polarity over ``Program.at``'s order, so
    ranking a stitched program never prints its guard stores."""
    from tracelab.domains import AbstractStore
    hp = hot_n(run(sieve_program, sieve_store, 5000), 2, "type", sieve_program)[0][0]
    p = extract(sieve_program, hp).transformed
    want = _dfs_oracle_rank(p)  # builds the program's cached tables
    calls = []
    real = AbstractStore.__str__

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(AbstractStore, "__str__", counting)
    assert topo_order(p) == want
    assert calls == []


def test_topo_covers_unreachable():
    p = parse_program("#entry L0\nL0: skip -> .\nU0: skip -> U1\nU1: skip -> .\n")
    rank = topo_order(p)
    assert len(rank) == 3


# ---------------------------------------------------------------------------
# sloop and count
# ---------------------------------------------------------------------------

def test_sloop_single_state_empty(loop_program, loop_run):
    rank = topo_order(loop_program)
    assert sloop(loop_run.commands[:1], rank, loop_program) == []


def test_sloop_contains_first_loop_segment(loop_program, loop_run):
    rank = topo_order(loop_program)
    segs = sloop(loop_run.commands, rank, loop_program)
    mats = [tuple(s.command.label for s in loop_run.states[i:j + 1]) for i, j in segs]
    assert ("L1", "L2", "L3") in mats
    # the segment carries the stores of its occurrence
    i, j = next((i, j) for i, j in segs
                if tuple(s.command.label for s in loop_run.states[i:j + 1]) == ("L1", "L2", "L3"))
    assert [s.store for s in loop_run.states[i:j + 1]] == \
        [Store({"x": 0}), Store({"x": 0}), Store({"x": 1})]


def test_sloop_brute_force_nested():
    # two nested counting loops; check conditions (1)-(3) exhaustively
    src = """
#entry L0
L0: i := 0 -> L1
L1: (i <= 2) -> L2
L1: !(i <= 2) -> L7
L2: j := 0 -> L3
L3: (j <= 1) -> L4
L3: !(j <= 1) -> L6
L4: j := j + 1 -> L3
L6: i := i + 1 -> L1
L7: skip -> .
"""
    p = parse_program(src)
    r = run(p, Store(), 500)
    rank = topo_order(p)
    segs = set(sloop(r.commands, rank, p))

    states = r.states
    brute = set()
    for i in range(len(states) - 1):
        for j in range(i, len(states) - 1):
            ci, cj = states[i].command, states[j].command
            interior = [states[k].command for k in range(i + 1, j + 1)]
            blockers = {ci, find_cmpl(ci, p)} - {None}
            if cj.succ == ci.label and rank[ci] <= rank[cj] \
                    and not any(c in blockers for c in interior):
                brute.add((i, j))
    assert segs == brute
    # an outer segment contains repeated inner commands
    outer = [(i, j) for i, j in segs if states[i].command.label == "L1" and j - i > 4]
    assert outer
    i, j = outer[0]
    labels = [s.command.label for s in states[i:j + 1]]
    assert labels.count("L3") >= 2


def _counts(p, r, domain_tag):
    return count(hotpath.abstract_trace(r, domain_tag),
                 sloop(r.commands, topo_order(p), p))


def test_count_golden(loop_program, loop_run):
    counts = _counts(loop_program, loop_run, "onepoint")
    hps = hot_n(loop_run, 2, "onepoint", loop_program)
    assert counts[hps[0][0].pairs] == 8
    assert counts[hps[1][0].pairs] == 4
    assert list(counts)[:2] == [hp.pairs for hp, _ in hps]  # first-occurrence order


def test_count_too_long_pattern(loop_program, loop_run):
    """A prefix too short for a segment with a successor state counts
    nothing, though the loop path's one occurrence ends at its last state;
    one segment further, the occurrence counts once."""
    assert _counts(loop_program, run_of(loop_run.states[:4]), "onepoint") == {}
    counts = _counts(loop_program, run_of(loop_run.states[:5]), "onepoint")
    assert [[c.label for _, c in image] for image in counts] == [["L1", "L2", "L3"]]
    assert list(counts.values()) == [1]


def test_count_overlapping():
    """Four states of a self-loop: three segments and the trailing window."""
    p = parse_program("#entry L\nL: skip -> L\n")
    r = run_of([State(Store(), command_at(p, "L"))] * 4)
    assert sloop(r.commands, topo_order(p), p) == [(0, 0), (1, 1), (2, 2)]
    a = onepoint_domain.top()
    assert _counts(p, r, "onepoint") == {((a, command_at(p, "L")),): 4}


def _sloop_by_definition(states, rank, p):
    """Loop segments straight from their definition: for each start, scan
    until the start's command or its complement re-occurs."""
    out = []
    for i in range(len(states) - 1):
        ci = states[i].command
        blockers = {ci, find_cmpl(ci, p)} - {None}
        for j in range(i, len(states) - 1):
            cj = states[j].command
            if j > i and cj in blockers:
                break
            if cj.succ == ci.label and rank[ci] <= rank[cj]:
                out.append((i, j))
    return out


def _hot_n_by_scan(states, n, domain_tag, p):
    """The reference definition: each state's store abstracted by ``alpha``
    on its own, and each distinct loop segment's image counted by scanning
    the whole abstracted trace for it."""
    alpha = get_domain(domain_tag).alpha
    abs_tr = [(alpha([s.store]), s.command) for s in states]
    out, seen = [], set()
    for i, j in _sloop_by_definition(states, topo_order(p), p):
        image = tuple(abs_tr[i:j + 1])
        if image in seen:
            continue
        seen.add(image)
        m = len(image)
        c = sum(tuple(abs_tr[k:k + m]) == image for k in range(len(abs_tr) - m + 1))
        if c >= n:
            out.append((image, c))
    return out


def _scan_cases(seed):
    """(program, run, nested) at three budgets: seed ``seed``'s generated
    program with its run, and its 1-round type/ts final program with its
    run cut by ``hotcut`` against the original, which leaves neighbours
    that no step links."""
    from tracelab.gen import gen_program, gen_stores
    from tracelab.pipeline import pipeline
    p = gen_program(seed)
    (rho,) = gen_stores(seed, p.vars(), 1)
    final = pipeline(p, [rho], "type", 2, 2000, ["ts"], 1).program
    for budget in (2000, 37, 101):
        yield p, run(p, rho, budget), False
        yield final, hotcut(run(final, rho, budget), p), True


@pytest.mark.parametrize("seed", range(30))
def test_hot_n_agrees_with_the_scan(seed):
    for p, r, _ in _scan_cases(seed):
        states = r.states
        assert sloop(r.commands, topo_order(p), p) == \
            _sloop_by_definition(states, topo_order(p), p)
        for tag in ("onepoint", "type", "cp"):
            alpha = get_domain(tag).alpha
            assert hotpath.abstract_trace(r, tag) == \
                [(alpha([s.store]), s.command) for s in states]
            got = [(hp.pairs, c) for hp, c in hot_n(r, 2, tag, p)]
            assert got == _hot_n_by_scan(states, 2, tag, p), (len(states), tag)


def test_only_unlinked_stores_are_abstracted_whole(monkeypatch):
    """Every store of a run but the first is reached by a write, so a run is
    abstracted whole once, at its first store.  A cut run is too: ``hotcut``
    links the neighbours it joins by the composed writes of the stretch it
    drops, some of which bind several variables."""
    from tracelab.domains import type_domain
    calls = []
    real = type_domain.alpha

    def counting(stores):
        calls.append(stores)
        return real(stores)

    monkeypatch.setattr(type_domain, "alpha", counting)
    composed = 0
    for seed in range(30):
        for _, r, nested in _scan_cases(seed):
            calls.clear()
            hotpath.abstract_trace(r, "type")
            assert len(calls) == 1, seed
            composed += nested and any(len(w) > 1 for w in r.writes)
    assert composed > 0


def test_abstract_trace_of_a_cut_run_is_pointwise_alpha():
    """The type/ts finals of generated programs 0-59, their runs cut against
    the original: each element is the alpha of the store that the deletion
    definition of the cut keeps from the whole run."""
    for q, p, _, budget, r in oracle_cases():
        if q is p or budget != 2000:
            continue
        states = _hotcut_by_deletion(r.states, p)
        cut = hotcut(r, p)
        for tag in ("onepoint", "type", "cp"):
            alpha = get_domain(tag).alpha
            assert hotpath.abstract_trace(cut, tag) == \
                [(alpha([s.store]), s.command) for s in states]


def test_the_trailing_window_counts(loop_program):
    """Runs cut by the budget right after a loop path's last command: the
    occurrence that ends the trace is no segment, but it is counted."""
    r = run(loop_program, Store(), 7)  # L0 (L1 L2 L3!) (L1 L2 L3!)
    hps = hot_n(r, 2, "onepoint", loop_program)
    assert [([c.label for c in hp.commands], c) for hp, c in hps] == [(["L1", "L2", "L3"], 2)]
    r = run(loop_program, Store(), 14)
    assert [c for _, c in hot_n(r, 2, "onepoint", loop_program)] == [3]


# ---------------------------------------------------------------------------
# abstract_trace: one-binding updates against alpha
# ---------------------------------------------------------------------------

_VALUES = st.sampled_from([-1, 0, 1, 2, "", "a", TT, FF])


@st.composite
def _one_write(draw):
    """A store over x, j and a family a_0..a_{n-1}, and a write record of one
    binding or several, in variable order: each to a bound or an unbound
    variable, of any value, or of undef, which unbinds."""
    n = draw(st.integers(0, 3))
    rho = {f"a_{k}": draw(_VALUES) for k in range(n)}
    rho.update(draw(st.dictionaries(st.sampled_from(["x", "j"]), _VALUES)))
    w = draw(st.dictionaries(st.sampled_from(["x", "j", "y", "a_0", "a_1"]),
                             _VALUES | st.just(UNDEF), min_size=1))
    return rho, tuple(sorted(w.items()))


@given(_one_write(), st.sampled_from(["onepoint", "type", "cp"]))
def test_abstract_trace_is_pointwise_alpha_after_one_write(case, tag):
    """The second store is abstracted by re-slotting the bindings of the
    write that leads to it, however many: alpha runs once, on the first."""
    rho, w = case
    after = {k: v for k, v in {**rho, **dict(w)}.items() if v is not UNDEF}
    cmds = (Command("L0", Assign("x", Lit(0)), "L1"), Command("L1", Skip(), "L0"))
    r = Run(Store(rho), cmds, (w,), "budget")
    assert r.stores == (Store(rho), Store(after))
    dom = get_domain(tag)
    with mock.patch.object(dom, "alpha", wraps=dom.alpha) as alpha:
        abs_tr = hotpath.abstract_trace(r, tag)
    assert alpha.call_count == 1
    assert abs_tr == [(dom.alpha([Store(rho)]), cmds[0]), (dom.alpha([Store(after)]), cmds[1])]


# ---------------------------------------------------------------------------
# hot_n
# ---------------------------------------------------------------------------

def test_hot2_exact_set(loop_program, loop_run):
    hps = hot_n(loop_run, 2, "onepoint", loop_program)
    assert len(hps) == 2
    (hp1, c1), (hp2, c2) = hps
    assert (c1, c2) == (8, 4)
    assert [c.label for c in hp1.commands] == ["L1", "L2", "L3"]
    assert str(hp1.commands[2].action) == "!((x % 3) = 0)"
    assert [c.label for c in hp2.commands] == ["L1", "L2", "L3", "L4"]
    assert hp2.commands[2].succ == "L4"


def test_hot_threshold_antitone(loop_program, loop_run):
    for n in (2, 3, 4, 5, 9):
        lo = {hp.pairs for hp, _ in hot_n(loop_run, n, "onepoint", loop_program)}
        hi = {hp.pairs for hp, _ in hot_n(loop_run, n + 1, "onepoint", loop_program)}
        assert hi <= lo


def test_hot_high_threshold_empty(loop_program, loop_run):
    assert hot_n(loop_run, 100, "onepoint", loop_program) == []


def test_hot_invariants(loop_program, loop_run):
    for hp, _ in hot_n(loop_run, 2, "onepoint", loop_program):
        cmds = hp.commands
        assert cmds[-1].succ == cmds[0].label
        assert all(c.label != cmds[0].label for c in cmds[1:])


def test_hotpath_validation():
    c = Command("L", Skip(), "M")
    a = onepoint_domain.top()
    with pytest.raises(HotPathError):
        HotPath(((a, c),))  # no loop back
    with pytest.raises(HotPathError):
        HotPath(())


def test_sieve_first_hot_path(sieve_program, sieve_store):
    r = run(sieve_program, sieve_store, 5000)
    hp1 = hot_n(r, 2, "type", sieve_program)[0][0]
    assert [c.label for c in hp1.commands] == ["L4", "L5", "L6"]
    a = hp1.pairs[0][0]
    assert str(a) == "{i: Int, k: Int, primes: Bool[100]}"
    assert all(p[0] == a for p in hp1.pairs)


# ---------------------------------------------------------------------------
# hotcut / outerhot
# ---------------------------------------------------------------------------

def test_hotcut_identity_inside_original(loop_program, loop_run):
    assert hotcut(loop_run, loop_program) == loop_run


def test_hotcut_drops_middle_of_foreign_runs(loop_program):
    foreign = Command("F", Skip(), "F")
    keep = command_at(loop_program, "L0")
    states = [State(Store({"n": i}), foreign) for i in range(4)]
    states.append(State(Store({"n": 9}), keep))
    cut = hotcut(run_of(states), loop_program)
    assert [rho.get("n") for rho in cut.stores] == [0, 3, 9]


def test_hotcut_golden_after_extraction(loop_program, loop_run):
    hp1 = hot_n(loop_run, 2, "onepoint", loop_program)[0][0]
    p1 = extract(loop_program, hp1).transformed
    r1 = run(p1, Store(), 2000)
    cut = hotcut(r1, loop_program).states
    head = [(s.store.get("x"), s.command.label) for s in cut[:7]]
    st_ = extract(loop_program, hp1)
    entry_pos = st_.entry_label
    h5c_label = st_.body[2].label
    from tracelab.values import UNDEF
    assert head[0] == (UNDEF, "L0")
    assert head[1] == (0, entry_pos)
    assert head[2] == (3, h5c_label)
    assert head[3] == (3, "L4")
    assert head[4] == (6, entry_pos)
    assert head[5] == (9, h5c_label)
    assert head[6] == (9, "L4")
    # stores never change through the cut
    assert all(s.store.get("x") in (UNDEF, 0, 3, 6, 9, 12, 15, 18, 21, 24) for s in cut)


def test_outerhot_reduces_to_hot_on_same_program(loop_program, loop_run):
    a = hot_n(hotcut(loop_run, loop_program), 2, "onepoint", loop_program)
    b = hot_n(loop_run, 2, "onepoint", loop_program)
    assert [hp.pairs for hp, _ in a] == [hp.pairs for hp, _ in b]


def test_outerhot_finds_nested_path(loop_program, loop_run):
    hp1 = hot_n(loop_run, 2, "onepoint", loop_program)[0][0]
    st_ = extract(loop_program, hp1)
    r1 = run(st_.transformed, Store(), 2000)
    outer = hot_n(hotcut(r1, loop_program), 2, "onepoint", st_.transformed)
    labels = [tuple(c.label for c in hp.commands) for hp, _ in outer]
    assert (st_.entry_label, st_.body[2].label, "L4") in labels


def test_hotcut_never_changes_stores(loop_program, loop_run):
    hp1 = hot_n(loop_run, 2, "onepoint", loop_program)[0][0]
    p1 = extract(loop_program, hp1).transformed
    r1 = run(p1, Store(), 2000)
    cut = hotcut(r1, loop_program)
    # the cut is a subsequence of the input, states untouched
    it = iter(r1.states)
    assert all(any(s == t for t in it) for s in cut.states)
    from tracelab.observe import sc
    sc_cut, sc_full = sc(cut), sc(r1)
    it = iter(sc_full)
    assert all(any(x == y for y in it) for x in sc_cut)  # subsequence collapse


def test_hotcut_sc_equal_when_dropped_states_preserve_stores(loop_program):
    # a foreign run that never writes: sc survives the cut exactly
    foreign = Command("F", Skip(), "F")
    keep = command_at(loop_program, "L0")
    rho = Store({"n": 1})
    states = [State(rho, foreign) for _ in range(5)] + [State(rho, keep)]
    from tracelab.observe import sc
    assert sc(hotcut(run_of(states), loop_program)) == sc(run_of(states))


def _hotcut_by_deletion(states, original):
    """The reference definition: while the next three states are all outside
    the original program, delete the middle one; otherwise keep the first."""
    rest, out = list(states), []
    while rest:
        if len(rest) >= 3 and all(s.command not in original.commands for s in rest[:3]):
            del rest[1]
        else:
            out.append(rest.pop(0))
    return tuple(out)


@given(st.lists(st.booleans(), max_size=40))
def test_hotcut_agrees_with_the_deletion_definition(loop_program, inside):
    foreign = Command("F", Skip(), "F")
    keep = command_at(loop_program, "L0")
    states = [State(Store({"n": i}), keep if b else foreign) for i, b in enumerate(inside)]
    assert hotcut(run_of(states), loop_program).states == \
        _hotcut_by_deletion(states, loop_program)


# ---------------------------------------------------------------------------
# work done once per mining call
# ---------------------------------------------------------------------------

def test_one_topo_order_per_mining_call(dse_program, monkeypatch):
    from tracelab import pipeline
    stores = [Store({"x": x}) for x in (-3, -1, 0, 1)]
    runs = observe.runs(dse_program, stores, 200)
    want: dict = {}
    for r in runs:  # each trace numbered on its own, as hot_n does alone
        for hp, c in hot_n(r, 2, "type", dse_program):
            want.setdefault(hp, c)
    assert want
    calls = []
    real = hotpath.topo_order

    def counting(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(hotpath, "topo_order", counting)
    found = list(pipeline.mine(dse_program, dse_program, runs, 2, "type"))
    assert calls == [dse_program]
    assert found == list(want.items())


def test_abstract_trace_abstracts_each_store_object_once(sieve_program, sieve_store,
                                                         monkeypatch):
    """At most one ``alpha`` call per store object.  Every store of the sieve's
    run is its predecessor's with the binding the predecessor's command
    writes changed, so only the first store is abstracted whole: one call
    for the run's 413 store objects."""
    from tracelab.domains import type_domain
    r = run(sieve_program, sieve_store, 20000)
    states = r.states
    calls = []
    real = type_domain.alpha

    def counting(stores):
        calls.append(stores)
        return real(stores)

    monkeypatch.setattr(type_domain, "alpha", counting)
    abs_tr = hotpath.abstract_trace(r, "type")
    monkeypatch.undo()
    runs = 1 + sum(s.store is not t.store for t, s in zip(states, states[1:]))
    assert len(calls) <= runs < len(states)
    assert (len(calls), runs) == (1, 413)
    assert [c for _, c in abs_tr] == [s.command for s in states]
    for s, t, (a, _), (b, _) in zip(states, states[1:], abs_tr, abs_tr[1:]):
        if t.store is s.store:
            assert b is a
    # pointwise the old definition, so equal stores map to equal elements
    assert all(a == type_domain.alpha([s.store]) for s, (a, _) in zip(states, abs_tr))
