from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from tracelab import gen, observe, pipeline
from tracelab.domains import CPConst, CP_TOP, cp_domain, type_domain
from tracelab.extract import extract, extract_nested
from tracelab.hotpath import HotPath, hot_n
from tracelab.lang import (HALT, Add, AddTyped, Assign, Command, Guard, Lit, Program, Put, Skip,
                           Var, rename_equal, well_formed)
from tracelab.observe import out_equiv_check, sc_equiv_check
from tracelab.optimize import (OptimizeError, const_fold, dead_store_eliminate,
                               free_vars, optimize_full,
                               type_specialize, _rebody, _slice)
from tracelab.semantics import Store, run
from tracelab.textio import parse_program, print_program
from tracelab.values import BOOL, INT, TOP_T, TT
from tests.conftest import SHARED_EXIT_SRC, command_at
from tests.test_domains import _element_and_store
from tests.test_pipeline import ADDING_HELD_OUT, ADDING_LOOPS, ADDING_STORES


# ---------------------------------------------------------------------------
# type specialization
# ---------------------------------------------------------------------------

def _sieve_stitch(sieve_program, sieve_store):
    r = run(sieve_program, sieve_store, 5000)
    hp1 = hot_n(r, 2, "type", sieve_program)[0][0]
    return extract(sieve_program, hp1)


def test_sieve_specializes_the_addition(sieve_program, sieve_store):
    st = _sieve_stitch(sieve_program, sieve_store)
    new = type_specialize(st)
    changed = new - st.stitched
    (h5,) = changed
    assert h5.action == Assign("k", AddTyped(Var("k"), Var("i"), "Int"))
    assert h5.succ == "L4"
    assert h5.label == st.body[2].label
    assert len(st.stitched - new) == 1


def test_specialization_leaves_top_typed_adds_alone():
    src = """
#entry L0
L0: x := 0 -> L1
L1: (x <= 5) -> L2
L1: !(x <= 5) -> L3
L2: x := x + y -> L1
L3: skip -> .
"""
    p = parse_program(src)
    r = run(p, Store({"y": 1}), 200)
    hp = hot_n(r, 2, "onepoint", p)[0][0]
    # rebuild the same path with type guards mapping y to Top
    pairs = tuple((type_domain.make({"x": INT, "y": TOP_T}), c) for _, c in hp.pairs)
    hp_t = HotPath(pairs)
    st = extract(p, hp_t)
    assert type_specialize(st) == st.stitched  # x + y stays generic under Top


def test_specialization_string_case():
    src = """
#entry L0
L0: a := "x" -> L1
L1: (n <= 3) -> L2
L1: !(n <= 3) -> L4
L2: y := a + b -> L3
L3: n := n + 1 -> L1
L4: skip -> .
"""
    p = parse_program(src)
    r = run(p, Store({"n": 0, "b": "q"}), 200)
    hp = hot_n(r, 2, "type", p)[0][0]
    st = extract(p, hp)
    new = type_specialize(st)
    specialized = {str(c.action) for c in new - st.stitched}
    assert "y := (a +Str b)" in specialized
    assert "n := (n +Int 1)" in specialized


def test_type_specialize_requires_type_guards(loop_program):
    r = run(loop_program, Store(), 500)
    hp = hot_n(r, 2, "onepoint", loop_program)[0][0]
    st = extract(loop_program, hp)
    with pytest.raises(OptimizeError):
        type_specialize(st)


def test_specialized_additions_agree_under_their_guards(sieve_program, sieve_store):
    """Instrumented run: whenever a specialized assignment executes, the
    generic addition would have produced the same value."""
    from tracelab.semantics import eval_expr
    st = _sieve_stitch(sieve_program, sieve_store)
    p1 = optimize_full(sieve_program, st.hp, [type_specialize], sieve_program)
    r = run(p1, sieve_store, 8000)
    seen = 0
    for s in r.states:
        a = s.command.action
        if isinstance(a, Assign) and isinstance(a.expr, AddTyped):
            generic = Add(a.expr.left, a.expr.right)
            assert eval_expr(generic, s.store) == eval_expr(a.expr, s.store)
            seen += 1
    assert seen > 50


# ---------------------------------------------------------------------------
# constant folding
# ---------------------------------------------------------------------------

def _cf_hot_path(cf_program):
    """The constant-a fast-branch path, with its published cp guards."""
    a = cp_domain.make({"x": CP_TOP, "a": CPConst(2)})
    c2 = command_at(cf_program, "L2", lambda c: not str(c.action).startswith("!"))
    c3 = command_at(cf_program, "L3", lambda c: not str(c.action).startswith("!"))
    c4 = command_at(cf_program, "L4")
    return HotPath(((a, c2), (a, c3), (a, c4)))


def test_cf_golden(cf_program):
    hp = _cf_hot_path(cf_program)
    st = extract(cf_program, hp)
    new = const_fold(st)
    (folded,) = new - st.stitched
    assert folded.action == Assign("x", Add(Var("x"), Lit(2)))
    assert folded.label == st.body[2].label
    assert folded.succ == "L2"


def test_cf_never_touches_assigned_variables(cf_program):
    hp = _cf_hot_path(cf_program)
    st = extract(cf_program, hp)
    fv = free_vars(st.stitched)
    assert "a" in fv and "x" not in fv
    new = const_fold(st)
    for c in new:
        if isinstance(c.action, Assign):
            assert "x" not in {str(e) for e in [c.action.expr] if isinstance(e, Lit)}


def test_cf_substitutes_all_constant_frees():
    src = """
#entry L0
L0: x := 0 -> L1
L1: (x <= 9) -> L2
L1: !(x <= 9) -> L3
L2: x := x + a + b -> L1
L3: skip -> .
"""
    p = parse_program(src)
    a = cp_domain.make({"x": CP_TOP, "a": CPConst(2), "b": CPConst(3)})
    c1 = command_at(p, "L1", lambda c: not str(c.action).startswith("!"))
    c2 = command_at(p, "L2")
    hp = HotPath(((a, c1), (a, c2)))
    st = extract(p, hp)
    (folded,) = const_fold(st) - st.stitched
    # both constant frees substituted simultaneously (substitution oracle)
    from tracelab.lang import subst_expr
    assert folded.action.expr == subst_expr(c2.action.expr, {"a": 2, "b": 3})


def test_cf_requires_cp_guards(loop_program):
    r = run(loop_program, Store(), 500)
    hp = hot_n(r, 2, "onepoint", loop_program)[0][0]
    with pytest.raises(OptimizeError):
        const_fold(extract(loop_program, hp))


def test_cf_full_correct(cf_program):
    hp = _cf_hot_path(cf_program)
    p1 = optimize_full(cf_program, hp, [const_fold], cf_program)
    assert well_formed(p1) == []
    initials = [Store()] + [Store({"x": v}) for v in (-2, 1, 5, 6, 16)] \
        + [Store({"a": v}) for v in (0, 7)] + [Store({"x": 3, "a": 9}), Store({"x": "s"})]
    rep = sc_equiv_check(cf_program, p1, initials, 2000)
    assert rep.passed


def test_free_vars_basics():
    c = Command("L", Assign("x", Add(Var("y"), Lit(1))), "M")
    assert free_vars([c]) == {"y"}
    assert free_vars([]) == frozenset()


# ---------------------------------------------------------------------------
# dead store elimination
# ---------------------------------------------------------------------------

def _dse_stitch(dse_program):
    r = run(dse_program, Store({"x": -4, "z": 7}), 400)
    hp = hot_n(r, 2, "onepoint", dse_program)[0][0]
    assert [str(c.action) for c in hp.commands] == \
        ["(x <= 0)", "z := 0", "x := (x + 1)", "z := 1"]
    return extract(dse_program, hp)


def test_dse_removes_the_dead_store(dse_program):
    """dse deletes the copy of z := 0 and changes nothing else: every command
    it keeps is a command of the stitch, successor included."""
    st = _dse_stitch(dse_program)
    new = dead_store_eliminate(st)
    assert new < st.stitched and st.stitched - new == {st.body[1]}
    assert str(st.body[1].action) == "z := 0"


def test_dse_blocked_by_read():
    src = """
#entry L1
L1: (x <= 0) -> L2
L1: !(x <= 0) -> L5
L2: z := 0 -> L3
L3: x := x + z -> L4
L4: z := 1 -> L1
L5: put {x, z} -> L6
L6: skip -> .
"""
    p = parse_program(src)
    r = run(p, Store({"x": -4, "z": 0}), 400)
    hp = hot_n(r, 2, "onepoint", p)[0][0]
    st = extract(p, hp)
    assert dead_store_eliminate(st) == st.stitched


def test_dse_blocked_by_exit_before_reassignment(dse_program):
    # drop the trailing z := 1 from the loop: now z escapes through the exit
    src = """
#entry L1
L1: (x <= 0) -> L2
L1: !(x <= 0) -> L5
L2: z := 0 -> L3
L3: x := x + 1 -> L1
L5: put {x, z} -> L6
L6: skip -> .
"""
    p = parse_program(src)
    r = run(p, Store({"x": -4}), 400)
    hp = hot_n(r, 2, "onepoint", p)[0][0]
    st = extract(p, hp)
    assert dead_store_eliminate(st) == st.stitched


def test_dse_steps_over_a_nested_command():
    """In the loop ``z := 1; y := 2; z := 3``, ``y := 2`` is missing from
    the original, so the stitch nests it (retargets it, with no copy and no
    guard pair).  The walk from the copy of ``z := 1`` steps over it to the
    copy of ``z := 3``, so dse deletes ``z := 1``."""
    p = parse_program("""
#entry L0
L0: (i <= 5) -> L1
L0: !(i <= 5) -> L5
L1: z := 1 -> L2
L2: y := 2 -> L3
L3: z := 3 -> L4
L4: i := i + 1 -> L0
L5: put {i, y, z} -> .
""")
    y2 = command_at(p, "L2")
    original = Program(p.commands - {y2}, p.entry, p.arrays)
    hp = hot_n(run(p, Store({"i": 0}), 2000), 2, "onepoint", p)[0][0]
    st = extract_nested(p, hp, original)
    assert list(st.nested.values()) == [Command("L2", y2.action, st.guards[3][0].label)]
    assert [str(st.body[i].action) for i in (1, 3)] == ["z := 1", "z := 3"]
    assert st.stitched - dead_store_eliminate(st) == {st.body[1]}


def test_dse_is_out_sound_but_not_sc_sound(dse_program):
    st = _dse_stitch(dse_program)
    p1 = optimize_full(dse_program, st.hp, [dead_store_eliminate], dse_program)
    assert well_formed(p1) == []
    initials = [Store({"x": -4, "z": 7}), Store({"x": -9, "z": 0}), Store({"x": 1, "z": 2})]
    assert not sc_equiv_check(dse_program, p1, initials, 2000).passed
    assert out_equiv_check(dse_program, p1, initials, 2000, {"x", "z"}).passed


DSE_GOLDEN = Path(__file__).parent / "golden" / "dse_gen.txt"


def test_dse_on_generated_programs_matches_its_golden():
    """Among gen seeds 0-999 (onepoint, 4 stores, 3 rounds of mining and
    ``optimize_full`` with dse), dse removes a store on these two only, each
    in the first round: a store is dead only if it cannot stick, which takes
    a literal right-hand side.  The final programs are pinned with every
    universal guard pair bypassed and the code only the pairs reached
    dropped."""
    golden = {}
    for part in DSE_GOLDEN.read_text().split("; seed ")[1:]:
        head, text = part.split("\n", 1)
        seed, names = head.split()
        golden[int(seed), names] = text
    assert sorted(golden) == [(362, "dse"), (992, "dse")]
    for (seed, names), text in golden.items():
        p = gen.gen_program(seed)
        stores = gen.gen_stores(seed, gen.SAMPLE_VARS, 4)
        removed = []

        def dse(st):
            new = dead_store_eliminate(st)
            removed.append(len(st.stitched) - len(new))
            return new

        current = p
        for _ in range(3):
            runs = observe.runs(current, stores, 2000)
            found = list(pipeline.mine(current, p, runs, 2, "onepoint"))
            if not found:
                break
            current = optimize_full(current, found[0][0], [dse] * len(names.split(",")), p)
        assert any(removed), seed
        assert print_program(current) == text, (seed, names)


def test_a_store_that_can_stick_is_not_dead():
    """Gen seed 113 with a put of z at its halting command: the loop's
    ``w := (w + 3)`` is overwritten before any read, but from ``{x: 2}`` it
    sticks the original run on the unbound w.  Deleting it let the optimized
    run go on and put another z, so dse keeps it and every verdict passes."""
    p = gen.gen_program(113)
    (halt,) = [c for c in p.commands if c.succ == HALT]
    p = p.replace(remove=[halt], add=[Command(halt.label, Put(frozenset({"z"})), HALT)])
    stores = [Store({"x": 2}), Store({"x": 2, "w": 1}), Store({"x": 3, "w": 1}),
              Store({"x": 0, "w": 1})]
    for rounds in (1, 3):
        rep = pipeline.pipeline(p, stores, "onepoint", 2, 2000, ["dse"], rounds, frozenset({"z"}))
        assert rep.hotpaths and [v.passed for v in rep.check.verdicts] == [True] * 4, rounds
        assert "w := (w + 3)" in {str(c.action) for c in rep.program.commands}


@pytest.mark.parametrize("between, kept", [("put {z}", True), ("skip", False)])
def test_a_put_reads_the_store_before_it(between, kept):
    """``z := 2`` overwrites ``z := 1``, so dse deletes ``z := 1`` unless the
    put between them reads it; the out check passes either way."""
    p = parse_program(f"""
#entry L0
L0: (i <= 5) -> L1
L0: !(i <= 5) -> L5
L1: z := 1 -> L2
L2: {between} -> L3
L3: z := 2 -> L4
L4: i := i + 1 -> L0
L5: put {{z}} -> .
""")
    rep = pipeline.pipeline(p, [Store({"i": 0})], "onepoint", 2, 2000, ["dse"], 1,
                            frozenset({"z"}))
    assert rep.hotpaths and [v.passed for v in rep.check.verdicts] == [True]
    assert ("z := 1" in {str(c.action) for c in rep.program.commands}) == kept


def test_the_bypass_follows_a_chain_of_pairs():
    """dse deletes the copies of the literal stores z := 1 and z := 2, which
    z := 3 overwrites.  Every pair is universal (onepoint) and dropped, so the
    route from the test at copy 0 runs through pair 1, copy 1, pair 2, copy 2
    and pair 3, and the test jumps straight to copy 3."""
    p = parse_program("""
#entry L0
L0: (i <= 5) -> L1
L0: !(i <= 5) -> L5
L1: z := 1 -> L2
L2: z := 2 -> L3
L3: z := 3 -> L4
L4: i := i + z -> L0
L5: put {i} -> .
""")
    hp = list(pipeline.mine(p, p, observe.runs(p, [Store({"i": 0})], 2000), 2, "onepoint"))[0][0]
    st = extract(p, hp)
    assert [str(c.action) for c in hp.commands[1:4]] == ["z := 1", "z := 2", "z := 3"]
    p1 = optimize_full(p, hp, [dead_store_eliminate], p)
    assert Command(st.body[0].label, st.body[0].action, st.body[3].label) in p1.commands
    assert not p1.labels() & {st.body[1].label, st.body[2].label}
    assert well_formed(p1) == [] and not any(isinstance(c.action, Guard) for c in p1.commands)
    initials = [Store({"i": v}) for v in (-7, 0, 5, 6)] + [Store({"i": 0, "z": "a"})]
    assert out_equiv_check(p, p1, initials, 2000, {"i"}).passed


def test_a_cycle_of_bypassed_pairs_keeps_its_first_pair():
    """dse deletes both stores of a branchless loop, so each positive guard
    jumps to the next pair and the chain closes on itself.  The head's pair,
    first in path order, is kept and jumps to itself; the run loops on it to
    the end of its budget, as the original does."""
    p = parse_program("""
#entry L0
L0: x := 1 -> L1
L1: x := 2 -> L0
""")
    hp = hot_n(run(p, Store(), 50), 2, "onepoint", p)[0][0]
    p1 = optimize_full(p, hp, [dead_store_eliminate], p)
    assert well_formed(p1) == [] and p1.entry == "L0"
    assert {str(c) for c in p1.at("L0")} == {"L0: guard onepoint {} -> L0",
                                             "L0: !guard onepoint {} -> bar_L0#1"}
    assert run(p1, Store(), 20).truncated


@pytest.mark.parametrize("entry", ["", "S: i := 0 -> L0\n"], ids=["bare", "assigned"])
@pytest.mark.parametrize("domain, passes", [("type", ["ts"]), ("type", []), ("onepoint", [])],
                         ids=["type-ts", "type", "onepoint"])
def test_a_loop_of_skips_keeps_its_first_pair(entry, domain, passes):
    """Every copy of a loop of skips is routed around, so the route from the
    head's pair closes on itself: the pair is kept with the universal store
    and jumps to itself.  The final program is well-formed, passes sc, and
    runs to the end of its budget, as the original does."""
    p = parse_program(f"#entry {'S' if entry else 'L0'}\n{entry}L0: skip -> L1\nL1: skip -> L0\n")
    stores = [Store(), Store({"i": "a"})]
    rep = pipeline.pipeline(p, stores, domain, 2, 50, passes, 3)
    assert rep.hotpaths and well_formed(rep.program) == [] and rep.check.passed
    top = rep.program.at("L0")[0].action.store
    assert top.domain.is_universal(top)
    assert Command("L0", Guard(top, True), "L0") in rep.program.commands
    assert all(len(run(rep.program, rho, 50)) == 50 for rho in stores)


# ---------------------------------------------------------------------------
# optimize_full composition
# ---------------------------------------------------------------------------

def test_identity_optimization_equals_extraction(loop_program):
    """With no pass every onepoint pair is universal: the result is the
    extraction with each pair bypassed (whatever jumped to it jumps to its
    positive guard's successor) and without what only the pairs reached, the
    slow head copies and the original L2 and L3.  That is the original loop
    under the stitch's labels."""
    r = run(loop_program, Store(), 500)
    hp = hot_n(r, 2, "onepoint", loop_program)[0][0]
    st = extract(loop_program, hp)
    skip = {yes.label: yes.succ for yes, _ in st.guards.values()}
    dropped = set(skip) | {c.label for c in st.slow} | {"L2", "L3"}
    expected = Program(frozenset(Command(c.label, c.action, skip.get(c.succ, c.succ))
                                 for c in st.transformed.commands if c.label not in dropped),
                       st.transformed.entry)
    p1 = optimize_full(loop_program, hp, [], loop_program)
    assert p1 == expected
    assert rename_equal(loop_program, p1) == {"L0": "L0", "L1": st.body[0].label,
                                              "L2": st.body[1].label, "L3": st.body[2].label,
                                              "L4": "L4", "L5": "L5"}


def test_boundary_violations_are_rejected(loop_program):
    r = run(loop_program, Store(), 500)
    hp = hot_n(r, 2, "onepoint", loop_program)[0][0]

    def drops_entry(st):
        return frozenset(c for c in st.stitched if c.label != st.guards[0][0].label)

    def drops_exit(st):  # the path's last test keeps its copy and loses its complement
        return st.stitched - {st.exits[2]}

    def drops_negative_guard(st):  # an interior pair keeps only its positive guard
        return st.stitched - {st.guards[1][1]}

    def invents_exit(st):
        c = next(iter(st.body.values()))
        return (st.stitched - {c}) | {Command(c.label, c.action, "ELSEWHERE")}

    def rewires_inside(st):  # the first copy jumps past its successor's guard pair
        c = st.body[0]
        return (st.stitched - {c}) | {Command(c.label, c.action, st.body[1].label)}

    def adds_a_label(st):
        return st.stitched | {Command("FRESH", Skip(), st.body[0].label)}

    for bad in (drops_entry, drops_exit, drops_negative_guard, invents_exit, rewires_inside,
                adds_a_label):
        with pytest.raises(OptimizeError):
            optimize_full(loop_program, hp, [bad], loop_program)


def test_a_copy_is_told_from_an_exit_with_its_label_and_successor():
    """Both branches of L2 jump to the head, so the last copy and its exit
    share a label and a successor.  A pass's copies are still found by them,
    and the unrewritten branch is not taken for a rewrite that needs a guard:
    the specialized addition's pair is implied by (x <= 10), and no pair is
    left, where a test (y <= 0) taken for rewritten would keep {y: Int}."""
    p = parse_program(SHARED_EXIT_SRC)
    hp = list(pipeline.mine(p, p, observe.runs(p, [Store({"x": 0, "y": 1})], 500), 2, "type"))[0][0]
    st = extract(p, hp)
    assert (st.exits[2].label, st.exits[2].succ) == (st.body[2].label, st.body[2].succ)
    assert _rebody(st, st.stitched) == st.body
    p1 = optimize_full(p, hp, [type_specialize], p)
    assert Command(st.body[1].label, Assign("x", AddTyped(Var("x"), Lit(1), "Int")),
                   st.body[2].label) in p1.commands
    assert _guards(p1) == {}


def test_sieve_full_specialization_correct(sieve_program, sieve_store):
    st = _sieve_stitch(sieve_program, sieve_store)
    p1 = optimize_full(sieve_program, st.hp, [type_specialize], sieve_program)
    # the entry pair is universal and bypassed: the copy loops straight to the head copy
    expected_h5 = Command(st.body[2].label, Assign("k", AddTyped(Var("k"), Var("i"), "Int")),
                          st.body[0].label)
    assert expected_h5 in p1.commands
    rep = sc_equiv_check(sieve_program, p1, [sieve_store], 8000)
    assert rep.passed


# ---------------------------------------------------------------------------
# guard slicing
# ---------------------------------------------------------------------------

def _guards(p):
    return {c.label: c.action.store for c in p.commands if isinstance(c.action, Guard)}


def test_only_the_rewritten_copy_keeps_a_guard(sieve_program, sieve_store):
    """On the sieve only k := k + i is specialized: its guard keeps the types
    of k and i over a Top default, and every other pair is universal, so it
    is bypassed and only the kept pair is left."""
    st = _sieve_stitch(sieve_program, sieve_store)
    p1 = optimize_full(sieve_program, st.hp, [type_specialize], sieve_program)
    assert {label: str(a) for label, a in _guards(p1).items()} == \
        {st.guards[2][0].label: "{i: Int, k: Int, *: Top}"}


@given(_element_and_store(), st.sets(st.sampled_from(("x", "y", "z", "primes", "w"))))
def test_a_sliced_guard_contains_what_the_full_guard_contains(case, reads):
    """Slicing only weakens (every store the full guard admits still enters),
    and it keeps what the rewrite relies on: each read variable's slot."""
    dom, a, store = case
    sliced = _slice(a, frozenset(reads))
    assert dom.leq(a, sliced)
    assert all(sliced.get(x) == a.get(x) for x in reads)
    if dom.contains(a, store):
        assert dom.contains(sliced, store)


def test_an_array_read_keeps_the_members_of_its_family():
    a = type_domain.make({"i": INT, "primes_0": BOOL, "primes_1": BOOL, "k": INT})
    sliced = _slice(a, frozenset({"primes", "i"}))
    assert [sliced.get(x) for x in ("i", "primes_0", "primes_1", "k")] == [INT, BOOL, BOOL, TOP_T]


def test_a_rewrite_of_a_nested_command_is_refused(sieve_program, sieve_store):
    """A command of a previously stitched path is not a copy, and a pass may
    rewrite copies only: rewriting one breaks the pass contract."""
    p1 = optimize_full(sieve_program, _sieve_stitch(sieve_program, sieve_store).hp,
                       [type_specialize], sieve_program)
    runs = observe.runs(p1, [sieve_store], 20000)
    hp2 = list(pipeline.mine(p1, sieve_program, runs, 2, "type"))[0][0]

    def rewrites_nested(st):
        nested = set(st.nested.values())
        assert nested
        return (st.stitched - nested) | {Command(c.label, Skip(), c.succ) for c in nested}

    with pytest.raises(OptimizeError):
        optimize_full(p1, hp2, [rewrites_nested], sieve_program)


# ---------------------------------------------------------------------------
# implied guards: one abstract walk of each stitch
# ---------------------------------------------------------------------------

def test_a_pair_implied_by_the_entry_pair_is_dropped():
    """Both copies are specialized and both slices are {x: Int}.  The walk
    meets top with the entry pair's slice, and x := (x +Int 1) keeps x an Int,
    so the second pair is implied and goes; the entry pair stays."""
    p = parse_program("""
#entry L0
L0: x := 0 -> L1
L1: x := x + 1 -> L2
L2: y := x + x -> L3
L3: (x <= 20) -> L1
L3: !(x <= 20) -> L4
L4: skip -> .
""")
    hp = list(pipeline.mine(p, p, observe.runs(p, [Store()], 2000), 2, "type"))[0][0]
    st = extract(p, hp)
    assert [str(c.action) for c in hp.commands] == ["x := (x + 1)", "y := (x + x)", "(x <= 20)"]
    p1 = optimize_full(p, hp, [type_specialize], p)
    assert {label: str(a) for label, a in _guards(p1).items()} == \
        {st.guards[0][0].label: "{x: Int, *: Top}"}
    assert Command(st.body[0].label, Assign("x", AddTyped(Var("x"), Lit(1), "Int")),
                   st.body[1].label) in p1.commands
    assert well_formed(p1) == []
    initials = [Store(), Store({"x": "a"}), Store({"y": "b"}), Store({"x": 1, "y": 2})]
    assert sc_equiv_check(p, p1, initials, 2000).passed


def test_a_previously_stitched_command_resets_the_walk():
    """The inner loop is stitched in the first round.  In the second, the
    outer path runs through it between m := (m +Int 1) and j := (m +Int m),
    whose slices are the same {m: Int}; no test reads m, and the pair of
    i := (i +Int 1) is implied by (i <= 20).  The nested commands have no
    guard pair and may do anything to m, so the walk starts again from top
    there, and the pair of j is neither implied nor folded into m's."""
    p = parse_program("""
#entry L0
L0: i := 0 -> L1
L1: (i <= 20) -> L2
L1: !(i <= 20) -> L9
L2: i := i + 1 -> L7
L7: m := m + 1 -> L3
L3: k := 0 -> L4
L4: (k <= 5) -> L5
L4: !(k <= 5) -> L6
L5: k := k + 1 -> L4
L6: j := m + m -> L1
L9: skip -> .
""")
    hp1 = list(pipeline.mine(p, p, observe.runs(p, [Store({"m": 0})], 2000), 2, "type"))[0][0]
    p1 = optimize_full(p, hp1, [type_specialize], p)
    hp = list(pipeline.mine(p1, p, observe.runs(p1, [Store({"m": 0})], 2000), 2, "type"))[0][0]
    st = extract_nested(p1, hp, p)
    assert [i for i in range(len(hp.commands)) if i not in st.guards] == [3, 4]
    p2 = optimize_full(p1, hp, [type_specialize], p)
    assert {label: str(a) for label, a in _guards(p2).items() if label not in _guards(p1)} == \
        {st.guards[2][0].label: "{m: Int, *: Top}", st.guards[5][0].label: "{m: Int, *: Top}"}
    assert well_formed(p2) == []
    initials = [Store({"m": 0}), Store({"i": 15, "m": 1}), Store({"m": "a"}), Store()]
    assert sc_equiv_check(p, p2, initials, 2000).passed


def test_generated_programs_keep_few_guards():
    """Under type/ts with 3 rounds on gen 0-29 every final program is
    well-formed and passes sc, and 30 kept pairs are left in all (81 when a
    test left the walk as it was and no pair folded, 192 with only the
    universal pairs dropped); the final runs from the sample stores take
    1,266 guard steps (3,257 then)."""
    kept = guard_states = 0
    for seed in range(30):
        stores = gen.gen_stores(seed, gen.SAMPLE_VARS, 4)
        rep = pipeline.pipeline(gen.gen_program(seed), stores, "type", 2, 2000, ["ts"], 3)
        assert well_formed(rep.program) == [] and rep.check.passed, seed
        kept += len(_guards(rep.program))
        guard_states += sum(isinstance(c.action, Guard)
                            for r in observe.runs(rep.program, stores, 2000) for c in r.commands)
    assert (kept, guard_states) == (30, 1266)


def test_a_passed_test_implies_the_guard_of_its_operand():
    """Gen seed 0 adds 2 to w and 1 to i while (i <= 10).  A store that
    passes the test has an Int i, so the pair of i := (i +Int 1) is implied
    and only w's pair is left."""
    rep = pipeline.pipeline(gen.gen_program(0), gen.gen_stores(0, gen.SAMPLE_VARS, 4), "type", 2,
                            2000, ["ts"], 3)
    assert sorted(map(str, _guards(rep.program).values())) == ["{w: Int, *: Top}"]


TWO_SUMS_SRC = """
#entry L0
L0: i := 0 -> L1
L1: (i <= 6) -> L2
L1: !(i <= 6) -> L5
L2: x := (x + 1) -> L3
L3: y := (y + 1) -> L4
L4: i := (i + 1) -> L1
L5: skip -> .
"""


def test_two_kept_pairs_fold_into_one():
    """x := (x +Int 1) and y := (y +Int 1) need {x: Int} and {y: Int}, which
    no test implies; nothing between the two pairs writes y, so the first
    pair tests both slices and the second goes."""
    p = parse_program(TWO_SUMS_SRC)
    hp = list(pipeline.mine(p, p, observe.runs(p, [Store({"x": 0, "y": 0})], 500), 2, "type"))[0][0]
    st = extract(p, hp)
    assert [str(c.action) for c in hp.commands] == \
        ["(i <= 6)", "x := (x + 1)", "y := (y + 1)", "i := (i + 1)"]
    p1 = optimize_full(p, hp, [type_specialize], p)
    assert {label: str(a) for label, a in _guards(p1).items()} == \
        {st.guards[1][0].label: "{x: Int, y: Int, *: Top}"}
    assert well_formed(p1) == []
    initials = [Store({"x": 0, "y": 0}), Store({"x": 0, "y": "a"}), Store({"x": "a", "y": 0}),
                Store({"x": 0})]
    assert sc_equiv_check(p, p1, initials, 2000).passed


def test_no_pair_folds_across_a_copy_that_writes_its_operand():
    """x := (x + x), then x := y, then w := (x + x): both additions need
    {x: String}, but x := y writes x between them, so the second pair stays
    (folded into the first, it would let {x: "a", y: 1} reach w := (x +Str x))."""
    p = parse_program(ADDING_LOOPS[3])
    rep = pipeline.pipeline(p, [Store(s) for s in ADDING_STORES["str"]], "type", 2, 2000, ["ts"], 3)
    assert sorted(map(str, _guards(rep.program).values())) == ["{x: String, *: Top}"] * 2
    held_out = [Store(s) for s in ADDING_HELD_OUT]
    assert sc_equiv_check(p, rep.program, held_out, 2000).passed


def test_no_pair_folds_across_a_previously_stitched_command():
    """The inner loop, stitched in the first round, writes y := s.  In the
    second, j := (y +Int y) needs {y: Int} after it, which the pair of
    m := (m +Int 1) before it cannot test: the nested commands may change
    y's class (from {y: 1, s: "a"} they make it a String).  The walk starts
    again after them, and i := (i +Int 1)'s pair folds into j's."""
    p = parse_program("""
#entry L0
L0: i := 0 -> L1
L1: (i <= 20) -> L2
L1: !(i <= 20) -> L9
L2: m := m + 1 -> L3
L3: k := 0 -> L4
L4: (k <= 5) -> L5
L4: !(k <= 5) -> L6
L5: y := s -> L8
L8: k := k + 1 -> L4
L6: j := y + y -> L7
L7: i := i + 1 -> L1
L9: skip -> .
""")
    rep = pipeline.pipeline(p, [Store({"m": 0, "y": 1, "s": 2})], "type", 2, 2000, ["ts"], 3)
    assert len(rep.hotpaths) == 2
    assert sorted(map(str, _guards(rep.program).values())) == \
        ["{i: Int, y: Int, *: Top}", "{m: Int, *: Top}"]
    held_out = [Store({"m": 0, "y": 1, "s": "a"}), Store({"m": 0, "y": 1, "s": 2})]
    assert sc_equiv_check(p, rep.program, held_out, 2000).passed
