import pytest

from tracelab import observe, pipeline
from tracelab.extract import ExtractError, extract_gp, extract_nested
from tracelab.hotpath import hot_n, hotcut
from tracelab.lang import Guard, rename_equal, well_formed
from tracelab.observe import sc_equiv_check
from tracelab.optimize import optimize_full, type_specialize
from tracelab.semantics import Store, run
from tracelab.textio import parse_program
from tracelab.domains import onepoint_domain
from tests.conftest import LOOP_SRC, command_at


EXPECTED_LOOP_EXTRACTION = """
#entry L0
L0: x := 0 -> L1
slow: (x <= 20) -> L2
slow: !(x <= 20) -> L5
L1: guard onepoint {} -> e0
L1: !guard onepoint {} -> slow
e0: (x <= 20) -> b1
e0: !(x <= 20) -> L5
b1: guard onepoint {} -> e1
b1: !guard onepoint {} -> L2
e1: x := x + 1 -> b2
b2: guard onepoint {} -> e2
b2: !guard onepoint {} -> L3
e2: !((x % 3) = 0) -> L1
e2: ((x % 3) = 0) -> L4
L2: x := x + 1 -> L3
L3: ((x % 3) = 0) -> L4
L3: !((x % 3) = 0) -> L1
L4: x := x + 3 -> L1
L5: skip -> .
"""


@pytest.fixture(scope="module")
def loop_hp1(loop_program):
    r = run(loop_program, Store(), 1000)
    return hot_n(r, 2, "onepoint", loop_program)[0][0]


@pytest.fixture(scope="module")
def loop_p1(loop_program, loop_hp1):
    return extract_nested(loop_program, loop_hp1, loop_program)


def test_extract_matches_expected_set(loop_program, loop_p1):
    expected = parse_program(EXPECTED_LOOP_EXTRACTION)
    bij = rename_equal(loop_p1.transformed, expected)
    assert bij is not None
    # fresh labels map onto the hand-written ones
    assert bij[loop_p1.slow[0].label] == "slow"
    assert bij[loop_p1.body[0].label] == "e0"
    assert bij[loop_p1.guards[2][0].label] == "b2"


def test_extract_well_formed_and_deterministic(loop_p1):
    assert well_formed(loop_p1.transformed) == []


def test_extract_stitch_shape(loop_p1):
    st = loop_p1
    whole = st.stitched.union(*st.guards.values())  # the stitch, guard pairs included
    # entry guard pair sits at the path head label
    entries = [c for c in whole if c.label == st.guards[0][0].label]
    assert len(entries) == 2
    assert all(isinstance(c.action, Guard) for c in entries)
    # each fresh label labels at most a complement pair, and is targeted once
    labels = {}
    for c in whole:
        labels.setdefault(c.label, []).append(c)
    assert all(len(cs) <= 2 for cs in labels.values())
    for l in set(labels) - {st.guards[0][0].label}:
        preds = [c for c in whole if c.succ == l]
        assert len(preds) == 1
    # no stitched command loops back into an earlier stitched label except
    # the closing jump to the head
    order = {st.body[i].label: 2 * i for i in st.body} \
        | {st.guards[i][0].label: 2 * i - 1 for i in st.guards if i >= 1}
    for c in whole:
        if c.succ in order and c.label in order:
            assert order[c.succ] > order[c.label]


def test_extract_self_loop_single_command():
    p = parse_program("#entry L0\nL0: x := 1 -> L1\nL1: x := x + 1 -> L1\n")
    r = run(p, Store(), 50)
    hp = hot_n(r, 2, "onepoint", p)[0][0]
    assert len(hp) == 1
    st = extract_nested(p, hp, p)
    assert well_formed(st.transformed) == []
    # stitch is the entry guard pair plus one relabeled action closing the loop
    assert len(st.stitched) == 1 and len(st.stitched.union(*st.guards.values())) == 3
    body = st.body[0]
    assert body.succ == "L1"
    rep = sc_equiv_check(p, st.transformed, [Store()], 300)
    assert rep.passed


def test_extract_requires_commands_in_program(loop_program, cf_program):
    r = run(cf_program, Store(), 500)
    foreign = hot_n(r, 2, "onepoint", cf_program)[0][0]
    with pytest.raises(ExtractError):
        extract_nested(loop_program, foreign, loop_program)


def test_sieve_stitch_guards(sieve_program, sieve_store):
    r = run(sieve_program, sieve_store, 5000)
    hp1 = hot_n(r, 2, "type", sieve_program)[0][0]
    st = extract_nested(sieve_program, hp1, sieve_program)
    for c in st.stitched:
        if isinstance(c.action, Guard):
            assert str(c.action.store) == "{i: Int, k: Int, primes: Bool[100]}"
    assert well_formed(st.transformed) == []


# the exact guard pairs of LOOP_SRC's first stitch under type, and of the
# sieve's second round under type/ts, whose position 3 is the inner loop
LOOP_TYPE_PAIRS = {
    0: ("L1: guard type {x: Int} -> h0#1", "L1: !guard type {x: Int} -> bar_L1#1"),
    1: ("g1#1: guard type {x: Int} -> h1#1", "g1#1: !guard type {x: Int} -> L2"),
    2: ("g2#1: guard type {x: Int} -> h2#1", "g2#1: !guard type {x: Int} -> L3"),
}
SIEVE_STORE = "{i: Int, k: Int, primes: Bool[100]}"
SIEVE_ROUND2_PAIRS = {
    0: (f"L1: guard type {SIEVE_STORE} -> h0#2", f"L1: !guard type {SIEVE_STORE} -> bar_L1#2"),
    1: (f"g1#2: guard type {SIEVE_STORE} -> h1#2", f"g1#2: !guard type {SIEVE_STORE} -> L2"),
    4: (f"g4#2: guard type {SIEVE_STORE} -> h4#2", f"g4#2: !guard type {SIEVE_STORE} -> L7"),
}


def test_the_stitch_a_pass_sees_holds_no_guard(sieve_program, sieve_store):
    """``stitched``, what a pass sees, is the copies, the nested commands
    and the exits.  The pairs (``guards``) are built from the record, each
    testing its path store, and ``transformed`` holds them."""
    p = parse_program(LOOP_SRC)
    hp = next(pipeline.mine(p, p, observe.runs(p, [Store()], 2000), 2, "type"))[0]
    st1 = extract_nested(p, hp, p)
    p1 = optimize_full(sieve_program, _first_hot(sieve_program, sieve_program, sieve_store),
                       [type_specialize], sieve_program)
    st2 = extract_nested(p1, _first_hot(p1, sieve_program, sieve_store), sieve_program)
    assert list(st2.nested) == [3]  # the inner loop, stitched in round 1
    for st, pairs in ((st1, LOOP_TYPE_PAIRS), (st2, SIEVE_ROUND2_PAIRS)):
        assert not any(isinstance(c.action, Guard) for c in st.stitched)
        assert {i: tuple(map(str, pair)) for i, pair in st.guards.items()} == pairs
        assert all(c.action.store is st.hp.pairs[i][0] and c.action.positive is positive
                   for i, pair in st.guards.items() for c, positive in zip(pair, (True, False)))
        assert st.transformed.commands == st.outside | st.stitched.union(*st.guards.values(),
                                                                          st.slow)


def _first_hot(p, original, store):
    runs = observe.runs(p, [store], 20000)
    return next(pipeline.mine(p, original, runs, 2, "type"))[0]


# ---------------------------------------------------------------------------
# nested extraction
# ---------------------------------------------------------------------------

EXPECTED_NESTED = """
#entry L0
L0: x := 0 -> L1
slow: (x <= 20) -> L2
slow: !(x <= 20) -> L5
L1: guard onepoint {} -> e0
L1: !guard onepoint {} -> slow
e0: (x <= 20) -> b1
e0: !(x <= 20) -> L5
b1: guard onepoint {} -> e1
b1: !guard onepoint {} -> L2
e1: x := x + 1 -> b2
b2: guard onepoint {} -> e2
b2: !guard onepoint {} -> L3
e2: !((x % 3) = 0) -> L1
e2: ((x % 3) = 0) -> n2
n2: guard onepoint {} -> m2
n2: !guard onepoint {} -> L4
m2: x := x + 3 -> L1
L2: x := x + 1 -> L3
L3: ((x % 3) = 0) -> L4
L3: !((x % 3) = 0) -> L1
L4: x := x + 3 -> L1
L5: skip -> .
"""


def test_extract_nested_golden(loop_program, loop_hp1):
    p1 = extract_nested(loop_program, loop_hp1, loop_program).transformed
    r1 = run(p1, Store(), 2000)
    hp2 = hot_n(hotcut(r1, loop_program), 2, "onepoint", p1)[0][0]
    labels = [c.label for c in hp2.commands]
    st1 = extract_nested(loop_program, loop_hp1, loop_program)
    assert labels == [st1.guards[0][0].label, st1.body[2].label, "L4"]

    p2 = extract_nested(p1, hp2, loop_program).transformed
    assert well_formed(p2) == []
    # exactly the published delta: the nested exit is retargeted through a
    # fresh guard pair into a fresh copy of the only original-path command
    removed = p1.commands - p2.commands
    added = p2.commands - p1.commands
    assert len(removed) == 1 and len(added) == 4
    (gone,) = removed
    assert gone.label == st1.body[2].label and gone.succ == "L4"
    expected = parse_program(EXPECTED_NESTED)
    assert rename_equal(p2, expected) is not None


def test_extract_nested_degenerates_to_plain(loop_program, loop_hp1):
    a = extract_nested(loop_program, loop_hp1, loop_program).transformed
    b = extract_nested(loop_program, loop_hp1, loop_program).transformed
    assert a == b


def test_nested_extraction_correct(loop_program, loop_hp1):
    p1 = extract_nested(loop_program, loop_hp1, loop_program).transformed
    hp2 = hot_n(hotcut(run(p1, Store(), 2000), loop_program), 2, "onepoint", p1)[0][0]
    p2 = extract_nested(p1, hp2, loop_program).transformed
    initials = [Store()] + [Store({"x": v}) for v in (-5, 3, 19, 20, 21, 100)]
    rep = sc_equiv_check(loop_program, p2, initials, 3000)
    assert rep.passed


# ---------------------------------------------------------------------------
# while-language extraction
# ---------------------------------------------------------------------------

def _loop_paths(commands, p):
    """The command sequences of the loop paths of a trace, storeless and in
    first-occurrence order: the paths the while-language front end stitches."""
    from tracelab.hotpath import sloop, topo_order
    segments = sloop(commands, topo_order(p))
    return list(dict.fromkeys(commands[i:j + 1] for i, j in segments))


def test_extract_gp_identity_without_interior_conditionals():
    from tracelab.gp import GPCompiler
    from tracelab.textio import parse_gp_program
    stm = parse_gp_program("while x <= 5 do { x := x + 1; }")
    p = GPCompiler().compile(stm)
    r = run(p, Store({"x": 0}), 200)
    hp = _loop_paths(r.commands, p)[0]
    assert extract_gp(p, hp) == p


def test_extract_gp_adds_relabeled_chain(loop_program):
    from tracelab.gp import GPCompiler
    from tracelab.textio import parse_gp_program
    stm = parse_gp_program(
        "while x <= 20 do { x := x + 1; if (x % 3) = 0 then { x := x + 3; } }")
    p = GPCompiler().compile(stm)
    r = run(p, Store({"x": 0}), 500)
    hp = next(h for h in _loop_paths(r.commands, p) if len(h) == 4)
    q = extract_gp(p, hp)
    added = q.commands - p.commands
    assert len(added) == 6  # 4 copies + 2 complement exits
    assert well_formed(q) == []
    rep = sc_equiv_check(p, q, [Store({"x": 0}), Store({"x": 18})], 1000)
    assert rep.passed
    # the program is entered at the copy of the path head, so the check runs the chain
    fresh = q.labels() - p.labels()
    assert q.entry in fresh
    assert fresh <= {s.command.label for s in run(q, Store({"x": 0}), 1000).states}


def test_extract_gp_validates_path(loop_program):
    c0 = command_at(loop_program, "L0")
    with pytest.raises(ExtractError):
        extract_gp(loop_program, (c0,))


# ---------------------------------------------------------------------------
# properties over generated programs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(25))
def test_extraction_preserves_well_formedness(seed):
    from tracelab.gen import gen_program, gen_stores
    p = gen_program(seed)
    (rho,) = gen_stores(seed, p.vars(), 1)
    r = run(p, rho, 400)
    for hp, _ in hot_n(r, 2, "onepoint", p)[:2]:
        st = extract_nested(p, hp, p)
        assert well_formed(st.transformed) == []
        # stitched copies of repeated commands carry distinct labels
        body_labels = [c.label for c in st.body.values()]
        assert len(body_labels) == len(set(body_labels))


@pytest.mark.parametrize("seed, command", [
    (75, "h4#2: ((j % 3) = 1) -> s11"), (210, "bar_s5#1: skip -> s6")])
def test_a_path_leaving_a_stitched_command_twice_is_refused(seed, command):
    """With full guards (plain extraction, no slicing) the third round's hot
    path on these programs leaves one stitched command twice; retargeting it
    a second time would make its label nondeterministic."""
    from tracelab import gen, pipeline
    p = gen.gen_program(seed)
    stores = gen.gen_stores(seed, gen.SAMPLE_VARS, 4)
    current = p
    for _ in range(2):
        runs = observe.runs(current, stores, 2000)
        current = extract_nested(current, list(pipeline.mine(current, p, runs, 2, "type"))[0][0],
                                 p).transformed
    hp = list(pipeline.mine(current, p, observe.runs(current, stores, 2000), 2, "type"))[0][0]
    with pytest.raises(ExtractError) as e:
        extract_nested(current, hp, p)
    assert str(e.value) == f"hot path leaves the stitched command {command} twice"
