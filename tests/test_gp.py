import pytest

from tracelab import gp
from tracelab.extract import extract_gp
from tracelab.gp import (EMPTY, GAssign, GBail, GIf, GPCompiler, GPError,
                         GPState, GSkip, GWhile, gp_equivalence_check,
                         gp_record_hot_path, gp_run, gp_step, gp_trace_step)
from tracelab.lang import (Add, Eq, Leq, Lit, Mod, Program, Var, rename_equal,
                           well_formed)
from tracelab.observe import sc
from tracelab.semantics import Store, fires, run
from tracelab.textio import parse_gp_program, parse_program
from tracelab.values import UNDEF
from tests.conftest import run_of
from tests.oracles import step, trace_linked

QW_SRC = "while x <= 20 do { x := x + 1; if (x % 3) = 0 then { x := x + 3; } }"

EX_COMPILE_SRC = """
x := 0;
while B1_dummy <= 0 do { x := 1; }
x := 2;
bail B2_dummy <= 0 to { x := 3; }
x := 4;
"""


@pytest.fixture(scope="module")
def qw():
    return parse_gp_program(QW_SRC)


# ---------------------------------------------------------------------------
# baseline semantics
# ---------------------------------------------------------------------------

def test_gp_step_empty_sticks():
    assert gp_step(GPState(Store(), EMPTY)) is None


def test_gp_step_while_unfolds(qw):
    s = gp_step(GPState(Store({"x": 0}), qw))
    (head, *rest) = s.stm
    assert isinstance(head, GIf)
    assert head.test == qw[0].test
    assert head.body[-1] == qw[0]
    assert tuple(rest) == ()


def test_gp_step_bail_true_discards_continuation():
    prog = (GBail(Leq(Lit(0), Lit(1)), (GSkip(),)), GAssign("x", Lit(1)))
    s = gp_step(GPState(Store(), prog))
    assert s.stm == (GSkip(),)


def test_gp_step_bail_false_continues():
    prog = (GBail(Leq(Lit(2), Lit(1)), (GSkip(),)), GAssign("x", Lit(1)))
    s = gp_step(GPState(Store(), prog))
    assert s.stm == (GAssign("x", Lit(1)),)


def test_gp_step_sticks_on_undef():
    assert gp_step(GPState(Store(), (GIf(Leq(Var("u"), Lit(1)), EMPTY),))) is None
    assert gp_step(GPState(Store(), (GAssign("x", Add(Var("u"), Lit(1))),))) is None


def test_gp_run_terminates(qw):
    r = gp_run(qw, Store({"x": 0}), 500)
    assert not r.truncated
    assert r.states[-1].stm == EMPTY
    assert r.states[-1].store == Store({"x": 24})


# ---------------------------------------------------------------------------
# compilation
# ---------------------------------------------------------------------------

def test_compile_empty():
    p = GPCompiler().compile(EMPTY)
    assert len(p.commands) == 1
    (c,) = p.commands
    assert str(c.action) == "skip" and c.succ == "."


def test_compile_straightline_with_bail():
    stm = parse_gp_program(EX_COMPILE_SRC)
    p = GPCompiler().compile(stm)
    assert len(p.commands) == 11
    assert well_formed(p) == []
    # the bail's taken branch lands in a fresh statement whose continuation
    # terminates: both x:=3 and x:=4 flow into the empty-program skip
    finals = [c for c in p.commands if c.succ != "." and
              all(d.succ == "." for d in p.at(c.succ))]
    assert {str(c.action) for c in finals} >= {"x := 3", "x := 4"}


def test_compile_qw_matches_expected_shape(qw):
    p = GPCompiler().compile(qw)
    assert len(p.commands) == 8
    expected = parse_program("""
#entry W
W: skip -> IF
IF: (x <= 20) -> B1
IF: !(x <= 20) -> E
B1: x := x + 1 -> IF2
IF2: ((x % 3) = 0) -> B2
IF2: !((x % 3) = 0) -> W
B2: x := x + 3 -> W
E: skip -> .
""")
    bij = rename_equal(p, expected)
    assert bij is not None
    assert bij[p.entry] == "W"


def test_shared_continuation_gets_one_label():
    comp = GPCompiler()
    stm = parse_gp_program("bail x <= 0 to { x := 3; }\nx := 4;")
    p = comp.compile(stm)
    # both tails end at the same empty-statement label
    tail_labels = {c.succ for c in p.commands
                   if str(c.action) in ("x := 3", "x := 4")}
    assert len(tail_labels) == 1


def test_compile_state_clauses(qw):
    comp = GPCompiler()
    comp.compile(qw)
    s = GPState(Store({"x": 0}), EMPTY)
    cs = comp.compile_state(s)
    assert str(cs.command.action) == "skip" and cs.command.succ == "."
    # if-head picks the branch that the test decides
    unfolded = gp_step(GPState(Store({"x": 0}), qw))
    cs_true = comp.compile_state(unfolded)
    assert str(cs_true.command.action) == "(x <= 20)"
    cs_false = comp.compile_state(GPState(Store({"x": 99}), unfolded.stm))
    assert str(cs_false.command.action) == "!(x <= 20)"
    with pytest.raises(GPError):
        comp.compile_state(GPState(Store({"x": "s"}), unfolded.stm))


def test_state_compile_commutes_with_steps(qw):
    """Both directions along a run: GP steps map exactly onto program steps."""
    comp = GPCompiler()
    p = comp.compile(qw)
    r = gp_run(qw, Store({"x": 0}), 400)
    for a, b in zip(r.states, r.states[1:]):
        ca, cb = comp.compile_state(a), comp.compile_state(b)
        succs = step(p, ca)
        assert cb in succs
        # the converse: every fireable successor is the compiled next state
        if len(succs) == 1:
            assert succs == (cb,)
        else:
            assert [s for s in succs if fires(s.command.action, s.store)] == [cb]
    # stuck end maps to stuck end
    last = comp.compile_state(r.states[-1])
    assert step(p, last) == ()


def test_compile_trace_is_initial_trace(qw):
    comp = GPCompiler()
    p = comp.compile(qw)
    r = gp_run(qw, Store({"x": 0}), 400)
    ct = comp.compile_trace(r.states)
    assert trace_linked(p, ct)
    assert ct[0].command.label == p.entry
    r_ct = run_of(ct)
    assert r_ct.stores_at(range(len(r_ct))) == r.stores_at(range(len(r)))


def test_alpha_st_agreement_on_compiled_runs(qw):
    comp = GPCompiler()
    p = comp.compile(qw)
    for x0 in (0, 7, 19, 21):
        r_gp = gp_run(qw, Store({"x": x0}), 400)
        r_c = run(p, Store({"x": x0}), 400)
        assert r_gp.stores_at(range(len(r_gp))) == r_c.stores_at(range(len(r_c)))


def test_monotone_compilation_along_runs(qw):
    comp = GPCompiler()
    p = comp.compile(qw)
    r = gp_run(qw, Store({"x": 0}), 200)
    for a, b in zip(r.states, r.states[1:]):
        assert comp.compile(b.stm).commands <= comp.compile(a.stm).commands


# ---------------------------------------------------------------------------
# tracing relation
# ---------------------------------------------------------------------------

def test_t1_starts_recording(qw):
    unfolded = gp_step(GPState(Store({"x": 0}), qw))
    nxt = gp_trace_step(unfolded)
    assert isinstance(nxt, gp.GPTState)
    assert nxt.trace == EMPTY
    assert nxt.kw == qw


def test_t1_requires_true_guard(qw):
    unfolded = gp_step(GPState(Store({"x": 99}), qw))
    nxt = gp_trace_step(unfolded)
    assert isinstance(nxt, GPState)  # baseline false branch


def test_recording_skip_assign_if():
    body = (GSkip(), GAssign("y", Lit(1)), GIf(Leq(Var("x"), Lit(5)), (GSkip(),)))
    w = GWhile(Leq(Var("x"), Lit(10)), body)
    stm = (w,)
    s = gp_step(GPState(Store({"x": 0}), stm))
    rec = gp_trace_step(s)
    rec = gp_trace_step(rec)  # records skip
    assert rec.trace == (GSkip(),)
    rec = gp_trace_step(rec)  # records the assignment
    assert rec.trace[-1] == GAssign("y", Lit(1))
    rec = gp_trace_step(rec)  # records the taken if as an inverted bail
    assert isinstance(rec.trace[-1], GBail)
    assert str(rec.trace[-1].test) == "!(x <= 5)"


def test_recording_false_if_records_positive_bail():
    body = (GIf(Leq(Var("x"), Lit(-1)), (GSkip(),)),)
    w = GWhile(Leq(Var("x"), Lit(10)), body)
    s = gp_step(GPState(Store({"x": 0}), (w,)))
    rec = gp_trace_step(gp_trace_step(s))
    assert isinstance(rec.trace[-1], GBail)
    assert str(rec.trace[-1].test) == "(x <= -1)"
    # the bail target resumes the untaken body before the loop
    assert rec.trace[-1].target[0] == GSkip()


def test_recording_aborts_on_bail():
    body = (GBail(Leq(Var("x"), Lit(100)), (GSkip(),)),)
    w = GWhile(Leq(Var("x"), Lit(10)), body)
    s = gp_step(GPState(Store({"x": 0}), (w,)))
    rec = gp_trace_step(s)
    out = gp_trace_step(rec)
    assert isinstance(out, GPState)  # fell back to the baseline
    with pytest.raises(GPError):
        gp_record_hot_path((w,), Store({"x": 0}), 100)


def test_inner_while_records_skip():
    inner = GWhile(Leq(Var("j"), Lit(1)), (GAssign("j", Add(Var("j"), Lit(1))),))
    body = (GAssign("j", Lit(0)), inner)
    w = GWhile(Leq(Var("x"), Lit(3)), body + (GAssign("x", Add(Var("x"), Lit(1))),))
    rec = gp_record_hot_path((w,), Store({"x": 0}), 500)
    skips = [c for c in rec.trace_stm if isinstance(c, GSkip)]
    assert skips  # the inner loop head recorded as a skip


# ---------------------------------------------------------------------------
# recording and the equivalence theorem, on the worked example
# ---------------------------------------------------------------------------

def test_record_golden(qw):
    rec = gp_record_hot_path(qw, Store({"x": 0}), 500)
    want_t = (
        GAssign("x", Add(Var("x"), Lit(1))),
        GBail(Eq(Mod(Var("x"), Lit(3)), Lit(0)), (GAssign("x", Add(Var("x"), Lit(3))),) + qw),
    )
    assert rec.trace_stm == want_t
    p = rec.compiled_program
    d0 = next(c for c in p.at(p.entry))
    d1 = next(c for c in p.at(d0.succ) if not str(c.action).startswith("!"))
    d2 = next(c for c in p.at(d1.succ))
    d3c = next(c for c in p.at(d2.succ) if str(c.action).startswith("!"))
    assert rec.hot_path == (d0, d1, d2, d3c)
    assert d3c.succ == p.entry


def test_record_plain_body_extraction_is_identity():
    stm = parse_gp_program("while x <= 5 do { x := x + 1; }")
    rec = gp_record_hot_path(stm, Store({"x": 0}), 200)
    assert rec.trace_stm == stm[0].body
    assert extract_gp(rec.compiled_program, rec.hot_path) == rec.compiled_program


def test_equivalence_check_golden(qw):
    res = gp_equivalence_check(qw, Store({"x": 0}), 2000)
    assert res.passed
    # the four fresh chain labels of the stitched-loop compilation map onto
    # the guardless extraction's fresh labels
    left = GPCompiler().compile(res.record.stitched)
    entry = left.entry
    chain = [entry]
    cur = next(c for c in left.at(entry))
    chain.append(cur.succ)
    cur = next(c for c in left.at(cur.succ) if not str(c.action).startswith("!"))
    chain.append(cur.succ)
    cur = next(c for c in left.at(cur.succ))
    chain.append(cur.succ)
    renamed = [res.renaming[l] for l in chain]
    right = extract_gp(res.record.compiled_program, res.record.hot_path)
    fresh = right.labels() - res.record.compiled_program.labels()
    assert set(renamed) == fresh
    assert len(fresh) == 4


def test_equivalence_check_detects_corruption(qw):
    rec = gp_record_hot_path(qw, Store({"x": 0}), 500)
    left = GPCompiler().compile(rec.stitched)
    right = extract_gp(rec.compiled_program, rec.hot_path)
    # drop one complement exit from the extraction
    fresh = right.labels() - rec.compiled_program.labels()
    victim = next(c for c in sorted(right.commands, key=str)
                  if c.label in fresh and str(c.action).startswith("!"))
    corrupted = Program(right.commands - {victim}, right.entry, right.arrays)
    assert rename_equal(left, corrupted) is None


def test_gp_correctness_of_extraction(qw):
    rec = gp_record_hot_path(qw, Store({"x": 0}), 500)
    p = rec.compiled_program
    q = extract_gp(p, rec.hot_path)
    from tracelab.observe import sc_equiv_check
    initials = [Store({"x": v}) for v in (0, 3, 20, 21, -1)]
    assert sc_equiv_check(p, q, initials, 2000).passed
    fresh = q.labels() - p.labels()
    assert fresh and fresh <= {s.command.label for s in run(q, Store({"x": 0}), 2000).states}
    # and the store changes of the two source programs from x = 0 agree
    r1 = gp_run(qw, Store({"x": 0}), 2000)
    r2 = gp_run(rec.stitched, Store({"x": 0}), 2000)
    assert sc(r1) == sc(r2)


# ---------------------------------------------------------------------------
# generated corpora
# ---------------------------------------------------------------------------

def test_gen_program_compiles_its_draw_once(monkeypatch):
    """``gen_program`` is the compiled ``gen_statement``, and it compiles
    each draw once: the accepted draw is not compiled a second time."""
    from tracelab import gen
    for seed in range(300):
        assert gen.gen_program(seed).commands == GPCompiler().compile(gen.gen_statement(seed)).commands
    compiles, draws = [], []
    compile_, loop = GPCompiler.compile, gen._loop

    def spy_compile(self, s):
        compiles.append(s)
        return compile_(self, s)

    def spy_loop(rng, depth):
        if depth == 0:
            draws.append(1)
        return loop(rng, depth)

    monkeypatch.setattr(GPCompiler, "compile", spy_compile)
    monkeypatch.setattr(gen, "_loop", spy_loop)
    for seed in range(300):
        compiles.clear()
        draws.clear()
        gen._compiled.cache_clear()
        gen.gen_program(seed)
        assert len(compiles) == len(draws) >= 1, seed


@pytest.mark.parametrize("seed", range(20))
def test_generated_gp_runs_commute(seed):
    from tracelab.gen import gen_statement, gen_stores
    stm = gen_statement(seed)
    comp = GPCompiler()
    p = comp.compile(stm)
    assert well_formed(p) == []
    (rho,) = gen_stores(seed, p.vars(), 1)
    r_gp = gp_run(stm, rho, 250)
    r_c = run(p, rho, 250)
    assert r_gp.stores_at(range(len(r_gp))) == r_c.stores_at(range(len(r_c)))
    assert comp.compile_trace(r_gp.states) == r_c.states


@pytest.mark.parametrize("seed", range(30))
def test_generated_while_extraction_correct(seed):
    from tracelab.gen import gen_statement
    stm = gen_statement(seed)[-1:]  # the loop without its prologue
    rho = Store({"i": 0, "j": 0, "x": 1, "y": 1, "z": 1, "w": 1, "s": ""})
    try:
        rec = gp_record_hot_path(stm, rho, 600)
    except GPError:
        pytest.skip("no recordable loop under this seed")
    q = extract_gp(rec.compiled_program, rec.hot_path)
    assert well_formed(q) == []
    from tracelab.observe import sc_equiv_check
    assert sc_equiv_check(rec.compiled_program, q, [rho], 1500).passed
    # the extraction starts in its chain, so the check above ran every copy
    fresh = q.labels() - rec.compiled_program.labels()
    assert fresh <= {s.command.label for s in run(q, rho, 1500).states}
    res = gp_equivalence_check(stm, rho, 3000)
    assert res.passed
