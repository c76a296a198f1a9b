"""The library pipeline: mining rounds, the final program and its check."""

import json
import random
import re
from collections import Counter
from pathlib import Path

import pytest

from tracelab import gen, hotpath, lang, observe, optimize, pipeline, textio
from tracelab.lang import Assign, Cond, Guard, Skip
from tracelab.semantics import Store, run

GOLDEN = Path(__file__).parent / "golden" / "cli"


def test_no_hot_path_leaves_the_program_unchanged(cf_program):
    rep = pipeline.pipeline(cf_program, [Store()], "cp", 2, 2000, ["cf"], 3)
    assert rep.hotpaths == ()
    assert rep.program is cf_program
    assert rep.check.passed and rep.minimized == {}


def test_sieve_matches_the_cli_golden(sieve_program, sieve_store):
    rep = pipeline.pipeline(sieve_program, [sieve_store], "type", 2, 20000, ["ts"], 3)
    golden = json.loads((GOLDEN / "sieve_pipeline.out").read_text())
    assert textio.print_program(rep.program) == golden["programs"]["after"]
    assert [c for _, c in rep.hotpaths] == [hp["count"] for hp in golden["hotpaths"]]
    assert rep.check.passed and rep.check.observation == "sc"


@pytest.mark.parametrize("rounds", [0, -1])
def test_no_round_is_refused_not_passed(loop_program, rounds):
    with pytest.raises(pipeline.PipelineError, match="rounds must be at least 1"):
        pipeline.pipeline(loop_program, [Store()], "onepoint", 2, 2000, [], rounds)


def _gen_pipeline(seed, domain, passes, rounds):
    """The report of ``tracelab pipeline`` on generated program ``seed`` with
    ``--sample 4 --seed seed``."""
    stores = gen.gen_stores(seed, gen.SAMPLE_VARS, 4)
    return pipeline.pipeline(gen.gen_program(seed), stores, domain, 2, 2000, passes, rounds)


@pytest.mark.parametrize("seed, passes", [(75, ["ts"]), (210, ["ts"]), (75, []), (210, [])],
                         ids=["75", "210", "75-no-pass", "210-no-pass"])
def test_sliced_guards_let_nested_extraction_finish(seed, passes):
    """With full guards the third round's hot path on these programs leaves
    a stitched command twice and extraction refuses it; with sliced guards,
    with or without a pass, the rounds mine other paths, or none, and every
    verdict passes."""
    rep = _gen_pipeline(seed, "type", passes, 3)
    assert rep.hotpaths and len(rep.check.verdicts) == 4
    assert all(v.passed for v in rep.check.verdicts)


def _held_out_stores(seed):
    """32 stores that mining on generated program ``seed`` never saw: 16 that
    the generator draws for another seed, and 16 it never draws, with unbound
    variables, strings in int variables and ints outside its pool."""
    rng = random.Random(seed)
    stores = gen.gen_stores(seed + 10 ** 6, gen.SAMPLE_VARS, 16)
    for _ in range(16):
        roll = {v: rng.random() for v in gen.SAMPLE_VARS}
        stores.append(Store({v: rng.choice(("", "a", "zz")) if r < 0.5 else
                             rng.choice((-1000, -7, 4, 11, 97, 10 ** 20))
                             for v, r in roll.items() if r >= 0.2}))
    return stores


def test_final_programs_pass_sc_on_held_out_stores():
    """A guard must admit only stores whose run its stitched code reproduces,
    and mining saw four stores: every stitched final program of gen 0-299,
    under type/ts with 3 rounds, onepoint with 3 and type with 2, also
    passes sc on 32 held-out stores."""
    stitched, failed = 0, []
    for seed in range(300):
        stores = _held_out_stores(seed)
        left = observe.runs(gen.gen_program(seed), stores, 2000)
        for config in [("type", ["ts"], 3), ("onepoint", [], 3), ("type", [], 2)]:
            rep = _gen_pipeline(seed, *config)
            if rep.hotpaths:
                stitched += 1
                right = observe.runs(rep.program, stores, 2000)
                if not observe.equiv_check(left, right, observe.sc, "sc").passed:
                    failed.append((seed, config))
    assert failed == [] and stitched >= 870  # 897 stitch today


# Loops that add two variables.  ``gen`` adds a literal to a variable only,
# and a ts rewrite of that evaluates as the original on every store; the
# rewrite of a sum of two variables differs from it when both operands are
# of the other class (``+Int`` of two strings is undef, ``+`` concatenates).
# The last one reassigns an operand between two sums: the guard of the second
# sum is implied only if the transfer of ``x := y`` (``post``) were dropped.
ADDING_LOOPS = [
    """#entry L0
L0: i := 0 -> L1
L1: (i <= 6) -> L2
L1: !(i <= 6) -> L4
L2: x := (x + y) -> L3
L3: i := (i + 1) -> L1
L4: skip -> .
""",
    """#entry L0
L0: i := 0 -> L1
L1: (i <= 8) -> L2
L1: !(i <= 8) -> L6
L2: ((i % 2) = 0) -> L3
L2: !((i % 2) = 0) -> L4
L3: x := (x + y) -> L5
L4: y := (y + x) -> L5
L5: i := (i + 1) -> L1
L6: skip -> .
""",
    """#entry L0
L0: i := 0 -> L1
L1: (i <= 5) -> L2
L1: !(i <= 5) -> L5
L2: z := (x + y) -> L3
L3: x := (z + y) -> L4
L4: i := (i + 1) -> L1
L5: skip -> .
""",
    """#entry L0
L0: i := 0 -> L1
L1: (i <= 6) -> L2
L1: !(i <= 6) -> L5
L2: x := (x + x) -> L3
L3: x := y -> L4
L4: w := (x + x) -> L6
L6: i := (i + 1) -> L1
L5: skip -> .
""",
]

# mining sees ints in both operands, or strings, so ts rewrites to +Int or +Str
ADDING_STORES = {"int": [{"x": 1, "y": 2}, {"x": -4, "y": 3}],
                 "str": [{"x": "a", "y": "b"}, {"x": "", "y": "c"}]}
# the held-out stores add the other class, mixed classes and unbound operands
ADDING_HELD_OUT = [{"x": 5, "y": 7}, {"x": "p", "y": "q"}, {"x": "p", "y": ""}, {"x": 1, "y": "q"},
                   {"x": "p", "y": 2}, {"x": 10 ** 20, "y": -1}, {"x": 3}, {"y": "q"}, {}]


@pytest.mark.parametrize("src", ADDING_LOOPS,
                         ids=["one-sum", "two-branches", "chained-sums", "reassigned-operand"])
@pytest.mark.parametrize("mined", ADDING_STORES)
def test_loops_that_add_two_variables_pass_sc_on_held_out_stores(src, mined):
    """Mined from stores of one class, each final program passes sc on the
    mined stores and on held-out stores of the other class, where a guard
    that admitted them would stick the run where the original concatenates
    or sums."""
    p = textio.parse_program(src)
    held_out = [Store(s) for s in ADDING_HELD_OUT]
    left = observe.runs(p, held_out, 2000)
    for config in [("type", ["ts"], 3), ("onepoint", [], 3), ("type", [], 2)]:
        rep = pipeline.pipeline(p, [Store(s) for s in ADDING_STORES[mined]], config[0], 2, 2000,
                                config[1], config[2])
        assert rep.hotpaths and rep.check.passed, config
        right = observe.runs(rep.program, held_out, 2000)
        assert observe.equiv_check(left, right, observe.sc, "sc").passed, config


@pytest.mark.parametrize("domain, passes, rounds", [
    ("type", ["ts"], 3), ("type", ["ts", "dse"], 1), ("cp", ["cf"], 1)])
def test_final_programs_print_parse_and_check(domain, passes, rounds):
    """Every final program prints to text that parses back to the same text
    (the CLI prints it, and the benchmark re-parses and re-checks it), and
    passes its check.  A dse result is judged by outputs, and generated
    programs have no put, so its check is refused; its program is then built
    by one round of mining and ``optimize_full``, as the pipeline does."""
    for seed in range(30):
        if "dse" in passes:
            with pytest.raises(observe.ObserveError, match="out check observes nothing"):
                _gen_pipeline(seed, domain, passes, rounds)
            p = gen.gen_program(seed)
            runs = observe.runs(p, gen.gen_stores(seed, gen.SAMPLE_VARS, 4), 2000)
            found = list(pipeline.mine(p, p, runs, 2, domain))
            program = optimize.optimize_full(p, found[0][0],
                                             [optimize.PASSES[name] for name in passes], p)
        else:
            rep = _gen_pipeline(seed, domain, passes, rounds)
            assert rep.check.passed, seed
            program = rep.program
        text = textio.print_program(program)
        assert textio.print_program(textio.parse_program(text)) == text, seed


def test_an_out_check_that_observes_nothing_is_refused_before_mining(cf_program, monkeypatch):
    """Passes never add or remove a put, so the input program alone decides
    that a dse result's out check would observe nothing."""
    def no_mining(*args):
        raise AssertionError("mined before refusing the out check")

    monkeypatch.setattr(pipeline, "mine", no_mining)
    with pytest.raises(observe.ObserveError, match=r"neither program has put \{a, x\}"):
        pipeline.pipeline(cf_program, [Store()], "onepoint", 2, 2000, ["dse"], 3)


def _reachable(p):
    """The labels a run of p can reach from its entry."""
    seen, todo = {p.entry}, [p.entry]
    while todo:
        for c in p.at(todo.pop()):
            if c.succ != lang.HALT and c.succ not in seen:
                seen.add(c.succ)
                todo.append(c.succ)
    return seen


def test_final_programs_keep_no_guard_that_cannot_fail():
    """Under type/ts every final program is well-formed and passes sc, no
    positive guard left in it tests the universal store, and every label is
    reachable from the entry."""
    for seed in range(60):
        rep = _gen_pipeline(seed, "type", ["ts"], 3)
        assert lang.well_formed(rep.program) == [], seed
        assert rep.check.passed and rep.check.observation == "sc", seed
        assert not [c for c in rep.program.commands
                    if isinstance(c.action, Guard) and c.action.positive
                    and c.action.store.domain.is_universal(c.action.store)], seed
        assert _reachable(rep.program) == rep.program.labels(), seed


def _less_skips(r):
    """The actions of r's states that are not skips, and the writes of the
    steps out of them."""
    kept = [not isinstance(c.action, Skip) for c in r.commands]
    return ([c.action for c, k in zip(r.commands, kept) if k],
            [w for w, k in zip(r.writes, kept) if k])


@pytest.mark.parametrize("domain", ["type", "onepoint"])
def test_without_a_pass_the_final_program_runs_the_original_less_its_skips(domain):
    """With no pass every guard pair is universal and bypassed, and every
    skip copy routed around, so what is left is the original program under
    other labels less the skips of its stitched loops: from every store the
    two runs, their skip states dropped, take the same actions in order with
    the same writes (the shorter a prefix of the other only when it was
    truncated), and the final's run is never the longer."""
    for seed in range(60):
        p, stores = gen.gen_program(seed), gen.gen_stores(seed, gen.SAMPLE_VARS, 4)
        rep = pipeline.pipeline(p, stores, domain, 2, 2000, [], 3)
        for rho in stores:
            final, orig = run(rep.program, rho, 2000), run(p, rho, 2000)
            assert len(final) <= len(orig), seed
            (short, r), (long_, _) = sorted([(_less_skips(final), final), (_less_skips(orig), orig)],
                                            key=lambda x: len(x[0][0]))
            assert all(x == y[:len(x)] for x, y in zip(short, long_)), seed
            assert r.truncated or short == long_, seed


@pytest.mark.parametrize("domain, passes", [("type", ["ts"]), ("onepoint", [])],
                         ids=["type-ts", "onepoint"])
def test_final_programs_stitch_no_skip(domain, passes):
    """A stitched chain routes around its skip copies: no copy (``h<i>#k``)
    left in a final program is a skip, and from every store the final's run
    takes as many assignment and test states as the original's."""
    for seed in range(30):
        p, stores = gen.gen_program(seed), gen.gen_stores(seed, gen.SAMPLE_VARS, 4)
        rep = pipeline.pipeline(p, stores, domain, 2, 2000, passes, 3)
        assert rep.hotpaths, seed
        assert not [c for c in rep.program.commands
                    if re.fullmatch(r"h\d+#\d+", c.label) and isinstance(c.action, Skip)], seed
        for rho in stores:
            counts = [Counter(type(c.action) for c in run(q, rho, 2000).commands
                              if isinstance(c.action, (Assign, Cond)))
                      for q in (rep.program, p)]
            assert counts[0] == counts[1], seed


def _with_put(p):
    """p with its halting ``skip`` replaced by a put of all its variables."""
    (halt,) = [c for c in p.commands if c.succ == lang.HALT]
    return p.replace(remove=[halt], add=[lang.Command(halt.label, lang.Put(p.vars()), lang.HALT)])


@pytest.mark.parametrize("domain, passes", [("onepoint", ["dse"]), ("type", ["dse"]),
                                            ("type", ["ts", "dse"])],
                         ids=["onepoint-dse", "type-dse", "type-ts,dse"])
def test_dse_results_on_generated_programs_pass_their_out_check(domain, passes):
    """Generated programs put every variable when they halt, so a dse
    result's out check sees the final store; every result is well-formed
    (the pipeline refuses one that is not) and passes on every store."""
    stitched = 0
    for seed in range(100):
        p = _with_put(gen.gen_program(seed))
        rep = pipeline.pipeline(p, gen.gen_stores(seed, gen.SAMPLE_VARS, 4), domain, 2, 2000,
                                passes, 3)
        assert rep.check.observation == "out" and rep.check.passed, seed
        stitched += bool(rep.hotpaths)
    assert stitched >= 90  # all 100 stitch today; unstitched programs check no dse


# ---------------------------------------------------------------------------
# one run per program and store
# ---------------------------------------------------------------------------

def _counted_runs(monkeypatch):
    """The programs of every run made through ``observe``, in order."""
    runs, real = [], observe.run

    def counting(p, rho, budget):
        runs.append(p)
        return real(p, rho, budget)

    monkeypatch.setattr(observe, "run", counting)
    return runs


def test_a_sieve_call_runs_three_programs_once(sieve_program, sieve_store, monkeypatch):
    """The input, the round-1 program and the round-2 program; round 3 finds
    nothing in the round-2 program's run, which the check then judges."""
    runs = _counted_runs(monkeypatch)
    rep = pipeline.pipeline(sieve_program, [sieve_store], "type", 2, 20000, ["ts"], 3)
    assert len(rep.hotpaths) == 2
    assert len(runs) == 3 and runs[0] is sieve_program and runs[-1] is rep.program


def test_a_call_with_no_hot_path_runs_once_per_store(cf_program, monkeypatch):
    runs = _counted_runs(monkeypatch)
    rep = pipeline.pipeline(cf_program, [Store(), Store({"x": 9})], "cp", 2, 2000, ["cf"], 3)
    assert rep.hotpaths == () and runs == [cf_program, cf_program]


@pytest.mark.parametrize("rounds", [1, 2, 3])
def test_a_call_runs_each_stitched_program_once_per_store(rounds, monkeypatch):
    """R stitched rounds make R + 1 runs per store, whether the call stops
    because no round is left or because the next round found nothing."""
    runs = _counted_runs(monkeypatch)
    every_round_stitched = 0
    for seed in range(60):
        runs.clear()
        rep = _gen_pipeline(seed, "type", ["ts"], rounds)
        assert len(runs) == 4 * (len(rep.hotpaths) + 1), seed
        every_round_stitched += len(rep.hotpaths) == rounds
    assert every_round_stitched > 0


@pytest.mark.parametrize("domain, passes", [("type", ["ts"]), ("onepoint", ["dse"])])
def test_reused_runs_judge_as_fresh_runs_do(domain, passes):
    """The check judges the runs that mining made; a fresh check of the input
    against the final program, which runs both again, gives the same report."""
    fresh = observe.out_equiv_check if "dse" in passes else observe.sc_equiv_check
    for seed in range(50):
        p = gen.gen_program(seed)
        if "dse" in passes:
            p = _with_put(p)
        stores = gen.gen_stores(seed, gen.SAMPLE_VARS, 4)
        rep = pipeline.pipeline(p, stores, domain, 2, 2000, passes, 3)
        assert rep.check == fresh(p, rep.program, stores, 2000), seed


# ---------------------------------------------------------------------------
# mining up to the hot path a round stitches
# ---------------------------------------------------------------------------

def _mine_fully_then_stitch(p, stores, domain, passes, rounds):
    """The pipeline's rounds with every run mined in full: each round
    stitches the first of ``list(pipeline.mine(...))``."""
    current, hotpaths = p, []
    for _ in range(rounds):
        runs = observe.runs(current, stores, 2000)
        found = list(pipeline.mine(current, p, runs, 2, domain))
        if not found:
            break
        hotpaths.append(found[0])
        current = optimize.optimize_full(current, found[0][0],
                                         [optimize.PASSES[name] for name in passes], p)
    return tuple(hotpaths)


@pytest.mark.parametrize("domain, passes", [("type", ["ts"]), ("onepoint", ["dse"])])
def test_a_round_mines_only_up_to_the_hot_path_it_stitches(domain, passes, monkeypatch):
    """A round that stitches mines its runs in order up to and including the
    first that yields a hot path; a round that finds nothing mines one run
    per store; and the paths stitched are those of a miner that mines every
    run."""
    rounds, real_topo, real_hot = [], hotpath.topo_order, hotpath.hot_n

    def topo_order(p):  # one order per mining round
        rounds.append([])
        return real_topo(p)

    def hot_n(*args):
        found = real_hot(*args)
        rounds[-1].append(bool(found))
        return found

    monkeypatch.setattr(hotpath, "topo_order", topo_order)
    monkeypatch.setattr(hotpath, "hot_n", hot_n)
    for seed in range(60):
        p, stores = gen.gen_program(seed), gen.gen_stores(seed, gen.SAMPLE_VARS, 4)
        if "dse" in passes:
            p = _with_put(p)
        want = _mine_fully_then_stitch(p, stores, domain, passes, 3)
        rounds.clear()
        rep = pipeline.pipeline(p, stores, domain, 2, 2000, passes, 3)
        assert rep.hotpaths == want, seed
        stitched = len(want)
        assert len(rounds) == min(stitched + 1, 3), seed
        for calls in rounds[:stitched]:
            assert calls[-1] and not any(calls[:-1]), seed
        for calls in rounds[stitched:]:
            assert calls == [False] * len(stores), seed
