"""CLI reports on the conftest programs, pinned byte for byte, and the exit
contract: 0 PASS, 1 FAIL, 2 usage, parse or input error, never a traceback."""

import contextlib
import io
import json
from pathlib import Path

import pytest

from tracelab import cli, textio
from tracelab.values import int_of
from tests.conftest import CF_SRC, DOUBLING_SRC, DSE_SRC, LOOP_SRC, SIEVE_SRC

GOLDEN = Path(__file__).parent / "golden" / "cli"

SIEVE_INITIALS = {f"primes_{i}": True for i in range(100)}

# program -> (source, initial store or None, flags of every command, passes,
# extra pipeline flags)
PROGRAMS = {
    "loop": (LOOP_SRC, None, ["--domain", "type"], ["ts"], []),
    "sieve": (SIEVE_SRC, SIEVE_INITIALS, ["--domain", "type", "--budget", "20000"],
              ["ts"], ["--rounds", "3"]),
    "cf": (CF_SRC, None, ["--domain", "onepoint"], ["dse"], []),
}
COMMANDS = ("hot", "extract", "optimize", "pipeline")


def call(argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main([str(a) for a in argv])
    return rc, out.getvalue(), err.getvalue()


def golden_argv(directory: Path, prog: str, cmd: str) -> list[str]:
    src, initials, common, passes, extra = PROGRAMS[prog]
    path = directory / f"{prog}.tl"
    path.write_text(src)
    argv = [cmd, str(path)] + common
    if initials is not None:
        stores = directory / f"{prog}.json"
        stores.write_text(json.dumps(initials))
        argv += ["--initials", str(stores)]
    if cmd in ("optimize", "pipeline"):
        argv += [f for name in passes for f in ("--pass", name)]
    if cmd == "pipeline":
        argv += extra
    return argv


@pytest.mark.parametrize("prog", sorted(PROGRAMS))
@pytest.mark.parametrize("cmd", COMMANDS)
def test_cli_golden(tmp_path, prog, cmd):
    rc, out, err = call(golden_argv(tmp_path, prog, cmd))
    if (prog, cmd) == ("cf", "pipeline"):
        # dse is judged by outputs, and the cf program has no put to observe
        assert (rc, out) == (2, "")
        assert err == "error: out check observes nothing: neither program has put {a, x}\n"
        return
    assert (rc, err) == (0, "")
    assert out == (GOLDEN / f"{prog}_{cmd}.out").read_text()


def test_optimize_composes_passes(tmp_path):
    """Each pass works on the previous pass's stitch: ts survives dse."""
    path = tmp_path / "loop.tl"
    path.write_text(LOOP_SRC)
    rc, out, err = call(["optimize", path, "--domain", "type", "--pass", "ts", "--pass", "dse"])
    assert (rc, err) == (0, "")
    assert "x := (x +Int 1)" in out


def test_pipeline_with_two_passes_reports(tmp_path):
    path = tmp_path / "dse.tl"
    path.write_text(DSE_SRC)
    rc, out, err = call(["pipeline", path, "--domain", "type", "--pass", "ts", "--pass", "dse",
                         "--initials", '{"x": -5}'])
    assert (rc, err) == (0, "")
    report = json.loads(out)
    assert [v["result"] for v in report["verdicts"]] == ["PASS"]
    assert "x := (x +Int 1)" in report["programs"]["after"]


def test_a_pipeline_that_finds_no_hot_path_says_so(tmp_path):
    """cp mines no hot path on the counting loop (its counter changes every
    iteration): the report's status says nothing was stitched, and the
    input program, checked against itself, still exits 0."""
    path = tmp_path / "loop.tl"
    path.write_text(LOOP_SRC)
    rc, out, err = call(["pipeline", path, "--domain", "cp", "--pass", "cf"])
    assert (rc, err) == (0, "")
    report = json.loads(out)
    assert (report["status"], report["hotpaths"]) == ("no-hot-path", [])
    assert report["programs"]["after"] == report["programs"]["before"]


def test_shrink_uses_the_check_that_judged(tmp_path, monkeypatch):
    """A dse result is judged by outputs, so its failure is minimized by
    outputs too; store changes would shrink it differently."""
    from tracelab import observe, optimize, pipeline, textio
    from tracelab.lang import Assign, Command, Lit
    from tracelab.semantics import Store

    dse = optimize.PASSES["dse"]

    def broken_dse(st):  # writes a wrong final z inside the stitch
        return frozenset(Command(c.label, Assign("z", Lit(2)), c.succ)
                         if c.action == Assign("z", Lit(1)) else c for c in dse(st))

    monkeypatch.setitem(optimize.PASSES, "dse", broken_dse)
    path = tmp_path / "dse.tl"
    path.write_text(DSE_SRC)
    rc, out, err = call(["pipeline", path, "--pass", "dse", "--initials", '{"x": -5, "y": 1}'])
    assert (rc, err) == (1, "")
    (verdict,) = json.loads(out)["verdicts"]
    minimized = {"initial": {"x": -5}, "budget": 31, "divergence": 0}
    assert verdict["divergence"] == 0 and verdict["minimized"] == minimized
    report = json.loads(out)["programs"]
    before, after = (textio.parse_program(report[k]) for k in ("before", "after"))
    rho = Store({"x": -5, "y": 1})
    verdict, budget = pipeline.shrink(before, after, rho, 2000, observe.sc_equiv_check)
    assert (verdict.initial, budget, verdict.divergence) == (Store({"x": -5}), 3, 1)


@pytest.mark.parametrize("case", ["OSError", "JSONDecodeError", "ExtractError", "OptimizeError",
                                  "SemanticsError", "DomainError", "HotPathError", "ObserveError",
                                  "GPError", "ill-formed",
                                  "bad --domain", "--hotpath -9", "--hotpath -1",
                                  "--initials [1]", "--initials [[1]]", "--initials []",
                                  "--sample -1", "--rounds 0", "--seed without --sample",
                                  "extract: no hot path", "optimize: no hot path"])
def test_errors_exit_2_without_traceback(tmp_path, monkeypatch, case):
    from tracelab.extract import ExtractError
    loop = tmp_path / "loop.tl"
    loop.write_text(LOOP_SRC)
    bogus = tmp_path / "bogus.tl"
    bogus.write_text("#entry L0\nL0: guard bogus {x: Int} -> L1\n"
                     "L0: !guard bogus {x: Int} -> L1\nL1: skip -> .\n")
    prologue = tmp_path / "prologue.w"
    prologue.write_text(GP_PROLOGUE)
    ill_formed = tmp_path / "ill_formed.tl"
    ill_formed.write_text("#entry L0\nL0: x := 1 -> L0\nL0: skip -> .\n")
    straight = tmp_path / "straight.tl"
    straight.write_text("#entry L0\nL0: skip -> .\n")

    def refuse(*args):
        raise ExtractError("refused")

    monkeypatch.setattr(cli, "extract_nested", refuse)
    argv = {
        "OSError": ["run", tmp_path / "missing.tl"],
        "JSONDecodeError": ["run", loop, "--initials", "{bad"],
        "ExtractError": ["extract", loop],
        "OptimizeError": ["optimize", loop, "--domain", "onepoint", "--pass", "ts"],
        "SemanticsError": ["run", loop, "--budget", "0"],
        "DomainError": ["run", bogus],
        "HotPathError": ["hot", loop, "--threshold", "0"],
        "ObserveError": ["check", loop, loop, "--observe", "out"],
        "GPError": ["gp-trace", prologue],
        "ill-formed": ["run", ill_formed],
        "bad --domain": ["hot", loop, "--domain", "bogus"],
        "--hotpath -9": ["extract", loop, "--hotpath", "-9"],
        "--hotpath -1": ["optimize", loop, "--hotpath", "-1"],
        "--initials [1]": ["run", loop, "--initials", "[1]"],
        "--initials [[1]]": ["run", loop, "--initials", "[[1]]"],
        "--initials []": ["run", loop, "--initials", "[]"],
        "--sample -1": ["run", loop, "--sample", "-1"],
        "--rounds 0": ["pipeline", loop, "--rounds", "0"],
        "--seed without --sample": ["run", loop, "--seed", "7"],
        "extract: no hot path": ["extract", straight],
        "optimize: no hot path": ["optimize", straight, "--domain", "type", "--pass", "ts"],
    }[case]
    rc, out, err = call(argv)
    assert rc == 2 and out == ""
    assert "Traceback" not in err and err.count("error: ") == 1
    assert err.startswith("error: ") or "error: argument --domain" in err
    if case.endswith("no hot path"):
        assert err == "error: no hot path found\n"


GP_PROLOGUE = "x := 0; while (x <= 3) do { x := x + 1; }\n"  # not headed by while
GP_LOOP = "while (x <= 3) do { x := x + 1; }\n"  # stuck from the empty store


@pytest.mark.parametrize("cmd", ["gp-trace", "gp-check"])
@pytest.mark.parametrize("src, message", [
    (GP_PROLOGUE, "error: recording needs a while-headed program\n"),
    (GP_LOOP, "error: stuck before any stitch: <[], if (x <= 3) then"),
])
def test_gp_recording_errors_exit_2(tmp_path, cmd, src, message):
    path = tmp_path / "prog.w"
    path.write_text(src)
    rc, out, err = call([cmd, path])
    assert (rc, out) == (2, "")
    assert err.startswith(message) and "Traceback" not in err


@pytest.mark.parametrize("cmd", ["trace", "gp-trace", "gp-check"])
def test_one_store_commands_refuse_more_stores(tmp_path, cmd):
    """These commands run from one store; a second would be silently dropped."""
    path = tmp_path / "prog"
    path.write_text(LOOP_SRC if cmd == "trace" else GP_LOOP)
    rc, out, err = call([cmd, path, "--initials", '[{"x": 0}, {"x": 1}]'])
    assert (rc, out) == (2, "")
    assert err == f"error: {cmd} runs from one initial store, got 2\n"


@pytest.mark.parametrize("argv, message", [
    (["check", "{dse}", "{dse}", "--observe", "sc", "--vars", "x"],
     "error: --vars is read only by --observe out\n"),
    (["pipeline", "{dse}", "--pass", "ts", "--domain", "type", "--vars", "x"],
     "error: --vars is read only by the out check of --pass dse\n"),
], ids=["check", "pipeline"])
def test_vars_without_an_out_check_is_refused(tmp_path, argv, message):
    path = tmp_path / "dse.tl"
    path.write_text(DSE_SRC)
    rc, out, err = call([a.format(dse=path) for a in argv])
    assert (rc, out, err) == (2, "", message)


def _options(parser) -> set[str]:
    return {o for a in parser._actions for o in a.option_strings} - {"-h", "--help"}


def test_option_surface():
    """Each subcommand takes exactly the options it reads."""
    import argparse
    (sub,) = [a for a in cli.build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    stores = {"--budget", "--seed", "--initials", "--sample"}
    mining = stores | {"--domain", "--threshold", "-N"}
    assert {name: _options(p) for name, p in sub.choices.items()} == {
        "run": stores,
        "trace": stores,
        "hot": mining,
        "extract": mining | {"--hotpath", "--original", "--dot"},
        "optimize": mining | {"--pass", "--hotpath", "--original"},
        "check": stores | {"--observe", "--vars"},
        "pipeline": mining | {"--pass", "--rounds", "--vars", "--json"},
        "gen": {"--seed"},
        "render": {"--dot"},
        "gp-compile": set(),
        "gp-trace": stores,
        "gp-check": stores,
    }


def _dot_edges(text, highlighted):
    """(label, successor, action) of the DOT edges, or of the highlighted ones."""
    edges = set()
    for line in text.splitlines():
        if " -> " in line and (not highlighted or "color=blue" in line):
            head, attrs = line.split(" [label=", 1)
            label, succ = (part.strip().strip('"') for part in head.split(" -> "))
            edges.add((label, succ, attrs.rsplit('"', 1)[0].strip('"')))
    return edges


def test_render_draws_one_edge_per_command(tmp_path):
    from tracelab import textio
    path = tmp_path / "loop.tl"
    path.write_text(LOOP_SRC)
    rc, out, err = call(["render", path])
    assert (rc, err) == (0, "")
    p = textio.parse_program(LOOP_SRC)
    assert len([l for l in out.splitlines() if " -> " in l]) == len(p.commands)
    assert _dot_edges(out, False) == {(c.label, c.succ, str(c.action)) for c in p.commands}


def test_extract_dot_highlights_exactly_the_stitch(tmp_path):
    from tracelab import observe, pipeline, textio
    from tracelab.extract import extract_nested
    from tracelab.semantics import Store
    path, dot = tmp_path / "loop.tl", tmp_path / "loop.dot"
    path.write_text(LOOP_SRC)
    rc, out, err = call(["extract", path, "--domain", "type", "--dot", dot])
    assert (rc, err) == (0, "")
    p = textio.parse_program(LOOP_SRC)
    runs = observe.runs(p, [Store()], 2000)
    st = extract_nested(p, list(pipeline.mine(p, p, runs, 2, "type"))[0][0], p)
    assert out == textio.print_program(st.transformed)
    assert _dot_edges(dot.read_text(), True) == \
        {(c.label, c.succ, str(c.action)) for c in st.stitched}


def test_optimize_with_original_continues_the_pipeline_rounds(tmp_path):
    """``optimize`` of its own result, mined against the original, is the
    pipeline's second round."""
    sieve, stores, once = tmp_path / "sieve.tl", tmp_path / "sieve.json", tmp_path / "once.tl"
    sieve.write_text(SIEVE_SRC)
    stores.write_text(json.dumps(SIEVE_INITIALS))
    flags = ["--domain", "type", "--pass", "ts", "--budget", "20000", "--initials", stores]
    rc, out, err = call(["optimize", sieve, *flags])
    assert (rc, err) == (0, "")
    once.write_text(out)
    rc, twice, err = call(["optimize", once, "--original", sieve, *flags])
    assert (rc, err) == (0, "")
    rc, out, err = call(["pipeline", sieve, "--rounds", "2", *flags])
    assert (rc, err) == (0, "")
    assert twice == json.loads(out)["programs"]["after"]


def test_long_inline_initials(tmp_path):
    path = tmp_path / "sieve.tl"
    path.write_text(SIEVE_SRC)
    rc, out, err = call(["run", path, "--initials", json.dumps(SIEVE_INITIALS)])
    assert (rc, err) == (0, "")
    assert out.startswith("complete after 779 states")


def test_run_names_why_each_run_ended(tmp_path):
    """A halted run is complete, a run with no next state is stuck, and a run
    cut by the budget is truncated."""
    from tracelab import gen, textio
    path = tmp_path / "g3.tl"
    path.write_text(textio.print_program(gen.gen_program(3)))
    stores = json.dumps([{"w": 0}, {"x": True}])
    rc, out, err = call(["run", path, "--initials", stores])
    assert (rc, err) == (0, "")
    halted, stuck = out.splitlines()
    assert halted.startswith("complete after ")
    # w is unbound, so w + 3 is undef and the assignment sticks
    assert stuck == "stuck after 4 states; final <[i/0, x/tt], s3: w := (w + 3) -> s5>"
    rc, out, err = call(["run", path, "--initials", '{"w": 0}', "--budget", "3"])
    assert (rc, out, err) == (0, "truncated after 3 states; final "
                                 "<[i/0, w/0], s2: (i <= 7) -> s3>\n", "")


@pytest.mark.parametrize("store, message", [
    ("interval {}", "unregistered store abstraction: interval"),
    ("type {a: Int[65537]}", "a guard store binds more than 65536 variables")])
def test_a_guard_literal_the_parser_refuses_exits_2(tmp_path, store, message):
    """An unregistered domain and a literal past ``textio.MAX_BINDINGS``
    bindings are parse errors that name their line."""
    path = tmp_path / "guard.tl"
    path.write_text(f"#entry L0\nL0: guard {store} -> L1\nL0: !guard {store} -> .\n"
                    "L1: skip -> .\n")
    assert call(["run", path]) == (2, "", f"error: line 2: {message}\n")


def test_a_program_nested_past_the_bound_exits_2(tmp_path):
    """A 600-term ``x := x + 1 + ... + 1`` nests 599 levels: refused as a
    parse error, where printing its command recursed past Python's limit."""
    path = tmp_path / "deep.tl"
    path.write_text("#entry L0\nL0: x := x" + " + 1" * 600 + " -> .\n")
    rc, out, err = call(["run", path, "--initials", '{"x": 0}'])
    assert (rc, out) == (2, "")
    assert err == f"error: line 2: nested deeper than {textio.MAX_DEPTH} levels\n"


@pytest.mark.parametrize("cmd", ["run", "hot", "pipeline"])
def test_a_program_nested_to_the_bound_runs(tmp_path, cmd):
    """A loop whose tests open ``MAX_DEPTH`` brackets (parentheses around a
    comparison, a negation and parentheses) and whose assignment is
    ``MAX_DEPTH`` parentheses around a chain of additions ``MAX_DEPTH``
    levels deep runs, mines and stitches.  One more parenthesis or negation
    (a bracket), or one more addition (a level), is refused."""
    n = textio.MAX_DEPTH
    text = ("#entry L0\n"
            f"L0: {'(' * n}x <= 2000{')' * n} -> L1\n"
            f"L0: !{'(' * (n - 1)}x <= 2000{')' * (n - 1)} -> .\n"
            f"L1: x := {'(' * n}x{' + 1' * (n - 1)}{')' * n} -> L0\n")
    path = tmp_path / "deep.tl"
    path.write_text(text)
    flags = ["--initials", '{"x": 0}'] + (["--domain", "type"] if cmd != "run" else [])
    rc, out, err = call([cmd, path, *flags])
    assert (rc, err) == (0, "") and ("stitched" in out if cmd == "pipeline" else out)
    for old, deeper, line in (("L0: (", "L0: ((", 2), ("L0: !(", "L0: !!(", 3),
                              ("+ 1)", "+ 1 + 1)", 4)):
        path.write_text(text.replace(old, deeper, 1))
        rc, out, err = call([cmd, path, *flags])
        assert (rc, out, err) == (2, "", f"error: line {line}: nested deeper than {n} levels\n")


def test_run_takes_either_side_of_a_cp_guard(tmp_path):
    """A store on the guard's constant takes the guard, one off it takes its
    complement."""
    path = tmp_path / "cp.tl"
    path.write_text("#entry L0\nL0: guard cp {x: 3} -> L1\nL0: !guard cp {x: 3} -> L2\n"
                    "L1: y := 1 -> .\nL2: y := 2 -> .\n")
    assert call(["run", path, "--initials", '[{"x": 3}, {"x": 4}]']) == \
        (0, "complete after 2 states; final <[x/3], L1: y := 1 -> .>\n"
            "complete after 2 states; final <[x/4], L2: y := 2 -> .>\n", "")


def test_run_sticks_at_an_index_too_long_to_print(tmp_path):
    """A loop doubles x 15,000 times, so ``a[x]`` reads at an index of 4,516
    digits, more than Python prints: the read is undef and its write sticks,
    and the final store prints x in full."""
    path = tmp_path / "double.tl"
    path.write_text("#entry L0\nL0: (c <= 14999) -> L1\nL0: !(c <= 14999) -> L3\n"
                    "L1: x := (x + x) -> L2\nL2: c := (c + 1) -> L0\nL3: y := a[x] -> .\n")
    rc, out, err = call(["run", path, "--initials", '{"x": 1, "c": 0}', "--budget", "50000"])
    assert (rc, err) == (0, "")
    head, x = out.split(", x/")
    assert head == "stuck after 45002 states; final <[c/15000"
    assert x.endswith("], L3: y := a[x] -> .>\n") and len(x.split("]")[0]) == 4516


NINES = "9" * 5000  # an int of more digits than Python's int and str convert


def test_initials_take_an_int_of_any_length(tmp_path):
    path = tmp_path / "copy.tl"
    path.write_text("#entry L0\nL0: y := x -> .\n")
    rc, out, err = call(["run", path, "--initials", f'{{"x": {NINES}}}'])
    assert (rc, out, err) == (0, f"complete after 1 states; final <[x/{NINES}], L0: y := x -> .>\n", "")


def test_initials_nested_too_deep_exit_2(tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    path = tmp_path / "skip.tl"
    path.write_text("#entry L0\nL0: skip -> .\n")
    assert call(["run", path, "--initials", deep]) == (2, "", "error: --initials nests too deep\n")


def test_a_literal_of_any_length_parses_runs_and_prints(tmp_path):
    path = tmp_path / "lit.tl"
    path.write_text(f"#entry L0\n#array a {NINES}\nL0: x := -{NINES} -> .\n")
    rc, out, err = call(["run", path])
    assert (rc, out, err) == (0, f"complete after 1 states; final <[], L0: x := -{NINES} -> .>\n", "")
    assert textio.print_program(textio.parse_program(path.read_text())) == path.read_text()


def test_trace_writes_ints_of_any_length(tmp_path):
    """A loop doubles a 4,300-digit x 40 times, past the digits Python's
    ``json`` writes: every store is written, and reads back."""
    path = tmp_path / "double.tl"
    path.write_text(f"#entry L0\nL0: x := {NINES[:4300]} -> L1\nL1: (c <= 39) -> L2\n"
                    "L1: !(c <= 39) -> .\nL2: x := (x + x) -> L3\nL3: c := (c + 1) -> L1\n")
    rc, out, err = call(["trace", path, "--initials", '{"c": 0}'])
    assert (rc, err) == (0, "")
    lines = [json.loads(line, parse_int=int_of) for line in out.splitlines()]
    assert len(lines) == 122 and lines[-1]["store"] == {"c": 40, "x": (10 ** 4300 - 1) * 2 ** 40}


def test_labels_of_any_scope_index_stitch(tmp_path):
    """Extraction numbers its fresh labels above every ``#k`` in the program's
    labels, of any length."""
    path = tmp_path / "scoped.tl"
    path.write_text(LOOP_SRC.replace("L1", f"L1#{NINES}"))
    rc, out, err = call(["pipeline", path, "--domain", "type"])
    assert (rc, err) == (0, "") and f"h0#1{'0' * 5000}" in json.loads(out)["programs"]["after"]


@pytest.mark.parametrize("observation", ["sc", "out"])
def test_check_names_the_observation_that_judged(tmp_path, observation):
    path = tmp_path / "dse.tl"
    path.write_text(DSE_SRC)
    rc, out, err = call(["check", path, path, "--observe", observation,
                         "--initials", '{"x": -1}'])
    assert (rc, out, err) == (0, f"ok 1 - rho=[x/-1] {observation}-equal\n", "")


def test_pipeline_without_a_pass_passes_gen_seed_75(tmp_path):
    """With no pass every guard is still sliced (to the universal store), so
    the third round no longer mines the path that leaves a stitched command
    twice, which nested extraction refuses (see ``test_extract``)."""
    from tracelab import gen, textio
    path = tmp_path / "gen75.tl"
    path.write_text(textio.print_program(gen.gen_program(75)))
    rc, out, err = call(["pipeline", path, "--sample", "4", "--seed", "75", "--domain", "type",
                         "--rounds", "3"])
    assert (rc, err) == (0, "")
    verdicts = json.loads(out)["verdicts"]
    assert len(verdicts) == 4 and all(v["result"] == "PASS" for v in verdicts)


def test_pipeline_refuses_an_ill_formed_result(tmp_path, monkeypatch):
    """The well-formedness check of each round stays as a safety net behind
    ``optimize_full``: a round whose program has a second command at its
    entry label is refused."""
    from tracelab import optimize
    from tracelab.lang import Command, Skip

    optimize_full = optimize.optimize_full

    def forking_optimize_full(p, hp, passes, original):
        out = optimize_full(p, hp, passes, original)
        first = out.at(out.entry)[0]  # x := 0
        return out.replace(add=[Command(first.label, Skip(), first.succ)])

    monkeypatch.setattr(optimize, "optimize_full", forking_optimize_full)
    path = tmp_path / "loop.tl"
    path.write_text(LOOP_SRC)
    rc, out, err = call(["pipeline", path, "--domain", "type", "--pass", "ts"])
    assert (rc, out) == (2, "")
    assert err.startswith("error: pipeline produced an ill-formed program: nondeterministic label")


def test_pipeline_refuses_a_pass_that_adds_a_command(tmp_path, monkeypatch):
    """A pass that adds a second command at a copy's label breaks the pass
    contract, and ``optimize_full`` refuses it before any program is built."""
    from tracelab import optimize
    from tracelab.lang import Command, Skip

    ts = optimize.PASSES["ts"]

    def forking_ts(st):
        copy = st.body[0]
        return ts(st) | {Command(copy.label, Skip(), copy.succ)}

    monkeypatch.setitem(optimize.PASSES, "ts", forking_ts)
    path = tmp_path / "loop.tl"
    path.write_text(LOOP_SRC)
    rc, out, err = call(["pipeline", path, "--domain", "type", "--pass", "ts"])
    assert (rc, out, err) == (2, "", "error: optimization did more than rewrite or delete copies\n")


def test_out_check_of_an_optimized_program_observes_its_puts(tmp_path):
    """A guard's store keys are not program variables, so the default out
    set of a stitched program is the variables its commands name: here the
    put {x, z}, not {x, y, z} with the guards' y."""
    path, opt = tmp_path / "dse.tl", tmp_path / "opt.tl"
    path.write_text(DSE_SRC)
    initials = '{"x": -5, "y": 1}'
    rc, out, err = call(["optimize", path, "--domain", "type", "--initials", initials])
    assert (rc, err) == (0, "")
    opt.write_text(out)
    rc, out, err = call(["check", path, opt, "--observe", "out", "--initials", initials])
    assert (rc, out, err) == (0, "ok 1 - rho=[x/-5, y/1] out-equal\n", "")


# ---------------------------------------------------------------------------
# the commands that print a run, a generated program or a while-language loop
# ---------------------------------------------------------------------------

# an if inside a while: recording turns the if into a bail
GP_IF_LOOP = "while (i <= 5) do { if ((i % 2) = 0) then { x := x + 3; } i := i + 1; }\n"
GP_IF_STORE = '{"i": 0, "x": 0}'


def test_trace_prints_the_run_as_json_lines(tmp_path):
    path = tmp_path / "loop.tl"
    path.write_text(LOOP_SRC)
    rc, out, err = call(["trace", path, "--budget", "6"])
    assert (rc, err) == (0, "")
    assert out == (
        '{"action": "x := 0", "label": "L0", "store": {}, "succ": "L1"}\n'
        '{"action": "(x <= 20)", "label": "L1", "store": {"x": 0}, "succ": "L2"}\n'
        '{"action": "x := (x + 1)", "label": "L2", "store": {"x": 0}, "succ": "L3"}\n'
        '{"action": "!((x % 3) = 0)", "label": "L3", "store": {"x": 1}, "succ": "L1"}\n'
        '{"action": "(x <= 20)", "label": "L1", "store": {"x": 1}, "succ": "L2"}\n'
        '{"action": "x := (x + 1)", "label": "L2", "store": {"x": 1}, "succ": "L3"}\n'
        '{"truncated": true}\n')


def test_gen_prints_the_seeded_program():
    from tracelab import gen, textio
    from tracelab.lang import well_formed
    rc, out, err = call(["gen", "--seed", "3"])
    assert (rc, err) == (0, "")
    assert out == textio.print_program(gen.gen_program(3))
    assert well_formed(textio.parse_program(out)) == []


def test_gp_compile_prints_the_compiled_loop(tmp_path):
    path = tmp_path / "loop.w"
    path.write_text(GP_IF_LOOP)
    rc, out, err = call(["gp-compile", path])
    assert (rc, err) == (0, "")
    assert out == ("#entry s0\n"
                   "s0: skip -> s1\n"
                   "s1: !(i <= 5) -> s3\n"
                   "s1: (i <= 5) -> s2\n"
                   "s2: !((i % 2) = 0) -> s5\n"
                   "s2: ((i % 2) = 0) -> s4\n"
                   "s3: skip -> .\n"
                   "s4: x := (x + 3) -> s5\n"
                   "s5: i := (i + 1) -> s0\n")


def test_gp_trace_records_the_if_as_a_bail(tmp_path):
    path = tmp_path / "loop.w"
    path.write_text(GP_IF_LOOP)
    rc, out, err = call(["gp-trace", path, "--initials", GP_IF_STORE])
    assert (rc, err) == (0, "")
    loop = "while (i <= 5) do { if ((i % 2) = 0) then { x := (x + 3); } i := (i + 1); }"
    trace = (f"bail !((i % 2) = 0) to {{ i := (i + 1); {loop} }} "
             "x := (x + 3); i := (i + 1);")
    assert out == (f"trace: {trace}\n"
                   "hot path: s0: skip -> s1 ; s1: (i <= 5) -> s2 ; s2: ((i % 2) = 0) -> s4 ; "
                   "s4: x := (x + 3) -> s5 ; s5: i := (i + 1) -> s0\n"
                   f"stitched: while (i <= 5) do {{ {trace} }}\n")


def test_gp_check_passes_on_the_loop_with_an_if(tmp_path):
    path = tmp_path / "loop.w"
    path.write_text(GP_IF_LOOP)
    rc, out, err = call(["gp-check", path, "--initials", GP_IF_STORE])
    assert (rc, err) == (0, "")
    assert out == ("ok - stitched compilation matches extraction (s0 -> h0#1, s1 -> h1#1, "
                   "s10 -> s4, s2 -> h2#1, s3 -> s3, s4 -> s5, s5 -> h3#1, s6 -> h4#1, "
                   "s7 -> s0, s8 -> s1, s9 -> s2)\n")


def _nested_blocks(n):
    return "while (x <= 3) do { " + "if tt then { " * n + "x := x + 1; " + "} " * n + "}\n"


@pytest.mark.parametrize("cmd", ["gp-compile", "gp-trace", "gp-check"])
def test_while_blocks_nest_to_the_bound(tmp_path, cmd):
    """Each block is one level: the while and 197 ifs open 198 levels, and
    the innermost ``x + 1`` nests two more, ``MAX_DEPTH`` in all.  Every
    while-language command works there (printing once recursed past Python's
    limit at 194 blocks), and one more block is refused."""
    n = textio.MAX_DEPTH - 3
    path = tmp_path / "deep.w"
    flags = [] if cmd == "gp-compile" else ["--initials", '{"x": 0}']
    path.write_text(_nested_blocks(n))
    rc, out, err = call([cmd, path, *flags])
    assert (rc, err) == (0, "") and out
    path.write_text(_nested_blocks(n + 1))
    assert call([cmd, path, *flags]) == \
        (2, "", f"error: line 1: nested deeper than {textio.MAX_DEPTH} levels\n")


def test_the_parser_built_once_keeps_no_state_between_calls(tmp_path):
    """``main`` reuses one parser: a call with ``--pass`` leaks no pass, and
    no other value, into the next call, which prints what a fresh process
    prints."""
    import os
    import subprocess
    import sys
    path = tmp_path / "loop.tl"
    path.write_text(LOOP_SRC)
    argv = ["pipeline", str(path), "--domain", "type"]
    with_pass = call([*argv, "--pass", "ts", "--rounds", "2", "--sample", "2"])
    without = call(argv)
    assert cli.build_parser() is cli.build_parser()
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    fresh = subprocess.run([sys.executable, "-m", "tracelab.cli", *argv],
                           capture_output=True, text=True, env=env, check=False)
    assert without == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert with_pass[0] == without[0] == 0 and with_pass[1] != without[1]


def test_reports_do_not_depend_on_the_hash_seed(tmp_path):
    """Nodes hash by identity, so a set of commands iterates in the order of
    their addresses, and strings hash by ``PYTHONHASHSEED``: neither order
    may reach a report.  Two processes with different seeds print the same
    three-round pipeline, hot paths and extraction of a generated program."""
    import os
    import subprocess
    import sys
    from tracelab import gen
    path = tmp_path / "g15.tl"
    path.write_text(textio.print_program(gen.gen_program(15)))
    flags = [str(path), "--domain", "type", "--sample", "4", "--seed", "15"]
    calls = [["pipeline", *flags, "--pass", "ts", "--rounds", "3"], ["hot", *flags],
             ["extract", *flags]]
    code = "import json, sys\nfrom tracelab import cli\nfor a in json.loads(sys.argv[1]): cli.main(a)"
    src = str(Path(__file__).resolve().parent.parent / "src")
    outs = [subprocess.run([sys.executable, "-c", code, json.dumps(calls)], capture_output=True,
                           text=True, check=True,
                           env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}).stdout
            for seed in ("0", "1")]
    assert outs[0] == outs[1]
    assert outs[0] == "".join(call(argv)[1] for argv in calls)
    assert len(json.loads(outs[0][:outs[0].index("\n}\n") + 2])["hotpaths"]) == 3


@pytest.mark.parametrize("cmd", ["run", "hot", "pipeline", "gp-check"])
def test_seed_is_read_only_with_sample(tmp_path, cmd):
    """``--seed`` without ``--sample`` is refused, ``--sample 0`` included;
    ``--sample`` without ``--seed`` draws the stores of seed 0."""
    path = tmp_path / "prog"
    path.write_text(GP_LOOP if cmd == "gp-check" else LOOP_SRC)
    for extra in (["--seed", "3"], ["--seed", "0", "--sample", "0"]):
        assert call([cmd, path, *extra]) == (2, "", "error: --seed is read only with --sample\n")
    if cmd != "gp-check":
        sampled = [cmd, path, "--sample", "3"]
        assert call(sampled) == call([*sampled, "--seed", "0"])


@pytest.mark.parametrize("op", sorted(DOUBLING_SRC))
def test_a_doubling_string_ends_the_run_without_a_traceback(tmp_path, op):
    """A string that doubles at every step would exhaust memory: the run ends
    where a string would pass ``semantics.STR_MAX`` characters, as a
    truncated run, and the pipeline judges it by prefix."""
    path = tmp_path / "dbl.tl"
    path.write_text(DOUBLING_SRC[op])
    initials = ["--initials", '[{"z": "a"}, {"z": ""}]']
    rc, out, err = call(["run", path, *initials])
    assert (rc, err) == (0, "")
    too_long, empty = out.splitlines()
    assert too_long.startswith('too-long after 21 states; final <[z/"aaaa')
    assert empty.startswith("truncated after 2000 states")
    rc, out, err = call(["pipeline", path, "--domain", "type", "--pass", "ts", *initials])
    assert rc in (0, 1) and "Traceback" not in err
    report = json.loads(out)
    assert report["status"] == "stitched" and "z +Str z" in report["programs"]["after"]


def test_a_doubling_while_language_loop_is_an_error(tmp_path):
    """The while-language baseline evaluates outside ``run``, so the bound
    is an error there: one line, exit 2."""
    path = tmp_path / "dbl.w"
    path.write_text("while (tt) do { z := z + z; }\n")
    assert call(["gp-check", path, "--initials", '{"z": "a"}']) == \
        (2, "", "error: a string would hold more than 1048576 characters\n")
