"""Grammar-driven fuzzing of the CLI contract: whatever the program text, the
initial stores and the flags, an in-process ``cli.main`` call of ``run``,
``hot``, ``pipeline`` or ``check`` exits 0, 1 or 2 and prints no traceback.

Programs are drawn from a loop skeleton whose actions and tests are drawn
from the expression grammar: deep and wide expressions, huge and negative
literals, strings and Booleans where ints are expected, array reads and
writes at any index, guards of every domain over drawn store literals, long
arrays and unusual legal names.  Branch tests put comparisons inside 1 to
210 parentheses, and negate and conjoin them and ``tt`` and ``ff`` (alone
or in parentheses), so every way a ``(`` can open a test is read.  Some
loops branch on a cp guard that leaves other variables to top; they loop 1
to 13 times, and their calls run one store on the guard's constants and
one off one of them.  Some are then
made malformed by cutting, repeating or splicing their text.  Others are a
loop that doubles a string at every step.  The draws are derandomized, so
every run tries the same cases.

The same grammar, with strings that print with escapes among its literals,
draws the programs of the round-trip test: a program that parses prints to
text that parses back to it, also when it nests near the depth bound."""

import contextlib
import io
import itertools
import json

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from tracelab import cli, textio

# legal names that look like something else: a label, a member of an
# array, a keyword with a suffix, a scope-suffixed label, an underscore
NAMES = ["x", "y", "i", "_", "x#1", "L1", "a_0", "a_01", "tt_", "skipx", "h0#1", "__9"]

names = st.sampled_from(NAMES) | st.from_regex(r"[A-Za-z_][A-Za-z0-9_#]{0,5}", fullmatch=True)
# ints as text: some have more digits than Python converts by default
ints = (st.integers(-3, 12) | st.integers(-(10 ** 30), 10 ** 30)).map(str) | \
    st.sampled_from(["9" * 4400, "-" + "9" * 4400, str(2 ** 64), "-0"])
literals = ints | st.sampled_from(['""', '"a"', '"\\u00e9;x"', "tt", "ff"])


def _expr(children):
    return st.one_of(
        st.tuples(children, st.sampled_from(["+", "%", "+Int", "+Str"]), children)
        .map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        children.map(lambda e: f"a[{e}]"),
    )


@st.composite
def deep_exprs(draw):
    """A chain of additions or a parenthesized nest, around the parser's
    depth bound."""
    depth = draw(st.integers(190, 210))
    if draw(st.booleans()):
        return "x" + " + 1" * depth
    return "(" * depth + "x" + ")" * depth


def grammar(pool):
    """The strategy of drawn programs over the literal pool ``pool``: each
    draw is a text and the ``(variable, constant)`` bindings of its branch's
    cp guard, if it has one.  An assignment of ``deep_exprs`` is among the
    actions."""
    exprs = st.recursive(names | pool, _expr, max_leaves=12)

    # guard store literals of each domain, families and defaults included
    slots = {"type": st.sampled_from(["Int", "Str", "Bool", "Top", "Bot", "Undef", "Nat"]),
             "cp": pool | st.sampled_from(["top", "bot", "undef"]),
             "onepoint": st.sampled_from(["top", "x"])}

    @st.composite
    def guards(draw, cp_loop=False):
        """A guard literal and its cp constants; a cp one binds at least one
        variable.  With ``cp_loop`` it is a cp one that leaves the other
        variables to top."""
        tag = "cp" if cp_loop else draw(st.sampled_from(["type", "type", "cp", "onepoint", "interval"]))
        cp = tag == "cp"
        entries, consts = [], []
        for _ in range(draw(st.integers(cp, 3))):
            x, slot = draw(names), draw(slots.get(tag, names))
            family = draw(st.sampled_from(["", "", "[3]", "[5000]", "[-1]"]))
            entries.append(f"{x}: {slot}{family}")
            if cp and slot not in ("top", "bot", "undef"):
                members = {"": [x], "[3]": [f"{x}_{k}" for k in range(3)]}.get(family, [f"{x}_0"])
                consts += [(member, slot) for member in members]
        if cp_loop:
            entries.append("*: top")
        else:
            entries += draw(st.sampled_from([[], [], [f"*: {draw(slots.get(tag, names))}"]]))
        braced = "{" + ", ".join(entries) + "}"
        store = draw(st.sampled_from([braced] * 3 + ["top", "bot"] * (not cp)))
        return f"guard {tag} {store}", consts if store == braced else []

    # tests: comparisons inside 1 to 210 parentheses, tt and ff alone and in
    # parentheses, and negations and conjunctions of these
    comparisons = st.tuples(st.integers(1, 3) | st.integers(1, 210) | st.integers(195, 210), exprs,
                            st.sampled_from(["<=", "="]), exprs)
    tests = st.recursive(
        comparisons.map(lambda t: f"{'(' * t[0]}{t[1]} {t[2]} {t[3]}{')' * t[0]}")
        | st.sampled_from(["tt", "ff", "(tt)", "(ff)", "((tt))"]),
        lambda ts: ts.map(lambda b: f"!{b}") | st.tuples(ts, ts).map(lambda t: f"({t[0]} && {t[1]})"),
        max_leaves=3)
    branch_tests = tests.map(lambda b: (b, [])) | guards()

    @st.composite
    def actions(draw):
        kind = draw(st.sampled_from(["assign"] * 4 + ["index"] * 2 + ["put", "skip", "deep"]))
        if kind == "assign":
            return f"{draw(names)} := {draw(exprs)}"
        if kind == "index":
            return f"a[{draw(exprs)}] := {draw(exprs)}"
        if kind == "put":
            return "put {" + ", ".join(draw(st.lists(names, max_size=3))) + "}"
        if kind == "deep":
            return f"x := {draw(deep_exprs())}"
        return "skip"

    @st.composite
    def programs(draw, cp_loop=False):
        """A counting loop around drawn actions, with a drawn branch inside,
        with ``cp_loop`` a cp guard; a loop around a cp guard runs 1 to 13
        times."""
        n = draw(st.sampled_from([0, 1, 3, 100, 5000]))
        test, consts = draw(guards(cp_loop=True) if cp_loop else branch_tests)
        body = draw(st.lists(actions(), min_size=1, max_size=3))
        bound = draw(st.integers(0, 12).map(str) if consts else ints)
        lines = ["#entry L0"] + ([f"#array a {n}"] if n else [])
        lines += ["L0: i := 0 -> L1",
                  f"L1: (i <= {bound}) -> B0",
                  f"L1: !(i <= {bound}) -> E",
                  f"B0: {test} -> B1",
                  f"B0: !{test} -> S"]
        lines += [f"B{k + 1}: {a} -> B{k + 2}" for k, a in enumerate(body)]
        lines += [f"B{len(body) + 1}: skip -> S",
                  "S: i := (i + 1) -> L1",
                  "E: skip -> ."]
        return "\n".join(lines) + "\n", consts

    return programs


loops = grammar(literals)


def programs():
    return loops().map(lambda drawn: drawn[0])


@st.composite
def doubling_loops(draw):
    """A loop that concatenates a variable with itself from a drawn start, so
    a string doubles until the run meets the semantics' string bound."""
    x, op = draw(names), draw(st.sampled_from(["+", "+Str"]))
    start = draw(st.sampled_from(['"a"', '"\\u00e9;x"']) | literals)
    return f"#entry L0\nL0: {x} := {start} -> L1\nL1: {x} := ({x} {op} {x}) -> L1\n"


@st.composite
def malformed(draw, texts):
    """A drawn program cut, with a line repeated or a token spliced in."""
    text = draw(texts)
    how = draw(st.sampled_from(["cut", "repeat", "splice", "keyword"]))
    at = draw(st.integers(0, len(text)))
    if how == "cut":
        return text[:at]
    if how == "repeat":
        lines = text.splitlines(keepends=True)
        k = draw(st.integers(0, len(lines) - 1))
        return "".join(lines[:k + 1] + [lines[k]] + lines[k + 1:])
    token = draw(st.sampled_from(["(", ")", "[", "]", "{", "}", "->", ":=", "!", "#entry L9",
                                  "\n", '"', ";", ".", "*"]) if how == "splice"
                 else st.sampled_from(textio.KEYWORDS))
    return text[:at] + token + text[at:]


# initial stores as JSON text, with values no store holds
values = st.sampled_from([ints] * 8 + [st.sampled_from(["true", "false", '""', '"a"'])] * 3 +
                         [st.sampled_from(["[1, 2]", "null", "{}", "1.5"])]).flatmap(lambda s: s)
initials = st.dictionaries(names | st.sampled_from(["", " ", "a_2", "a_4999"]), values,
                           max_size=4).map(
    lambda d: "{" + ", ".join(f"{json.dumps(k)}: {v}" for k, v in d.items()) + "}")


_serial = itertools.count()  # each program goes to a new file


JSON_OF = {"tt": "true", "ff": "false"}


def _store(bindings) -> str:
    """JSON text of a store binding each variable to a cp constant's text."""
    return "{" + ", ".join(f"{json.dumps(x)}: {JSON_OF.get(v, v)}" for x, v in bindings) + "}"


@st.composite
def calls(draw, workdir):
    kinds = [loops()] * 3 + [loops(cp_loop=True)] + [
        s.map(lambda text: (text, [])) for s in (doubling_loops(), malformed(programs()))]
    text, consts = draw(st.sampled_from(kinds).flatmap(lambda s: s))
    path = workdir / f"p{next(_serial)}.tl"
    path.write_text(text)
    cmd = draw(st.sampled_from(["run", "hot", "pipeline", "check"]))
    argv = [cmd, str(path)]
    if cmd == "check":
        other = workdir / f"q{next(_serial)}.tl"
        other.write_text(draw(st.just(text) | programs() | malformed(programs())))
        argv += [str(other), "--observe", draw(st.sampled_from(["sc", "out"]))]
    if cmd in ("hot", "pipeline"):
        argv += ["--domain", draw(st.sampled_from(["onepoint", "type", "cp"])),
                 "--threshold", draw(st.sampled_from(["2"] * 6 + ["1", "3", "0"]))]
    if cmd == "pipeline":
        argv += [*(f"--pass={p}" for p in draw(st.lists(st.sampled_from(["ts", "ts", "cf", "dse"]),
                                                        max_size=2))),
                 "--rounds", str(draw(st.integers(1, 3)))]
    stores = draw(st.lists(initials, max_size=2))
    if consts:  # the branch's cp guard: a store on its constants, one off one of them
        k = draw(st.integers(0, len(consts) - 1))
        off = draw(st.sampled_from(["0", "1", '"a"', "tt"]).filter(lambda v: v != consts[k][1]))
        stores = [_store(consts), _store(consts[:k] + [(consts[k][0], off)] + consts[k + 1:])]
    if stores:
        argv += ["--initials", "[" + ", ".join(stores) + "]"]
    argv += ["--budget", str(draw(st.sampled_from([40, 300] if consts else [1, 40, 300])))]
    return argv


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=250, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(data=st.data())
def test_the_cli_contract_holds_on_fuzzed_input(workdir, data):
    argv = data.draw(calls(workdir))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv


# strings that print with escapes: a line break, a tab, a control character,
# two characters that end a line for ``str.splitlines``, a non-ASCII letter
# and a quote.  The draws hold them in expressions and, seldom, as cp guard
# constants; the example holds them in both.
ESCAPED = ["a\nb", "\t", "\u0001", "\u2028", "\u0085", "\u00e9", 'q"r']
round_trip_loops = grammar(literals | st.sampled_from(ESCAPED).map(json.dumps))


@settings(max_examples=250, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much,
                                 HealthCheck.data_too_large])
@given(text=round_trip_loops().map(lambda drawn: drawn[0]))
@example("#entry L0\n"
         'L0: guard cp {x: "a\\nb", a: "\\u2028"[2], *: "\\t"} -> L1\n'
         'L0: !guard cp {x: "a\\nb", a: "\\u2028"[2], *: "\\t"} -> L1\n'
         'L1: s := (s + "q\\"r\\u0001") -> L2\n'
         "L2: skip -> .\n")
def test_a_parsed_program_prints_to_text_that_parses_back_to_it(text):
    """``print_program`` writes what ``parse_program`` reads: the printed
    text of every drawn program that parses is the same program."""
    try:
        p = textio.parse_program(text)
    except textio.ParseError:  # an unknown domain or slot name, a keyword as a name
        assume(False)
    assert textio.parse_program(textio.print_program(p)) == p
