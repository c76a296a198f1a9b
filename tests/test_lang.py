import dataclasses
import gc
import itertools
import random
import weakref

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from tracelab import gen, lang, textio
from tracelab.lang import (Command, HALT, LabelScope, Program, find_cmpl,
                           negate_bexpr, rename_equal, well_formed)
from tracelab.textio import ParseError, parse_program, print_program
from tracelab.values import Bool, TT
from tests import test_fuzz as fuzz
from tests.conftest import LOOP_SRC, command_at


def test_parse_loop_program(loop_program):
    assert loop_program.entry == "L0"
    assert len(loop_program.commands) == 8
    assert well_formed(loop_program) == []


def test_print_parse_roundtrip(loop_program, sieve_program, cf_program, dse_program):
    for p in (loop_program, sieve_program, cf_program, dse_program):
        text = print_program(p)
        assert parse_program(text) == p
        assert print_program(parse_program(text)) == text


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_program("#entry L0\n")  # no commands
    with pytest.raises(ParseError):
        parse_program("L0: skip -> .\n")  # missing entry
    with pytest.raises(ParseError):
        parse_program("#entry L0\nL0: skip -> .\nL0: skip -> .\n")  # duplicate
    with pytest.raises(ParseError) as exc:
        parse_program("#entry L0\nL0: x := -> L1\n")
    assert exc.value.line == 2
    with pytest.raises(ParseError) as exc:
        parse_program("#entry L0\nL0: x := 1 ->\n")
    assert str(exc.value) == "line 2: unexpected end of line"


@pytest.mark.parametrize("line, message", [
    ("L0: guard type {x: Int, x: String} -> L1", "variable x bound twice"),
    ("L0: guard type {a: Bool[2], a_1: Int} -> L1", "variable a_1 bound twice"),
    ("L0: guard cp {a_0: 1, a: 2[2]} -> L1", "variable a_0 bound twice"),
    ("L0: put {1, ->} -> L1", "bad variable name '1'"),
    ("L0: put {x, 2} -> L1", "bad variable name '2'"),
    ('L0: x := "a\\q" -> L1', 'bad string literal "a\\q": Invalid \\escape'),
    ('L0: guard cp {x: "a\\q"} -> L1', 'bad string literal "a\\q": Invalid \\escape'),
    ('L0: guard type {x: "a"} -> L1', 'unknown type name: "a"'),
    ('L0: guard onepoint {x: "a"} -> L1', "one-point store literals are {}"),
    ("L0: put {x y} -> L1", "expected '}', got 'y'"),
    ("L0: put {x,} -> L1", "bad variable name '}'"),
    ("L0: guard type {x: Int y: Int} -> L1", "expected '}', got 'y'"),
    ("L0: guard type {*: Top, x: Int} -> L1", "*: V is the last entry"),
    ("L0: guard type {x: Int, *: Top[2]} -> L1", "expected '}', got '['"),
    ("#entry L9", "#entry given twice"),
    ("L0: guard interval {} -> L1", "unregistered store abstraction: interval"),
    ("L0: guard type {a: Int[65537]} -> L1", "a guard store binds more than 65536 variables"),
    ("L0: guard cp {x: 1, a: 2[65536]} -> L1", "a guard store binds more than 65536 variables"),
    ("5: skip -> L1", "bad label '5'"),
    ("L0: skip -> 5", "bad successor label '5'"),
    ("L0: skip -> L1 L2", "trailing tokens: 'L2'"),
    ("#entry L0 L1", "#entry takes one label"),
    ("#array a", "#array takes a name and a size"),
    ("L0: y := x +", "unexpected end of line"),  # a missing operand names the end
])
def test_parse_errors_name_the_line(line, message):
    """Forms the printer never emits are refused with the line they are on."""
    with pytest.raises(ParseError) as exc:
        parse_program(f"#entry L0\n\n{line}\nL1: skip -> .\n")
    assert str(exc.value) == f"line 3: {message}"


def test_an_array_family_is_declared_once():
    with pytest.raises(ParseError) as exc:
        parse_program("#entry L0\n#array a 2\n#array a 5\nL0: a[0] := 1 -> .\n")
    assert str(exc.value) == "line 3: #array a given twice"


def test_a_guard_family_names_its_size():
    """``#array`` declares a family for the program only; a guard literal
    spells out the size of every family it binds."""
    with pytest.raises(ParseError) as exc:
        parse_program("#entry L0\n#array primes 2\nL0: guard type {primes: Bool[]} -> L1\n"
                      "L1: skip -> .\n")
    assert str(exc.value) == "line 3: bad family size ']'"


def test_a_guard_store_may_bind_up_to_the_bound():
    """The bound counts a family member by member, and a literal that binds
    exactly ``MAX_BINDINGS`` variables parses."""
    p = parse_program(f"#entry L0\nL0: guard type {{x: Int, a: Int[{textio.MAX_BINDINGS - 1}]}}"
                      " -> L1\nL1: skip -> .\n")
    (guard,) = p.at("L0")
    assert len(guard.action.store.items) == textio.MAX_BINDINGS == 65536


@pytest.mark.parametrize("src, message", [
    ("x := 1;\ny := ;", "line 2: expected expression, got ';'"),
    ("if x <= ", "line 1: unexpected end of input"),
    ("x := 0;\nwhile (x <= 3) do {\n  x := x + 1;\n", "line 3: unexpected end of input"),
    ("skip;\nskip", "line 2: unexpected end of input"),
    ("while (x <= 3) do\n  x := 1; }", "line 2: expected '{', got 'x'"),
    ("x := 1;\n}", "line 2: expected a statement, got '}'"),
])
def test_while_language_errors_name_their_line(src, message):
    with pytest.raises(ParseError) as exc:
        textio.parse_gp_program(src)
    assert str(exc.value) == message


def test_the_reader_reads_each_token_once(monkeypatch):
    """The cursor only moves forward: each token of a line is read by one
    ``_Cursor.next`` call, in order, on the printed gen corpus, the conftest
    programs, an array read that heads a test, and tests inside 1, 50 and 199
    parentheses in both formats."""
    from tests import conftest
    read = []
    next_token = textio._Cursor.next
    monkeypatch.setattr(textio._Cursor, "next", lambda c: read.append(c.i) or next_token(c))

    def reads_once(parse, text, toks):
        read.clear()
        parse(text)
        assert read == list(range(len(toks))), text[:80]

    texts = [print_program(gen.gen_program(seed)) for seed in range(120)]
    texts += [conftest.LOOP_SRC, conftest.SIEVE_SRC, conftest.CF_SRC, conftest.DSE_SRC,
              conftest.SHARED_EXIT_SRC, *conftest.DOUBLING_SRC.values(), "L0: a[x + 1] <= 3 -> L1"]
    tests = []
    for n in (1, 50, 199):
        o, c = "(" * n, ")" * n
        tests += [o + b + c for b in ("x <= 3", "tt", "ff && x = 1", "(x) + 1 <= 3", "!x <= 3")]
        tests += [f"{o}x{c} + 1 <= 3", f"!{o}x <= 3{c}"]
    for test in tests:
        texts.append(f"L0: {test} -> L1")
        gp = f"while {test} do {{ x := x + 1; }}"
        reads_once(textio.parse_gp_program, gp, textio.tokenize(gp, None, textio._GP_TOKEN_RE, "#"))
    lines = [l for text in texts for l in text.splitlines() if l.strip() and l[0] not in "#;"]
    assert len(lines) > 1400
    for line in lines:
        reads_once(textio.parse_command, line, textio.tokenize(line))


@pytest.mark.parametrize("test, parsed", [
    ("(tt)", "tt"),
    ("((tt)) <= 1", "(tt <= 1)"),
    ("(tt + 1) <= 2", "((tt + 1) <= 2)"),
    ("((x) + 1 <= 2) && (ff)", "(((x + 1) <= 2) && ff)"),
    ("!((x) = y)", "!(x = y)"),
    ("(tt + 1 <= 2)", None),
    ('("a" && tt)', None),
    ("((x <= 1)) + 1 <= 2", None),
    ("(x)", None),
    ("tt + 1 <= 2", None),
])
def test_a_group_in_a_test_is_decided_by_what_it_holds_and_what_follows(test, parsed):
    """A group is the first operand of a comparison when an operator or a
    comparison follows it, else a test; a bare ``tt`` or ``ff`` reads both
    ways, and only in a group may it begin an expression."""
    if parsed is None:
        with pytest.raises(ParseError):
            textio.parse_command(f"L0: {test} -> L1")
    else:
        assert str(textio.parse_command(f"L0: {test} -> L1").action) == parsed


def test_comment_after_whitespace_in_the_documented_example():
    """The format example of the textio docstring parses, including its
    ``L0: x := 0 -> L1          ; comment`` line."""
    example = "\n".join(l.strip() for l in textio.__doc__.splitlines() if l.startswith("    "))
    p = parse_program(example)
    assert p.at("L0") == (Command("L0", lang.Assign("x", lang.Lit(0)), "L1"),)
    assert len(p.commands) == 7


def test_comment_character_inside_a_string_is_text():
    p = parse_program('#entry L0\nL0: s := "a;b" -> .  ; comment\n')
    assert p.at("L0")[0].action == lang.Assign("s", lang.Lit("a;b"))
    from tracelab.gp import GAssign
    stm = textio.parse_gp_program('x := "a#b";  # comment\ny := 1;\n')
    assert stm == (GAssign("x", lang.Lit("a#b")), GAssign("y", lang.Lit(1)))


def test_typed_additions_only_in_the_labeled_command_format():
    with pytest.raises(ParseError):
        textio.parse_gp_program("x := y +Int z;")
    p = parse_program('#entry L0\nL0: x := (x +Int 1) -> L1\nL1: s := (s +Str "a") -> .\n')
    assert [c.action.expr for c in p.sorted_commands] == [
        lang.AddTyped(lang.Var("x"), lang.Lit(1), "Int"),
        lang.AddTyped(lang.Var("s"), lang.Lit("a"), "Str")]


def test_missing_complement_is_flagged_not_fatal():
    p = parse_program("#entry L1\nL1: (x <= 20) -> L2\nL2: skip -> .\n")
    diags = well_formed(p)
    assert len(diags) == 1 and "L1" in diags[0]


def test_well_formed_reports_in_a_fixed_order():
    """Commands without a complement or with several are reported in
    ``command_key`` order, then nondeterministic labels in label order,
    whatever order the program's set iterates in."""
    p = parse_program("#entry L0\n"
                      "L0: (z = 0) -> L1\n"
                      "L1: (x <= 5) -> L2\nL1: !(x <= 5) -> L3\nL1: !(x <= 5) -> L4\n"
                      "L2: (y <= 1) -> L4\nL2: (x <= 1) -> L4\n"
                      "L3: skip -> .\nL3: x := 2 -> .\n"
                      "L4: skip -> .\n")
    assert well_formed(p) == [
        "no complement for conditional at L0: L0: (z = 0) -> L1",
        "multiple complements for conditional at L1: L1: (x <= 5) -> L2",
        "no complement for conditional at L2: L2: (x <= 1) -> L4",
        "no complement for conditional at L2: L2: (y <= 1) -> L4",
        "nondeterministic label L1: 3 commands",
        "nondeterministic label L2: 2 commands",
        "nondeterministic label L3: 2 commands",
    ]


def test_only_labels_with_several_commands_are_sorted(monkeypatch):
    """``command_key`` prints an action, and a guard's action prints its
    store: a label with one command is not sorted, a complement pair is
    ordered by ``is_negation`` alone, and only a label with other commands
    is sorted by the key.  So ``well_formed`` of a well-formed program calls
    it on nothing, and its order is still the key's."""
    from tracelab import gen, pipeline
    stores = gen.gen_stores(3, gen.SAMPLE_VARS, 4)
    final = pipeline.pipeline(gen.gen_program(3), stores, "type", 2, 2000, ["ts"], 3).program
    assert any(isinstance(c.action, lang.Guard) for c in final.commands)
    keys, real = [], lang.command_key

    def counting(c):
        keys.append(c)
        return real(c)

    monkeypatch.setattr(lang, "command_key", counting)
    p = Program(final.commands, final.entry, final.arrays)  # no cached tables
    assert well_formed(p) == []
    shared = {c.label for c in p.commands if len(p.at(c.label)) > 1}
    assert shared and keys == []
    assert all(p.at(l) == tuple(sorted(p.at(l), key=real)) for l in shared)
    assert "sorted_commands" not in p.__dict__
    # three commands at a label are sorted by the key
    q = parse_program("#entry L0\nL0: (x <= 1) -> L1\nL0: !(x <= 1) -> L1\nL0: skip -> L1\n"
                      "L1: skip -> .\n")
    assert well_formed(q) and len(keys) == 3
    assert [str(c) for c in q.at("L0")] == ["L0: !(x <= 1) -> L1", "L0: (x <= 1) -> L1",
                                            "L0: skip -> L1"]


def _in_key_order(p: Program) -> bool:
    return all(p.at(l) == tuple(sorted(p.at(l), key=lang.command_key))
               for l in p.labels() if len(p.at(l)) > 1)


def test_labels_of_the_corpus_and_the_sieve_are_in_key_order(type_ts_finals):
    """``by_label`` orders the commands at every label of generated programs
    0-299, the sieve and their type/ts finals as ``command_key`` does."""
    assert all(_in_key_order(p) and _in_key_order(final) for p, final, _, _ in type_ts_finals)


@settings(max_examples=200, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much,
                                 HealthCheck.data_too_large])
@given(fuzz.programs())
def test_labels_of_fuzzed_programs_are_in_key_order(text):
    """Likewise on the programs the CLI fuzzing draws, guards of every
    domain and ``!tt`` pairs among them."""
    try:
        p = parse_program(text)
    except ParseError:  # an unknown domain or slot name
        assume(False)
    assert _in_key_order(p)


def test_halt_cannot_label_a_command():
    with pytest.raises(lang.LangError):
        Command(HALT, lang.Skip(), "L1")


def test_cmpl_involution(loop_program):
    c1 = command_at(loop_program, "L1", lambda c: not str(c.action).startswith("!"))
    c1c = find_cmpl(c1, loop_program)
    assert c1c.succ == "L5"
    assert find_cmpl(c1c, loop_program) == c1


def test_cmpl_requires_conditional(loop_program):
    c0 = command_at(loop_program, "L0")
    assert find_cmpl(c0, loop_program) is None
    c1 = command_at(loop_program, "L1", lambda c: not str(c.action).startswith("!"))
    twin = Command("L1", lang.Cond(lang.negate_bexpr(c1.action.test)), "L2")
    p = Program(loop_program.commands | {twin}, loop_program.entry, loop_program.arrays)
    assert find_cmpl(c1, p) is None
    assert any("multiple complements for conditional at L1" in d for d in well_formed(p))


def test_well_formed_after_removing_complement(loop_program):
    c1c = command_at(loop_program, "L1", lambda c: str(c.action).startswith("!"))
    p = Program(loop_program.commands - {c1c}, loop_program.entry, loop_program.arrays)
    diags = well_formed(p)
    assert any("L1" in d for d in diags)


def test_an_entry_label_without_a_command_is_diagnosed_and_cannot_run():
    from tracelab.semantics import SemanticsError, Store, run
    p = parse_program("#entry L9\nL0: skip -> .\n")
    assert well_formed(p) == ["entry label L9 has no command"]
    with pytest.raises(SemanticsError, match="^no command at entry label L9$"):
        run(p, Store(), 10)


def test_determinism_diagnostic():
    p = parse_program("#entry L0\nL0: skip -> L1\nL0: x := 1 -> L1\nL1: skip -> .\n")
    assert well_formed(p) == ["nondeterministic label L0: 2 commands"]


def test_nondeterministic_labels_are_decided_once_per_program(loop_program):
    p = parse_program("#entry L0\nL0: skip -> L1\nL0: x := 1 -> L1\n"
                      "L1: (x <= 1) -> L2\nL1: !(x <= 1) -> L2\nL1: skip -> L2\nL2: skip -> .\n")
    assert p.nondeterministic == frozenset({"L0", "L1"})
    assert p.nondeterministic is p.nondeterministic
    assert loop_program.nondeterministic == frozenset()


@given(st.integers(-5, 5), st.integers(-5, 5))
def test_negate_involution(a, b):
    bexpr = lang.Leq(lang.Lit(a), lang.Lit(b))
    assert negate_bexpr(negate_bexpr(bexpr)) == bexpr


# ---------------------------------------------------------------------------
# rename_equal
# ---------------------------------------------------------------------------

def brute_force_bijection(p1: Program, p2: Program):
    """Exhaustive oracle for programs with few labels."""
    l1, l2 = sorted(p1.labels()), sorted(p2.labels())
    if len(l1) != len(l2):
        return None
    for perm in itertools.permutations(l2):
        m = dict(zip(l1, perm))
        renamed = frozenset(
            Command(m[c.label], c.action, HALT if c.succ == HALT else m[c.succ])
            for c in p1.commands
        )
        if renamed == p2.commands:
            return m
    return None


def _relabel(p: Program, mapping) -> Program:
    cmds = frozenset(
        Command(mapping[c.label], c.action, HALT if c.succ == HALT else mapping[c.succ])
        for c in p.commands
    )
    return Program(cmds, mapping[p.entry], p.arrays)


def test_rename_equal_identity(loop_program):
    bij = rename_equal(loop_program, loop_program)
    assert bij == {l: l for l in loop_program.labels()}


def test_rename_equal_finds_relabeling(loop_program):
    mapping = {l: f"M{i}" for i, l in enumerate(sorted(loop_program.labels()))}
    q = _relabel(loop_program, mapping)
    bij = rename_equal(loop_program, q)
    assert bij == mapping


def test_rename_equal_detects_redirected_edge(loop_program):
    c4 = command_at(loop_program, "L4")
    q = Program(loop_program.commands - {c4} | {Command("L4", c4.action, "L5")},
                loop_program.entry, loop_program.arrays)
    assert rename_equal(loop_program, q) is None
    assert brute_force_bijection(loop_program, q) is None


# the first six gen seeds whose programs have at most 8 labels, as many as the
# exhaustive oracle can permute
SMALL_SEEDS = (0, 1, 2, 3, 4, 6)


@pytest.mark.parametrize("k", range(6))
def test_rename_equal_agrees_with_brute_force(k):
    from tracelab.gen import gen_program
    p = gen_program(SMALL_SEEDS[k])
    assert len(p.labels()) <= 8
    mapping = {l: f"R{i}" for i, l in enumerate(sorted(p.labels()))}
    q = _relabel(p, mapping)
    assert rename_equal(p, q) is not None
    assert brute_force_bijection(p, q) is not None


def test_rename_equal_is_equivalence(loop_program, cf_program):
    # reflexive
    assert rename_equal(cf_program, cf_program) is not None
    # symmetric: invert the bijection
    mapping = {l: f"S{i}" for i, l in enumerate(sorted(cf_program.labels()))}
    q = _relabel(cf_program, mapping)
    fwd = rename_equal(cf_program, q)
    back = rename_equal(q, cf_program)
    assert fwd is not None and back is not None
    assert {v: k for k, v in fwd.items()} == {k: v for k, v in back.items()} or \
        _relabel(q, back).commands == cf_program.commands
    # transitive: compose two renamings
    mapping2 = {f"S{i}": f"T{i}" for i in range(len(mapping))}
    r = _relabel(q, mapping2)
    assert rename_equal(cf_program, r) is not None


@pytest.mark.parametrize("domain, passes, rounds", [("type", ["ts"], 3), ("cp", ["cf"], 1)])
@pytest.mark.parametrize("seed", range(4))
def test_rename_equal_returns_the_relabeling_of_final_programs(seed, domain, passes, rounds):
    """The walk from the entries finds exactly the shuffled bijection that
    relabeled a final program, and no renaming once one edge moves.  The type
    rounds stitch guarded chains; cp mines no path on these programs."""
    from tracelab import gen, pipeline
    stores = gen.gen_stores(seed, gen.SAMPLE_VARS, 4)
    rep = pipeline.pipeline(gen.gen_program(seed), stores, domain, 2, 2000, passes, rounds)
    assert bool(rep.hotpaths) == (domain == "type")
    p = rep.program
    labels = sorted(p.labels())
    names = [f"Q{i}" for i in range(len(labels))]
    random.Random(seed).shuffle(names)
    mapping = dict(zip(labels, names))
    assert rename_equal(p, _relabel(p, mapping)) == mapping
    c = next(c for c in p.sorted_commands if c.succ not in (HALT, p.entry))
    moved = Program(p.commands - {c} | {Command(c.label, c.action, p.entry)}, p.entry, p.arrays)
    assert rename_equal(p, _relabel(moved, mapping)) is None


def test_rename_equal_refuses_a_label_the_entry_cannot_reach(loop_program):
    p = Program(loop_program.commands | {Command("U", lang.Skip(), loop_program.entry)},
                loop_program.entry, loop_program.arrays)
    assert brute_force_bijection(p, p) is not None
    assert rename_equal(p, p) is None


def test_fresh_labels_disjoint(loop_program):
    scope = LabelScope.fresh_for(loop_program)
    names = {scope.ell(i) for i in range(5)} | {scope.bbl(i) for i in range(5)} \
        | {scope.bar("L1")}
    assert len(names) == 11
    assert names.isdisjoint(loop_program.labels())
    # a second scope over a program containing the first scope's labels stays fresh
    p2 = Program(loop_program.commands | {Command(scope.ell(0), lang.Skip(), HALT)},
                 loop_program.entry, loop_program.arrays)
    scope2 = LabelScope.fresh_for(p2)
    assert scope2.ell(0) != scope.ell(0)


def test_action_printing_examples():
    cases = [
        "L0: x := (x +Int 1) -> L1",
        "L0: y := (a +Str b) -> L1",
        'L0: s := "a\\"b" -> L1',
        "L0: put {x, y} -> L1",
        "L0: primes[(i + 1)] := ff -> L1",
        "L0: ((x % 3) = 0) -> L1",
        "L0: (tt && !(x <= 2)) -> L1",
    ]
    for text in cases:
        cmd = textio.parse_command(text)
        assert str(cmd) == text


def test_equal_nodes_are_one_node():
    """A node is hash-consed: the parser, a constructor and a negation give
    the one live node, and a literal's key holds its value's class."""
    from tracelab.domains import type_domain
    a = type_domain.make({"x": "Int"})
    guard = Command("L0", lang.Guard(a, True), "L1")
    assert guard is Command("L0", lang.Guard(a, True), "L1")
    assert lang.negate_action(lang.negate_action(guard.action)) is guard.action
    first, second = parse_program(LOOP_SRC), parse_program(LOOP_SRC)
    assert first.commands == second.commands
    for c in first.commands:
        assert c in second.commands
        assert textio.parse_command(str(c)) is c
        assert Command(c.label, c.action, c.succ) is c
    assert lang.Lit(True) is not lang.Lit(1) and lang.Lit(False) != lang.Lit(0)
    assert lang.Lit(Bool(True)) is lang.Lit(TT)


def test_a_node_that_nothing_holds_leaves_the_table():
    e = lang.Add(lang.Var("only_in_this_test"), lang.Lit(7))
    refs = [weakref.ref(e), weakref.ref(e.left)]
    assert lang._NODES[(lang.Add, e.left, e.right)]() is e
    del e
    gc.collect()
    assert [r() for r in refs] == [None, None]
    assert (lang.Var, "only_in_this_test") not in lang._NODES


def test_a_nested_node_prints_its_fields_as_a_dataclass_would():
    c = Command("L0", lang.Cond(lang.Not(lang.And(lang.Tt(), lang.Leq(
        lang.Index("a", lang.Lit(True)), lang.Add(lang.Var("x"), lang.Lit("s")))))), HALT)
    assert repr(c) == (
        "Command(label='L0', action=Cond(test=Not(arg=And(left=Tt(), right=Leq("
        "left=Index(array='a', index=Lit(value=True)), right=Add(left=Var(name='x'), "
        "right=Lit(value='s')))))), succ='.')")
    assert repr(lang.Put(frozenset({"x"}))) == "Put(vars=frozenset({'x'}))"


def test_a_node_is_frozen():
    e = lang.Add(lang.Var("x"), lang.Lit(1))
    with pytest.raises(dataclasses.FrozenInstanceError, match="cannot assign to field 'left'"):
        e.left = lang.Var("y")
    with pytest.raises(dataclasses.FrozenInstanceError, match="cannot assign to field 'other'"):
        e.other = 1
    with pytest.raises(dataclasses.FrozenInstanceError, match="cannot delete field 'left'"):
        del e.left
    assert e.left is lang.Var("x") and e is lang.Add(lang.Var("x"), lang.Lit(1))


def test_a_call_with_too_few_or_too_many_fields_builds_nothing():
    x, one = lang.Var("x"), lang.Lit(1)
    before = set(lang._NODES)
    for cls, args in ((lang.Add, (x,)), (lang.Add, (x, one, one)), (lang.Lit, ()),
                      (lang.Tt, (x,)), (Command, ("L0", lang.Skip()))):
        with pytest.raises(TypeError, match=f"{cls.__name__}\\(\\) takes"):
            cls(*args)
    assert set(lang._NODES) == before


def test_halt_cannot_label_a_command_and_leaves_no_entry():
    with pytest.raises(lang.LangError, match="cannot label a command"):
        Command(HALT, lang.Skip(), "L1")
    assert (Command, HALT, lang.Skip(), "L1") not in lang._NODES


def _node_classes():
    from tracelab import domains, gp  # noqa: F401  (their node classes)
    classes, todo = set(), [lang.Node]
    while todo:
        for sub in todo.pop().__subclasses__():
            classes.add(sub)
            todo.append(sub)
    return classes


def test_no_node_class_is_a_dataclass():
    assert not any(dataclasses.is_dataclass(cls) for cls in _node_classes() | {lang.Node})
    assert lang.Command.__match_args__ == ("label", "action", "succ")
    assert lang.Tt.__match_args__ == ()


def test_no_node_class_defines_equality_or_a_hash():
    """Node equality is identity only: no node class, abstract stores and
    while-language statements included, compares or hashes its fields."""
    classes = _node_classes()
    assert {"Lit", "Command", "Guard", "AbstractStore", "GWhile"} <= {c.__name__ for c in classes}
    for cls in classes:
        assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__, cls
        assert "_hash" not in vars(cls), cls


def _type_guard():
    from tracelab.domains import type_domain
    return lang.Guard(type_domain.make({"g": "Int"}, type_domain.top().default), True)


def test_node_vars_on_every_kind():
    """A node's variables are its naming fields and those below it; a
    guard's store keys are not variables."""
    L, V = lang.Lit, lang.Var
    x, y = V("x"), V("y")
    cases = [
        (L(3), set()), (L("x"), set()), (x, {"x"}),
        (lang.Add(x, L(1)), {"x"}), (lang.AddTyped(x, y, "Int"), {"x", "y"}),
        (lang.Mod(L(7), y), {"y"}), (lang.Index("a", x), {"a", "x"}),
        (lang.Tt(), set()), (lang.Ff(), set()),
        (lang.Leq(x, lang.Index("b", L(0))), {"x", "b"}), (lang.Eq(y, L("s")), {"y"}),
        (lang.Not(lang.Leq(x, L(0))), {"x"}), (lang.And(lang.Eq(x, L(1)), lang.Tt()), {"x"}),
        (lang.Skip(), set()), (lang.Assign("z", lang.Add(x, y)), {"x", "y", "z"}),
        (lang.ArrayAssign("a", y, lang.Mod(x, L(2))), {"a", "x", "y"}),
        (lang.Cond(lang.Not(lang.Eq(x, y))), {"x", "y"}),
        (_type_guard(), set()), (lang.Put(frozenset({"p", "q"})), {"p", "q"}),
    ]
    kinds = {type(node) for node, _ in cases}
    assert kinds == {lang.Lit, lang.Var, lang.Add, lang.AddTyped, lang.Mod, lang.Index, lang.Tt,
                     lang.Ff, lang.Leq, lang.Eq, lang.Not, lang.And, lang.Skip, lang.Assign,
                     lang.ArrayAssign, lang.Cond, lang.Guard, lang.Put}
    for node, names in cases:
        assert lang.node_vars(node) == frozenset(names), node


def test_subst_expr_on_every_expression_kind():
    """A bound ``Var`` becomes its literal, an unbound one stays, and every
    other expression is rebuilt around its substituted operands."""
    L, V = lang.Lit, lang.Var
    b = {"x": 2, "s": "t", "f": TT}
    cases = [
        (L(5), L(5)), (V("x"), L(2)), (V("y"), V("y")), (V("f"), L(TT)),
        (lang.Add(V("x"), V("y")), lang.Add(L(2), V("y"))),
        (lang.AddTyped(V("s"), L("u"), "Str"), lang.AddTyped(L("t"), L("u"), "Str")),
        (lang.Mod(V("y"), V("x")), lang.Mod(V("y"), L(2))),
        # an array's name is not a variable read; its index is
        (lang.Index("x", lang.Add(V("x"), L(1))), lang.Index("x", lang.Add(L(2), L(1)))),
    ]
    for e, expected in cases:
        assert lang.subst_expr(e, b) is expected, e
        assert lang.subst_expr(e, {}) is e
