"""Program text format.

Line-oriented, UTF-8::

    #entry L0
    #array primes 100
    L0: x := 0 -> L1          ; comment
    L1: (x <= 20) -> L2
    L1: !(x <= 20) -> L5
    L4: guard type {i: Int, primes: Bool[100]} -> L5
    L4: !guard type {i: Int, primes: Bool[100]} -> L7
    L5: put {x, y} -> L6
    L6: skip -> .

Comments start with ``;``.  ``.`` is the final successor.  ``#entry`` comes
once, ``#array`` once per family.  The binary operators are spelled as their
node classes declare (``lang.Infix.op``), the typed additions ``+Int`` and
``+Str`` (one per tag of ``semantics.ADDITIONS``) included, and the parser's
tables and tokenizer are built from those spellings.  A string literal is a
JSON string, printed with ASCII escapes (``values.value_str``), so that no
control, line-breaking or non-ASCII character leaves its line.  An array
guard entry ``name: Bool[100]`` binds the family members ``name_0`` to
``name_99``; a guard store binds at most ``MAX_BINDINGS`` variables, each
member one.  Entries are separated by commas.  A guard store leaves every
variable it does not mention to its default, which is undef unless a last
entry ``*: V`` names it: ``{i: Int, *: Top}`` constrains ``i`` only.
``bot`` and ``top`` are the empty and the universal guard store.  In a guard
store, strings are cp constants only.
A test is ``B && B``, ``!B``, ``tt``, ``ff``, ``E <= E``, ``E = E`` or
``(B)``; the reader reads each token once, never backing up.  It reads
what a ``(`` in a test holds as a test or an expression, and an operator or
a comparison after the ``)`` makes the group a comparison's first operand,
else a test.  ``tt`` and ``ff`` are tests unless a comparison follows; in
a group they begin an expression, and a bare one reads both ways.  An
action is an assignment if its line holds ``:=``, which no test holds.
An expression or test opens at most ``MAX_DEPTH`` brackets (parentheses,
indexes, negations) and nests at most ``MAX_DEPTH`` node levels (operators,
indexes, negations), so neither the parser nor a walk recurses too deep.
Parentheses only group, so a printed operator's pair adds no level.
"""

from __future__ import annotations

import json
import re
from json.encoder import encode_basestring_ascii as _quoted
from typing import Optional, get_args

from . import lang
from .domains import AbstractStore, CPConst, DomainError, cp_domain, get_domain
from .lang import (Add, AddTyped, And, ArrayAssign, Assign, Command, Cond, Eq,
                   Ff, Guard, HALT, Index, Leq, Lit, Mod, Program, Put, Skip,
                   Tt, Var)
from .semantics import ADDITIONS, Store
from .values import Bool, int_of, int_str


class ParseError(Exception):
    def __init__(self, msg: str, line: Optional[int] = None):
        self.line = line
        super().__init__(msg if line is None else f"line {line}: {msg}")


# The binary nodes by their spelling (``Infix.op``): the expression
# operators, a typed addition for each tag of ``semantics.ADDITIONS``, and the
# comparisons.  ``&&`` is ``And.op``.
_OPERATORS = {Add.op: Add, Mod.op: Mod,
              **{AddTyped.spelling(tag): lambda l, r, tag=tag: AddTyped(l, r, tag)
                 for tag in ADDITIONS}}
_COMPARISONS = {Leq.op: Leq, Eq.op: Eq}
_OPERAND_ENDS = {*_OPERATORS, *_COMPARISONS}  # what can follow an expression in a test


def _token_re(name: str, fixed: str, spellings, chars: str) -> re.Pattern:
    """Strings, ints, names of the characters ``name``, and the other tokens:
    ``fixed``, then ``spellings`` longest first, then one of ``chars``."""
    ops = "|".join(map(re.escape, sorted(spellings, key=len, reverse=True)))
    return re.compile(rf'''(?P<string>"(?:[^"\\]|\\.)*") | (?P<int>-?\d+) |
        (?P<name>[A-Za-z_][{name}]*) | (?P<op>{fixed}|{ops}|[{chars}])''', re.X)


_TOKEN_RE = _token_re("A-Za-z0-9_#", ":=|->", [*_OPERATORS, *_COMPARISONS, And.op], r"():{},!\[\].*")
_SPACE_RE = re.compile(r"\s*")
MAX_DEPTH = 200  # printing a node recurses past Python's limit at about 400


def tokenize(text: str, line_no: Optional[int] = None, pattern: re.Pattern = _TOKEN_RE,
             comment: str = ";") -> list[str]:
    """The tokens of one line.  ``comment`` starts a comment between tokens;
    inside a string literal it is text."""
    toks = []
    pos = _SPACE_RE.match(text).end()
    while pos < len(text) and text[pos] != comment:
        m = pattern.match(text, pos)
        if not m:
            raise ParseError(f"cannot tokenize at: {text[pos:].rstrip()[:20]!r}", line_no)
        toks.append(m.group(0))
        pos = _SPACE_RE.match(text, m.end()).end()
    return toks


class _Cursor:
    """Tokens with the line each came from; ``end`` names what running out of
    tokens ends (a line, or the whole input)."""

    def __init__(self, toks: list[str], lines: list[Optional[int]], end: str = "line"):
        self.toks = toks
        self.lines = lines
        self.end = end
        self.i = 0
        self.open = self.levels = self.depth = 0  # open brackets, open levels, levels read

    def deeper(self, depth: int) -> None:
        """Records the levels of what was just read: up to ``MAX_DEPTH`` with
        the open levels, under up to ``MAX_DEPTH`` open brackets."""
        if max(self.open, self.levels + depth) > MAX_DEPTH:
            raise ParseError(f"nested deeper than {MAX_DEPTH} levels", self.line_no)
        self.depth = depth

    def inner(self, parse, close: str = "", level: int = 1):
        """``parse(self)`` past the next token, a bracket and ``level`` levels
        down (refused before it recurses), then the token ``close`` if given."""
        self.next()
        self.open += 1
        self.levels += level
        self.deeper(0)
        node = parse(self)
        self.open -= 1
        self.levels -= level
        self.deeper(self.depth + level)
        if close:
            self.expect(close)
        return node

    def operand(self, parse):
        """``parse(self)``, the right operand of a node whose left was read last."""
        depth, node = self.depth, parse(self)
        self.deeper(max(depth, self.depth) + 1)
        return node

    @property
    def line_no(self) -> Optional[int]:
        """The line of the next token, or of the last one at the end."""
        return self.lines[min(self.i, len(self.lines) - 1)] if self.lines else None

    def peek(self, ahead: int = 0) -> Optional[str]:
        return self.toks[self.i + ahead] if self.i + ahead < len(self.toks) else None

    def next(self) -> str:
        t = self.peek()
        if t is None:
            raise ParseError(f"unexpected end of {self.end}", self.line_no)
        self.i += 1
        return t

    def expect(self, *toks: str) -> str:
        if self.peek() not in (*toks, None):
            self.fail(f"expected {' or '.join(map(repr, toks))}, got {self.peek()!r}")
        return self.next()

    def fail(self, msg: str):
        raise ParseError(msg, self.line_no)


_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_#]*$")
KEYWORDS = ("tt", "ff", "skip", "guard", "put", "undef")  # names that are not variables


def is_variable(tok: Optional[str]) -> bool:
    """Whether ``tok`` is a variable's name: a name that is no keyword."""
    return tok is not None and bool(_NAME_RE.match(tok)) and tok not in KEYWORDS


def _unquote(c: _Cursor) -> str:
    line_no, tok = c.line_no, c.next()
    try:
        return json.loads(tok)  # the literal syntax matches JSON strings
    except json.JSONDecodeError as e:
        raise ParseError(f"bad string literal {tok}: {e.msg}", line_no) from None


def _var_name(c: _Cursor) -> str:
    name = c.next()
    if not _NAME_RE.match(name):
        c.fail(f"bad variable name {name!r}")
    return name


# ---------------------------------------------------------------------------
# Expression / boolean grammar
# ---------------------------------------------------------------------------

def _parse_term(c: _Cursor):
    t = c.peek()
    if t is None:
        c.next()  # raises: unexpected end of the line or the input
    if t == "(":
        return c.inner(_parse_expr, ")", 0)
    c.deeper(1)
    if t in ("tt", "ff"):
        c.next()
        return Lit(Bool(t == "tt"))
    if t.startswith('"'):
        return Lit(_unquote(c))
    if re.fullmatch(r"-?\d+", t):
        c.next()
        return Lit(int_of(t))
    if is_variable(t):
        c.next()
        return Index(t, c.inner(_parse_expr, "]")) if c.peek() == "[" else Var(t)
    c.fail(f"expected expression, got {t!r}")


def _parse_expr(c: _Cursor, e=None):
    """An expression; ``e``, if given, is its first term, already read."""
    e = _parse_term(c) if e is None else e
    while c.peek() in _OPERATORS:
        make = _OPERATORS[c.next()]
        e = make(e, c.operand(_parse_term))
    return e


_TESTS = get_args(lang.BExpr)


def _test(c: _Cursor, node):
    """``node`` where a test stands: a bare boolean literal is ``tt`` or ``ff``."""
    if type(node) is Lit and type(node.value) is Bool:
        return Tt() if node.value.value else Ff()
    return node if isinstance(node, _TESTS) else c.fail(f"expected boolean expression, got {c.peek()!r}")


def _parse_bexpr(c: _Cursor, group: bool = False):
    b = _parse_bterm(c, group)
    while c.peek() == And.op:
        c.next()
        b = And(_test(c, b), c.operand(_parse_bterm))
    return b


def _parse_bterm(c: _Cursor, group: bool = False):
    """A test; first in a group (``group``), also an expression that the
    group's ``)`` ends, for the token after the group to decide."""
    t = c.peek()
    if t == "!":
        return lang.negate_bexpr(c.inner(_parse_bterm))
    if t in ("tt", "ff") and c.peek(1) not in _COMPARISONS:  # in a group, maybe (tt + 1) <= 2
        return _parse_expr(c) if group else _test(c, _parse_term(c))
    if t == "(":
        left = c.inner(lambda c: _parse_bexpr(c, True), ")", 0)
        if isinstance(left, _TESTS) or c.peek() not in _OPERAND_ENDS:
            return left if group else _test(c, left)
        left = _parse_expr(c, left)
    else:
        left = _parse_expr(c)
    if group and c.peek() not in _COMPARISONS:
        return left
    return _COMPARISONS[c.expect(*_COMPARISONS)](left, c.operand(_parse_expr))


# ---------------------------------------------------------------------------
# Guard store literals
# ---------------------------------------------------------------------------

def _braced(c: _Cursor, entry) -> None:
    """``{``, entries separated by commas, ``}``; ``entry()`` reads one."""
    c.expect("{")
    if c.peek() != "}":
        entry()
        while c.peek() == ",":
            c.next()
            entry()
    c.expect("}")


# the most variables one guard store literal binds, a family's members each
MAX_BINDINGS = 65536


def _parse_abstract_store(c: _Cursor, tag: str) -> AbstractStore:
    try:
        dom = get_domain(tag)
    except DomainError as exc:
        c.fail(str(exc))
    if c.peek() in ("bot", "top"):
        return dom.bottom() if c.next() == "bot" else dom.top()
    bindings: dict[str, object] = {}
    default = None

    def value():
        tok = c.peek()
        if dom is cp_domain and tok is not None and tok.startswith('"'):
            return CPConst(_unquote(c))
        c.next()
        try:
            return dom.parse_value(tok)
        except (DomainError, ValueError) as exc:
            c.fail(str(exc))

    def entry():
        nonlocal default
        if default is not None:
            c.fail("*: V is the last entry")
        if c.peek() == "*":
            c.next()
            c.expect(":")
            default = value()
            return
        name = _var_name(c)
        c.expect(":")
        val = value()
        family, size = c.peek() == "[", 1
        if family:  # name: Bool[100]
            c.next()
            size = c.next()
            if not size.isdigit():
                c.fail(f"bad family size {size!r}")
            c.expect("]")
            size = int_of(size)
        if len(bindings) + size > MAX_BINDINGS:  # refused before any member is named
            c.fail(f"a guard store binds more than {MAX_BINDINGS} variables")
        for x in (f"{name}_{i}" for i in range(size)) if family else (name,):
            if x in bindings:
                c.fail(f"variable {x} bound twice")
            bindings[x] = val

    _braced(c, entry)
    return dom.make(bindings, default)


# ---------------------------------------------------------------------------
# Actions and whole programs
# ---------------------------------------------------------------------------

def _parse_action(c: _Cursor) -> lang.Action:
    t = c.peek()
    if t == "skip":
        c.next()
        return Skip()
    if t == "put":
        c.next()
        names = []
        _braced(c, lambda: names.append(_var_name(c)))
        return Put(frozenset(names))
    if t == "guard" or (t == "!" and c.peek(1) == "guard"):
        positive = c.next() == "guard"
        if not positive:
            c.expect("guard")
        return Guard(_parse_abstract_store(c, c.next()), positive)
    if is_variable(t) and ":=" in c.toks[c.i:]:  # a test holds no ':='
        name = c.next()
        if c.peek() == "[":  # a[i] := E
            c.next()
            idx = _parse_expr(c)
            c.expect("]")
            c.expect(":=")
            return ArrayAssign(name, idx, _parse_expr(c))
        c.expect(":=")
        return Assign(name, _parse_expr(c))
    return Cond(_parse_bexpr(c))


def parse_command(text: str, line_no: Optional[int] = None) -> Command:
    toks = tokenize(text, line_no)
    c = _Cursor(toks, [line_no] * len(toks))
    label = c.next()
    if not _NAME_RE.match(label):
        c.fail(f"bad label {label!r}")
    c.expect(":")
    action = _parse_action(c)
    c.expect("->")
    succ = c.next()
    if succ != HALT and not _NAME_RE.match(succ):
        c.fail(f"bad successor label {succ!r}")
    if c.peek() is not None:
        c.fail(f"trailing tokens: {c.peek()!r}")
    return Command(label, action, succ)


def parse_program(text: str) -> Program:
    entry: Optional[str] = None
    arrays: dict[str, int] = {}
    commands: set[Command] = set()  # equal commands are one node
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()  # tokenize stops at ';' outside string literals
        if not line or line.startswith(";"):
            continue
        if line.startswith("#entry"):
            toks = tokenize(line[len("#entry"):], line_no)
            if len(toks) != 1:
                raise ParseError("#entry takes one label", line_no)
            if entry is not None:
                raise ParseError("#entry given twice", line_no)
            entry = toks[0]
            continue
        if line.startswith("#array"):
            toks = tokenize(line[len("#array"):], line_no)
            if len(toks) != 2 or not toks[1].isdigit():
                raise ParseError("#array takes a name and a size", line_no)
            if toks[0] in arrays:
                raise ParseError(f"#array {toks[0]} given twice", line_no)
            arrays[toks[0]] = int_of(toks[1])
            continue
        if line.startswith("#"):
            raise ParseError(f"unknown directive: {line.split()[0]}", line_no)
        cmd = parse_command(line, line_no)
        if cmd in commands:
            raise ParseError(f"duplicate command: {cmd}", line_no)
        commands.add(cmd)
    if entry is None:
        raise ParseError("missing #entry directive")
    if not commands:
        raise ParseError("no commands")
    return Program(frozenset(commands), entry, tuple(sorted(arrays.items())))


def print_program(p: Program) -> str:
    lines = [f"#entry {p.entry}"]
    for name, size in p.arrays:
        lines.append(f"#array {name} {int_str(size)}")
    for c in p.sorted_commands:
        lines.append(str(c))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Trace and store I/O
# ---------------------------------------------------------------------------

def store_to_json(store: Store) -> dict:
    out = {}
    for k, v in sorted(store.items()):
        out[k] = v.value if isinstance(v, Bool) else v
    return out


def store_from_json(obj) -> Store:
    if not isinstance(obj, dict):
        raise ParseError(f"a store is a JSON object, not {obj!r}")
    bindings = {}
    for k, v in obj.items():
        if isinstance(v, bool):
            bindings[k] = Bool(v)
        elif isinstance(v, (int, str)):
            bindings[k] = v
        else:
            raise ParseError(f"bad store value for {k}: {v!r}")
    return Store(bindings)


def json_text(obj, indent: Optional[int] = None, depth: int = 0) -> str:
    """``json.dumps(obj, indent=indent, sort_keys=True)`` for JSON built
    from dicts, lists, strings, ints and bools, with ints of any length."""
    if type(obj) is int:
        return int_str(obj)
    if type(obj) is str:
        return _quoted(obj)
    if type(obj) is bool:
        return "true" if obj else "false"
    if isinstance(obj, dict):
        items = [f"{_quoted(k)}: {json_text(v, indent, depth + 1)}" for k, v in sorted(obj.items())]
        ends = "{}"
    else:
        items, ends = [json_text(v, indent, depth + 1) for v in obj], "[]"
    if not items or indent is None:
        return ends[0] + ", ".join(items) + ends[1]
    pad = "\n" + " " * indent * (depth + 1)
    return ends[0] + pad + ("," + pad).join(items) + pad[:-indent] + ends[1]


def trace_to_jsonl(states, truncated: bool = False) -> str:
    lines = []
    for s in states:
        lines.append(json_text({
            "store": store_to_json(s.store),
            "label": s.command.label,
            "action": str(s.command.action),
            "succ": s.command.succ,
        }))
    if truncated:
        lines.append(json_text({"truncated": True}))
    return "\n".join(lines) + "\n"


_GP_TOKEN_RE = _token_re("A-Za-z0-9_", ":=", [Add.op, Mod.op, *_COMPARISONS, And.op], "(){},!;")


def parse_gp_program(text: str):
    """Concrete while-language syntax: ``skip;``, ``x := E;``,
    ``if B then { ... }``, ``while B do { ... }``, ``bail B to { ... }``.
    Comments start with ``#``.  A block is one level of nesting, so blocks
    and the expressions and tests inside them nest at most ``MAX_DEPTH``
    levels in all."""
    from .gp import BLOCKS, GAssign, GSkip

    toks, lines = [], []
    for line_no, line in enumerate(text.splitlines(), start=1):
        line_toks = tokenize(line, line_no, _GP_TOKEN_RE, "#")
        toks += line_toks
        lines += [line_no] * len(line_toks)
    c = _Cursor(toks, lines, "input")
    blocks = {head: (keyword, make) for make, (head, keyword) in BLOCKS.items()}

    def parse_seq(block: Optional[_Cursor] = None):
        """The statements up to the end, or in a block (``inner`` passes the
        cursor) up to its ``}``."""
        out = []
        while (t := c.peek()) is not None and not (block and t == "}"):
            out.append(parse_stmt())
        return tuple(out)

    def parse_stmt():
        t = c.peek()
        if t == "skip":
            c.next()
            c.expect(";")
            return GSkip()
        if t in blocks:
            keyword, make = blocks[c.next()]
            b = _parse_bexpr(c)
            c.expect(keyword)
            if c.peek() != "{":
                c.expect("{")
            return make(b, c.inner(parse_seq, "}"))
        if is_variable(t):
            name = c.next()
            c.expect(":=")
            e = _parse_expr(c)
            c.expect(";")
            return GAssign(name, e)
        c.fail(f"expected a statement, got {t!r}")

    return parse_seq()


def program_to_dot(p: Program, highlight: frozenset[Command] = frozenset()) -> str:
    """Flow graph; highlighted commands (a stitch) drawn in a distinct style."""
    def esc(s: str) -> str:
        return s.replace('"', '\\"')

    lines = ["digraph program {", '  node [shape=box, fontname="monospace"];']
    for l in sorted(p.labels()):
        lines.append(f'  "{esc(l)}";')
    lines.append('  "." [shape=doublecircle, label="halt"];')
    for c in p.sorted_commands:
        style = ' color=blue fontcolor=blue' if c in highlight else ""
        lines.append(f'  "{esc(c.label)}" -> "{esc(c.succ)}" [label="{esc(str(c.action))}"{style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
