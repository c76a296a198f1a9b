"""Seeded random generation of loop-bearing programs and initial stores.

Programs are built as structured while-language statements (no bails) and
compiled down, which makes well-formedness and determinism true by
construction; every program carries at least one counter-driven loop that
terminates from any initial store because its counter is (re)initialized in a
prologue.
"""

from __future__ import annotations

import random
from functools import lru_cache

from .gp import EMPTY, GAssign, GIf, GSkip, GWhile, GPCompiler, Stm
from .lang import Add, Eq, Leq, Lit, Mod, Program, Var
from .semantics import Store
from .values import Value

_INT_POOL = (-3, -1, 0, 1, 2, 3, 5, 10)
_STR_POOL = ("", "a", "ab", "foo")
_INT_VARS = ("x", "y", "z", "w")
# the variables of the stores that ``--sample`` draws (``gen_stores``): the
# generated programs' int variables, their string and their loop counters
SAMPLE_VARS = (*_INT_VARS, "s", "i", "j")


def _body_stmt(rng: random.Random, counter: str, depth: int) -> Stm:
    roll = rng.random()
    if roll < 0.30:
        v = rng.choice(_INT_VARS)
        return (GAssign(v, Add(Var(v), Lit(rng.choice((1, 2, 3))))),)
    if roll < 0.45:
        v, w = rng.choice(_INT_VARS), rng.choice(_INT_VARS)
        return (GAssign(v, Add(Var(w), Lit(rng.choice(_INT_POOL)))),)
    if roll < 0.55:
        return (GAssign("s", Add(Var("s"), Lit(rng.choice(("a", "b"))))),)
    if roll < 0.65:
        return (GSkip(),)
    if roll < 0.85:
        m = rng.choice((2, 3, 4))
        test = Eq(Mod(Var(counter), Lit(m)), Lit(rng.randrange(m)))
        inner = _body_stmt(rng, counter, depth + 1)
        return (GIf(test, inner),)
    if depth == 0:
        return _loop(rng, depth + 1)
    return (GAssign(rng.choice(_INT_VARS), Lit(rng.choice(_INT_POOL))),)


def _loop(rng: random.Random, depth: int) -> Stm:
    counter = "i" if depth == 0 else "j"
    bound = rng.randrange(4, 16)
    step = rng.choice((1, 1, 2))
    body: Stm = EMPTY
    for _ in range(rng.randrange(1, 3 if depth else 4)):
        body = body + _body_stmt(rng, counter, depth)
    body = body + (GAssign(counter, Add(Var(counter), Lit(step))),)
    loop = GWhile(Leq(Var(counter), Lit(bound)), body)
    return (GAssign(counter, Lit(0)), loop)


def gen_statement(seed: int) -> Stm:
    """Deterministic loop-bearing statement: the first of 64 draws that
    compiles to 4 to 40 commands, else the last."""
    rng = random.Random(seed)
    for _ in range(64):
        stm = _loop(rng, 0)
        if rng.random() < 0.4:
            stm = (GAssign(rng.choice(_INT_VARS), Lit(rng.choice(_INT_POOL))),) + stm
        if 4 <= len(_compiled(stm).commands) <= 40:
            return stm
    return stm


@lru_cache(maxsize=1)
def _compiled(stm: Stm) -> Program:
    """The statement's program.  The draw ``gen_statement`` returns is the
    last it compiled, so ``gen_program`` finds it here and compiles once."""
    return GPCompiler().compile(stm)


def gen_program(seed: int) -> Program:
    return _compiled(gen_statement(seed))


def gen_stores(seed: int, variables, count: int) -> list[Store]:
    """Seeded initial stores over the given variables; some slots stay unbound
    and string-typed slots show up occasionally."""
    rng = random.Random(seed)
    variables = sorted(variables)
    out = []
    for _ in range(count):
        bindings: dict[str, Value] = {}
        for v in variables:
            roll = rng.random()
            if roll < 0.05:
                continue  # unbound
            if v == "s":
                bindings[v] = rng.choice(_STR_POOL)
            else:
                bindings[v] = rng.choice(_INT_POOL)
        bindings["i"] = 0
        bindings["j"] = 0
        bindings.setdefault("s", rng.choice(_STR_POOL))
        out.append(Store(bindings))
    return out
