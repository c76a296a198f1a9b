"""A seeded generator of labeled-command programs, and the sweep of the
pipeline over them.

``gen`` compiles structured while-language statements, so each of its loops
has one entry, each of its ``+`` adds a literal, and none of its programs
puts.  These programs are drawn label by label instead: 4 to 9 labels, each
holding an assignment, a counter increment or a branch pair, then a halting
command.  A successor is most often the next label or an earlier one, so a
loop can have several entries and a label can loop on itself; a branch pair
also has a way forward.  Assignments add two variables, add a literal, take
a remainder, or store a string or an int; each seed has 4 stores that mix
ints and strings.  So cp/cf stitches, an sc check can tell a dropped type
guard from a kept one, and nested rounds find loops.
"""

import random

import pytest

from tracelab import lang, pipeline, textio
from tracelab.semantics import Store

VARS = ("x", "y", "z")
INTS = (-2, 0, 1, 3, 7)
STRS = ('""', '"a"', '"ab"')
BUDGET, THRESHOLD, SEEDS = 400, 2, range(100)


def _expr(rng: random.Random) -> str:
    x, y = rng.choice(VARS), rng.choice(VARS + ("i",))
    return rng.choice([
        lambda: f"({x} + {y})",
        lambda: f"({x} + {rng.choice((1, 2, 3))})",
        lambda: f"({x} % {rng.choice((2, 3))})",
        lambda: rng.choice(STRS),
        lambda: f'({x} + "s")',
        lambda: str(rng.choice(INTS)),
    ])()


def _test(rng: random.Random) -> str:
    x, y = rng.choice(VARS), rng.choice(VARS)
    return rng.choice([
        lambda: f"(i <= {rng.randrange(2, 9)})",
        lambda: f"({x} <= {y})",
        lambda: f"(({x} % 2) = 0)",
        lambda: f"({x} = {rng.choice(INTS)})",
    ])()


def labeled_program(seed: int, put: bool = False) -> lang.Program:
    """Program ``seed``; with ``put`` its halting command puts every variable."""
    rng = random.Random(seed)
    n = rng.randrange(4, 10)
    lines = ["#entry L0"]

    def back(k: int) -> str:  # the next label, or an earlier one or itself
        return f"L{k + 1}" if rng.random() < 0.5 else f"L{rng.randrange(k + 1)}"

    for k in range(n):
        roll = rng.random()
        if roll < 0.35:
            lines.append(f"L{k}: {rng.choice(VARS)} := {_expr(rng)} -> {back(k)}")
        elif roll < 0.55:
            lines.append(f"L{k}: i := (i + 1) -> {back(k)}")
        else:
            test, stay, ahead = _test(rng), back(k), f"L{rng.randrange(k + 1, n + 1)}"
            yes, no = (stay, ahead) if rng.random() < 0.5 else (ahead, stay)
            lines += [f"L{k}: {test} -> {yes}", f"L{k}: !{test} -> {no}"]
    lines.append(f"L{n}: {'put {i, x, y, z}' if put else 'skip'} -> .")
    return textio.parse_program("\n".join(lines) + "\n")


def labeled_stores(seed: int) -> list[Store]:
    """The 4 initial stores of seed ``seed``: i a small int, and each other
    variable most often an int, else a string or unbound."""
    rng = random.Random(-1 - seed)
    strs = tuple(s.strip('"') for s in STRS)

    def value(roll: float):
        return rng.choice(INTS) if roll < 0.65 else rng.choice(strs) if roll < 0.9 else None

    return [Store({"i": rng.randrange(3), **{v: w for v in VARS
                                             if (w := value(rng.random())) is not None}})
            for _ in range(4)]


# (domain, passes, rounds); a dse configuration's programs put at the halt
CONFIGS = [("type", ("ts",), 3), ("type", (), 2), ("onepoint", (), 3), ("cp", ("cf",), 2),
           ("onepoint", ("dse",), 2), ("type", ("ts", "dse"), 2)]


def sweep(domain: str, passes: tuple, rounds: int, seeds=SEEDS):
    """The pipeline's report on each seed's program and stores."""
    for seed in seeds:
        p = labeled_program(seed, put="dse" in passes)
        yield seed, pipeline.pipeline(p, labeled_stores(seed), domain, THRESHOLD, BUDGET,
                                      passes, rounds)


@pytest.mark.parametrize("domain, passes, rounds", CONFIGS,
                         ids=[f"{d}-{','.join(p) or 'none'}-{r}" for d, p, r in CONFIGS])
def test_labeled_programs_pass_their_check(domain, passes, rounds):
    """Every final program is well-formed and passes its check: sc, or out
    when dse ran.  Enough seeds stitch that the sweep checks something."""
    stitched = 0
    for seed, rep in sweep(domain, passes, rounds):
        assert lang.well_formed(rep.program) == [], seed
        assert rep.check.passed, (seed, [str(v) for v in rep.check.verdicts if not v.passed])
        stitched += bool(rep.hotpaths)
    assert stitched >= 40  # 47 seeds under cp/cf, 77 under the others
