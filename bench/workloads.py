"""The benchmark's workloads: fixed sets of ``tracelab pipeline`` runs.

Each workload builds its inputs in memory from the seed: the programs (parsed
and checked for well-formedness), the initial stores each pipeline runs from,
and the pipeline flags.  The same seed always gives the same inputs.  The
``tiny`` scale shrinks every workload so the self-test runs in seconds.

Functions of ``tracelab`` are called through their modules (``textio.parse_program``,
not a bound name) so that the traced run's wrappers see the set-up calls too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

# The running example of the test suite: a counting loop with a mod-3 fast
# path.  BOUND is 20 there; the benchmark raises it.
LOOP_SRC = """
#entry L0
L0: x := 0 -> L1
L1: (x <= BOUND) -> L2
L1: !(x <= BOUND) -> L5
L2: x := x + 1 -> L3
L3: ((x % 3) = 0) -> L4
L3: !((x % 3) = 0) -> L1
L4: x := x + 3 -> L1
L5: skip -> .
"""

# Sieve of Eratosthenes over a SIZE-slot boolean array (SIZE is 100 in the
# test suite).
SIEVE_SRC = """
#entry L0
#array primes SIZE
L0: i := 2 -> L1
L1: (i <= LAST) -> L2
L1: !(i <= LAST) -> L8
L2: (primes[i] = tt) -> L3
L2: !(primes[i] = tt) -> L7
L3: k := i + i -> L4
L4: (k <= LAST) -> L5
L4: !(k <= LAST) -> L7
L5: primes[k] := ff -> L6
L6: k := k + i -> L4
L7: i := i + 1 -> L1
L8: skip -> .
"""

# The variables the CLI draws ``--sample`` stores over.  The re-check
# regenerates the stores from this list, so a change to the CLI's list shows
# up as a re-check disagreement instead of passing unnoticed.
SAMPLE_VARS = ("x", "y", "z", "w", "s", "i", "j")

DEFAULT_BUDGET = 2000  # the CLI's default --budget


@dataclass(frozen=True)
class Case:
    """One pipeline run: the program text the CLI reads, the same program
    parsed, the initial stores, and the flags after the program path."""

    name: str
    source: str
    program: object  # tracelab.lang.Program
    stores: tuple  # of tracelab.semantics.Store
    flags: tuple[str, ...]
    budget: int
    passes: tuple[str, ...]
    initials: Optional[list] = None  # JSON stores for --initials, if any


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int, bool], list[Case]]


def _checked(source: str):
    from tracelab import lang, textio
    p = textio.parse_program(source)
    diags = lang.well_formed(p)
    if diags:
        raise ValueError("benchmark program is not well-formed: " + "; ".join(diags))
    return p


def _sieve(seed: int, tiny: bool) -> list[Case]:
    # the seed does not change this workload: its inputs are fixed
    from tracelab.semantics import Store
    from tracelab.values import TT
    size = 30 if tiny else 100
    src = SIEVE_SRC.replace("SIZE", str(size)).replace("LAST", str(size - 1))
    store = Store({f"primes_{i}": TT for i in range(size)})
    flags = ("--domain", "type", "--pass", "ts", "--rounds", "3", "--budget", "20000")
    return [Case("sieve", src, _checked(src), (store,), flags, 20000, ("ts",),
                 [{f"primes_{i}": True for i in range(size)}])]


def _loop(seed: int, tiny: bool) -> list[Case]:
    # the seed does not change this workload: its inputs are fixed
    from tracelab.semantics import Store
    src = LOOP_SRC.replace("BOUND", "200" if tiny else "3200")
    flags = ("--domain", "cp", "--pass", "cf", "--budget", "20000")
    return [Case("loop", src, _checked(src), (Store(),), flags, 20000, ("cf",))]


def _corpus(seed: int, tiny: bool) -> list[Case]:
    # contiguous seeds, never filtered: a seed the pipeline fails on counts
    from tracelab import gen, textio
    cases = []
    for s in range(seed, seed + (5 if tiny else 100)):
        src = textio.print_program(gen.gen_program(s))
        stores = tuple(gen.gen_stores(s, SAMPLE_VARS, 4))
        flags = ("--sample", "4", "--seed", str(s), "--domain", "type",
                 "--pass", "ts", "--rounds", "3")
        cases.append(Case(f"gen{s}", src, _checked(src), stores, flags,
                          DEFAULT_BUDGET, ("ts",)))
    return cases


WORKLOADS = {w.name: w for w in (
    Workload(
        "sieve-type-ts",
        "One long trace with 100+ bound variables: the stitched type guards make "
        "guard membership and the execution of stitched code nearly all the work.",
        _sieve),
    Workload(
        "loop-cp",
        "Under cp every loop iteration is a new candidate, so hot-path counting "
        "dominates and finds nothing: it isolates mining and bypasses stitching.",
        _loop),
    Workload(
        "gen-corpus",
        "Many short generated programs, so the fixed cost of each pipeline call "
        "dominates; the only workload with nested extraction on many shapes.",
        _corpus),
)}
