import functools

import pytest

from tracelab import textio
from tracelab.semantics import Run, Store, run
from tracelab.values import TT


# The running example: a counting loop with a mod-3 fast path.
LOOP_SRC = """
#entry L0
L0: x := 0 -> L1
L1: (x <= 20) -> L2
L1: !(x <= 20) -> L5
L2: x := x + 1 -> L3
L3: ((x % 3) = 0) -> L4
L3: !((x % 3) = 0) -> L1
L4: x := x + 3 -> L1
L5: skip -> .
"""

# Sieve of Eratosthenes over a 100-slot boolean array.
SIEVE_SRC = """
#entry L0
#array primes 100
L0: i := 2 -> L1
L1: (i <= 99) -> L2
L1: !(i <= 99) -> L8
L2: (primes[i] = tt) -> L3
L2: !(primes[i] = tt) -> L7
L3: k := i + i -> L4
L4: (k <= 99) -> L5
L4: !(k <= 99) -> L7
L5: primes[k] := ff -> L6
L6: k := k + i -> L4
L7: i := i + 1 -> L1
L8: skip -> .
"""

# Constant-folding demo: a stays 2 on the fast branch.
CF_SRC = """
#entry L0
L0: x := 0 -> L1
L1: a := 2 -> L2
L2: (x <= 15) -> L3
L2: !(x <= 15) -> L7
L3: (x <= 5) -> L4
L3: !(x <= 5) -> L5
L4: x := x + a -> L2
L5: a := a + 1 -> L6
L6: x := x + a -> L2
L7: skip -> .
"""

# Dead-store demo: z := 0 is overwritten before every read; output after the loop.
DSE_SRC = """
#entry L1
L1: (x <= 0) -> L2
L1: !(x <= 0) -> L5
L2: z := 0 -> L3
L3: x := x + 1 -> L4
L4: z := 1 -> L1
L5: put {x, z} -> L6
L6: skip -> .
"""

# Both branches of L2 jump to the head, so on the path through L2's positive
# branch the last copy and its exit share a label and a successor.
SHARED_EXIT_SRC = """
#entry L0
L0: (x <= 10) -> L1
L0: !(x <= 10) -> L3
L1: x := x + 1 -> L2
L2: (y <= 0) -> L0
L2: !(y <= 0) -> L0
L3: skip -> .
"""

# A string that doubles at every step, by each string addition: from
# {"z": "a"} the run ends where z would pass ``semantics.STR_MAX``.
DOUBLING_SRC = {"+": "#entry L0\nL0: z := z + z -> L0\n",
                "+Str": "#entry L0\nL0: z := z +Str z -> L0\n"}


@pytest.fixture(scope="session")
def loop_program():
    return textio.parse_program(LOOP_SRC)


@pytest.fixture(scope="session")
def loop_run(loop_program):
    return run(loop_program, Store(), 1000)


@pytest.fixture(scope="session")
def sieve_program():
    return textio.parse_program(SIEVE_SRC)


@pytest.fixture(scope="session")
def sieve_store():
    return Store({f"primes_{i}": TT for i in range(100)})


@pytest.fixture(scope="session")
def cf_program():
    return textio.parse_program(CF_SRC)


@pytest.fixture(scope="session")
def dse_program():
    return textio.parse_program(DSE_SRC)


@pytest.fixture(scope="session")
def type_ts_finals(sieve_program, sieve_store):
    """(original, final, stores, budget) of ``tracelab pipeline`` with
    ``--domain type --pass ts --rounds 3`` on generated programs 0-299 with
    ``--sample 4 --seed <seed>``, then on the sieve from its store with
    ``--budget 20000``."""
    from tracelab import gen, pipeline
    cases = [(gen.gen_program(s), gen.gen_stores(s, gen.SAMPLE_VARS, 4), 2000) for s in range(300)]
    cases.append((sieve_program, [sieve_store], 20000))
    return [(p, pipeline.pipeline(p, stores, "type", 2, budget, ["ts"], 3).program, stores, budget)
            for p, stores, budget in cases]


def writes_of(stores):
    """The write linking each store to the next: every binding that differs,
    in variable order, an unbound variable as undef."""
    return tuple(tuple((x, b.get(x)) for x in sorted(a.keys() | b.keys()) if a.get(x) != b.get(x))
                 for a, b in zip(stores, stores[1:]))


def run_of(states, truncated=False):
    """A run made of given states: a prefix of a run, or a hand-built or
    witness trace, for the functions that read runs."""
    stores = [s.store for s in states]
    return Run(stores[0] if stores else Store(), tuple(s.command for s in states),
               writes_of(stores), "budget" if truncated else "halt")


def command_at(p, label, pred=lambda c: True):
    matches = [c for c in p.at(label) if pred(c)]
    assert len(matches) == 1, f"ambiguous command lookup at {label}: {matches}"
    return matches[0]


@functools.lru_cache(maxsize=None)
def oracle_cases(with_put=False):
    """(program, original, initial store, budget, run) for generated programs
    0-59 (with a put of every variable at the halt when ``with_put``) and
    their 1-round type/ts final programs, whose original is the generated
    program, from the stores of ``--sample 4 --seed s``.  Each runs at budget
    2000, and again at half its length there, which truncates every run of
    two states or more."""
    from tracelab import gen, pipeline
    from tests.test_pipeline import _with_put
    cases = []
    for seed in range(60):
        p = gen.gen_program(seed)
        if with_put:
            p = _with_put(p)
        stores = gen.gen_stores(seed, gen.SAMPLE_VARS, 4)
        final = pipeline.pipeline(p, stores, "type", 2, 2000, ["ts"], 1).program
        for q in (p, final):
            for rho in stores:
                r = run(q, rho, 2000)
                cut = max(1, len(r) // 2)
                cases += [(q, p, rho, 2000, r), (q, p, rho, cut, run(q, rho, cut))]
    return tuple(cases)
