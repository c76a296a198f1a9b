"""Seeded run golden: the end of every bounded run of the generated corpus, and
of its ts-stitched versions, pinned byte for byte; and every run of the corpus
and the sieve, before and after the pipeline, pinned by digest."""

import hashlib
from pathlib import Path

from tracelab import gen, hotpath, optimize
from tracelab.semantics import run
from tracelab.textio import print_program

GOLDEN = Path(__file__).parent / "golden" / "runs.txt"

BUDGETS = (2000, 13, 2, 1)


def ts_stitched(p, stores):
    """p with its first type-domain 2-hot path stitched and type-specialized,
    or None when no run of p has one."""
    for rho in stores:
        found = hotpath.hot_n(run(p, rho, 2000), 2, "type", p)
        if found:
            return optimize.optimize_full(p, found[0][0], [optimize.type_specialize], p)
    return None


def run_golden_lines(seeds=range(50)) -> list[str]:
    lines = []
    for seed in seeds:
        p = gen.gen_program(seed)
        stores = gen.gen_stores(seed, gen.SAMPLE_VARS, 4)
        variants = [("orig", p), ("ts", ts_stitched(p, stores))]
        for name, q in variants:
            if q is None:
                continue
            for k, rho in enumerate(stores):
                for budget in BUDGETS:
                    r = run(q, rho, budget)
                    lines.append(f"{seed} {name} {k} {budget} {len(r)} {r.truncated} {r.states[-1]}")
    return lines


def test_run_golden():
    assert "\n".join(run_golden_lines()) + "\n" == GOLDEN.read_text()


# sha256 of every run below, and of the finals' text
RUNS_DIGEST = "d6b7a6207f5088b117fdf2805d9c0469035a6c16f6b6dbc759bac8dc0a8c6178"
FINALS_DIGEST = "a3485ca23bf9a047a36b4387671543dd317e468eaa65644f8b7b9414aac09bf5"


def test_runs_of_the_corpus_and_the_sieve_are_pinned(type_ts_finals):
    """The runs of generated programs 0-299 from their four sample stores and
    of the sieve, on the originals and on their 3-round type/ts finals, hash
    (commands, writes, reason) to a digest pinned when runs were last
    changed on purpose; the finals print to a pinned digest too."""
    runs, finals = hashlib.sha256(), hashlib.sha256()
    for p, final, stores, budget in type_ts_finals:
        finals.update(print_program(final).encode())
        for q in (p, final):
            for rho in stores:
                r = run(q, rho, budget)
                runs.update(repr((tuple(map(str, r.commands)), r.writes, r.reason)).encode())
    assert (runs.hexdigest(), finals.hexdigest()) == (RUNS_DIGEST, FINALS_DIGEST)
