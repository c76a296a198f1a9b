"""Seeded run golden: the end of every bounded run of the generated corpus, and
of its ts-stitched versions, pinned byte for byte."""

from pathlib import Path

from tracelab import gen, hotpath, optimize
from tracelab.semantics import run

GOLDEN = Path(__file__).parent / "golden" / "runs.txt"

SAMPLE_VARS = ("x", "y", "z", "w", "s", "i", "j")  # the CLI's --sample variables
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
        stores = gen.gen_stores(seed, SAMPLE_VARS, 4)
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
