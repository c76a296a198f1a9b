"""Command-line surface: parses arguments, calls the library and formats its
results.  Mining, the pipeline's rounds, its check and the shrinking of
failures live in ``pipeline``.

Subcommands: run, trace, hot, extract, optimize, check, pipeline, gp-compile,
gp-trace, gp-check, gen, render.  Reports are deterministic for a fixed seed.

Exit codes: 0 when every check passes (and for commands that check nothing),
1 when a check fails, 2 for a usage, parse or input error.  Errors exit 2 with
one ``error: ...`` line on stderr and no traceback: unreadable files
(``OSError``), bad JSON stores, parse errors, ill-formed programs, and the
errors of the library itself (``ExtractError``, ``OptimizeError``,
``SemanticsError``, ``DomainError``, ``HotPathError``, ``PipelineError``,
``ObserveError``, ``GPError``), such as a pass that does not fit the domain, a
nondeterministic program, an out check with no ``put`` to observe, or a
while-language loop stuck before its hot path is recorded.  So is input a
command would ignore: trace, gp-trace and gp-check take one initial store,
only an out check (``check --observe out``, ``pipeline --pass dse``) reads
``--vars``, and only ``--sample`` reads ``--seed``; a negative ``--sample`` or
an empty ``--initials`` list is refused rather than run as the empty store.

Only the mining subcommands (hot, extract, optimize, pipeline) take
``--domain`` and ``--threshold``.

The pipeline report's ``status`` says whether anything was stitched:
``stitched`` when the first round found a hot path, ``no-hot-path`` when it
found none and the input program was checked against itself.  A no-hot-path
run still exits by its check (0 then), so a sweep over many programs counts
it as a call that worked; a caller that needs a stitch reads ``status``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Optional

# leaves first, each module after the modules it imports: the order in which
# the modules are first run sets the layout of the process's heap
from .values import int_of
from .lang import Program, well_formed
from .semantics import SemanticsError, State, Store, run
from .domains import DomainError, domain_tags
from . import textio, observe, hotpath
from .extract import ExtractError, extract_nested
from . import optimize, pipeline
from . import gp as gpmod
from . import gen as genmod


class CliError(Exception):
    pass


def _load_program(path: str) -> Program:
    p = textio.parse_program(Path(path).read_text())
    diags = well_formed(p)
    if diags:
        raise CliError("program is not well-formed:\n  " + "\n  ".join(diags))
    return p


def _initial_stores(args) -> list[Store]:
    if args.sample < 0:
        raise CliError(f"--sample takes a count of stores, got {args.sample}")
    if args.seed is not None and not args.sample:
        raise CliError("--seed is read only with --sample")
    stores: list[Store] = []
    if args.initials:
        text = args.initials
        if not text.lstrip().startswith(("{", "[")):
            text = Path(text).read_text()
        try:
            data = json.loads(text, parse_int=int_of)
        except RecursionError:
            raise CliError("--initials nests too deep") from None
        if isinstance(data, dict):
            data = [data]
        if data == []:
            raise CliError("--initials holds no store")
        stores.extend(textio.store_from_json(obj) for obj in data)
    if args.sample:
        stores.extend(genmod.gen_stores(args.seed or 0, genmod.SAMPLE_VARS, args.sample))
    if not stores:
        stores.append(Store())
    return stores


def _one_store(args) -> Store:
    stores = _initial_stores(args)
    if len(stores) != 1:
        raise CliError(f"{args.cmd} runs from one initial store, got {len(stores)}")
    return stores[0]


def _hp_json(hp: hotpath.HotPath, count_: int, threshold: int) -> dict:
    # a path often repeats one element (the sieve's, with 100+ bindings, at
    # every position), so each distinct element is printed once
    texts = {a: str(a) for a in {a for a, _ in hp.pairs}}
    return {
        "domain": hp.domain.tag,
        "threshold": threshold,
        "count": count_,
        "pairs": [{"store": texts[a], "command": str(c)} for a, c in hp.pairs],
    }


# what ``run`` prints for each reason a run ends
_RUN_STATUS = {"halt": "complete", "stuck": "stuck", "budget": "truncated", "length": "too-long"}


def cmd_run(args) -> int:
    p = _load_program(args.program)
    for rho in _initial_stores(args):
        r = run(p, rho, args.budget)
        last = State(r.stores_at([len(r) - 1])[0], r.commands[-1])
        status = _RUN_STATUS[r.reason]
        print(f"{status} after {len(r)} states; final {last}")
    return 0


def cmd_trace(args) -> int:
    p = _load_program(args.program)
    r = run(p, _one_store(args), args.budget)
    sys.stdout.write(textio.trace_to_jsonl(r.states, r.truncated))
    return 0


def cmd_hot(args) -> int:
    p = _load_program(args.program)
    runs = observe.runs(p, _initial_stores(args), args.budget)
    for hp, c in list(pipeline.mine(p, p, runs, args.threshold, args.domain)):
        print(f"{args.threshold}-hot [{args.domain}] : {hp}  (count {c})")
    return 0


def _mined_path(args) -> tuple[Program, Program, hotpath.HotPath]:
    """The program, the original it is mined against, and the mined path
    that ``--hotpath`` selects."""
    p = _load_program(args.program)
    original = _load_program(args.original) if args.original else p
    runs = observe.runs(p, _initial_stores(args), args.budget)
    found = list(pipeline.mine(p, original, runs, args.threshold, args.domain))
    if not found:
        raise CliError("no hot path found")
    if not 0 <= args.hotpath < len(found):
        raise CliError(f"hot path index {args.hotpath} out of range ({len(found)} found)")
    return p, original, found[args.hotpath][0]


def cmd_extract(args) -> int:
    p, original, hp = _mined_path(args)
    st = extract_nested(p, hp, original)
    if args.dot:
        Path(args.dot).write_text(textio.program_to_dot(st.transformed, st.stitched))
    sys.stdout.write(textio.print_program(st.transformed))
    return 0


def cmd_optimize(args) -> int:
    p, original, hp = _mined_path(args)
    out = optimize.optimize_full(p, hp, [optimize.PASSES[name] for name in args.passes], original)
    sys.stdout.write(textio.print_program(out))
    return 0


def cmd_check(args) -> int:
    if args.vars is not None and args.observe != "out":
        raise CliError("--vars is read only by --observe out")
    p1 = _load_program(args.program)
    p2 = _load_program(args.other)
    stores = _initial_stores(args)
    if args.observe == "out":
        xs = frozenset(args.vars.split(",")) if args.vars else None
        report = observe.out_equiv_check(p1, p2, stores, args.budget, xs)
    else:
        report = observe.sc_equiv_check(p1, p2, stores, args.budget)
    print(report.tap())
    return 0 if report.passed else 1


def cmd_pipeline(args) -> int:
    if args.vars is not None and "dse" not in args.passes:
        raise CliError("--vars is read only by the out check of --pass dse")
    p = _load_program(args.program)
    xs = frozenset(args.vars.split(",")) if args.vars else None
    rep = pipeline.pipeline(p, _initial_stores(args), args.domain, args.threshold, args.budget,
                            args.passes, args.rounds, xs)
    verdicts = []
    for v in sorted(rep.check.verdicts, key=lambda v: str(v.initial)):
        item = {"initial": textio.store_to_json(v.initial),
                "result": "PASS" if v.passed else "FAIL"}
        if not v.passed:
            least, budget = rep.minimized[v]
            item["divergence"] = v.divergence
            item["minimized"] = {"initial": textio.store_to_json(least.initial),
                                 "budget": budget, "divergence": least.divergence}
        verdicts.append(item)
    report_json = {
        "status": "stitched" if rep.hotpaths else "no-hot-path",
        "hotpaths": [_hp_json(hp, c, args.threshold) for hp, c in rep.hotpaths],
        "verdicts": verdicts,
        "programs": {"before": textio.print_program(p), "after": textio.print_program(rep.program)},
    }
    out = textio.json_text(report_json, 2)
    if args.json:
        Path(args.json).write_text(out + "\n")
    else:
        print(out)
    return 0 if rep.check.passed else 1


def cmd_gen(args) -> int:
    p = genmod.gen_program(args.seed)
    sys.stdout.write(textio.print_program(p))
    return 0


def cmd_render(args) -> int:
    p = _load_program(args.program)
    text = textio.program_to_dot(p)
    if args.dot:
        Path(args.dot).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_gp_compile(args) -> int:
    stm = textio.parse_gp_program(Path(args.program).read_text())
    p = gpmod.GPCompiler().compile(stm)
    sys.stdout.write(textio.print_program(p))
    return 0


def cmd_gp_trace(args) -> int:
    stm = textio.parse_gp_program(Path(args.program).read_text())
    rec = gpmod.gp_record_hot_path(stm, _one_store(args), args.budget)
    print("trace:", gpmod.stm_str(rec.trace_stm))
    print("hot path:", " ; ".join(str(c) for c in rec.hot_path))
    print("stitched:", gpmod.stm_str(rec.stitched))
    return 0


def cmd_gp_check(args) -> int:
    stm = textio.parse_gp_program(Path(args.program).read_text())
    res = gpmod.gp_equivalence_check(stm, _one_store(args), args.budget)
    if res.passed:
        renames = ", ".join(f"{a} -> {b}" for a, b in sorted((res.renaming or {}).items()))
        print(f"ok - stitched compilation matches extraction ({renames})")
        return 0
    print("not ok - " + ("store behavior differs" if res.renaming else "no label renaming exists"))
    return 1


def _add_common(sp):
    sp.add_argument("--budget", type=int, default=2000)
    sp.add_argument("--seed", type=int, help="seed of the --sample stores (default 0)")
    sp.add_argument("--initials", help="JSON store(s), inline or a file path")
    sp.add_argument("--sample", type=int, default=0,
                    help="number of seeded random initial stores to add")


def _add_mining(sp):
    _add_common(sp)
    sp.add_argument("--domain", default="onepoint", choices=domain_tags())
    sp.add_argument("--threshold", "-N", type=int, default=2)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing keeps no state in it."""
    ap = argparse.ArgumentParser(prog="tracelab")
    sub = ap.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("run", help="run a program from initial stores")
    sp.add_argument("program")
    _add_common(sp)
    sp.set_defaults(fn=cmd_run)

    sp = sub.add_parser("trace", help="print a bounded run as JSON lines")
    sp.add_argument("program")
    _add_common(sp)
    sp.set_defaults(fn=cmd_trace)

    sp = sub.add_parser("hot", help="mine hot paths from bounded runs")
    sp.add_argument("program")
    _add_mining(sp)
    sp.set_defaults(fn=cmd_hot)

    sp = sub.add_parser("extract", help="stitch a mined hot path")
    sp.add_argument("program")
    sp.add_argument("--hotpath", type=int, default=0, help="index into the mined list")
    sp.add_argument("--original", help="base program for nested extraction")
    sp.add_argument("--dot", help="write a DOT flow graph here")
    _add_mining(sp)
    sp.set_defaults(fn=cmd_extract)

    sp = sub.add_parser("optimize", help="extract and optimize a hot path")
    sp.add_argument("program")
    sp.add_argument("--pass", dest="passes", action="append", default=[],
                    choices=sorted(optimize.PASSES))
    sp.add_argument("--hotpath", type=int, default=0)
    sp.add_argument("--original")
    _add_mining(sp)
    sp.set_defaults(fn=cmd_optimize)

    sp = sub.add_parser("check", help="differential store-change check")
    sp.add_argument("program")
    sp.add_argument("other")
    sp.add_argument("--observe", choices=["sc", "out"], default="sc")
    sp.add_argument("--vars", help="comma-separated output variable set")
    _add_common(sp)
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("pipeline", help="run, mine, extract/optimize, check")
    sp.add_argument("program")
    sp.add_argument("--pass", dest="passes", action="append", default=[],
                    choices=sorted(optimize.PASSES))
    sp.add_argument("--rounds", type=int, default=1)
    sp.add_argument("--vars")
    sp.add_argument("--json", help="write the report here instead of stdout")
    _add_mining(sp)
    sp.set_defaults(fn=cmd_pipeline)

    sp = sub.add_parser("gen", help="generate a seeded random program")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=cmd_gen)

    sp = sub.add_parser("render", help="emit a DOT flow graph")
    sp.add_argument("program")
    sp.add_argument("--dot")
    sp.set_defaults(fn=cmd_render)

    sp = sub.add_parser("gp-compile", help="compile a while-language program")
    sp.add_argument("program")
    sp.set_defaults(fn=cmd_gp_compile)

    sp = sub.add_parser("gp-trace", help="record a hot path of a while-language loop")
    sp.add_argument("program")
    _add_common(sp)
    sp.set_defaults(fn=cmd_gp_trace)

    sp = sub.add_parser("gp-check", help="stitch-vs-extraction agreement check")
    sp.add_argument("program")
    _add_common(sp)
    sp.set_defaults(fn=cmd_gp_check)

    return ap


def main(argv: Optional[list[str]] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (CliError, textio.ParseError, OSError, json.JSONDecodeError, ExtractError,
            optimize.OptimizeError, SemanticsError, DomainError, hotpath.HotPathError,
            pipeline.PipelineError, observe.ObserveError, gpmod.GPError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
