"""Seeded end-to-end and per-layer benchmark of ``tracelab pipeline``.

Run from the repository root::

    python3 bench/run.py --workload sieve-type-ts --seed 0 --seconds 50 --trace 0

Workloads are defined, with the reason each exists, in ``workloads.py``.  Each
is a fixed set of pipeline runs (a "round") made in-process through
``tracelab.cli.main``.  Load is a closed loop from one client: one pipeline
call at a time, no threads.  A run goes as follows.

``--trace 0`` (end-to-end metrics, tracing off): one warm-up pipeline call on
the tiny version of the workload, then cycles for as long as one more cycle,
as long as the last, fits in ``--seconds`` (at least one).  A cycle is

1. one round, every call timed;
2. repetitions in which each case's original and final programs run
   under ``semantics.run`` from the case's stores (see ``RunTimes``), until
   the round has had PIPELINE_SHARE of the cycle's time (at least MIN_REPS
   repetitions over the run);
3. one set-up probe: a child process that starts, builds the inputs and
   exits, timed from outside.  Set-up time is the median of these and of
   SETUP_PROBES probes made before the first cycle.  The child may run on
   another CPU than this process, whose calibration runs do not track its
   speed, so it runs the calibration workload itself, before and after it
   builds the inputs, and the probe is scaled by these.

The machine's speed drifts over seconds to minutes, so every kind of sample
is spread over the whole run, each is timed at a reference speed (see
``Clock``), and each metric is a median.  The raw median
call time is printed as ``pipeline_p50_wall_s``.

``--trace 1`` (per-layer metrics): set-up runs traced; untraced rounds run
for half of ``--seconds`` (at least one), then one traced round.  Per-layer
metrics cover the traced set-up plus the traced round.  The tracing overhead
is the traced round's wall time minus the median untraced round's.  Spans are
written to ``bench/out/spans-<workload>-seed<seed>.jsonl``.

Every call is then checked.  A call fails if it raises, exits non-zero, or
its report fails the independent re-check: the report's final program must
be well-formed, and ``observe`` is run again on the report's before and after
programs from the workload's stores (the interpreter running the original
program is the oracle) and must agree with every reported verdict, all PASS.
A repeated call must print the same report as the first.  ``correct`` is
false when a report is wrong (a FAIL verdict, a re-check disagreement, an
ill-formed final program or a changed report); a call that refuses with an
error counts as failed but is not a wrong output.

Every metric is printed as ``<name> <value> <unit>``; the last line is one
JSON object with ``correct``, ``attempted`` and ``failed`` (pipeline calls)
and the metrics that ``BENCHMARK.json`` declares for the mode.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

SETUP_PROBES = 10
PIPELINE_SHARE = 0.85
MIN_REPS = 5
MIN_REP_S = 0.2
# What the calibration workload takes at the reference speed: about its time
# on a quiet 2-vCPU x86-64 VM under Python 3.11.
CAL_REF_S = 0.0045

# (name, unit), in print order.  BENCHMARK.json declares the same names.
END_TO_END = [
    ("setup_s", "s"),
    ("pipeline_p50_s", "s"),
    ("pipelines_per_s", "1/s"),
    ("opt_run_ms", "ms"),
    ("jit_speedup", "ratio"),
    ("final_cmds", "count"),
    ("peak_rss_mb", "MB"),
]
PER_LAYER = [
    ("semantics.run_s", "s"), ("semantics.run_calls", "count"),
    ("semantics.states", "count"), ("semantics.states_per_s", "1/s"),
    ("domains.contains_s", "s"), ("domains.contains_calls", "count"),
    ("domains.guard_hit_ratio", "ratio"),
    ("hotpath.count_s", "s"), ("hotpath.count_calls", "count"),
    ("hotpath.found", "count"), ("hotpath.hot_ratio", "ratio"),
    ("hotpath.topo_order_s", "s"), ("hotpath.sloop_s", "s"),
    ("hotpath.segments", "count"), ("hotpath.hotcut_s", "s"),
    ("hotpath.abstract_trace_s", "s"), ("hotpath.hot_n_s", "s"),
    ("extract.extract_s", "s"), ("extract.stitched_cmds", "count"),
    ("optimize.optimize_s", "s"), ("optimize.rewrites", "count"),
    ("observe.equiv_check_s", "s"), ("observe.verdicts", "count"),
    ("observe.pass_ratio", "ratio"),
    ("textio.parse_s", "s"), ("textio.print_s", "s"),
    ("lang.well_formed_s", "s"), ("gen.program_s", "s"),
    ("cli.self_s", "s"), ("trace.overhead_s", "s"),
]


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


# ---------------------------------------------------------------------------
# Time at a reference speed
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Node:
    tag: str
    kids: tuple


def _calibration() -> float:
    """Wall time of a fixed pure-Python workload that shares no code with
    tracelab: frozen dataclasses built, hashed into a dict and compared in
    slices, as the interpreter and the miner do."""
    start = time.perf_counter()
    nodes = [_Node(str(i % 17), (i % 5, str(i % 3))) for i in range(3000)]
    index: dict = {}
    for i, node in enumerate(nodes):
        index.setdefault(node, []).append(i)
    sum(nodes[i:i + 2] == nodes[i + 1:i + 3] for i in range(len(nodes) - 3))
    return time.perf_counter() - start


class Clock:
    """Times work at the reference speed.

    This machine's speed drifts by a third over seconds to minutes, as
    neighbours come and go; the same work timed twice a minute apart can
    differ by 50%.  Each timed piece of work is therefore bracketed by two
    runs of the calibration workload and scaled by CAL_REF_S over their mean."""

    def __init__(self):
        self._last = _calibration()
        self.wall = 0.0  # raw wall time of the last piece of work

    def time(self, fn, *args):
        """(fn's result, its time at the reference speed)."""
        before = self._last
        start = time.perf_counter()
        result = fn(*args)
        self.wall = time.perf_counter() - start
        self._last = _calibration()
        return result, self.wall * 2 * CAL_REF_S / (before + self._last)


# ---------------------------------------------------------------------------
# Pipeline calls and their checking
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Outcome:
    rc: Optional[int]  # None when the call raised
    stdout: str
    error: str  # first line of stderr, or the exception raised


def call(main, argv: list[str]) -> Outcome:
    """One pipeline call with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc, raised = main(argv), ""
        except Exception as e:  # a crash is a failed call, not the end of the run
            rc, raised = None, f"raised {type(e).__name__}: {e}"
    first = err.getvalue().strip().splitlines()[:1]
    return Outcome(rc, out.getvalue(), raised or "".join(first))


def recheck(case, outcome: Outcome):
    """(reason, wrong, final program): reason is None for a call that passes."""
    from tracelab import lang, observe, textio
    if outcome.rc is None or outcome.rc not in (0, 1):
        return f"exit {outcome.rc}: {outcome.error}", False, None
    try:
        report = json.loads(outcome.stdout)
        before = textio.parse_program(report["programs"]["before"])
        after = textio.parse_program(report["programs"]["after"])
    except (ValueError, KeyError, textio.ParseError) as e:
        return f"unreadable report: {e}", True, None
    if textio.print_program(before) != textio.print_program(case.program):
        return "report's before program is not the input", True, None
    diags = lang.well_formed(after)
    if diags:
        return "final program is ill-formed: " + "; ".join(diags), True, None
    if "dse" in case.passes:
        check = observe.out_equiv_check(before, after, case.stores, case.budget, before.vars())
    else:
        check = observe.sc_equiv_check(before, after, case.stores, case.budget)
    mine = sorted((json.dumps(textio.store_to_json(v.initial), sort_keys=True),
                   "PASS" if v.passed else "FAIL") for v in check.verdicts)
    theirs = sorted((json.dumps(v["initial"], sort_keys=True), v["result"])
                    for v in report["verdicts"])
    if mine != theirs:
        return "reported verdicts disagree with the re-check", True, None
    if not check.passed or outcome.rc != 0:
        return "FAIL verdict", True, None
    return None, False, after


class Tally:
    """Every call's outcome, kept as the first outcome per case plus the
    number of later calls whose outcome differed from it."""

    def __init__(self):
        self.first: dict[str, Outcome] = {}
        self.calls: dict[str, int] = {}
        self.changed: dict[str, int] = {}
        self._checked: dict[str, tuple] = {}

    def recheck(self, case) -> tuple:
        """The re-check of the case's first outcome, made once."""
        if case.name not in self._checked:
            self._checked[case.name] = recheck(case, self.first[case.name])
        return self._checked[case.name]

    def finals(self, cases) -> dict:
        """Final programs of the cases whose first outcome passed."""
        return {c.name: self.recheck(c)[2] for c in cases if self.recheck(c)[0] is None}

    def add(self, case, outcome: Outcome) -> None:
        first = self.first.setdefault(case.name, outcome)
        self.calls[case.name] = self.calls.get(case.name, 0) + 1
        if outcome != first:
            self.changed[case.name] = self.changed.get(case.name, 0) + 1

    def judge(self, cases) -> "Judgement":
        j = Judgement(attempted=sum(self.calls.values()))
        for case in cases:
            reason, wrong, after = self.recheck(case)
            changed = self.changed.get(case.name, 0)
            if reason is None and not changed:
                j.finals[case.name] = after
                continue
            j.failed += self.calls[case.name] if reason else changed
            if changed:
                wrong = True
                reason = (reason + "; " if reason else "") + \
                    f"{changed} repeated call(s) printed another report"
            j.failed_cases += 1
            j.correct = j.correct and not wrong
            j.lines.append(f"FAILED {case.name}: {reason}")
        j.lines.insert(0, f"fail_rate {_ratio(j.failed_cases, len(cases))} failed/attempted "
                          f"({j.failed_cases} of {len(cases)} inputs; "
                          f"{j.failed} of {j.attempted} calls)")
        return j


@dataclass
class Judgement:
    attempted: int
    failed: int = 0
    failed_cases: int = 0
    correct: bool = True
    finals: dict = field(default_factory=dict)  # case name -> final program
    lines: list = field(default_factory=list)  # fail_rate, then one per failed case


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def _write_inputs(cases, where: Path) -> list[list[str]]:
    argvs = []
    for case in cases:
        path = where / f"{case.name}.tl"
        path.write_text(case.source)
        argv = ["pipeline", str(path), *case.flags]
        if case.initials is not None:
            init = where / f"{case.name}.json"
            init.write_text(json.dumps(case.initials))
            argv += ["--initials", str(init)]
        argvs.append(argv)
    return argvs


def _round(main, cases, argvs, tally: Tally, clock: Clock, walls: list) -> None:
    """One call per case, each timed into ``walls`` as (time at the reference
    speed, raw wall time)."""
    for case, argv in zip(cases, argvs):
        gc.collect()
        outcome, took = clock.time(call, main, argv)
        tally.add(case, outcome)
        walls.append((took, clock.wall))


def _probe(workload: str, seed: int, scale: str) -> float:
    """Time of one child process that starts, builds the inputs and exits:
    wall time from outside, at the reference speed of the child's own
    calibration runs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed), "--scale", scale]
    start = time.perf_counter()
    # no timeout: with one, the wait polls and rounds the time up to 50 ms steps
    out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True).stdout
    wall = time.perf_counter() - start
    before, after = map(float, out.split())
    return wall * 2 * CAL_REF_S / (before + after)


class RunTimes:
    """Run times of the generated code.  One repetition runs, case by case,
    the case's original program and then its final program (or the other way
    round, alternating between repetitions) under ``semantics.run`` from the
    case's stores, each as often as it takes to last MIN_REP_S shared out
    over the cases, and times one pass of each.  The machine's speed swings within a second, so each
    case's pair is timed at the reference speed on its own, and pairing the
    two runs of a case back to back keeps their ratio clear of the swings."""

    def __init__(self, clock: Clock):
        self.clock = clock
        self.final: dict[str, list[float]] = {}  # case -> final passes, at the reference speed
        self.speedups: list[float] = []  # per repetition: original over final, raw
        self.reps = 0

    def rep(self, cases, finals) -> None:
        from tracelab.semantics import run
        final_first = self.reps % 2 == 1
        min_s = MIN_REP_S / len(finals)

        def one_pass(case, program) -> float:
            done = 0
            start = time.perf_counter()
            while not done or time.perf_counter() - start < min_s:
                for rho in case.stores:
                    run(program, rho, case.budget)
                done += 1
            return (time.perf_counter() - start) / done

        def pair(case) -> tuple[float, float]:
            if final_first:
                final = one_pass(case, finals[case.name])
                return one_pass(case, case.program), final
            orig = one_pass(case, case.program)
            return orig, one_pass(case, finals[case.name])

        gc.collect()
        orig_sum = final_sum = 0.0
        for case in cases:
            if case.name in finals:
                (orig, final), took = self.clock.time(pair, case)
                self.final.setdefault(case.name, []).append(final * took / self.clock.wall)
                orig_sum += orig
                final_sum += final
        self.speedups.append(orig_sum / final_sum)
        self.reps += 1

    def metrics(self) -> tuple[float, float]:
        """(opt_run_ms, jit_speedup): one pass over every final program,
        summing each case's median time, and the median over repetitions of
        the original passes' time over the final passes'."""
        if not self.speedups:
            return 0.0, 0.0
        final = sum(statistics.median(times) for times in self.final.values())
        return 1000 * final, statistics.median(self.speedups)


def measure(args, cases, argvs, main) -> tuple[dict, Judgement, list[str]]:
    """Cycles of one round, run times of the generated code for the rest of
    the cycle, and one set-up probe, while ``--seconds`` last; spreading
    every kind of sample over the whole run."""
    clock = Clock()
    probe = (args.workload, args.seed, args.scale)
    setups = [_probe(*probe) for _ in range(SETUP_PROBES)]
    tally = Tally()
    times = RunTimes(clock)
    walls: list = []
    start = time.perf_counter()
    cycle = 0.0
    while not walls or time.perf_counter() - start + cycle < args.seconds:
        round_start = time.perf_counter()
        _round(main, cases, argvs, tally, clock, walls)
        finals = tally.finals(cases)
        took = time.perf_counter() - round_start
        until = time.perf_counter() + took * (1 - PIPELINE_SHARE) / PIPELINE_SHARE
        while finals:
            times.rep(cases, finals)
            if times.reps >= MIN_REPS and time.perf_counter() >= until:
                break
        setups.append(_probe(*probe))
        cycle = time.perf_counter() - round_start
    judgement = tally.judge(cases)
    opt_run_ms, speedup = times.metrics()
    metrics = {
        "setup_s": statistics.median(setups),
        "pipeline_p50_s": statistics.median(took for took, _ in walls),
        "pipelines_per_s": len(walls) / sum(took for took, _ in walls),
        "opt_run_ms": opt_run_ms,
        "jit_speedup": speedup,
        "final_cmds": sum(len(p.commands) for p in judgement.finals.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = [f"samples {len(walls)} pipeline calls, {times.reps} run repetitions, "
             f"{len(setups)} set-up probes",
             f"pipeline_p50_wall_s {statistics.median(raw for _, raw in walls)} s "
             "(raw wall time, not scaled to the reference speed)"]
    if len(walls) >= 100:  # at least ten samples beyond the 90th percentile
        p90 = statistics.quantiles([took for took, _ in walls], n=10)[-1]
        notes.append(f"pipeline_p90_s {p90} s (n={len(walls)})")
    return metrics, judgement, notes


def measure_traced(args, cases, argvs, main, tracer) -> tuple[dict, Judgement, list[str]]:
    from tracelab import cli
    tally = Tally()
    clock = Clock()
    untraced = []  # raw wall times of the rounds: spans are raw too
    start = time.perf_counter()
    while not untraced or time.perf_counter() - start < args.seconds / 2:
        walls = []
        _round(main, cases, argvs, tally, clock, walls)
        untraced.append(sum(raw for _, raw in walls))

    pipeline = tracer.span("cli.pipeline", cli.main)

    def traced_main(argv):
        with tracer.pipeline_call(Path(argv[1]).stem):
            return pipeline(argv)

    walls = []
    with tracer.install():
        _round(traced_main, cases, argvs, tally, clock, walls)
    traced = sum(raw for _, raw in walls)
    base = statistics.median(untraced)
    overhead = traced - base
    layer = tracer.layers()

    def s(name):
        return layer[name].self_s

    def n(name, i=0):
        return layer[name].count(i)

    def calls(name):
        return layer[name].calls

    metrics = {
        "semantics.run_s": s("semantics.run"), "semantics.run_calls": calls("semantics.run"),
        "semantics.states": n("semantics.run"),
        "semantics.states_per_s": _ratio(n("semantics.run"), s("semantics.run")),
        "domains.contains_s": s("domains.contains"),
        "domains.contains_calls": calls("domains.contains"),
        "domains.guard_hit_ratio": _ratio(n("domains.contains"), calls("domains.contains")),
        "hotpath.count_s": s("hotpath.count"), "hotpath.count_calls": calls("hotpath.count"),
        "hotpath.found": n("hotpath.hot_n"),
        "hotpath.hot_ratio": _ratio(n("hotpath.hot_n"), calls("hotpath.count")),
        "hotpath.topo_order_s": s("hotpath.topo_order"), "hotpath.sloop_s": s("hotpath.sloop"),
        "hotpath.segments": n("hotpath.sloop"), "hotpath.hotcut_s": s("hotpath.hotcut"),
        "hotpath.abstract_trace_s": s("hotpath.abstract_trace"),
        "hotpath.hot_n_s": s("hotpath.hot_n"),
        "extract.extract_s": s("extract.extract"), "extract.stitched_cmds": n("extract.extract"),
        "optimize.optimize_s": s("optimize.optimize"), "optimize.rewrites": n("optimize.optimize"),
        "observe.equiv_check_s": s("observe.equiv_check"),
        "observe.verdicts": n("observe.equiv_check"),
        "observe.pass_ratio": _ratio(n("observe.equiv_check", 1), n("observe.equiv_check")),
        "textio.parse_s": s("textio.parse"), "textio.print_s": s("textio.print"),
        "lang.well_formed_s": s("lang.well_formed"), "gen.program_s": s("gen.program"),
        "cli.self_s": s("cli.pipeline"), "trace.overhead_s": overhead,
    }
    # the pipeline spans' self times add up to their durations; less the
    # overhead they should come to the untraced round
    in_pipeline = sum(end - begin for name, begin, end, *_ in tracer.spans
                      if name == "cli.pipeline")
    notes = [f"trace.round_s {traced} s (untraced median {base} s over {len(untraced)} rounds)",
             f"trace.accounted_ratio {_ratio(in_pipeline - overhead, base)} ratio "
             "(pipeline self times minus overhead, over the untraced round)"]
    return metrics, tally.judge(cases), notes


def main(argv=None) -> int:
    from workloads import WORKLOADS
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every workload, for the self-test")
    ap.add_argument("--setup-probe", action="store_true",
                    help="only build the inputs between two calibration runs, "
                         "print the calibration times and exit (times set-up)")
    args = ap.parse_args(argv)

    if not (SRC / "tracelab" / "cli.py").is_file():
        print(f"error: no tracelab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    build = WORKLOADS[args.workload].build
    tiny = args.scale == "tiny"
    if args.setup_probe:
        before = _calibration()
        build(args.seed, tiny)
        print(before, _calibration())
        return 0

    import tracelab
    from tracelab import cli
    from spans import Tracer
    if not Path(tracelab.__file__).resolve().is_relative_to(SRC):
        print(f"error: tracelab imported from {tracelab.__file__}, not {SRC}", file=sys.stderr)
        return 2

    tracer = Tracer()
    if args.trace:
        with tracer.install(), tracer.pipeline_call("setup"):
            cases = build(args.seed, tiny)
    else:
        cases = build(args.seed, tiny)
    warm_case = build(args.seed, True)[0]

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        (Path(tmp) / "warm").mkdir()
        call(cli.main, _write_inputs([warm_case], Path(tmp) / "warm")[0])
        # each timed call and run starts from a collected heap; frozen set-up
        # objects keep the collections short, as in a fresh CLI process
        gc.freeze()
        argvs = _write_inputs(cases, Path(tmp))
        if args.trace:
            metrics, judgement, notes = measure_traced(args, cases, argvs, cli.main, tracer)
            tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        else:
            metrics, judgement, notes = measure(args, cases, argvs, cli.main)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{WORKLOADS[args.workload].why}")
    units = dict(PER_LAYER if args.trace else END_TO_END)
    for name, unit in units.items():
        print(f"{name} {metrics[name]} {unit}")
    for line in judgement.lines + notes:
        print(line)
    print(json.dumps({
        "correct": judgement.correct, "attempted": judgement.attempted,
        "failed": judgement.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
