"""Self-test of the benchmark.

Run from the repository root::

    python3 bench/selftest.py

It runs every workload at the tiny scale, twice with ``--trace 0`` and twice
with ``--trace 1``, and checks that:

- the last line is the result object, with every metric ``BENCHMARK.json``
  declares for the mode, each with its unit, and ``correct`` true;
- every metric is also printed as ``<name> <value> <unit>``, ``fail_rate``
  included, and ``pipeline_p90_s`` exactly when a run made 100 or more calls;
- the counts that must not vary repeat exactly across the two runs;
- every workload ``BENCHMARK.json`` declares is defined, with the same reason;
- in a directory that holds only ``BENCHMARK.json`` and ``bench/``, the
  benchmark exits non-zero without printing a result.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = [sys.executable, str(HERE / "run.py")]
SECONDS = "1"

# Deterministic counts: equal inputs must give equal values on every run.
STABLE = {0: ("final_cmds", "fail_rate"),
          1: ("hotpath.count_calls", "hotpath.found", "hotpath.segments",
              "domains.contains_calls", "fail_rate")}

LINE = re.compile(r"^(\S+) (\S+) (\S+)")


def run(workload: str, trace: int) -> tuple[dict, dict]:
    """(result object, printed metrics as name -> (value, unit))."""
    proc = subprocess.run(
        RUN + ["--workload", workload, "--seed", "0", "--seconds", SECONDS,
               "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        m = LINE.match(line)
        if m:
            name, value, unit = m.groups()
            if name == "fail_rate":
                value = re.search(r"\((\d+) of \d+ inputs", line).group(1)
            printed[name] = (value, unit)
    return json.loads(lines[-1]), printed


def check_run(spec: dict, trace: int, result: dict, printed: dict) -> list[str]:
    errors = []
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys are {sorted(result)}")
    if result.get("correct") is not True:
        errors.append("correct is not true")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"attempted is {result.get('attempted')!r}")
    got = {name: m["unit"] for name, m in result.get("metrics", {}).items()}
    if got != declared:
        errors.append(f"result metrics {got} differ from BENCHMARK.json {declared}")
    for name, unit in declared.items():
        if printed.get(name, (None, None))[1] != unit:
            errors.append(f"{name} not printed with unit {unit}")
    if printed.get("fail_rate", (None, None))[1] != "failed/attempted":
        errors.append("fail_rate not printed with unit failed/attempted")
    if trace == 0 and ("pipeline_p90_s" in printed) != (result["attempted"] >= 100):
        errors.append(f"pipeline_p90_s printed wrongly for {result['attempted']} calls")
    if trace == 0 and "pipeline_p90_s" in printed and printed["pipeline_p90_s"][1] != "s":
        errors.append("pipeline_p90_s not printed with unit s")
    return errors


def check_bare() -> list[str]:
    """The benchmark must refuse to run without the program's sources."""
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "sieve-type-ts", "--seed", "0",
             "--seconds", SECONDS, "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[:200]!r}"]
    return []


def main() -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for w in spec["workloads"]:
        if w["name"] not in WORKLOADS or WORKLOADS[w["name"]].why != w["why"]:
            errors.append(f"BENCHMARK.json workload {w['name']} differs from workloads.py")
    for workload in WORKLOADS:
        for trace in (0, 1):
            runs = [run(workload, trace) for _ in range(2)]
            for result, printed in runs:
                errors += [f"{workload} trace {trace}: {e}"
                           for e in check_run(spec, trace, result, printed)]
            for name in STABLE[trace]:
                values = [printed.get(name, (None,))[0] for _, printed in runs]
                if values[0] is None or values[0] != values[1]:
                    errors.append(f"{workload} trace {trace}: {name} is {values[0]} then {values[1]}")
            print(f"checked {workload} trace {trace}", flush=True)
    errors += check_bare()
    for e in errors:
        print("FAIL", e)
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
