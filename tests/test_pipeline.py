"""The library pipeline: mining rounds, the final program and its check."""

import json
from pathlib import Path

import pytest

from tracelab import pipeline, textio
from tracelab.semantics import Store

GOLDEN = Path(__file__).parent / "golden" / "cli"


def test_no_hot_path_leaves_the_program_unchanged(cf_program):
    rep = pipeline.pipeline(cf_program, [Store()], "cp", 2, 2000, ["cf"], 3)
    assert rep.hotpaths == ()
    assert rep.program is cf_program
    assert rep.check.passed and rep.minimized == {}


def test_sieve_matches_the_cli_golden(sieve_program, sieve_store):
    rep = pipeline.pipeline(sieve_program, [sieve_store], "type", 2, 20000, ["ts"], 3)
    golden = json.loads((GOLDEN / "sieve_pipeline.out").read_text())
    assert textio.print_program(rep.program) == golden["programs"]["after"]
    assert [c for _, c in rep.hotpaths] == [hp["count"] for hp in golden["hotpaths"]]
    assert rep.check.passed and rep.check.observation == "sc"


@pytest.mark.parametrize("rounds", [0, -1])
def test_no_round_is_refused_not_passed(loop_program, rounds):
    with pytest.raises(pipeline.PipelineError, match="rounds must be at least 1"):
        pipeline.pipeline(loop_program, [Store()], "onepoint", 2, 2000, [], rounds)
