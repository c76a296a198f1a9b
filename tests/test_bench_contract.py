"""The traced benchmark's span contract: ``bench/spans.py`` wraps functions of
``tracelab`` by module attribute, so renaming or moving one of them breaks the
traced run.  These tests install its tracer, as ``bench/run.py --trace 1``
does, and check that every binding it wraps exists, is wrapped while installed
and is restored afterwards."""

import importlib
import sys
from pathlib import Path

import pytest

from tracelab import domains
from tests.conftest import LOOP_SRC

BENCH = Path(__file__).resolve().parent.parent / "bench"
MODULES = ("cli", "domains", "gen", "hotpath", "lang", "observe", "optimize", "textio")


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("spans")


def _owners():
    owners = [importlib.import_module(f"tracelab.{m}") for m in MODULES]
    return owners + [domains.StoreAbstraction]


def _snapshot():
    return {owner: dict(vars(owner)) for owner in _owners()}


def test_install_wraps_and_restores_every_binding(spans):
    from tracelab import optimize
    before = _snapshot()
    passes = dict(optimize.PASSES)
    with spans.Tracer().install():
        wrapped = {(owner.__name__, attr): (value, before[owner][attr])
                   for owner, names in _snapshot().items()
                   for attr, value in names.items() if value is not before[owner][attr]}
        assert all(optimize.PASSES[k] is not fn for k, fn in passes.items())
    assert {("tracelab.hotpath", "topo_order"), ("tracelab.hotpath", "abstract_trace"),
            ("StoreAbstraction", "contains")} <= wrapped.keys()
    assert all(fn.__wrapped__ is orig for fn, orig in wrapped.values())
    after = _snapshot()
    assert all(after[o][a] is fn for o, names in before.items() for a, fn in names.items())
    assert optimize.PASSES == passes


def test_traced_pipeline_sees_the_mining_layers(spans, tmp_path, monkeypatch):
    from tracelab import cli, observe
    path = tmp_path / "loop.tl"
    path.write_text(LOOP_SRC)
    runs, real = [], observe.run

    def counting(p, rho, budget):
        runs.append(p)
        return real(p, rho, budget)

    monkeypatch.setattr(observe, "run", counting)
    tracer = spans.Tracer()
    with tracer.install():
        assert cli.main(["pipeline", str(path), "--domain", "type", "--pass", "ts",
                         "--json", str(tmp_path / "report.json")]) == 0
    layers = tracer.layers()
    assert layers["hotpath.topo_order"].calls == 1  # one mining round, one order
    for name in ("hotpath.abstract_trace", "hotpath.count", "hotpath.hot_n",
                 "semantics.run", "optimize.optimize", "observe.equiv_check"):
        assert layers[name].calls > 0, name
    # a guard runs its compiled membership test, not ``contains``
    assert layers["domains.contains"].calls == 0
    # every run of the call is traced: the input's and the stitched program's
    assert layers["semantics.run"].calls == len(runs) == 2
