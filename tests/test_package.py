"""The package's names load on first use: each test runs in a fresh
interpreter, so the modules an import runs are those it needs."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _fresh(code: str) -> str:
    """The stdout of ``code`` run by a new interpreter that imports tracelab
    from this checkout."""
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_importing_the_text_module_runs_only_what_it_imports():
    out = _fresh("import sys, json, tracelab.textio\n"
                 "print(json.dumps(sorted(m for m in sys.modules if m.startswith('tracelab'))))")
    assert json.loads(out) == ["tracelab", "tracelab.domains", "tracelab.lang",
                               "tracelab.semantics", "tracelab.textio", "tracelab.values"]


def test_importing_gen_runs_only_the_statement_modules():
    """``gen`` compiles while-language statements: the miner, extraction and
    the check stay unloaded."""
    out = _fresh("import sys, json, tracelab.gen\n"
                 "print(json.dumps(sorted(m for m in sys.modules if m.startswith('tracelab'))))")
    assert json.loads(out) == ["tracelab", "tracelab.gen", "tracelab.gp", "tracelab.lang",
                               "tracelab.semantics", "tracelab.values"]


def test_a_first_equivalence_check_loads_what_it_needs():
    out = _fresh("""
import sys
from tracelab.gp import GAssign, GWhile, gp_equivalence_check
from tracelab.lang import Add, Leq, Lit, Var
from tracelab.semantics import Store
loop = GWhile(Leq(Var("x"), Lit(5)), (GAssign("x", Add(Var("x"), Lit(1))),))
res = gp_equivalence_check((loop,), Store({"x": 0}), 200)
print(res.passed, len(res.record.hot_path), res.renaming is not None)
print(all(f"tracelab.{m}" in sys.modules for m in ("hotpath", "extract", "observe")))
""")
    assert out.split() == ["True", "3", "True", "True"]


def test_importing_the_package_runs_no_module():
    out = _fresh("import sys, tracelab\nprint([m for m in sys.modules if m.startswith('tracelab')])")
    assert out.strip() == "['tracelab']"


def test_every_exported_name_resolves_to_its_modules_object():
    """Each name is the object of that name in its module (or the module
    itself), a function or class defined there, and ``dir`` lists it before
    and after it loads."""
    out = _fresh("""
import importlib, inspect, json, tracelab
listed = set(dir(tracelab)) >= set(tracelab.__all__)
wrong = []
for name in tracelab.__all__:
    value = getattr(tracelab, name)
    module = importlib.import_module("tracelab." + tracelab._MODULE_OF[name])
    if value is not (module if module.__name__ == "tracelab." + name else vars(module)[name]):
        wrong.append(name)
    elif (inspect.isfunction(value) or inspect.isclass(value)) and value.__module__ != module.__name__:
        wrong.append(name)
print(json.dumps([listed, set(dir(tracelab)) >= set(tracelab.__all__), wrong]))
""")
    assert json.loads(out) == [True, True, []]


def test_from_import_of_exported_names():
    out = _fresh("from tracelab import Program, run, pipeline, TT, extract_nested\n"
                 "print(Program.__module__, run.__module__, pipeline.__name__, "
                 "extract_nested.__module__)")
    assert out.split() == ["tracelab.lang", "tracelab.semantics", "tracelab.pipeline",
                           "tracelab.extract"]


def test_an_unknown_name_raises_attribute_error():
    out = _fresh("""
import tracelab
try:
    tracelab.no_such_name
except AttributeError as e:
    print("AttributeError", e)
try:
    from tracelab import no_such_name
except ImportError:
    print("ImportError")
""")
    assert out.splitlines() == ["AttributeError module 'tracelab' has no attribute 'no_such_name'",
                                "ImportError"]


def test_extract_is_the_module_whatever_was_imported_first():
    """So is ``pipeline``, whose function of the same name stays
    ``tracelab.pipeline.pipeline``."""
    for name, fn in (("extract", "extract_nested"), ("pipeline", "pipeline")):
        check = (f"import sys\nfrom tracelab import {name}\nimport tracelab.{name} as m\n"
                 f"print({name} is m is tracelab.{name} is sys.modules['tracelab.{name}'], "
                 f"callable(m.{fn}))")
        for first in ("import tracelab", "import tracelab.optimize", f"import tracelab.{name}",
                      "import tracelab.cli"):
            assert _fresh(first + "\n" + check).split() == ["True", "True"], (name, first)
