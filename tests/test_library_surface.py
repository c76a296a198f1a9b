"""The library keeps what the system calls: every function, class and method
under ``src/tracelab`` is referenced by name somewhere in ``src/`` outside its
own definition (the re-exports of ``__init__`` do not count), or it is listed
in ``ORACLES`` with the file outside ``src`` and the tests that calls it.
What only tests call lives in the tests (``tests/oracles.py``)."""

import ast
import inspect
from pathlib import Path

import tracelab

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "tracelab"

# qualified name -> the file outside ``src`` and the tests that calls it
ORACLES = {
    "domains.StoreAbstraction.contains": "bench/spans.py",
}


def _definitions():
    """(module, qualified name, node) of every def and class, outside ``__init__``."""
    out = []

    def walk(module, node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                out.append((module, prefix + child.name, child))
                walk(module, child, prefix + child.name + ".")

    for path in sorted(SRC.glob("*.py")):
        if path.name != "__init__.py":
            walk(path.stem, ast.parse(path.read_text()), "")
    return out


def _references():
    """(module, line, name) of every name and attribute read, outside ``__init__``."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                out.append((path.stem, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                out.append((path.stem, node.lineno, node.attr))
    return out


def _referenced(refs, module, node):
    """Whether ``node``'s name is read in ``src`` outside its own definition."""
    return any(name == node.name and not (m == module and node.lineno <= line <= node.end_lineno)
               for m, line, name in refs)


def test_every_definition_is_called_by_the_library_or_is_an_oracle():
    refs = _references()
    unused = {f"{module}.{qual}" for module, qual, node in _definitions()
              if not (node.name.startswith("__") and node.name.endswith("__"))
              and not _referenced(refs, module, node)}
    assert unused - ORACLES.keys() == set()


def test_every_oracle_is_defined():
    defined = {f"{module}.{qual}" for module, qual, _ in _definitions()}
    assert ORACLES.keys() <= defined


def test_every_oracle_has_a_consumer_outside_the_tests():
    for qual, consumer in ORACLES.items():
        assert consumer.split("/")[0] not in ("src", "tests"), (qual, consumer)
        assert qual.rsplit(".", 1)[-1] in (ROOT / consumer).read_text(), (qual, consumer)


def _reads_of_exports():
    """(module, line, name, home) of every read of a name that a module of
    the package may define: ``home`` is the module it was imported from
    (``from .home import name``) or read off (``home.name``), and None for a
    name the reading module does not import.  Outside ``__init__``."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                   and node.level == 1]
        home = {a.asname or a.name: node.module for node in imports if node.module
                for a in node.names}
        modules = {a.asname or a.name: a.name for node in imports if not node.module
                   for a in node.names}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                out.append((path.stem, node.lineno, node.id, home.get(node.id)))
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules:
                out.append((path.stem, node.lineno, node.attr, modules[node.value.id]))
    return out


def test_the_package_exports_nothing_that_only_tests_call():
    """Each function or class in ``tracelab.__all__`` is read in ``src``
    outside its own definition: in its own module, or in a module that
    imports it from there or reads it off that module (the re-exports of
    ``__init__`` do not count)."""
    reads = _reads_of_exports()
    nodes = {(module, qual): node for module, qual, node in _definitions()}
    unused = []
    for name in tracelab.__all__:
        value = getattr(tracelab, name)
        if inspect.isfunction(value) or inspect.isclass(value):
            module = value.__module__.rsplit(".", 1)[-1]
            node = nodes[module, name]
            if not any(n == name and (home == module if m != module else
                                      home is None and not node.lineno <= line <= node.end_lineno)
                       for m, line, n, home in reads):
                unused.append(name)
    assert unused == []
