"""The library keeps what the system calls: every function, class and method
under ``src/tracelab`` is referenced by name somewhere in ``src/`` outside its
own definition (the re-exports of ``__init__`` do not count), or it is listed
in ``ORACLES`` as the executable form of a definition that a test checks other
code against."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tracelab"

# qualified name -> the tests that use it as an oracle
ORACLES = {
    "semantics.collecting_eval": "eval_type as alpha of the collecting image in test_domains",
    "domains.StoreAbstraction.value_has": "emitted guard membership against a scan in test_domains",
    "domains.StoreAbstraction.leq": "the lattice laws of stores in test_domains",
    "observe.st": "while-language runs against their compiled runs in test_gp",
    "extract.extract": "the paper's plain transform; extract, optimize and witness tests",
    "witness.tr_out": "extraction proof in test_witness",
    "witness.rtr": "extraction proof in test_witness",
    "witness.td": "specialization proof in test_witness",
    "witness.specialization_map": "specialization proof in test_witness",
    "witness.lift_full": "specialization proof in test_witness",
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


def test_every_definition_is_called_by_the_library_or_is_an_oracle():
    refs = _references()

    def referenced(module, node):
        return any(name == node.name and not (m == module and node.lineno <= line <= node.end_lineno)
                   for m, line, name in refs)

    unused = {f"{module}.{qual}" for module, qual, node in _definitions()
              if not (node.name.startswith("__") and node.name.endswith("__"))
              and not referenced(module, node)}
    assert unused - ORACLES.keys() == set()


def test_every_oracle_is_defined():
    defined = {f"{module}.{qual}" for module, qual, _ in _definitions()}
    assert ORACLES.keys() <= defined
