"""Every Python file of the project parses under the oldest supported grammar
(``requires-python = ">=3.10"``), whichever interpreter runs the suite."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_source_parses_as_python_3_10():
    failures = []
    for path in sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py")):
        try:
            ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
        except SyntaxError as e:
            failures.append(f"{path.relative_to(ROOT)}:{e.lineno}: {e.msg}")
    assert not failures
