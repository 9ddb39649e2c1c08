"""Library code must not use ``assert`` for checks: ``python -O`` strips it."""

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "sfpas"


def test_no_assert_statements_in_the_package():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert found == []
