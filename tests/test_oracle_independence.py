"""The test oracles must share no code with the product: ``tests/oracles.py``
imports nothing from sfpas, so it and sympy stay independent references."""

import ast
from pathlib import Path

ORACLES = Path(__file__).parent / "oracles.py"


def test_oracles_import_nothing_from_sfpas():
    found = []
    for node in ast.walk(ast.parse(ORACLES.read_text(), filename=str(ORACLES))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        found += [f"{name} (line {node.lineno})" for name in names if name.split(".")[0] == "sfpas"]
    assert found == []
