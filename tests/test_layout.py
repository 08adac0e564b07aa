"""Source layout: each top-level function of the package has one home,
and the package has no floating point."""

import ast
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "fbr"


def test_no_function_defined_in_two_modules():
    homes = defaultdict(list)
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                homes[node.name].append(path.stem)
    assert {name: mods for name, mods in homes.items() if len(mods) > 1} == {}


def test_no_float_literal_or_name():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
                    or isinstance(node, ast.Name) and node.id == "float"):
                found.append(f"{path.stem}:{node.lineno}")
    assert found == []
