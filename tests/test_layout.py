"""Source layout: each top-level function of the package has one home."""

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
