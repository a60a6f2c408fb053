"""Source checks over the package itself."""

import ast
from pathlib import Path

import finitetop


def test_the_package_has_no_assert_statements():
    """A check written as `assert` vanishes under `python -O`; raise instead."""
    found = []
    for path in sorted(Path(finitetop.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
