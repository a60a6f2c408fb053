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


def _is_none(node):
    return isinstance(node, ast.Constant) and node.value is None


def _name(node):
    if isinstance(node, ast.Attribute):
        return node.attr
    return getattr(node, "id", None)


def test_the_package_has_no_unbounded_caches():
    """`lru_cache(maxsize=None)` and `functools.cache` grow for the life of the process."""
    found = []
    for path in sorted(Path(finitetop.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                unbounded = any(
                    k.arg == "maxsize" and _is_none(k.value) for k in node.keywords
                ) or (
                    _name(node.func) == "lru_cache" and node.args and _is_none(node.args[0])
                )
            else:
                decorators = getattr(node, "decorator_list", ())
                unbounded = any(_name(d) == "cache" for d in decorators)
            if unbounded:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
