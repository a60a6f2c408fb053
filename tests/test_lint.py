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


# Top-level names that no package code references, each kept for a reason.
UNREFERENCED_ALLOWED = {
    "main": "the `finitetop` console script in pyproject.toml",
    "pullback_power": "oracle of `lifting._power` in the tests; the bench tracer wraps it",
    "frame_corpus": "test corpus; the bench tracer wraps it",
    "prenuclei": "literal oracle of the tensor closure passes in the tests",
}


def _top_level_names(node):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def test_every_top_level_name_has_a_package_caller():
    """Every top-level def, class and constant is used by live package code.

    A name that only tests or re-exports reach is surface nothing checks.  A
    reference inside the definition's own body does not count, and neither
    does one inside a definition already found dead, so a helper that only
    dead code calls is found too.
    """
    definitions = []
    references = []
    for path in sorted(Path(finitetop.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            span = (path.name, node.lineno, node.end_lineno)
            definitions += [(name, span) for name in _top_level_names(node)]
        references += [
            (_name(node), path.name, node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
        ]
    dead = {}
    while True:
        skipped = list(dead.values())
        found = {
            name: span
            for name, span in definitions
            if not name.startswith("__")
            and name not in UNREFERENCED_ALLOWED
            and name not in dead
            and not any(
                ref == name
                and not any(m == module and a <= line <= b for m, a, b in skipped + [span])
                for ref, module, line in references
            )
        }
        if not found:
            break
        dead.update(found)
    assert sorted(f"{m}:{a} {name}" for name, (m, a, _) in dead.items()) == []


def test_the_package_init_imports_nothing():
    """Names are imported from their defining module, never re-exported."""
    path = Path(finitetop.__file__)
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imports = [n.lineno for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
    assert imports == []
