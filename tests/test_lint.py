"""Source checks over the package itself."""

import ast
import importlib
import importlib.util
from pathlib import Path

import finitetop
import finitetop.suites


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
    "pullback_power": "the pullback-power arrow of `lifting._power`'s key, for the tests; the bench tracer wraps it",
    "pushout_mediator": "the certified mediator on `mediator_mapping`, for the tests; the bench tracer wraps it",
    "frame_corpus": "test corpus; the bench tracer wraps it",
    "poset_certificate": "the bench tracer wraps the corpus dedupe by this name",
}


def _top_level_names(node):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def _package_trees():
    for path in sorted(Path(finitetop.__file__).parent.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _references(kinds):
    """(name, module, line) of every node of the given kinds in package code."""
    return [
        (_name(node), module, node.lineno)
        for module, tree in _package_trees()
        for node in ast.walk(tree)
        if isinstance(node, kinds)
    ]


def _unreached(definitions, kinds):
    """The definitions no package code reaches, as sorted "module:line key" strings.

    `definitions` holds (key, name, (module, first, last)), and a reference
    is a node of one of `kinds` that bears the name.  A reference to
    the name inside the definition's own lines does not count, and neither
    does one inside a definition already found unreached, so a helper that
    only dead code calls is found too.
    """
    references = _references(kinds)
    dead = {}
    while True:
        skipped = list(dead.values())
        found = {
            key: span
            for key, name, span in definitions
            if key not in dead
            and not any(
                ref == name
                and not any(m == module and a <= line <= b for m, a, b in skipped + [span])
                for ref, module, line in references
            )
        }
        if not found:
            break
        dead.update(found)
    return sorted(f"{m}:{a} {key}" for key, (m, a, _) in dead.items())


def test_every_top_level_name_has_a_package_caller():
    """Every top-level def, class and constant is used by live package code.

    A name that only tests or re-exports reach is surface nothing checks.
    Only a bare name reaches a top-level definition: package code never
    reads module attributes, so a method call `x.f()` must not keep a dead
    top-level `f` alive.
    """
    definitions = [
        (name, name, (module, node.lineno, node.end_lineno))
        for module, tree in _package_trees()
        for node in tree.body
        for name in _top_level_names(node)
        if not name.startswith("__") and name not in UNREFERENCED_ALLOWED
    ]
    assert _unreached(definitions, ast.Name) == []


def _unused_imports(tree):
    """(name, line) of every top-level import binding that the module never names.

    `from __future__` imports bind no name.  `import a.b` binds `a`.
    """
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.append(((alias.asname or alias.name).split(".")[0], node.lineno))
    named = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(name, line) for name, line in bound if name not in named]


def test_the_unused_import_guard_finds_a_dead_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport sys as system\nfrom json import dumps, loads\n"
        "def f():\n    return loads(os.path.sep)\n"
    )
    assert _unused_imports(ast.parse(source)) == [("system", 3), ("dumps", 4)]


def test_every_import_is_used():
    """Every name a package module imports at top level is referenced in it."""
    found = [
        f"{module}:{line} {name}"
        for module, tree in _package_trees()
        for name, line in _unused_imports(tree)
    ]
    assert found == []


def test_the_package_init_imports_nothing():
    """Names are imported from their defining module, never re-exported."""
    path = Path(finitetop.__file__)
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imports = [n.lineno for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
    assert imports == []


def test_no_module_imports_a_private_name_of_another():
    """An underscore name is private to the package module that defines it.

    A check that another module needs is reached through a public name,
    such as `FrameHom` for `frames._check_hom`.
    """
    found = [
        f"{module}:{node.lineno} {alias.name}"
        for module, tree in _package_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "finitetop")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert found == []


# Methods and properties that no package code references, each kept for a reason.
UNREFERENCED_METHODS_ALLOWED = {
    "_Parser.error": "argparse calls it on a usage error",
}


def test_every_method_has_a_package_caller():
    """Every non-dunder method and property is used by live package code.

    The rule of the top-level test, one level down, with a method's
    qualified name as its key.
    """
    definitions = [
        (f"{cls.name}.{node.name}", node.name, (module, node.lineno, node.end_lineno))
        for module, tree in _package_trees()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("__")
        and f"{cls.name}.{node.name}" not in UNREFERENCED_METHODS_ALLOWED
    ]
    assert _unreached(definitions, (ast.Name, ast.Attribute)) == []


def _self_naming_nested_functions(tree):
    """(name, line) of every function defined inside another that names itself."""
    found = []

    def visit(node, nested):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if nested and any(
                    isinstance(n, ast.Name) and n.id == child.name
                    for stmt in child.body
                    for n in ast.walk(stmt)
                ):
                    found.append((child.name, child.lineno))
                visit(child, True)
            else:
                visit(child, nested or isinstance(child, ast.Lambda))

    visit(tree, False)
    return found


def test_the_self_naming_guard_finds_a_nested_recursion():
    source = "def outer():\n    def rec(t):\n        return rec(t - 1)\n    return rec(3)\n"
    assert _self_naming_nested_functions(ast.parse(source)) == [("rec", 2)]
    assert _self_naming_nested_functions(ast.parse("def rec(t):\n    return rec(t)\n")) == []


def test_no_nested_function_refers_to_its_own_name():
    """A nested function that names itself holds itself through its closure cell.

    Every call of the enclosing function then leaves a function-cell cycle
    that only the cyclic garbage collector frees; recurse through a
    module-level function instead.
    """
    found = [
        f"{module}:{line} {name}"
        for module, tree in _package_trees()
        for name, line in _self_naming_nested_functions(tree)
    ]
    assert found == []


_CONTAINER_CALLS = {"dict", "list", "set", "defaultdict", "OrderedDict"}
_GROWING_METHODS = {"append", "extend", "insert", "add", "update", "setdefault"}

# Module-level containers that package functions may grow, each kept for a reason.
MODULE_MUTATION_ALLOWED = {}


def _module_containers(tree):
    """Names bound at module level to a dict, list or set display or constructor."""
    names = set()
    for node in tree.body:
        value = getattr(node, "value", None)
        is_container = isinstance(
            value, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
        ) or (isinstance(value, ast.Call) and _name(value.func) in _CONTAINER_CALLS)
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and is_container:
            names.update(_top_level_names(node))
    return names


def _local_names(function, nodes):
    """Parameters and names a function binds itself, which shadow module names."""
    params = {a.arg for a in ast.walk(function.args) if isinstance(a, ast.arg)}
    stores = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    declared = {name for n in nodes if isinstance(n, ast.Global) for name in n.names}
    return (params | stores) - declared


def _mutated_module_containers(tree):
    """(name, line) of every growth of a module-level container inside a function.

    Growth is a call of `append`, `extend`, `insert`, `add`, `update` or
    `setdefault` on the name, or an assignment to one of its items.
    """
    containers = _module_containers(tree)
    found = []
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        body = function.body if isinstance(function.body, list) else [function.body]
        nodes = [n for stmt in body for n in ast.walk(stmt)]
        shared = containers - _local_names(function, nodes)
        for node in nodes:
            target = None
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in _GROWING_METHODS:
                    target = node.func.value
            elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
                target = node.value
            if isinstance(target, ast.Name) and target.id in shared:
                found.append((target.id, node.lineno))
    return sorted(set(found), key=lambda f: f[1])


def test_the_module_mutation_guard_finds_a_hand_rolled_cache():
    source = (
        "_MEMO = {}\n_SEEN = set()\n_LOG = []\n"
        "def f(k):\n"
        "    _MEMO[k] = 1\n"
        "    _SEEN.add(k)\n"
        "    _LOG.append(k)\n"
        "    return _MEMO.setdefault(k, 2)\n"
        "def g(_LOG):\n"
        "    _LOG.append(1)\n"
        "    local = {}\n"
        "    local[1] = 2\n"
    )
    found = _mutated_module_containers(ast.parse(source))
    assert found == [("_MEMO", 5), ("_SEEN", 6), ("_LOG", 7), ("_MEMO", 8)]


def test_no_package_function_grows_a_module_level_container():
    """A module-level dict, list or set that functions grow is a hand-rolled cache.

    Nothing bounds it, and `test_the_package_has_no_unbounded_caches` only
    sees `lru_cache` and `cache`; keep such state in a bounded `lru_cache`,
    or in an object that enforces its own bound.
    """
    found = [
        f"{module}:{line} {name}"
        for module, tree in _package_trees()
        for name, line in _mutated_module_containers(tree)
        if f"{module}:{name}" not in MODULE_MUTATION_ALLOWED
    ]
    assert found == []


def test_every_function_the_bench_tracer_wraps_resolves():
    """perfbench/tracer.py looks up what it wraps by module and name.

    Reads the tracer's span table and changes nothing in perfbench, so a
    rename that would break a traced bench run fails here too.
    """
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    lifting = importlib.import_module("finitetop.lifting")
    missing = [
        f"{module}.{function}"
        for module, function, _, _ in tracer._span_table(lifting)
        if not callable(getattr(importlib.import_module(f"finitetop.{module}"), function, None))
    ]
    assert missing == []
