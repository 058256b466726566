"""Module structure of the package, read from its source with ast.

Each helper that several modules share has one home: the argument checks
in _checks, the shared formulas and the codeword bit layout in _kernels.
So every import sits at module level, no module imports another's private
name except from those two, and the import graph runs one way:
errors, _checks and _kernels, then ensembles, psdlinalg, detection,
information, fastcode, synth and cli. No public function of fastcode takes
raw generator words.
"""

import ast
import inspect
from pathlib import Path

import supadd
from supadd import fastcode

PACKAGE = Path(supadd.__file__).parent
# the modules whose private names the others may import
SHARED = {"_kernels", "_checks"}
# each module may import only the modules before it
ORDER = [
    "errors",
    "_checks",
    "_kernels",
    "ensembles",
    "psdlinalg",
    "detection",
    "information",
    "fastcode",
    "synth",
    "cli",
    "__init__",
]


def _trees() -> dict:
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in PACKAGE.glob("*.py")}


def _imports(tree):
    """(node, package module imported, names taken from it) of every import
    of a package module, wherever it stands in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module is None:
                for alias in node.names:
                    yield node, alias.name, []
            elif node.level == 1 or (node.module or "").startswith("supadd."):
                yield node, node.module.rpartition(".")[2], [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("supadd."):
                    yield node, alias.name.rpartition(".")[2], []


def _graph() -> dict:
    return {name: {target for _, target, _ in _imports(tree)} for name, tree in _trees().items()}


def test_every_module_is_placed():
    assert set(_trees()) == set(ORDER)


def test_no_import_inside_a_function():
    found = [
        f"{name}.py:{node.lineno} in {func.name}"
        for name, tree in _trees().items()
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert found == []


def test_private_names_come_only_from_the_shared_modules():
    found = [
        f"{name}.py:{node.lineno} takes {target}.{taken}"
        for name, tree in _trees().items()
        for node, target, names in _imports(tree)
        if target not in SHARED
        for taken in names
        if taken.startswith("_")
    ]
    assert found == []


def test_import_graph_is_acyclic():
    graph = _graph()
    done, path = set(), []

    def visit(name):
        if name in path:
            return path[path.index(name):] + [name]
        if name in done:
            return None
        path.append(name)
        for target in sorted(graph.get(name, ())):
            cycle = visit(target)
            if cycle:
                return cycle
        path.pop()
        done.add(name)
        return None

    assert next(filter(None, map(visit, sorted(graph))), None) is None


def test_imports_follow_the_layer_order():
    found = [
        f"{name} imports {target}"
        for name, targets in _graph().items()
        for target in targets
        if ORDER.index(target) >= ORDER.index(name)
    ]
    assert found == []


def test_no_public_fastcode_function_takes_generator_words():
    # the group route's words come from a family or from linear_generators,
    # checked where they are made; no caller hands them in
    found = [
        name
        for name, obj in vars(fastcode).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == fastcode.__name__
        and "generators" in inspect.signature(obj).parameters
    ]
    assert found == []
