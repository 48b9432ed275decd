"""Every import in the package is used, and every export read.

No linter ships with the test dependencies, so these guards parse each
module with :mod:`ast`.  A name bound by an import counts as used when
the module reads it, names it in a quoted annotation, or lists it in
``__all__`` (a re-export).  A name a package module lists in ``__all__``
must be read by the package or the benchmark harness; a reference only
the tests read belongs in ``tests/``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src").rglob("*.py"))
CALLERS = MODULES + sorted((ROOT / "perfbench").glob("*.py"))


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of its import."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs,
                        args.vararg, args.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    for node in _dunder_all(tree):
        used |= _listed(node)
    return used


def _dunder_all(tree: ast.Module) -> list[ast.Assign]:
    return [
        node for node in tree.body
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        )
    ]


def _listed(node: ast.Assign) -> set[str]:
    # The names an ``__all__`` spells out.  The package's list spreads its
    # export table, whose names each export's own module lists as well.
    return {
        n.value for n in ast.walk(node.value)
        if isinstance(n, ast.Constant) and isinstance(n.value, str)
    }


def _reads(tree: ast.Module) -> set[str]:
    """Names, attributes and string constants outside ``__all__`` and imports.

    Import statements bind names through aliases, not ``Name`` nodes, so
    walking the expressions skips them.  A string counts because ``verify``
    resolves its checks from a table of names.
    """
    skipped = {id(node) for lst in _dunder_all(tree) for node in ast.walk(lst)}
    reads = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            reads.add(node.id)
        elif isinstance(node, ast.Attribute):
            reads.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            reads.add(node.value)
    return reads


def test_the_guard_sees_every_module():
    names = {path.name for path in MODULES}
    assert {"cli.py", "tables.py"} <= names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = _used_names(tree)
    unused = sorted(
        f"line {line}: {name}"
        for name, line in _imported_names(tree).items()
        if name not in used
    )
    assert unused == []


def test_the_guard_flags_an_unused_import():
    tree = ast.parse(
        "from typing import Optional, Sequence\n"
        "import os.path\n"
        "def f(x: 'Optional[int]') -> None:\n"
        "    return x\n"
    )
    used = _used_names(tree)
    assert {"Optional", "Sequence", "os"} == set(_imported_names(tree))
    assert [name for name in _imported_names(tree) if name not in used] == [
        "Sequence", "os"
    ]


def test_every_export_is_read_outside_the_tests():
    reads = set()
    for path in CALLERS:
        reads |= _reads(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    unread = sorted(
        f"{path.relative_to(ROOT)}: {name}"
        for path in MODULES
        for lst in _dunder_all(ast.parse(path.read_text(encoding="utf-8")))
        for name in _listed(lst)
        if name != "__version__" and name not in reads
    )
    assert unread == []


COLLECTION_MODULES = [
    ROOT / "src" / "blowup_collections" / f"{name}.py"
    for name in ("sequences", "families", "relations")
]


def _model_and_collection_functions(tree: ast.Module) -> list[str]:
    """Public functions with a ``VarietyModel`` and a ``Collection`` parameter."""
    flagged = []
    for node in tree.body:
        if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
            continue
        args = node.args
        named = set()
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            if arg.annotation is not None:
                named |= {n.id for n in ast.walk(arg.annotation) if isinstance(n, ast.Name)}
        if {"VarietyModel", "Collection"} <= named:
            flagged.append(node.name)
    return flagged


def test_the_model_guard_flags_a_model_next_to_a_collection():
    tree = ast.parse(
        "def f(model: VarietyModel, seq: Collection) -> None: ...\n"
        "def g(model: VarietyModel, window: int) -> list[Collection]: ...\n"
        "def _h(model: VarietyModel, seq: 'Optional[Collection]') -> None: ...\n"
    )
    assert _model_and_collection_functions(tree) == ["f"]


@pytest.mark.parametrize(
    "path", COLLECTION_MODULES, ids=lambda p: str(p.relative_to(ROOT))
)
def test_collection_operations_take_no_model(path):
    # A collection names its variety, so an operation on one looks its
    # model up instead of taking a second, possibly disagreeing, argument.
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _model_and_collection_functions(tree) == []
