"""The package keeps only code that a non-test caller runs, reached one way.

Every top-level function and class in ``src/qbnsl``, every public method,
and every attribute set on a module-level name must be used somewhere
outside its own definition: in the package (``__init__.py`` aside), in
``scripts/`` or in ``perfbench/``, where the names that
``perfbench/spans.py``'s ``BOUNDARIES`` wraps count as uses.  Helpers only
tests call live in ``tests/reference.py``.  ``__init__.py`` re-exports
nothing, so each name is imported from the module that defines it.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qbnsl"
CODE_DIRS = ("src", "tests", "scripts", "perfbench")

# Kept without a non-test caller, each for its reason.
ALLOWED_UNUSED = {
    # What NodeSet.__repr__ prints, so a printed set evaluates back to itself.
    "instance.NodeSet.of",
    # The documented pruning step; acceptance criterion 9 tests it.
    "scores_io.prune_dominated",
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _uses(tree: ast.AST):
    """(name, ids of the enclosing nodes) per load, attribute read and import."""
    stack = [(tree, ())]
    while stack:
        node, outer = stack.pop()
        here = outer + (id(node),)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, here
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, here
        elif isinstance(node, ast.alias):
            yield node.name.split(".")[-1], here
        stack.extend((child, here) for child in ast.iter_child_nodes(node))


def _boundary_names(tree: ast.Module) -> set[str]:
    """Each dotted part of the owner paths and attributes in ``BOUNDARIES``."""
    for node in tree.body:
        if isinstance(node, ast.AnnAssign) and node.target.id == "BOUNDARIES":
            return {
                part
                for boundary in node.value.elts
                for field in boundary.elts[:2]
                for part in field.value.split(".")
            }
    raise AssertionError("perfbench/spans.py has no BOUNDARIES list")


def _definitions(module: str, tree: ast.Module):
    """(qualified name, bare name, defining node) for each checked definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{module}.{node.name}.{item.name}", item.name, item
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Attribute):
                    yield f"{module}.{ast.unparse(target)}", target.attr, node


def test_package_init_imports_nothing():
    tree = _parse(PACKAGE / "__init__.py")
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not imports, [ast.unparse(node) for node in imports]


def test_no_file_imports_a_name_from_the_package_itself():
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    found = []
    for path in [path for top in CODE_DIRS for path in (ROOT / top).rglob("*.py")]:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.ImportFrom) and node.module == "qbnsl" and not node.level:
                found += [
                    f"{path.relative_to(ROOT)}: {alias.name}"
                    for alias in node.names
                    if alias.name not in modules
                ]
    assert not found


def test_every_package_definition_has_a_non_test_caller():
    # One tree per file: a definition's own uses are found by node identity.
    package = {path: _parse(path) for path in PACKAGE.glob("*.py")}
    callers = {path: tree for path, tree in package.items() if path.name != "__init__.py"}
    for path in [*(ROOT / "scripts").rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")]:
        callers[path] = _parse(path)
    uses: dict[str, list[tuple[int, ...]]] = {}
    for path, tree in callers.items():
        for name, outer in _uses(tree):
            uses.setdefault(name, []).append(outer)
        if path == ROOT / "perfbench" / "spans.py":
            for name in _boundary_names(tree):
                uses.setdefault(name, []).append(())
    unused = {
        qualified
        for path, tree in package.items()
        for qualified, name, node in _definitions(path.stem, tree)
        # A use inside the definition itself, such as recursion, does not count.
        if all(id(node) in outer for outer in uses.get(name, ()))
    }
    assert unused == ALLOWED_UNUSED
