"""Source hygiene, read from the syntax trees of `src/prism25d/*.py`: every module uses
each name it imports, every private module-level name is referenced somewhere in
`src/`, and every public module-level function or class is referenced there or
re-exported by the package. `from __future__` imports and the package's re-exports are
exempt from the first rule."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "prism25d"
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
         for path in sorted(SRC.glob("*.py"))}


def _references(tree) -> set[str]:
    """Every name a module reads: bare names, attribute names and names imported from a module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _bound_imports(tree):
    """(name, line) for each name an import statement binds, at any depth of the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((alias.asname or alias.name.split(".")[0], node.lineno) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from ((alias.asname or alias.name, node.lineno) for alias in node.names)


def test_every_import_is_used():
    unused = []
    for name, tree in TREES.items():
        if name == "__init__.py":
            continue
        reads = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
        unused += [f"{name}:{line} {bound}" for bound, line in _bound_imports(tree) if bound not in reads]
    assert not unused


# numcore operations nothing in `src/` calls, which perfbench/spans.py's NUMCORE_OPS still
# looks up by name; they can go once the benchmark stops naming them (ROADMAP item 1)
UNUSED_BUT_BENCHMARKED = {"relu", "tmean", "take"}


def test_every_public_module_level_function_or_class_is_used_or_exported():
    # __init__.py's imports count as references, so a re-export is one
    referenced = set().union(*map(_references, TREES.values())) | UNUSED_BUT_BENCHMARKED
    unused = []
    for name, tree in TREES.items():
        unused += [f"{name}:{node.lineno} {node.name}" for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                   and not node.name.startswith("_") and node.name not in referenced]
    assert not unused


def test_every_private_module_level_name_is_referenced():
    referenced = set().union(*map(_references, TREES.values()))
    unreferenced = []
    for name, tree in TREES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            unreferenced += [f"{name}:{node.lineno} {d}" for d in defined
                             if d.startswith("_") and not d.startswith("__") and d not in referenced]
    assert not unreferenced
