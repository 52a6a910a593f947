"""Source hygiene, read from the syntax trees of `src/prism25d/*.py`: every module uses
each name it imports, and every private module-level name and every public module-level
function or class is used by a reference that resolves to its own module (the package's
re-exports are such references). `from __future__` imports and the package's re-exports
are exempt from the first rule. Every `raise` names no builtin exception, so that what the
package raises is a `PrismError`; the CLI parser's `SystemExit` is exempt. JSON text is
decoded in `schema.py` only, so that every JSON input is read by its one rule. Every
parameter with a default is passed by some call in `src/`, `tests/` or `perfbench/`."""

import ast
import builtins
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "prism25d"
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
         for path in sorted(SRC.glob("*.py"))}


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
UNUSED_BUT_BENCHMARKED = {"relu", "tmean", "take", "rows", "reshape"}


def _module_uses(trees) -> set[tuple[str, str]]:
    """(module, name) for each use of a module's name: a bare name in the module itself, a
    name imported from the module, or an attribute of the module imported whole (`nc.take`).
    A local variable or an attribute of anything else in another module that shares the name
    is no use; in the defining module every bare name counts, a local one too."""
    uses = set()
    for filename, tree in trees.items():
        whole = {}  # local name -> the sibling module it binds, from `from . import m as x`
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module is None:
                    whole.update((alias.asname or alias.name, alias.name) for alias in node.names)
                else:
                    uses.update((node.module, alias.name) for alias in node.names)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                uses.add((filename.removesuffix(".py"), node.id))
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in whole):
                uses.add((whole[node.value.id], node.attr))
    return uses


def _unused_public(trees, exempt=frozenset()) -> list[str]:
    """`file:line name` for each public module-level function or class of `trees` with no use;
    `__init__.py`'s imports are uses, so a re-export is one."""
    uses = _module_uses(trees)
    return [f"{filename}:{node.lineno} {node.name}" for filename, tree in trees.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_") and node.name not in exempt
            and (filename.removesuffix(".py"), node.name) not in uses]


def test_every_public_module_level_function_or_class_is_used_or_exported():
    assert not _unused_public(TREES, UNUSED_BUT_BENCHMARKED)


def test_a_name_shared_with_a_local_or_another_attribute_is_no_use():
    trees = {
        "ops.py": ast.parse("def rows(x):\n    return x\n\ndef take(x):\n    return x\n"
                            "\ndef used(x):\n    return x\n"),
        "user.py": ast.parse("from . import ops as o\nfrom .ops import used\n\n"
                             "def _f(a):\n    rows = a.reshape(2)\n    return used(rows), a.take, o.take\n"),
    }
    assert _unused_public(trees) == ["ops.py:1 rows"]


def test_every_private_module_level_name_is_referenced():
    uses = _module_uses(TREES)
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
                             if d.startswith("_") and not d.startswith("__")
                             and (name.removesuffix(".py"), d) not in uses]
    assert not unreferenced


BUILTIN_EXCEPTIONS = {name for name, value in vars(builtins).items()
                      if isinstance(value, type) and issubclass(value, BaseException)}
RAISE_EXEMPT = {("cli.py", "SystemExit")}  # the argument parser's usage-error exit


def _builtin_raises(trees) -> list[str]:
    """`file:line name` for each `raise` of a builtin exception class, called or not; a bare
    re-raise, a raise of a variable and a raise of a `PrismError` subclass name none."""
    found = []
    for filename, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if (isinstance(exc, ast.Name) and exc.id in BUILTIN_EXCEPTIONS
                        and (filename, exc.id) not in RAISE_EXEMPT):
                    found.append(f"{filename}:{node.lineno} {exc.id}")
    return found


def test_every_raise_is_a_package_error():
    assert not _builtin_raises(TREES)


PLANTED_RAISES = """from .errors import ValidationError


def f(x, fault):
    if x < 0:
        raise ValidationError("negative x")
    if fault is not None:
        raise fault
    try:
        return 1 / x
    except TypeError:
        raise
    except ZeroDivisionError:
        raise ValueError("zero x")
"""


def test_a_planted_builtin_raise_is_flagged():
    trees = {"ops.py": ast.parse(PLANTED_RAISES),
             "cli.py": ast.parse("def error():\n    raise SystemExit(1)\n")}
    assert _builtin_raises(trees) == ["ops.py:14 ValueError"]


JSON_DECODERS = {"JSONDecoder", "raw_decode"}  # flagged however they are reached
JSON_READERS = {"loads", "load"}  # flagged as attributes of `json`


def _json_decoding(trees) -> list[str]:
    """`file:line name` for each place outside `schema.py` that names a JSON decoder:
    `json.loads`, `json.load`, `JSONDecoder` or `raw_decode`, or imports one from `json`."""
    found = []
    for filename, tree in trees.items():
        if filename == "schema.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "json":
                names = [alias.name for alias in node.names if alias.name in JSON_DECODERS | JSON_READERS]
            elif isinstance(node, ast.Attribute):
                json_attr = isinstance(node.value, ast.Name) and node.value.id == "json"
                names = [node.attr] if node.attr in JSON_DECODERS or json_attr and node.attr in JSON_READERS else []
            elif isinstance(node, ast.Name):
                names = [node.id] if node.id in JSON_DECODERS else []
            else:
                names = []
            found += [f"{filename}:{node.lineno} {name}" for name in names]
    return sorted(found)


def test_json_text_is_decoded_in_schema_only():
    assert not _json_decoding(TREES)


PLANTED_DECODES = """import json
from json import loads as parse

import numpy as np


def f(path, text):
    np.load(path)
    return json.loads(text), json.JSONDecoder().raw_decode(text), parse(text), json.dumps(text)
"""


def test_a_planted_json_decode_is_flagged():
    trees = {"ops.py": ast.parse(PLANTED_DECODES),
             "schema.py": ast.parse("import json\n\nvalue = json.loads('1')\n")}
    assert _json_decoding(trees) == ["ops.py:2 loads", "ops.py:9 JSONDecoder", "ops.py:9 loads",
                                     "ops.py:9 raw_decode"]


# every module whose calls can pass a parameter of `src/`
CALLERS = {str(path.relative_to(ROOT)): ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
           for folder in ("src", "tests", "perfbench") for path in sorted((ROOT / folder).rglob("*.py"))}


def _defaulted_parameters(trees):
    """(file:line, names, parameter, position) for each parameter with a default of every
    function and method of `trees`. `names` are the names a call uses: the function's own, or
    for an `__init__` its class's and every subclass's. `position` is the parameter's index
    among the arguments a call passes by position (after `self` or `cls`), None when it is
    keyword-only."""
    subclasses = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for base in node.bases:
                    if isinstance(base, ast.Name):
                        subclasses.setdefault(base.id, []).append(node.name)

    def class_names(name):
        return [name] + [n for sub in subclasses.get(name, []) for n in class_names(sub)]

    found = []
    for filename, tree in trees.items():
        owner = {item: node for node in ast.walk(tree) if isinstance(node, ast.ClassDef) for item in node.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            cls = owner.get(fn)
            names = class_names(cls.name) if cls is not None and fn.name == "__init__" else [fn.name]
            positional = fn.args.posonlyargs + fn.args.args
            if cls is not None and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                           for d in fn.decorator_list):
                positional = positional[1:]
            first = len(positional) - len(fn.args.defaults)
            found += [(f"{filename}:{arg.lineno}", names, arg.arg, i)
                      for i, arg in enumerate(positional) if i >= first]
            found += [(f"{filename}:{arg.lineno}", names, arg.arg, None)
                      for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if default is not None]
    return found


def _unpassed_defaults(trees, callers) -> list[str]:
    """`file:line name(parameter=)` for each parameter with a default of `trees` that no call in
    `callers` passes, by keyword or by position. A call matches by the name it calls, bare or as
    an attribute; its `*args` passes every position and its `**kwargs` every keyword."""
    keywords, positions = {}, {}
    for tree in callers.values():
        for call in ast.walk(tree):
            if isinstance(call, ast.Call):
                name = call.func.id if isinstance(call.func, ast.Name) else getattr(call.func, "attr", None)
                keywords.setdefault(name, set()).update(k.arg for k in call.keywords)  # None: **kwargs
                count = math.inf if any(isinstance(a, ast.Starred) for a in call.args) else len(call.args)
                positions[name] = max(positions.get(name, 0), count)
    return [f"{where} {names[0]}({param}=)" for where, names, param, position in _defaulted_parameters(trees)
            if not any({param, None} & keywords.get(name, set())
                       or position is not None and position < positions.get(name, 0) for name in names)]


def test_every_defaulted_parameter_is_passed_by_some_call():
    assert not _unpassed_defaults(TREES, CALLERS)


PLANTED_DEFAULTS = """class Base:
    def __init__(self, a, b=1):
        self.a = a


class Child(Base):
    pass


def f(x, y=0, *, z=None):
    return x


def g(x, y=0, z=0):
    return x


class Tool:
    def run(self, a, b=2):
        return a

    @staticmethod
    def make(a, b=3):
        return a
"""
PLANTED_CALLS = """from .ops import Child, Tool, f, g

Child(1, 2)
f(1, z=3)
g(1, 2)
Tool().run(1)
Tool.make(1, 2)
"""


def test_a_planted_unpassed_default_is_flagged():
    trees = {"ops.py": ast.parse(PLANTED_DEFAULTS)}
    callers = {**trees, "user.py": ast.parse(PLANTED_CALLS)}
    assert _unpassed_defaults(trees, callers) == ["ops.py:10 f(y=)", "ops.py:14 g(z=)", "ops.py:19 run(b=)"]
    more = ast.parse("f(1, y=2)\ng(*[1, 2, 3])\nTool().run(**{'b': 1})\n")
    assert _unpassed_defaults(trees, {**callers, "more.py": more}) == []
