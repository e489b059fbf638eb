"""numpy stays the only runtime dependency of the package, and each public name is declared once."""

import ast
import importlib
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

from test_bench_names import _tracing

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "oodseg"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "oodseg"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_module_imports_only_stdlib_numpy_and_oodseg(path):
    outside = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            outside += [alias.name for alias in node.names if alias.name.split(".")[0] not in ALLOWED]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] not in ALLOWED:
            outside.append(node.module)
    assert not outside, f"{path.name} imports {outside}"


def test_every_module_is_checked():
    assert {"evaluate.py", "tensor_io.py", "__init__.py"} <= {path.name for path in SRC.glob("*.py")}


def _star_imported_modules():
    """The modules ``oodseg/__init__.py`` re-exports with ``from .<module> import *``, in import order."""
    tree = ast.parse((SRC / "__init__.py").read_text())
    return [node.module for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1 and [a.name for a in node.names] == ["*"]]


def test_each_public_name_is_declared_once_in_its_module():
    import oodseg

    names = sorted(path.stem for path in SRC.glob("*.py") if path.stem != "__init__")
    modules = {name: importlib.import_module(f"oodseg.{name}") for name in names}
    for name, module in modules.items():
        assert isinstance(getattr(module, "__all__", None), list), f"{name} has no __all__"
        assert len(set(module.__all__)) == len(module.__all__), f"{name}.__all__ repeats a name"
        for entry in module.__all__:
            assert not entry.startswith("_") and hasattr(module, entry), f"{name}.__all__ lists {entry!r}"
            assert not isinstance(getattr(module, entry), types.ModuleType), f"{name}.__all__ lists module {entry!r}"

    reexported = _star_imported_modules()
    assert reexported == [name for name in names if name != "cli"]  # the command line is not library API
    assert oodseg.__all__ == ["__version__"] + [entry for name in reexported for entry in modules[name].__all__]
    assert len(set(oodseg.__all__)) == len(oodseg.__all__)
    for name in reexported:
        for entry in modules[name].__all__:
            assert getattr(oodseg, entry) is getattr(modules[name], entry), f"oodseg.{entry}"
    public = {key for key in vars(oodseg) if not key.startswith("_")}
    assert public - set(names) == set(oodseg.__all__) - {"__version__"}


def _unused_imports(path):
    """Names ``path`` imports but neither uses nor lists in its ``__all__`` (a package module's), leaving out on an
    import marked ``# noqa: F401`` the names that bench/tracing.py rebinds in that package module's namespace."""
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported, rebound = set(), set()
    if path.parent == SRC:
        module = "oodseg" if path.stem == "__init__" else f"oodseg.{path.stem}"
        exported = set(getattr(importlib.import_module(module), "__all__", ()))
        rebound = {attr for _, namespaces, attr, _ in _tracing().WRAPS if path.stem in namespaces}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        marked = any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno])
        names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
        unused += [name for name in names
                   if name != "*" and name not in used and name not in exported and not (marked and name in rebound)]
    return unused


# The package, the demos and the tests; bench/ is left out.
_IMPORTING = [*sorted(SRC.glob("*.py")), *sorted((ROOT / "demos").glob("*.py")), *sorted((ROOT / "tests").glob("*.py"))]


@pytest.mark.parametrize("path", _IMPORTING,
                         ids=lambda path: path.name if path.parent == SRC else f"{path.parent.name}/{path.name}")
def test_every_imported_name_is_used(path):
    assert not _unused_imports(path), f"{path.name} imports {_unused_imports(path)} without using them"


def _references(node):
    """Each name ``node`` reads, by name or as an attribute, with its count."""
    return Counter(sub.id if isinstance(sub, ast.Name) else sub.attr
                   for sub in ast.walk(node) if isinstance(sub, (ast.Name, ast.Attribute)))


def test_every_private_helper_is_referenced():
    # A helper left behind when its last caller goes is dead code that still looks in use.
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))]
    read = sum(map(_references, trees), Counter())
    orphans = [node.name for tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name.startswith("_")
               and not node.name.startswith("__") and read[node.name] == _references(node)[node.name]]
    assert not orphans, f"private helpers no package module references: {orphans}"
