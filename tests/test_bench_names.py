"""The library names the benchmark uses must exist in the library.

``bench/tracing.py`` wraps public functions by rebinding module attributes
with ``getattr``/``setattr``, and the workloads call ``oodseg`` modules by
attribute; a refactor that moves, renames or re-signs one of them would
otherwise only show up as a failing benchmark run, since tier-1 does not
run every workload call (``ref_eval``'s ``sweep(..., jobs=1)`` among them).
"""

import ast
import importlib.util
import inspect
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"


def _tracing():
    name = "bench_tracing"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, TRACING)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def test_every_wrapped_name_resolves():
    tracing = _tracing()
    missing = [
        f"{namespace}.{attr}"
        for _, namespaces, attr, _ in tracing.WRAPS
        for namespace in namespaces
        if not callable(getattr(tracing.MODULES[namespace], attr, None))
    ]
    assert not missing, f"bench/tracing.py wraps names the library no longer has: {missing}"


def _library_uses(path):
    """(line, module, attribute, call node or None) for each ``<module>.<name>`` of a ``from oodseg import``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = {
        alias.asname or alias.name: importlib.import_module(f"oodseg.{alias.name}")
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "oodseg"
        for alias in node.names
    }
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            yield node.lineno, modules[node.value.id], node.attr, calls.get(id(node))


def test_every_library_call_of_the_benchmark_binds():
    problems = []
    for path in sorted(BENCH.glob("*.py")):
        for line, module, attr, call in _library_uses(path):
            where = f"bench/{path.name}:{line} {module.__name__}.{attr}"
            if not hasattr(module, attr):
                problems.append(f"{where}: no such name")
            elif call is not None:
                try:
                    inspect.signature(getattr(module, attr)).bind(
                        *call.args, **{k.arg: k.value for k in call.keywords}
                    )
                except TypeError as exc:
                    problems.append(f"{where}: {exc}")
    assert not problems, "the benchmark uses library names the library no longer accepts:\n" + "\n".join(problems)
