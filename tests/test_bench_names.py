"""The names the benchmark's traced run rebinds must exist in the library.

``bench/tracing.py`` wraps public functions by rebinding module attributes
with ``getattr``/``setattr``; a refactor that moves or renames one of them
would otherwise only show up as a failing traced run.
"""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


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

