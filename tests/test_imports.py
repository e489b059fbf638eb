"""numpy stays the only runtime dependency of the package."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "oodseg"
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
