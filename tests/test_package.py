import ast
import importlib
from pathlib import Path

import pytest

import degenpde

MODULES = ["cli", "coefficients", "control", "grid", "inequalities", "solvers", "weights"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"degenpde.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_package_imports_resolve():
    tree = ast.parse(Path(degenpde.__file__).read_text())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names]
    assert imported
    assert [attr for attr in imported if not hasattr(degenpde, attr)] == []
