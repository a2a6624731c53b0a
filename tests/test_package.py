import ast
import importlib
import os
import subprocess
import sys
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


def test_import_loads_only_scipy_linalg():
    # a fresh interpreter: other tests load SciPy subpackages into this one
    code = ("import sys, degenpde, degenpde.cli; "
            "print(' '.join(m for m in sys.modules if m.startswith('scipy.')))")
    src = str(Path(degenpde.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout.split()
    assert "scipy.linalg" in out
    heavy = ("interpolate", "optimize", "sparse", "special", "spatial", "fft")
    assert [m for m in out if m.split(".")[1] in heavy] == []
