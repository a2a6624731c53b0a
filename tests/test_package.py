import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import degenpde

MODULES = ["_lapack", "cli", "coefficients", "control", "grid", "inequalities", "solvers",
           "weights"]


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


def run_fresh(code):
    """The words ``code`` prints in a fresh interpreter: other tests load SciPy into this one."""
    src = str(Path(degenpde.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": src}).stdout.split()


def test_import_loads_only_the_lapack_extension():
    out = run_fresh("import sys, degenpde, degenpde.cli; print(*sorted(sys.modules))")
    assert [m for m in out if m.split(".")[0] == "scipy"] == ["scipy.linalg._flapack"]
    assert [m for m in ("scipy.linalg", "numpy.f2py", "numpy.testing", "numpy.random")
            if m in out] == []


@pytest.mark.parametrize("imports", ["degenpde, scipy.linalg", "scipy.linalg, degenpde"])
def test_one_lapack_module_in_either_import_order(imports):
    out = run_fresh(f"import {imports}, degenpde._lapack, scipy.linalg.lapack as lapack; "
                    "print(lapack.dpttrs is degenpde._lapack.pttrs, "
                    "lapack._flapack is degenpde._lapack._flapack)")
    assert out == ["True", "True"]


def test_readme_library_examples_run():
    """README's python blocks run in order in one namespace, so the library
    example keeps to the signatures it shows."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```$", readme.read_text(), re.M | re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(readme), "exec"), namespace)
