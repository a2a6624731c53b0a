"""The four LAPACK routines the package calls, from SciPy's compiled ``_flapack``.

The extension is loaded straight from its file, so ``scipy/linalg/__init__.py``
never runs: that initialiser imports ``numpy.f2py``, ``numpy.testing`` and more
through SciPy's array-API layer, which no solve uses.  The module is registered
under SciPy's own name for it, ``scipy.linalg._flapack`` (unchanged since SciPy
1.8), so a later ``import scipy.linalg`` shares it, and one already imported is
reused.
"""

import importlib.util
import os
import sys
from importlib.machinery import PathFinder

import numpy as np
from numpy.linalg import LinAlgError

__all__ = ["pttrf", "pttrs", "eigh_tridiagonal"]

_NAME = "scipy.linalg._flapack"


def _load_flapack():
    if _NAME in sys.modules:
        return sys.modules[_NAME]
    scipy = importlib.util.find_spec("scipy")       # finds SciPy without importing it
    linalg = [os.path.join(p, "linalg")
              for p in getattr(scipy, "submodule_search_locations", None) or []]
    found = PathFinder.find_spec("_flapack", linalg)
    if found is None:
        raise ImportError(f"no SciPy LAPACK extension _flapack in {linalg}", name=_NAME)
    spec = importlib.util.spec_from_file_location(_NAME, found.origin)
    module = importlib.util.module_from_spec(spec)
    sys.modules[_NAME] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[_NAME]
        raise
    return module


_flapack = _load_flapack()
pttrf, pttrs = _flapack.dpttrf, _flapack.dpttrs


def _check(info, routine):
    if info:
        raise LinAlgError(f"{routine} (eigh_tridiagonal) failed (LAPACK info={info})")


def eigh_tridiagonal(d, e, lo, hi, eigvals_only=False):
    """Eigenpairs lo..hi (0-based, ascending) of the symmetric tridiagonal (d, e).

    Makes the calls of ``scipy.linalg.eigh_tridiagonal(d, e, eigvals_only,
    select="i", select_range=(lo, hi))`` with its checks: ``dstebz`` by index
    with tolerance 0, then ``dstein`` on the block-ordered values and a sort.
    """
    d, e = np.asarray_chkfinite(d), np.asarray_chkfinite(e)
    if d.ndim != 1 or e.ndim != 1:
        raise ValueError("expected a 1-D array")
    if d.size != e.size + 1:
        raise ValueError(f"d ({d.size}) must have one more element than e ({e.size})")
    if not 0 <= lo <= hi < d.size:
        raise ValueError(f"select_range ({lo}, {hi}) out of bounds for size {d.size}")
    if d.size == 1:
        w, v = np.array([d[0]]), np.array([[1.0]])
        return w if eigvals_only else (w, v)
    m, w, iblock, isplit, info = _flapack.dstebz(d, e, 2, 0.0, 1.0, lo + 1, hi + 1, 0.0,
                                                 "E" if eigvals_only else "B")
    _check(info, "stebz")
    w = w[:m]
    if eigvals_only:
        return w
    v, info = _flapack.dstein(d, e, w, iblock, isplit)
    _check(info, "stein")
    order = np.argsort(w)
    return w[order], v[:, order]
