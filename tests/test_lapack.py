import numpy as np
import pytest
import scipy.linalg

from degenpde import CoefficientModel, SpaceTimeGrid, assemble_operator
from degenpde._lapack import eigh_tridiagonal


def tridiagonals(n):
    """A random symmetric tridiagonal, the same split into blocks by zeros in e (so
    ``dstebz``'s block order is not the sorted order), and the package's degenerate
    interior block."""
    rng = np.random.default_rng(n)
    d, e = rng.standard_normal(n), rng.standard_normal(n - 1)
    yield d, e
    yield d, np.where(np.arange(n - 1) % 3 == 1, 0.0, e)
    N = n + 1
    grid = SpaceTimeGrid.create(N, 4, 0.1, 0.5 if N % 2 == 0 else 1.0 / N)
    yield assemble_operator(CoefficientModel.power_law(1.5, grid.x0), grid).interior_tridiag()


def reference(d, e, lo, hi, eigvals_only=False):
    return scipy.linalg.eigh_tridiagonal(d, e, eigvals_only, select="i", select_range=(lo, hi))


@pytest.mark.parametrize("n", [1, 2, 5, 199, 399])
@pytest.mark.parametrize("which", ["lowest", "top"])
@pytest.mark.parametrize("eigvals_only", [False, True])
def test_bit_identical_to_scipy(n, which, eigvals_only):
    lo, hi = (0, 0) if which == "lowest" else (n - min(n, 10), n - 1)
    for d, e in tridiagonals(n):
        got = eigh_tridiagonal(d, e, lo, hi, eigvals_only=eigvals_only)
        want = reference(d, e, lo, hi, eigvals_only)
        if eigvals_only:
            got, want = (got,), (want,)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert np.array_equal(a, b)


@pytest.mark.parametrize("d, e, lo, hi", [
    ([1.0, np.nan, 2.0], [0.5, 0.5], 0, 0),
    ([1.0, 2.0, 3.0], [0.5, np.inf], 0, 0),
    ([1.0, 2.0, 3.0], [0.5], 0, 0),
    ([1.0, 2.0, 3.0], [0.5, 0.5, 0.5], 0, 0),
    ([1.0, 2.0, 3.0], [0.5, 0.5], 0, 3),
    ([1.0, 2.0, 3.0], [0.5, 0.5], -1, 0),
    ([1.0, 2.0, 3.0], [0.5, 0.5], 2, 1),
    ([1.0], [], 0, 1),
], ids=["nan-d", "inf-e", "short-e", "long-e", "hi-past-end", "lo-negative", "lo-above-hi",
        "one-node-hi"])
def test_rejects_what_scipy_rejects(d, e, lo, hi):
    with pytest.raises(Exception) as want:
        reference(np.array(d), np.array(e), lo, hi)
    with pytest.raises(Exception) as got:
        eigh_tridiagonal(np.array(d), np.array(e), lo, hi)
    assert type(got.value) is want.type
