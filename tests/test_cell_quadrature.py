"""The vectorised local-power cell integral against the per-cell loops it replaces.

``_hp_matrices`` and ``_tabulated_b_table`` integrate p r^shift over many
cells with one call of ``weights._power_cell_integral``.  The reference
functions below keep the scalar rule and the loops that drove it, one cell
at a time.  Each entry follows the same formulas in the same order, but
NumPy's array ``**`` and libm's scalar ``pow`` may differ in the last bit, and
r_hi^e - r_lo^e amplifies that difference for a small exponent e.  The
tolerance is set from that cancellation, not fitted to the results.
"""

import numpy as np
import pytest

from degenpde import CoefficientModel, SpaceTimeGrid
from degenpde.inequalities import HardyWeight, _hp_matrices
from degenpde.weights import _power_cell_integral, _tabulated_b_table

EPS = np.finfo(float).eps


# ---------------------------------------------------------------------------
# reference: one cell at a time, with scalar arithmetic
# ---------------------------------------------------------------------------

def reference_power_fit_integral(p_lo, p_hi, r_lo, r_hi, q_fallback, shift):
    """Integral over distances [r_lo, r_hi] of p(r) r^shift, with p modeled
    locally as C r^gamma through the interval endpoint values."""
    if r_lo <= 0.0 or p_lo <= 0.0:
        gamma = q_fallback
        C = p_hi / r_hi ** gamma
        e = gamma + shift + 1.0
        return C * r_hi ** e / e
    gamma = np.log(p_hi / p_lo) / np.log(r_hi / r_lo)
    C = p_lo / r_lo ** gamma
    e = gamma + shift + 1.0
    if abs(e) < 1e-10:
        return C * np.log(r_hi / r_lo)
    return C * (r_hi ** e - r_lo ** e) / e


def reference_hp_matrices(weight, grid):
    h = grid.h
    x = grid.x
    N = grid.N
    q = weight.q
    pv = np.asarray(weight.p(x), dtype=float)
    d = np.abs(x - weight.x0)

    p_cell = np.empty(N)
    for i in range(N):
        lo, hi = sorted((d[i], d[i + 1]))
        p_lo, p_hi = (pv[i], pv[i + 1]) if d[i] <= d[i + 1] else (pv[i + 1], pv[i])
        p_cell[i] = reference_power_fit_integral(p_lo, p_hi, lo, hi, q, 0.0) / h
    k_diag = p_cell[:-1] + p_cell[1:]
    k_off = -p_cell[1:-1]

    m = np.zeros(N + 1)
    for i in range(1, N):
        for a_, b_ in ((x[i] - 0.5 * h, x[i]), (x[i], x[i] + 0.5 * h)):
            ra, rb = abs(a_ - weight.x0), abs(b_ - weight.x0)
            pa = pv[i] if abs(a_ - x[i]) < 1e-15 else float(weight.p(a_))
            pb = pv[i] if abs(b_ - x[i]) < 1e-15 else float(weight.p(b_))
            lo, hi = sorted((ra, rb))
            p_lo, p_hi = (pa, pb) if ra <= rb else (pb, pa)
            m[i] += reference_power_fit_integral(p_lo, p_hi, lo, hi, q, -2.0)
    return k_diag / h, k_off / h, m[1:-1]


def reference_b_table(model):
    nodes = model.nodes
    a = model.a_values
    g = np.zeros_like(nodes)
    safe = a > 0.0
    g[safe] = (nodes[safe] - model.x0) / a[safe]
    increments = 0.5 * (g[:-1] + g[1:]) * np.diff(nodes)
    r = nodes - model.x0
    for i in range(nodes.size - 1):
        r_lo, r_hi = r[i], r[i + 1]
        if r_lo * r_hi <= 0.0 or a[i] <= 0.0 or a[i + 1] <= 0.0:
            continue
        u_lo, u_hi = abs(r_lo), abs(r_hi)
        gamma = np.log(a[i + 1] / a[i]) / np.log(u_hi / u_lo)
        c = a[i] / u_lo ** gamma
        expo = 2.0 - gamma
        if abs(expo) < 1e-10:
            increments[i] = np.log(u_hi / u_lo) / c
        else:
            increments[i] = (u_hi ** expo - u_lo ** expo) / (c * expo)
    i0 = int(np.argmin(np.abs(nodes - model.x0)))
    if abs(nodes[i0] - model.x0) < 1e-12 and abs(np.interp(model.x0, nodes, a)) < 1e-14:
        K = model.K
        if i0 + 1 < nodes.size:
            hr = nodes[i0 + 1] - nodes[i0]
            c = a[i0 + 1] / hr ** K
            increments[i0] = hr ** (2.0 - K) / (c * (2.0 - K))
        if i0 - 1 >= 0:
            hl = nodes[i0] - nodes[i0 - 1]
            c = a[i0 - 1] / hl ** K
            increments[i0 - 1] = -hl ** (2.0 - K) / (c * (2.0 - K))
    cum = np.concatenate(([0.0], np.cumsum(increments)))
    if abs(nodes[i0] - model.x0) < 1e-12:
        return cum - cum[i0]
    return cum - np.interp(model.x0, nodes, cum)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def exact_grid(N, x0):
    """An N-cell grid as requested; the quadrature reads only distances to x0,
    so x0 need not be a node (N = 3 and 4 leave one or two interior cells)."""
    return SpaceTimeGrid(N=N, M=1, T=1.0, x0=x0, x0_index=round(x0 * N), requested_N=N,
                         x=np.linspace(0.0, 1.0, N + 1), t=np.linspace(0.0, 1.0, 2))


WEIGHTS = {
    **{f"pure_q{q}": (lambda x0, q=q: HardyWeight.pure_power(q, x0))
       for q in (1.05, 1.2, 1.5, 1.95)},
    **{f"coefficient_alpha{al}": (lambda x0, al=al: HardyWeight.from_coefficient(
        CoefficientModel.power_law(al, x0))) for al in (0.5, 1.0, 1.5)},
}


def power_table(alpha, x0, n, center=None):
    """a = |x - center|^alpha on n nodes; the center is x0 unless given."""
    nodes = np.linspace(0.0, 1.0, n)
    r = nodes - (x0 if center is None else center)
    a = np.abs(r) ** alpha
    with np.errstate(divide="ignore", invalid="ignore"):    # a' at x0 is not used
        ap = np.where(r == 0.0, 0.0, alpha * np.abs(r) ** (alpha - 1) * np.sign(r))
    return CoefficientModel.tabulated(nodes, a, ap, x0=x0, K=alpha)


TABLES = {
    "alpha1.5_x0.5_n4001": lambda: power_table(1.5, 0.5, 4001),
    "alpha0.5_x0.5_n4001": lambda: power_table(0.5, 0.5, 4001),
    "alpha1.0_x0.3_n1001": lambda: power_table(1.0, 0.3, 1001),
    "alpha1.5_x0.123_n101": lambda: power_table(1.5, 0.123, 101),    # x0 is not a node
    "alpha0.5_x0.123_n101": lambda: power_table(0.5, 0.123, 101),
    # x0 = 0.3 lies 5.6e-17 below node 3, where a is exactly 0
    "alpha1.5_x0.3_n11": lambda: power_table(1.5, 0.3, 11, center=np.linspace(0.0, 1.0, 11)[3]),
    "constant0.7": lambda: CoefficientModel.constant(0.7, 0.3),
    "constant1": lambda: CoefficientModel.constant(1.0, 0.5),
    "constant2": lambda: CoefficientModel.constant(2.0, 0.3),
}


def cancellation_rtol(n_cells, e_min):
    """Relative error bound for C (r_hi^e - r_lo^e) / e when each power may be off
    by about one ulp: 2 eps r^e / (r_hi^e - r_lo^e) <= 2 eps r / (e dr), with
    r <= 1 and dr >= 1/(2 n_cells), plus a few eps for the other operations."""
    return EPS * (16.0 + 4.0 * n_cells / e_min)


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("N", [3, 4, 50, 1000])
@pytest.mark.parametrize("x0", [0.3, 0.5, 0.123])
@pytest.mark.parametrize("name", sorted(WEIGHTS))
def test_hp_matrices_match_per_cell_loops(name, x0, N):
    weight = WEIGHTS[name](x0)
    grid = exact_grid(N, x0)
    # the smallest exponent is that of the mass cells, e = q - 1
    rtol = cancellation_rtol(N, weight.q - 1.0)
    for new, ref in zip(_hp_matrices(weight, grid), reference_hp_matrices(weight, grid)):
        assert new.shape == ref.shape
        np.testing.assert_allclose(new, ref, rtol=rtol, atol=0.0)


@pytest.mark.parametrize("name", sorted(TABLES))
def test_b_table_matches_per_cell_loop(name):
    model = TABLES[name]()
    ref = reference_b_table(model)
    new = _tabulated_b_table(model)
    # b = cum - cum(x0) cancels near x0, so entries are compared on the table's scale
    tol = cancellation_rtol(model.nodes.size, 2.0 - model.K)
    np.testing.assert_allclose(new, ref, rtol=tol, atol=tol * np.max(np.abs(ref)))


def test_cell_integral_branches():
    # a fitted cell, a fallback cell at r = 0, a fallback cell with p_lo = 0 (integrated
    # from 0, ignoring r_lo) and a log-branch cell (e = gamma + shift + 1 = 0)
    p_lo = np.array([0.25, np.inf, 0.0, 1.0])
    p_hi = np.array([1.0, 4.0, 2.0, 0.5])
    r_lo = np.array([0.5, 0.0, 0.5, 1.0])
    r_hi = np.array([1.0, 2.0, 1.0, 2.0])
    out = _power_cell_integral(r_lo, r_hi, p_lo, p_hi, 0.0, 1.5)
    np.testing.assert_allclose(out, [(1.0 - 0.125) / 3.0,                # p = r^2
                                     4.0 / 2.0 ** 1.5 * 2.0 ** 2.5 / 2.5,  # p = C r^1.5 on [0, 2]
                                     2.0 / 2.5,                          # p = 2 r^1.5 on [0, 1]
                                     np.log(2.0)],                     # p = 1/r
                               rtol=4 * EPS)
    ref = [reference_power_fit_integral(*args, 1.5, 0.0)
           for args in zip(p_lo, p_hi, r_lo, r_hi)]
    np.testing.assert_allclose(out, ref, rtol=4 * EPS)
