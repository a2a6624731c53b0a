"""The closed-form cell integrals against a per-cell scalar local-power rule.

The reference below fits p as C r^gamma through each cell's endpoint values
and integrates that in closed form, one cell at a time with scalar
arithmetic.  ``_hp_matrices`` integrates the Hardy weight's exact power
r^gamma over every cell and half-cell, and ``b_integral`` is checked against
the same scalar rule summed outward from x0 cell by cell.  NumPy's array
``**`` and libm's scalar ``pow`` may differ in the last bit, and
r_hi^e - r_lo^e amplifies that difference for a small exponent e.  The
tolerance is set from that cancellation, not fitted to the results.
"""

import numpy as np
import pytest

from degenpde import CoefficientModel, SpaceTimeGrid
from degenpde.inequalities import HardyWeight, _hp_matrices
from degenpde.weights import b_integral

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
    gamma = weight.gamma

    def p(y):
        return abs(y - weight.x0) ** gamma

    d = np.abs(x - weight.x0)       # 0 at the x0 node, which the grid puts at x0 exactly
    pv = d ** gamma

    p_cell = np.empty(N)
    for i in range(N):
        lo, hi = sorted((d[i], d[i + 1]))
        p_lo, p_hi = (pv[i], pv[i + 1]) if d[i] <= d[i + 1] else (pv[i + 1], pv[i])
        p_cell[i] = reference_power_fit_integral(p_lo, p_hi, lo, hi, gamma, 0.0) / h
    k_diag = p_cell[:-1] + p_cell[1:]
    k_off = -p_cell[1:-1]

    m = np.zeros(N + 1)
    for i in range(1, N):
        for a_, b_ in ((x[i] - 0.5 * h, x[i]), (x[i], x[i] + 0.5 * h)):
            at_a, at_b = abs(a_ - x[i]) < 1e-15, abs(b_ - x[i]) < 1e-15
            ra = d[i] if at_a else abs(a_ - weight.x0)
            rb = d[i] if at_b else abs(b_ - weight.x0)
            pa = pv[i] if at_a else p(a_)
            pb = pv[i] if at_b else p(b_)
            lo, hi = sorted((ra, rb))
            p_lo, p_hi = (pa, pb) if ra <= rb else (pb, pa)
            m[i] += reference_power_fit_integral(p_lo, p_hi, lo, hi, gamma, -2.0)
    return k_diag / h, k_off / h, m[1:-1]


def reference_b(model, x):
    """b = integral over distances [0, |x - x0|] of r / a, summed cell by cell
    outward from x0 on each side, with 1/a fitted as C r^gamma on every cell."""
    def inv_a(d):
        return np.inf if d == 0.0 and model.alpha > 0.0 else 1.0 / (model.scale * d ** model.alpha)

    b = np.zeros(x.size)
    r = x - model.x0
    for side in (r >= 0.0, r < 0.0):
        idx = np.flatnonzero(side)
        idx = idx[np.argsort(np.abs(r[idx]))]
        total, d_prev = 0.0, 0.0
        for i in idx:
            d = abs(r[i])
            if d > 0.0:
                total += reference_power_fit_integral(inv_a(d_prev), inv_a(d), d_prev, d,
                                                      -model.alpha, 1.0)
            b[i] = total
            d_prev = d
    return b


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

WEIGHTS = {
    **{f"pure_q{q}": (lambda x0, q=q: HardyWeight.pure_power(q, x0))
       for q in (1.05, 1.2, 1.5, 1.95)},
    **{f"coefficient_alpha{al}": (lambda x0, al=al: HardyWeight.from_coefficient(
        CoefficientModel.power_law(al, x0))) for al in (0.5, 1.0, 1.5)},
    # theta < alpha gives gamma = (4 + alpha)/3 above q = (4 + theta)/3
    **{f"coefficient_alpha{al}_theta{th}": (lambda x0, al=al, th=th: HardyWeight.from_coefficient(
        CoefficientModel.power_law(al, x0, theta=th))) for al, th in ((1.0, 0.2), (1.5, 0.5))},
}


MODELS = {
    "alpha1.5_x0.5_n4001": (lambda: CoefficientModel.power_law(1.5, 0.5), 4001),
    "alpha0.5_x0.5_n4001": (lambda: CoefficientModel.power_law(0.5, 0.5), 4001),
    "alpha1.0_x0.3_n1001": (lambda: CoefficientModel.power_law(1.0, 0.3), 1001),
    "alpha1.5_x0.123_n101": (lambda: CoefficientModel.power_law(1.5, 0.123), 101),  # x0 is not a node
    "alpha0.5_x0.123_n101": (lambda: CoefficientModel.power_law(0.5, 0.123), 101),
    # x0 = 0.3 lies 5.6e-17 below node 3, so the cell from x0 to node 3 is nearly empty
    "alpha1.5_x0.3_n11": (lambda: CoefficientModel.power_law(1.5, 0.3), 11),
    "constant0.7": (lambda: CoefficientModel.constant(0.7, 0.3), 11),
    "constant1": (lambda: CoefficientModel.constant(1.0, 0.5), 11),
    "constant2": (lambda: CoefficientModel.constant(2.0, 0.3), 11),
}


def cancellation_rtol(n_cells, e_min):
    """Relative error bound for C (r_hi^e - r_lo^e) / e when each power may be off
    by about one ulp: 2 eps r^e / (r_hi^e - r_lo^e) <= 2 eps r / (e dr), with
    r <= 1 and dr >= 1/(2 n_cells), plus a few eps for the other operations."""
    return EPS * (16.0 + 4.0 * n_cells / e_min)


def fit_rtol(gamma, r_min):
    """Relative error of the reference's fitted cell integral of a pure power.

    The fitted exponent log(p_hi / p_lo) / log(r_hi / r_lo) is off by a few eps
    relative, and the factor (r_hi / r_lo)^gamma of the integral multiplies that
    by log(r_hi / r_lo) <= log(1 / r_min), r_min the least positive distance
    of a node from the x0 node."""
    return 4.0 * EPS * gamma * np.log(1.0 / r_min)


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("N", [2, 3, 4, 50, 1000])
@pytest.mark.parametrize("x0", [0.3, 0.5, 0.123])
@pytest.mark.parametrize("name", sorted(WEIGHTS))
def test_hp_matrices_match_per_cell_loops(name, x0, N):
    weight = WEIGHTS[name](x0)
    # x0 is a node, as on every grid the package builds, so no cell straddles it;
    # N snaps up to 10 at x0 = 0.3 and to 1000 at x0 = 0.123
    grid = SpaceTimeGrid.create(N, 1, 1.0, x0)
    # the smallest exponent is that of the mass cells, e = gamma - 1
    d = np.abs(grid.x - x0)
    rtol = (cancellation_rtol(grid.N, weight.gamma - 1.0)
            + fit_rtol(weight.gamma, np.min(d[d > 0.0])))
    for new, ref in zip(_hp_matrices(weight, grid), reference_hp_matrices(weight, grid)):
        assert new.shape == ref.shape
        np.testing.assert_allclose(new, ref, rtol=rtol, atol=0.0)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_b_matches_per_cell_loop(name):
    make, n = MODELS[name]
    model = make()
    x = np.linspace(0.0, 1.0, n)
    ref = reference_b(model, x)
    # the cell sums telescope, each term off by the cancellation of r_hi^e - r_lo^e
    tol = cancellation_rtol(n, 2.0 - model.alpha)
    np.testing.assert_allclose(b_integral(model, x), ref, rtol=tol, atol=tol * np.max(ref))
