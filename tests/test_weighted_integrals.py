"""The in-place weighted integrals against the fresh-array formulas they replace.

``carleman_scan``, ``exp2s_phi``, ``carleman_identity_check`` and
``caccioppoli_check`` build their integrands in preallocated buffers.  The
reference functions below keep the one-expression-per-term versions; the
results must agree bit for bit (``==``), and the buffers must keep the
memory of each call within a few (M+1)x(N+1) fields.
"""

import tracemalloc

import numpy as np
import pytest

import degenpde.weights as weights
from degenpde import (CoefficientModel, ControlConfig, Field, PotentialModel, SpaceTimeGrid,
                      assemble_operator, caccioppoli_check, carleman_identity_check,
                      carleman_scan, dirichlet_eigenmodes, manufactured_adjoint_pair,
                      solve_adjoint)
from degenpde.inequalities import _derivative, _div_a_grad, _q2_profile, default_s_values
from degenpde.weights import (_LOG_TINY, THETA_EXPONENT, WeightParams, exp2s_phi, psi,
                              psi_prime, theta, theta_ddot, theta_dot)

X0 = 0.3
MODELS = {
    "alpha0.5": CoefficientModel.power_law(0.5, X0),
    "alpha1.0": CoefficientModel.power_law(1.0, X0),
    "alpha1.5": CoefficientModel.power_law(1.5, X0),
    "constant": CoefficientModel.constant(1.0, X0),
}


# ---------------------------------------------------------------------------
# reference formulas: every product a fresh array
# ---------------------------------------------------------------------------

def reference_exp2s_phi(params, model, t, x):
    tt, xx = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(x, dtype=float))
    prod = tt * (params.T - tt)
    interior = prod > 0.0
    log_arg = np.full(tt.shape, -np.inf)
    ps = psi(params, model, xx[interior]) if np.any(interior) else np.empty(0)
    with np.errstate(divide="ignore", over="ignore"):
        log_arg[interior] = 2.0 * params.s * prod[interior] ** (-THETA_EXPONENT) * ps
    return np.where(log_arg < _LOG_TINY, 0.0, np.exp(np.maximum(log_arg, _LOG_TINY)))


def reference_scan_integrals(model, params_base, grid, v, h, s_values):
    """(lhs, rhs_source, rhs_boundary) per s."""
    x = grid.x
    t = grid.t
    a = model.eval_a(x)
    q2 = _q2_profile(model, x)
    v_x = _derivative(v.values, grid.h, axis=1)
    th_full = np.zeros(grid.M + 1)
    th_full[1:-1] = theta(params_base, t[1:-1])
    ps = psi(params_base, model, x)
    phi_grid = th_full[:, None] * ps[None, :]
    phi_max = float(np.max(phi_grid[1:-1]))
    sw = grid.space_weights()
    tw = grid.time_weights()
    lhs_arr, src_arr, bdy_arr = [], [], []
    for s in s_values:
        log_E = 2.0 * s * (phi_grid - phi_max)
        log_E[0] = log_E[-1] = -np.inf
        E = np.where(log_E < _LOG_TINY, 0.0, np.exp(np.maximum(log_E, _LOG_TINY)))
        thE = th_full[:, None] * E
        integrand = (s * thE * a[None, :] * v_x ** 2
                     + s ** 3 * th_full[:, None] ** 3 * E * q2[None, :] * v.values ** 2)
        lhs_arr.append(float(tw @ (integrand @ sw)))
        src_arr.append(float(tw @ ((h.values ** 2 * E) @ sw)))
        bdry_vals = (a[None, [0, -1]] * thE[:, [0, -1]]
                     * (x[[0, -1]] - model.x0)[None, :] * v_x[:, [0, -1]] ** 2)
        bdy_arr.append(float(s * params_base.c1 * (tw @ (bdry_vals[:, 1] - bdry_vals[:, 0]))))
    return lhs_arr, src_arr, bdy_arr


def reference_identity(model, params, grid, w):
    """(lhs, rhs) of carleman_identity_check."""
    s, c1 = params.s, params.c1
    x, t, h, dt = grid.x, grid.t, grid.h, grid.dt
    M, N = grid.M, grid.N
    interior_t = slice(1, M)
    a = model.eval_a(x)
    xa = model.eval_xa_prime(x)
    g2 = 2.0 * a - xa
    q2 = _q2_profile(model, x)
    d = x - model.x0
    psi_x = psi(params, model, x)
    psi_p_bdry = psi_prime(params, model, np.array([0.0, 1.0]))
    th = theta(params, t[interior_t])
    th_d = theta_dot(params, t[interior_t])
    th_dd = theta_ddot(params, t[interior_t])
    op = assemble_operator(model, grid)
    wv = w.values
    w_x = _derivative(wv, h, axis=1)
    w_t = _derivative(wv, dt, axis=0)
    div_a_grad_w = _div_a_grad(op, wv)
    wi = wv[interior_t]
    wxi = w_x[interior_t]
    wti = w_t[interior_t]
    phi_t = th_d[:, None] * psi_x[None, :]
    a_phi_x = c1 * th[:, None] * d[None, :]
    a_phi_x2 = c1 ** 2 * th[:, None] ** 2 * q2[None, :]
    L_plus = div_a_grad_w[interior_t] - s * phi_t * wi + s ** 2 * a_phi_x2 * wi
    L_minus = wti - 2.0 * s * a_phi_x * wxi - s * c1 * th[:, None] * wi

    def st_integral(integrand_interior):
        full = np.zeros((M + 1, N + 1))
        full[interior_t] = integrand_interior
        per_t = full @ grid.space_weights()
        return float(np.dot(grid.time_weights(), per_t))

    lhs = st_integral(L_plus * L_minus)
    r2 = np.where(a > 0.0, g2 / np.where(a > 0.0, a, 1.0), 0.0)
    dt1 = st_integral(0.5 * s * th_dd[:, None] * psi_x[None, :] * wi ** 2)
    dt2 = st_integral(s ** 3 * c1 ** 3 * th[:, None] ** 3
                      * (q2 * r2)[None, :] * wi ** 2)
    dt3 = st_integral(-2.0 * s ** 2 * c1 ** 2 * (th * th_d)[:, None]
                      * q2[None, :] * wi ** 2)
    dt4 = st_integral(s * c1 * th[:, None] * g2[None, :] * wxi ** 2)
    tw = grid.time_weights()[interior_t]
    a_b = a[[0, -1]]
    wx_b = w_x[interior_t][:, [0, -1]]
    wt_b = w_t[interior_t][:, [0, -1]]
    w_b = wv[interior_t][:, [0, -1]]
    phi_x_b = th[:, None] * psi_p_bdry[None, :]
    phi_t_b = th_d[:, None] * psi_x[[0, -1]][None, :]

    def bdry(vals):
        return float(np.dot(tw, vals[:, 1] - vals[:, 0]))

    bt1 = bdry(a_b[None, :] * wx_b * wt_b)
    bt4 = bdry(-s * phi_x_b * (a_b[None, :] * wx_b) ** 2
               + s ** 2 * a_b[None, :] * phi_t_b * phi_x_b * w_b ** 2
               - s ** 3 * a_b[None, :] ** 2 * phi_x_b ** 3 * w_b ** 2)
    bt5 = bdry(-s * c1 * th[:, None] * a_b[None, :] * w_b * wx_b)
    return lhs, (dt1 + dt2 + dt3 + dt4) + (bt1 + bt4 + bt5)


def reference_caccioppoli_local(model, params, grid, v, omega_prime):
    E = reference_exp2s_phi(params, model, grid.t[:, None], grid.x[None, :])
    v_x = _derivative(v.values, grid.h, axis=1)
    chi_p = ControlConfig(*omega_prime).indicator(grid)
    return float(grid.time_weights()
                 @ ((v_x ** 2 * E * chi_p[None, :]) @ grid.space_weights()))


# ---------------------------------------------------------------------------
# inputs, as the CLI builds them
# ---------------------------------------------------------------------------

def scan_inputs(model, N=120, T=2.0):
    grid = SpaceTimeGrid.create(N, 2 * N, T, X0)
    params = WeightParams.for_model(model, T=T, s=1.0)
    v, h = manufactured_adjoint_pair(model, PotentialModel.zero(), grid,
                                     lambda t, x: t * (T - t) * (x - X0) ** 2 * x * (1.0 - x))
    return params, grid, v, h


def identity_inputs(model, s, N=120, T=1.0, c1=1.0):
    grid = SpaceTimeGrid.create(N, 2 * N, T, X0)
    params = WeightParams.for_model(model, T=T, s=s, c1=c1)
    w = Field.from_function(
        grid, lambda t, x: (t * (T - t)) ** 5 * (x - X0) ** 2 * x * (1.0 - x))
    return params, grid, w


# e^{2s(phi - max phi)} flushes to 0 on 4% of the grid at s = 0.1 and on 93% at s = 2384
SCAN_S_VALUES = default_s_values(12, 0.1, 2.5)


def field_units(grid):
    return (grid.M + 1) * (grid.N + 1) * 8


def traced_peak(fn):
    """(result, peak bytes allocated during fn beyond what was live before)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


# ---------------------------------------------------------------------------
# bit identity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(MODELS))
def test_scan_integrals_bit_identical(name):
    model = MODELS[name]
    params, grid, v, h = scan_inputs(model)
    s_values = SCAN_S_VALUES
    rep = carleman_scan(model, params, grid, v, h, s_values=s_values)
    lhs, src, bdy = reference_scan_integrals(model, params, grid, v, h, s_values)
    assert rep.lhs.tolist() == lhs
    assert rep.rhs_source.tolist() == src
    assert rep.rhs_boundary.tolist() == bdy


def test_scan_s_range_flushes_part_of_the_weight():
    """The s range of the scan test covers no flushing, partial and heavy flushing."""
    model = MODELS["alpha0.5"]
    params, grid, _, _ = scan_inputs(model)
    th = theta(params, grid.t[1:-1])[:, None]
    phi = th * psi(params, model, grid.x)[None, :]
    shifted = phi - phi.max()
    fractions = [np.mean(2.0 * s * shifted < _LOG_TINY) for s in SCAN_S_VALUES]
    assert fractions[0] < 0.05
    assert any(0.2 < f < 0.8 for f in fractions)
    assert fractions[-1] > 0.9


@pytest.mark.parametrize("name", sorted(MODELS))
@pytest.mark.parametrize("s, c1", [(1.0, 1.0), (10.0, 1.0), (3.7, 1.3), (41.0, 0.7)])
def test_identity_bit_identical(name, s, c1):
    model = MODELS[name]
    params, grid, w = identity_inputs(model, s, c1=c1)
    rep = carleman_identity_check(model, params, grid, w)
    lhs, rhs = reference_identity(model, params, grid, w)
    assert rep.lhs == lhs
    assert rep.rhs == rhs


@pytest.mark.parametrize("name", sorted(MODELS))
def test_identity_bit_identical_on_rough_data(name):
    """Seeded noise vanishing on the boundary, so the terms near t = 0, T are not damped."""
    model = MODELS[name]
    params, grid, _ = identity_inputs(model, 3.7, c1=1.3)
    values = np.random.default_rng(7).standard_normal((grid.M + 1, grid.N + 1))
    values[[0, -1], :] = 0.0
    values[:, [0, -1]] = 0.0
    w = Field(grid, values)
    rep = carleman_identity_check(model, params, grid, w)
    assert (rep.lhs, rep.rhs) == reference_identity(model, params, grid, w)


@pytest.mark.parametrize("name", sorted(MODELS))
@pytest.mark.parametrize("s", [1.0, 4.0])
def test_exp2s_phi_grid_bit_identical(name, s):
    model = MODELS[name]
    grid = SpaceTimeGrid.create(120, 240, 2.0, X0)
    params = WeightParams.for_model(model, T=2.0, s=s)
    t, x = grid.t[:, None], grid.x[None, :]
    E = exp2s_phi(params, model, t, x)
    ref = reference_exp2s_phi(params, model, t, x)
    assert E.shape == ref.shape
    assert np.array_equal(E, ref)
    assert np.any(E == 0.0) and np.any(E > 0.0)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_exp2s_phi_other_shapes_bit_identical(name):
    model = MODELS[name]
    params = WeightParams.for_model(model, T=1.0, s=3.0)
    x = np.linspace(0.0, 1.0, 41)
    t = np.linspace(0.0, 1.0, 41)        # same-shape 1-D, endpoints included
    cases = [(0.5, x), (0.01, x), (t, x), (t[::-1], x), (0.25, 0.7), (t[:, None], 0.3)]
    for tc, xc in cases:
        E = exp2s_phi(params, model, tc, xc)
        ref = reference_exp2s_phi(params, model, tc, xc)
        assert E.shape == ref.shape
        assert np.array_equal(E, ref)


@pytest.mark.parametrize("t, x", [
    (0.0, np.linspace(0.0, 1.0, 5)),                     # scalar t
    (np.array([0.0, 1.0, 1.5]), np.array([0.2, 0.5, 0.9])),   # same-shape 1-D
    (np.array([[0.0], [1.0], [-0.5]]), np.linspace(0.0, 1.0, 5)[None, :]),
])
def test_exp2s_phi_without_interior_time_is_zero(t, x, monkeypatch):
    model = MODELS["alpha1.0"]
    params = WeightParams.for_model(model, T=1.0, s=2.0)
    calls = []
    monkeypatch.setattr(weights, "psi", lambda *args: calls.append(args) or psi(*args))
    E = exp2s_phi(params, model, t, x)
    ref = reference_exp2s_phi(params, model, t, x)
    assert E.shape == ref.shape
    assert np.array_equal(E, ref) and not np.any(E)
    assert calls == []


def test_exp2s_phi_calls_psi_once(monkeypatch):
    model = MODELS["alpha0.5"]
    params = WeightParams.for_model(model, T=1.0, s=2.0)
    calls = []
    monkeypatch.setattr(weights, "psi", lambda *args: calls.append(args) or psi(*args))
    grid = SpaceTimeGrid.create(20, 40, 1.0, X0)
    exp2s_phi(params, model, grid.t[:, None], grid.x[None, :])
    assert len(calls) == 1


@pytest.mark.parametrize("s", [1.0, 4.0])
def test_caccioppoli_local_integral_bit_identical(s):
    model = MODELS["alpha0.5"]
    grid = SpaceTimeGrid.create(120, 240, 2.0, X0)
    _, modes = dirichlet_eigenmodes(assemble_operator(model, grid), 1)
    v = solve_adjoint(model, PotentialModel.zero(), grid, modes[0])
    params = WeightParams.for_model(model, T=2.0, s=s)
    rep = caccioppoli_check(model, params, grid, v, (0.35, 0.45), (0.2, 0.5))
    assert rep.local_gradient_integral == reference_caccioppoli_local(
        model, params, grid, v, (0.35, 0.45))


# ---------------------------------------------------------------------------
# allocation guards at (N, M) = (400, 800), in (M+1)x(N+1) float fields
# ---------------------------------------------------------------------------

def test_scan_peak_memory():
    model = MODELS["alpha0.5"]
    params, grid, v, h = scan_inputs(model, N=400)
    _, peak = traced_peak(lambda: carleman_scan(model, params, grid, v, h,
                                                s_values=default_s_values(10)))
    assert peak / field_units(grid) < 6.5


def test_exp2s_phi_peak_memory():
    model = MODELS["alpha0.5"]
    grid = SpaceTimeGrid.create(400, 800, 2.0, X0)
    params = WeightParams.for_model(model, T=2.0, s=1.0)
    E, peak = traced_peak(lambda: exp2s_phi(params, model, grid.t[:, None], grid.x[None, :]))
    assert (peak - E.nbytes) / field_units(grid) < 0.5


def test_identity_peak_memory():
    model = MODELS["alpha0.5"]
    params, grid, w = identity_inputs(model, 10.0, N=400)
    _, peak = traced_peak(lambda: carleman_identity_check(model, params, grid, w))
    assert peak / field_units(grid) < 4.5
