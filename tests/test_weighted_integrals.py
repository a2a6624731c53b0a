"""The weighted integrals of the checkers against reference formulas.

``carleman_scan``, ``carleman_identity_check`` and ``caccioppoli_check`` fold
every factor that depends on t alone or on x alone into the time and space
quadrature vectors, so each integral is one contraction of the field data.

* Exact: each checker equals, bit for bit (``==``), an ``ordered_*``
  reference that spells out the same contractions on fresh arrays, whatever
  the row blocks the scan and the identity check stream through.
* To rounding: each checker agrees with the integrand-first ``reference_*``
  formula (every product a fresh full-grid array, then the quadrature) within
  1e-13 of the integral of the absolute integrand.  The reference formulas
  divide by a where the checkers read the closed forms of the quotients,
  which agree with them to rounding.

The row sampler of ``manufactured_adjoint_pair`` must give the rows of its
whole-field expression bit for bit, whatever the rows asked for, and
``exp2s_phi`` its reference.
No Carleman check may hold a manufactured (M+1)x(N+1) field: the buffers keep
the memory of each call within a few row blocks or fields, and each checker
makes a fixed number of calls to the public weight and grid functions.
"""

import math
import tracemalloc

import numpy as np
import pytest

import degenpde.cli as cli
import degenpde.inequalities as inequalities
import degenpde.weights as weights
from degenpde import (CoefficientModel, ControlConfig, Field, PotentialModel, SpaceTimeGrid,
                      assemble_operator, caccioppoli_check, carleman_identity_check,
                      carleman_scan, dirichlet_eigenmodes, manufactured_adjoint_pair,
                      solve_adjoint)
from degenpde.inequalities import _derivative, _div_a_grad, _q2, default_s_values
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

def quotient(num, a):
    """num / a, extended by 0 where a vanishes (at x0, where num does too)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(a > 0.0, num / np.where(a > 0.0, a, 1.0), 0.0)


def reference_log2s_phi(params, model, t, x):
    tt, xx = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(x, dtype=float))
    prod = tt * (params.T - tt)
    interior = prod > 0.0
    log_arg = np.full(tt.shape, -np.inf)
    ps = psi(params, model, xx[interior]) if np.any(interior) else np.empty(0)
    with np.errstate(divide="ignore", over="ignore"):
        log_arg[interior] = 2.0 * params.s * prod[interior] ** (-THETA_EXPONENT) * ps
    return log_arg


def reference_exp2s_phi(params, model, t, x):
    log_arg = reference_log2s_phi(params, model, t, x)
    return np.where(log_arg < _LOG_TINY, 0.0, np.exp(np.maximum(log_arg, _LOG_TINY)))


def whole_pair(grid, pair):
    """The fields v and h of a row sampler, from one call on every row."""
    return [Field(grid, np.array(f)) for f in pair(slice(0, grid.M + 1))]


def reference_scan_integrals(model, params_base, grid, pair, s_values):
    """(lhs, rhs_source, rhs_boundary) per s, with v and h sampled as fields."""
    v, h = whole_pair(grid, pair)
    x = grid.x
    t = grid.t
    a = model.eval_a(x)
    q2 = quotient((x - model.x0) ** 2, a)
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
    """(lhs, rhs) of carleman_identity_check, with w sampled as a field."""
    s, c1 = params.s, params.c1
    x, t, h, dt = grid.x, grid.t, grid.h, grid.dt
    M, N = grid.M, grid.N
    interior_t = slice(1, M)
    a = model.eval_a(x)
    g2 = 2.0 * a - model.alpha * a       # 2a - (x - x0) a'
    d = x - model.x0
    q2 = quotient(d ** 2, a)
    psi_x = psi(params, model, x)
    psi_p_bdry = psi_prime(params, model, np.array([0.0, 1.0]))
    th = theta(params, t[interior_t])
    th_d = theta_dot(params, t[interior_t])
    th_dd = theta_ddot(params, t[interior_t])
    op = assemble_operator(model, grid)
    wv = Field.from_function(grid, w).values
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
    r2 = quotient(g2, a)
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
# ordered references: the checkers' contractions, spelled out on fresh arrays;
# each also returns the integral of the absolute integrand
# ---------------------------------------------------------------------------

def reference_E(log_E):
    return np.where(log_E < _LOG_TINY, 0.0, np.exp(np.maximum(log_E, _LOG_TINY)))


def row_dots(rows, vectors):
    """rows @ vectors with one product per row, as the checkers take row sums."""
    return np.stack([row @ vectors for row in rows])


def support(chi):
    nonzero = np.flatnonzero(chi)
    return slice(nonzero[0], nonzero[-1] + 1)


def ordered_scan_integrals(model, params_base, grid, pair, s_values):
    """(lhs, rhs_source, rhs_boundary, |rhs_boundary| integrand) per s, with v
    and h sampled as fields; the lhs and source integrands are nonnegative."""
    v, h = whole_pair(grid, pair)
    x = grid.x
    ti = slice(1, grid.M)
    a = model.eval_a(x)
    sw = grid.space_weights()
    tw = grid.time_weights()[ti]
    th = theta(params_base, grid.t[ti])
    v_x = _derivative(v.values, grid.h, axis=1)[ti]
    stack = np.stack((v_x ** 2 * (a * sw),
                      v.values[ti] ** 2 * (_q2(model, x) * sw),
                      h.values[ti] ** 2 * sw), axis=1)
    phi = th[:, None] * psi(params_base, model, x)[None, :]
    phi_shift = phi - np.max(phi)
    bdry_x = a[[0, -1]] * (x[[0, -1]] - model.x0) * v_x[:, [0, -1]] ** 2
    lhs_arr, src_arr, bdy_arr, bdy_abs = [], [], [], []
    for s in s_values:
        E = reference_E(phi_shift * (2.0 * s))
        P, Q, H = np.matmul(stack, E[:, :, None])[:, :, 0].T.copy()
        lhs_arr.append(float(tw @ ((s * th) * P + (s ** 3 * th ** 3) * Q)))
        src_arr.append(float(tw @ H))
        bdry_vals = (th[:, None] * E[:, [0, -1]]) * bdry_x
        bdy_arr.append(float(s * params_base.c1 * (tw @ (bdry_vals[:, 1] - bdry_vals[:, 0]))))
        bdy_abs.append(float(s * params_base.c1 * (tw @ np.abs(bdry_vals).sum(axis=1))))
    return lhs_arr, src_arr, bdy_arr, bdy_abs


def ordered_identity(model, params, grid, w):
    """(lhs, rhs, |lhs|, |rhs|) of carleman_identity_check, with w sampled as a
    field, the last two the integrals of |L+ L-| and the sum over the terms of
    their absolute integrands."""
    s, c1 = params.s, params.c1
    x, t = grid.x, grid.t
    ti = slice(1, grid.M)
    a = model.eval_a(x)
    q2 = _q2(model, x)
    d = x - model.x0
    psi_x = psi(params, model, x)
    th, th_d, th_dd = theta(params, t[ti]), theta_dot(params, t[ti]), theta_ddot(params, t[ti])
    sw = grid.space_weights()
    tw = grid.time_weights()[ti]
    wv = Field.from_function(grid, w).values
    w_x = _derivative(wv, grid.h, axis=1)
    w_t = _derivative(wv, grid.dt, axis=0)
    wi, wxi = wv[ti], w_x[ti]
    c_plus = (-s * th_d)[:, None] * psi_x + (s ** 2 * c1 ** 2 * th ** 2)[:, None] * q2
    L_plus = _div_a_grad(assemble_operator(model, grid), wv)[ti] + c_plus * wi
    L_minus = w_t[ti] - (2.0 * s * c1 * th)[:, None] * d[None, :] * wxi - (s * c1 * th)[:, None] * wi
    lhs = float(tw @ row_dots(L_plus * L_minus, sw))
    lhs_abs = float(tw @ (np.abs(L_plus * L_minus) @ sw))

    # the w^2 terms contract with psi sw and q2 sw; (2a - (x - x0) a') / a = 2 - alpha
    rhs, rhs_abs = 0.0, 0.0
    x_vectors = np.column_stack((psi_x * sw, q2 * sw))
    terms = ((0.5 * s * th_dd, 0), ((2.0 - model.alpha) * s ** 3 * c1 ** 3 * th ** 3, 1),
             (-2.0 * s ** 2 * c1 ** 2 * (th * th_d), 1))
    w2_rows = row_dots(wi ** 2, x_vectors)
    w2_abs = wi ** 2 @ np.abs(x_vectors)
    for t_vector, k in terms:
        rhs += float(tw @ (t_vector * w2_rows[:, k]))
        rhs_abs += float(tw @ np.abs(t_vector * w2_abs[:, k]))
    g_a_sw = (2.0 - model.alpha) * a * sw
    rhs += float(tw @ ((s * c1 * th) * row_dots(wxi ** 2, g_a_sw)))
    rhs_abs += float(tw @ np.abs((s * c1 * th) * (wxi ** 2 @ np.abs(g_a_sw))))

    # one bracket [f]_{x=0}^{x=1} of the five boundary products
    a_b = a[[0, -1]]
    wx_b, wt_b, w_b = wxi[:, [0, -1]], w_t[ti][:, [0, -1]], wi[:, [0, -1]]
    phi_x_b = th[:, None] * psi_prime(params, model, np.array([0.0, 1.0]))[None, :]
    phi_t_b = th_d[:, None] * psi_x[[0, -1]][None, :]
    boundary = [a_b[None, :] * wx_b * wt_b,
                -s * phi_x_b * (a_b[None, :] * wx_b) ** 2,
                s ** 2 * a_b[None, :] * phi_t_b * phi_x_b * w_b ** 2,
                -s ** 3 * a_b[None, :] ** 2 * phi_x_b ** 3 * w_b ** 2,
                -s * c1 * th[:, None] * a_b[None, :] * w_b * wx_b]
    f = boundary[0] + boundary[1] + boundary[2] + boundary[3] + boundary[4]
    rhs += float(tw @ (f[:, 1] - f[:, 0]))
    rhs_abs += sum(float(tw @ np.abs(vals).sum(axis=1)) for vals in boundary)
    return lhs, rhs, lhs_abs, rhs_abs


def ordered_caccioppoli(model, params, grid, v, omega_prime, omega):
    """(local, outer, log ratio) of caccioppoli_check, the local integral in
    log space; both integrands are nonnegative."""
    sw = grid.space_weights()
    tw = grid.time_weights()
    chi_p = ControlConfig(*omega_prime).indicator(grid)
    chi = ControlConfig(*omega).indicator(grid)
    near, far = support(chi_p), support(chi)
    log_E = reference_log2s_phi(params, model, grid.t[:, None], grid.x[None, near])
    shift = np.max(log_E)
    v_x = _derivative(v.values, grid.h, axis=1)[:, near]
    mantissa = float(tw @ ((v_x ** 2 * reference_E(log_E - shift)) @ (chi_p * sw)[near]))
    outer = float(tw @ (v.values[:, far] ** 2 @ (chi * sw)[far]))
    return (mantissa * math.exp(shift), outer,
            float(shift) + math.log(mantissa) - math.log(outer))


def reference_caccioppoli_outer(grid, v, omega):
    chi = ControlConfig(*omega).indicator(grid)
    return float(grid.time_weights()
                 @ ((v.values ** 2 * chi[None, :]) @ grid.space_weights()))


def assert_within_rounding(value, reference, absolute):
    """|value - reference| <= 1e-13 times the integral of the absolute integrand."""
    assert np.all(np.abs(np.asarray(value) - np.asarray(reference))
                  <= 1e-13 * np.asarray(absolute))


# ---------------------------------------------------------------------------
# inputs, as the CLI builds them
# ---------------------------------------------------------------------------

def scan_profile(T):
    return lambda t, x: t * (T - t) * (x - X0) ** 2 * x * (1.0 - x)


def scan_inputs(model, N=120, T=2.0):
    """(params, grid, the row sampler of the profile v and its source h)."""
    grid = SpaceTimeGrid.create(N, 2 * N, T, X0)
    params = WeightParams.for_model(model, T=T, s=1.0)
    return params, grid, manufactured_adjoint_pair(model, PotentialModel.zero(), grid,
                                                   scan_profile(T))


def row_profile(grid, values):
    """The profile whose samples on any time rows of grid are those rows of the
    arbitrary (M+1, N+1) array values, each row found by its time."""
    return lambda t, x: values[np.searchsorted(grid.t, t[:, 0])]


def identity_inputs(model, s, N=120, T=1.0, c1=1.0):
    grid = SpaceTimeGrid.create(N, 2 * N, T, X0)
    params = WeightParams.for_model(model, T=T, s=s, c1=c1)
    return params, grid, lambda t, x: (t * (T - t)) ** 5 * (x - X0) ** 2 * x * (1.0 - x)


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
def test_closed_forms_are_the_quotients(name):
    """The checkers' closed forms agree with the general quotients by a to rounding:
    (x - x0)^2 / a = |x - x0|^(2 - alpha) / scale, 0 at x0, and
    (2a - (x - x0) a') / a = 2 - alpha."""
    model = MODELS[name]
    x = SpaceTimeGrid.create(120, 1, 1.0, X0).x
    a = model.eval_a(x)
    q2 = _q2(model, x)
    np.testing.assert_allclose(q2, quotient((x - X0) ** 2, a), rtol=1e-15, atol=0.0)
    assert q2[np.argmin(np.abs(x - X0))] == 0.0
    on = a > 0.0
    np.testing.assert_allclose(quotient(2.0 * a - model.alpha * a, a)[on], 2.0 - model.alpha,
                               rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_scan_integrals_bit_identical(name):
    model = MODELS[name]
    params, grid, pair = scan_inputs(model)
    s_values = SCAN_S_VALUES
    rep = carleman_scan(model, params, grid, pair, s_values=s_values)
    lhs, src, bdy, bdy_abs = ordered_scan_integrals(model, params, grid, pair, s_values)
    assert rep.lhs.tolist() == lhs
    assert rep.rhs_source.tolist() == src
    assert rep.rhs_boundary.tolist() == bdy
    ref_lhs, ref_src, ref_bdy = reference_scan_integrals(model, params, grid, pair, s_values)
    assert_within_rounding(rep.lhs, ref_lhs, lhs)
    assert_within_rounding(rep.rhs_source, ref_src, src)
    assert_within_rounding(rep.rhs_boundary, ref_bdy, bdy_abs)


def test_scan_s_range_flushes_part_of_the_weight():
    """The s range of the scan test covers no flushing, partial and heavy flushing."""
    model = MODELS["alpha0.5"]
    params, grid, _ = scan_inputs(model)
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
    lhs, rhs, lhs_abs, rhs_abs = ordered_identity(model, params, grid, w)
    assert rep.lhs == lhs
    assert rep.rhs == rhs
    ref_lhs, ref_rhs = reference_identity(model, params, grid, w)
    assert_within_rounding(rep.lhs, ref_lhs, lhs_abs)
    assert_within_rounding(rep.rhs, ref_rhs, rhs_abs)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_identity_bit_identical_on_rough_data(name):
    """Seeded noise vanishing on the boundary, so the terms near t = 0, T are not damped."""
    model = MODELS[name]
    params, grid, _ = identity_inputs(model, 3.7, c1=1.3)
    values = np.random.default_rng(7).standard_normal((grid.M + 1, grid.N + 1))
    values[[0, -1], :] = 0.0
    values[:, [0, -1]] = 0.0
    w = row_profile(grid, values)
    rep = carleman_identity_check(model, params, grid, w)
    lhs, rhs, lhs_abs, rhs_abs = ordered_identity(model, params, grid, w)
    assert (rep.lhs, rep.rhs) == (lhs, rhs)
    ref_lhs, ref_rhs = reference_identity(model, params, grid, w)
    assert_within_rounding(rep.lhs, ref_lhs, lhs_abs)
    assert_within_rounding(rep.rhs, ref_rhs, rhs_abs)


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
    local, outer, log_ratio = ordered_caccioppoli(model, params, grid, v, (0.35, 0.45),
                                                  (0.2, 0.5))
    assert rep.local_gradient_integral == local
    assert rep.outer_solution_integral == outer
    assert rep.log_ratio == log_ratio
    assert_within_rounding(rep.local_gradient_integral,
                           reference_caccioppoli_local(model, params, grid, v, (0.35, 0.45)),
                           local)
    assert_within_rounding(rep.outer_solution_integral,
                           reference_caccioppoli_outer(grid, v, (0.2, 0.5)), outer)


def test_caccioppoli_log_ratio_where_the_weight_underflows():
    """At T = 1/2, 2 s phi is below -4e4 on omega': e^{2s phi} and the local
    integral underflow to 0, while the log ratio is measured."""
    model = MODELS["alpha0.5"]
    grid = SpaceTimeGrid.create(100, 200, 0.5, X0)
    _, modes = dirichlet_eigenmodes(assemble_operator(model, grid), 1)
    v = solve_adjoint(model, PotentialModel.zero(), grid, modes[0])
    params = WeightParams.for_model(model, T=0.5, s=1.0)
    assert not np.any(exp2s_phi(params, model, grid.t[:, None], grid.x[None, :]))
    rep = caccioppoli_check(model, params, grid, v, (0.35, 0.45), (0.2, 0.5))
    assert rep.local_gradient_integral == 0.0 and rep.ratio == 0.0
    assert rep.outer_solution_integral > 0.0
    assert -1e5 < rep.log_ratio < -4e4
    local, outer, log_ratio = ordered_caccioppoli(model, params, grid, v, (0.35, 0.45),
                                                  (0.2, 0.5))
    assert (rep.local_gradient_integral, rep.outer_solution_integral, rep.log_ratio) == (
        local, outer, log_ratio)


# ---------------------------------------------------------------------------
# row blocks: the streamed checkers give the same bits whatever the blocks
# ---------------------------------------------------------------------------

# with N = 120 and M = 240, the 239 interior rows split into 239 one-row blocks,
# 35 blocks of 7 rows or fewer (7 does not divide 239), or one block
@pytest.mark.parametrize("rows, n_blocks", [(1, 239), (2, 120), (7, 35), (239, 1)])
def test_scan_bit_identical_across_row_blocks(rows, n_blocks, monkeypatch):
    model = MODELS["alpha1.5"]
    params, grid, pair = scan_inputs(model)
    row_bytes = inequalities._SCAN_NODE_BYTES * (grid.N + 1)
    monkeypatch.setattr(inequalities, "_BLOCK_BYTES", rows * row_bytes)
    assert len(inequalities._row_blocks(grid.M - 1, row_bytes)) == n_blocks
    rep = carleman_scan(model, params, grid, pair, s_values=SCAN_S_VALUES)
    lhs, src, bdy, _ = ordered_scan_integrals(model, params, grid, pair, SCAN_S_VALUES)
    assert (rep.lhs.tolist(), rep.rhs_source.tolist(), rep.rhs_boundary.tolist()) == (
        lhs, src, bdy)


class CountingNumpy:
    """numpy as ``inequalities`` sees it, counting the scan's calls: an ``exp``
    call is a (row block, s) with nothing to flush, a ``matmul`` one whose row
    sums are formed, and an ``isfinite`` call on a scalar a block that asked
    whether its integrands are finite (their largest is).  Every ``matmul`` weight must hold a nonzero entry:
    a block whose weight is all zero takes no matmul unless its integrands hold
    an inf or NaN (``zero_weight`` counts those)."""

    def __init__(self, counts):
        self.counts = counts

    def __getattr__(self, name):
        return getattr(np, name)

    def exp(self, *args, **kwargs):
        self.counts["free"] += 1
        return np.exp(*args, **kwargs)

    def isfinite(self, *args, **kwargs):
        self.counts["isfinite"] += np.ndim(args[0]) == 0
        return np.isfinite(*args, **kwargs)

    def matmul(self, a, b, **kwargs):
        self.counts["matmul"] += 1
        self.counts["zero_weight"] += not np.any(b)
        return np.matmul(a, b, **kwargs)


def test_scan_bounds_settle_each_block(monkeypatch):
    """On one-row blocks, each (row, s) takes exactly one branch, the one its own
    log-weight calls for: np.exp alone when no entry is below log tiny, zeros
    without a matmul when every entry is, and the flush mask otherwise.  Each
    branch runs, a row asks whether its integrands are finite at most once, and
    the bits are those of the ordered formula."""
    model = MODELS["alpha1.5"]
    params, grid, pair = scan_inputs(model)
    monkeypatch.setattr(inequalities, "_BLOCK_BYTES", inequalities._SCAN_NODE_BYTES * (grid.N + 1))
    counts = {"free": 0, "masked": 0, "matmul": 0, "zero_weight": 0, "isfinite": 0}
    flushed = inequalities._exp_flushed

    def masked(log, mask=None):
        counts["masked"] += 1
        assert np.min(log) < _LOG_TINY <= np.max(log)
        flushed(log, mask)

    monkeypatch.setattr(inequalities, "_exp_flushed", masked)
    monkeypatch.setattr(inequalities, "np", CountingNumpy(counts))
    rep = carleman_scan(model, params, grid, pair, s_values=SCAN_S_VALUES)
    monkeypatch.undo()

    th = theta(params, grid.t[1:-1])[:, None]
    phi = th * psi(params, model, grid.x)[None, :]
    phi -= phi.max()
    expected = {"free": 0, "zeroed": 0, "masked": 0}
    all_below = np.zeros(grid.M - 1, dtype=bool)
    for s in SCAN_S_VALUES:
        log = phi * (2.0 * s)
        below = np.sum(log < _LOG_TINY, axis=1)
        expected["free"] += int(np.sum(below == 0))
        expected["zeroed"] += int(np.sum(below == grid.N + 1))
        all_below |= below == grid.N + 1
    expected["masked"] = (grid.M - 1) * SCAN_S_VALUES.size - expected["free"] - expected["zeroed"]
    pairs = (grid.M - 1) * SCAN_S_VALUES.size
    assert counts["zero_weight"] == 0
    assert {"free": counts["free"], "zeroed": pairs - counts["matmul"],
            "masked": counts["masked"]} == expected
    assert counts["matmul"] == counts["free"] + counts["masked"]
    assert min(expected.values()) >= 1
    # one question per row that reaches the zero branch, however many s it does so for
    assert counts["isfinite"] == int(np.sum(all_below))
    lhs, src, bdy, _ = ordered_scan_integrals(model, params, grid, pair, SCAN_S_VALUES)
    assert (rep.lhs.tolist(), rep.rhs_source.tolist(), rep.rhs_boundary.tolist()) == (
        lhs, src, bdy)


@pytest.mark.parametrize("field, bad", [("v", np.inf), ("h", np.nan)])
def test_scan_nonfinite_zero_block_keeps_its_matmul(field, bad, monkeypatch):
    """A one-row block whose weight is all zero at every s but whose integrands
    hold an inf or NaN keeps the matmul: 0 times it is NaN, so every s reads a
    NaN integral, as in the ordered formula, where skipping it would give 0."""
    model = MODELS["alpha1.5"]
    params, grid, real = scan_inputs(model)
    monkeypatch.setattr(inequalities, "_BLOCK_BYTES", inequalities._SCAN_NODE_BYTES * (grid.N + 1))
    th = theta(params, grid.t[1:-1])
    phi = th[:, None] * psi(params, model, grid.x)[None, :]
    flushed = np.all(2.0 * SCAN_S_VALUES[0] * (phi - phi.max()) < _LOG_TINY, axis=1)
    row = 1 + int(np.flatnonzero(flushed)[0])       # the grid row of that block
    col = grid.N // 2

    def pair(rows):
        v, h = real(rows)
        (v if field == "v" else h)[np.arange(rows.start, rows.stop) == row, col] = bad
        return v, h
    counts = {"free": 0, "masked": 0, "matmul": 0, "zero_weight": 0, "isfinite": 0}
    monkeypatch.setattr(inequalities, "np", CountingNumpy(counts))
    with np.errstate(invalid="ignore", over="ignore"):
        rep = carleman_scan(model, params, grid, pair, s_values=SCAN_S_VALUES)
    monkeypatch.undo()
    assert counts["zero_weight"] == SCAN_S_VALUES.size      # that block, at every s
    assert np.all(np.isnan(rep.lhs if field == "v" else rep.rhs_source))
    with np.errstate(invalid="ignore", over="ignore"):
        lhs, src, _, _ = ordered_scan_integrals(model, params, grid, pair, SCAN_S_VALUES)
    assert np.all(np.isnan(lhs if field == "v" else src))


# the M + 1 time rows asked for in blocks of one row, of two rows (M is even, so
# the last block is one row), of M rows and then the last row alone, and in one block
@pytest.mark.parametrize("M", [10, 800])
@pytest.mark.parametrize("blocking", ["one row", "two rows", "last row alone", "one block"])
@pytest.mark.parametrize("potential", ["constant", "sampled"])
def test_manufactured_pair_bit_identical_across_row_blocks(M, blocking, potential):
    model = MODELS["alpha1.5"]
    grid = SpaceTimeGrid.create(20, M, 2.0, X0)
    rng = np.random.default_rng(M)
    values = rng.standard_normal((M + 1, grid.N + 1))
    pot = (PotentialModel.constant(2.5) if potential == "constant"
           else PotentialModel.sampled(Field(grid, rng.standard_normal(values.shape))))
    rows, last = {"one row": (1, 1), "two rows": (2, 1), "last row alone": (M, 1),
                  "one block": (M + 1, M + 1)}[blocking]
    blocks = [slice(r, min(r + rows, M + 1)) for r in range(0, M + 1, rows)]
    assert blocks[-1].stop - blocks[-1].start == last
    pair = manufactured_adjoint_pair(model, pot, grid, row_profile(grid, values))
    v, h = (np.concatenate(parts) for parts in zip(*map(pair, blocks)))
    op = assemble_operator(model, grid)
    expected = _div_a_grad(op, values) + _derivative(values, grid.dt, 0) - pot.values(grid) * values
    assert np.array_equal(v, values)
    assert np.array_equal(h, expected)
    assert np.array_equal(np.signbit(h), np.signbit(expected))


@pytest.mark.parametrize("rows, n_blocks", [(1, 239), (7, 35), (239, 1)])
def test_identity_bit_identical_across_row_blocks(rows, n_blocks, monkeypatch):
    model = MODELS["alpha1.5"]
    params, grid, _ = identity_inputs(model, 3.7, c1=1.3)
    values = np.random.default_rng(7).standard_normal((grid.M + 1, grid.N + 1))
    values[[0, -1], :] = 0.0
    values[:, [0, -1]] = 0.0
    w = row_profile(grid, values)
    row_bytes = inequalities._IDENTITY_NODE_BYTES * (grid.N + 1)
    monkeypatch.setattr(inequalities, "_BLOCK_BYTES", rows * row_bytes)
    assert len(inequalities._row_blocks(grid.M - 1, row_bytes)) == n_blocks
    rep = carleman_identity_check(model, params, grid, w)
    lhs, rhs, _, _ = ordered_identity(model, params, grid, w)
    assert (rep.lhs, rep.rhs) == (lhs, rhs)


# ---------------------------------------------------------------------------
# allocation guards at (N, M) = (400, 800), in (M+1)x(N+1) float fields
# ---------------------------------------------------------------------------

def test_scan_peak_memory():
    model = MODELS["alpha0.5"]
    params, grid, pair = scan_inputs(model, N=400)
    _, peak = traced_peak(lambda: carleman_scan(model, params, grid, pair,
                                                s_values=default_s_values(10)))
    # 0.56 measured: one block of about 1 MB (the integrands, phi, E, the flush
    # mask, the pair's v and h rows and their temporaries, and v_x), against 0.62
    # for the scan alone beside an h field, with blocks of 7 1/8 arrays
    assert peak / field_units(grid) < 0.7


def task_peak(task, tmp_path):
    """Peak of a CLI task at grid.N = 400, in fields of its fine level (800, 1600)."""
    argv = [task, "--set", "grid.N=400", "--set", "grid.M=800", "--out", str(tmp_path)]
    config = cli.resolve_config(cli._build_parser().parse_args(argv))
    _, peak = traced_peak(lambda: cli.TASKS[task](config, tmp_path))
    return peak / field_units(SpaceTimeGrid.create(800, 1600, 2.0, X0))


def test_scan_task_peak_memory(tmp_path):
    """The carleman-scan task holds no manufactured field: each row block calls the
    pair for its rows of v and h."""
    # 0.18 measured: about 1 MB of block rows, against 1.20 with h a field
    # and 2.20 with v a field beside it
    assert task_peak("carleman-scan", tmp_path) < 0.25


def test_identity_task_peak_memory(tmp_path):
    """The carleman-identity task holds no manufactured field: each row block
    samples its rows of w."""
    # 0.15 measured: about 1 MB of block rows, against 1.15 with w a field
    assert task_peak("carleman-identity", tmp_path) < 0.25


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
    # 0.52 measured: the sampled w rows, L+, w_x (then L-) and the products on
    # one block of about 1 MB, against 0.79 for blocks of 1 MB of three rows and
    # 3.09 for them on every interior row
    assert peak / field_units(grid) < 0.65


def pair_peaks(N):
    """The pair at (N, 2N): the peak of making it, in fields, and of one call on
    the scan's first block of interior rows, in arrays of that block's shape."""
    model = MODELS["alpha0.5"]
    grid = SpaceTimeGrid.create(N, 2 * N, 2.0, X0)
    pair, made = traced_peak(lambda: manufactured_adjoint_pair(
        model, PotentialModel.zero(), grid, scan_profile(2.0)))
    block = inequalities._row_blocks(grid.M - 1, inequalities._SCAN_NODE_BYTES * (grid.N + 1))[0]
    rows = slice(block.start + 1, block.stop + 1)
    _, called = traced_peak(lambda: pair(rows))
    return made / field_units(grid), called / ((rows.stop - rows.start) * (grid.N + 1) * 8)


def test_manufactured_pair_peak_memory():
    """Making the pair samples nothing, and a call stays within the five arrays of
    the scan's block budget that it is counted for (``_SCAN_NODE_BYTES``): its
    rows of v with their halo and of h, and one temporary at a time, beside
    NumPy's iteration buffers."""
    made, called = pair_peaks(400)
    assert made < 0.01          # 0.004 measured: the operator's N-vectors
    assert called < 5.0         # 4.46 measured; the pair filled a whole h field before


def test_manufactured_pair_fine_peak_memory():
    """At the fine level of the presets the scan's blocks are half as many rows."""
    made, called = pair_peaks(800)
    assert made < 0.01          # 0.002 measured
    assert called < 5.0         # 4.59 measured


def test_caccioppoli_peak_memory():
    """E, v_x and v^2 are formed only on the columns of omega' and omega, and v^2
    only before the other two."""
    model = MODELS["alpha0.5"]
    grid = SpaceTimeGrid.create(400, 800, 2.0, X0)
    _, modes = dirichlet_eigenmodes(assemble_operator(model, grid), 1)
    v = solve_adjoint(model, PotentialModel.zero(), grid, modes[0])
    params = WeightParams.for_model(model, T=2.0, s=1.0)
    _, peak = traced_peak(
        lambda: caccioppoli_check(model, params, grid, v, (0.35, 0.45), (0.2, 0.5)))
    # 0.33 measured: the outer v^2 is gone before L and the local integrand are
    # formed, against 0.54 with all three held at once
    assert peak / field_units(grid) < 0.4


# ---------------------------------------------------------------------------
# call graph: the public weight and grid functions each checker calls, which
# the benchmark's tracer counts as spans (weights.calls, trace.spans)
# ---------------------------------------------------------------------------

COUNTED = ("psi", "psi_prime", "theta", "theta_dot", "theta_ddot", "exp2s_phi",
           "log2s_phi", "assemble_operator")


def count_calls(fn):
    """Calls of each COUNTED function during fn, wherever the package binds it."""
    import degenpde.grid
    import degenpde.inequalities
    calls = dict.fromkeys(COUNTED, 0)
    with pytest.MonkeyPatch.context() as mp:
        for mod in (degenpde.inequalities, weights, degenpde.grid):
            for name in COUNTED:
                original = getattr(mod, name, None)
                if original is None:
                    continue

                def counted(*args, _name=name, _original=original, **kwargs):
                    calls[_name] += 1
                    return _original(*args, **kwargs)

                mp.setattr(mod, name, counted)
        fn()
    return {name: n for name, n in calls.items() if n}


def test_checker_call_counts():
    """Each checker makes the calls it made before its integrals were folded."""
    model = MODELS["alpha1.5"]
    params, grid, pair = scan_inputs(model, N=40)
    assert count_calls(lambda: manufactured_adjoint_pair(
        model, PotentialModel.zero(), grid, lambda t, x: t * x * (1.0 - x))) == {
        "assemble_operator": 1}
    assert count_calls(lambda: carleman_scan(model, params, grid, pair,
                                             s_values=SCAN_S_VALUES)) == {"psi": 1, "theta": 1}
    params, grid, w = identity_inputs(model, 3.7, N=40)
    assert count_calls(lambda: carleman_identity_check(model, params, grid, w)) == {
        "psi": 1, "psi_prime": 1, "theta": 1, "theta_dot": 1, "theta_ddot": 1,
        "assemble_operator": 1}
    params = WeightParams.for_model(model, T=1.0, s=4.0)
    v = Field.from_function(grid, w)
    assert count_calls(lambda: caccioppoli_check(
        model, params, grid, v, (0.35, 0.45), (0.2, 0.5))) == {"psi": 1, "log2s_phi": 1}


@pytest.mark.parametrize("cols", [slice(0, 0), slice(0, 1), slice(0, 5), slice(1, 2),
                                  slice(5, 16), slice(19, 20), slice(20, 21), slice(0, 21)])
def test_derivative_columns_bit_identical(cols):
    values = np.random.default_rng(5).standard_normal((9, 21))
    assert np.array_equal(_derivative(values, 0.05, 1, cols),
                          _derivative(values, 0.05, axis=1)[:, cols])


def moveaxis_derivative(values, step, axis, part=slice(None)):
    """_derivative through np.moveaxis, with 2 step formed at each division."""
    n = values.shape[axis]
    start, stop, _ = part.indices(n)
    window = inequalities._halo(part, n)
    v = np.moveaxis(values, axis, 0)[window]
    out = np.empty_like(v)
    np.subtract(v[2:], v[:-2], out=out[1:-1])
    out[1:-1] /= 2.0 * step
    out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * step)
    out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * step)
    return np.moveaxis(out[start - window.start:stop - window.start], 0, axis)


@pytest.mark.parametrize("layout", ["C", "transposed", "strided"])
@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("part", [slice(None), slice(0, 1), slice(1, 2), slice(3, 7),
                                  slice(8, 9)])
def test_derivative_layouts_bit_identical(layout, axis, part):
    """A C-contiguous, transposed (F-ordered) or non-contiguous (9, 21) input
    gives the moveaxis formula's values, bit for bit, along either axis."""
    rng = np.random.default_rng(8)
    values = {"C": lambda: rng.standard_normal((9, 21)),
              "transposed": lambda: rng.standard_normal((21, 9)).T,
              "strided": lambda: rng.standard_normal((18, 63))[::2, ::3]}[layout]()
    assert values.shape == (9, 21) and values.flags.c_contiguous == (layout == "C")
    out = _derivative(values, 0.05, axis, part)
    expected = moveaxis_derivative(values, 0.05, axis, part)
    assert out.shape == expected.shape and np.array_equal(out, expected)


@pytest.mark.parametrize("rows", [slice(0, 1), slice(0, 2), slice(1, 2), slice(3, 7),
                                  slice(7, 8), slice(8, 9), slice(7, 9), slice(0, 9)])
def test_derivative_rows_bit_identical(rows):
    """A last row with one halo row has two rows; the window reaches back to three."""
    values = np.random.default_rng(6).standard_normal((9, 21))
    assert np.array_equal(_derivative(values, 0.05, 0, rows),
                          _derivative(values, 0.05, axis=0)[rows])


def test_caccioppoli_omega_prime_between_nodes():
    """An omega' that holds no node gives a zero local integral, as on the full grid."""
    model = MODELS["alpha0.5"]
    grid = SpaceTimeGrid.create(20, 40, 2.0, X0)
    _, modes = dirichlet_eigenmodes(assemble_operator(model, grid), 1)
    v = solve_adjoint(model, PotentialModel.zero(), grid, modes[0])
    params = WeightParams.for_model(model, T=2.0, s=1.0)
    rep = caccioppoli_check(model, params, grid, v, (0.36, 0.39), (0.2, 0.5))
    assert rep.local_gradient_integral == 0.0 and rep.ratio == 0.0
    assert_within_rounding(rep.outer_solution_integral,
                           reference_caccioppoli_outer(grid, v, (0.2, 0.5)),
                           rep.outer_solution_integral)
