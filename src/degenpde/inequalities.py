"""Numerical verification of the weighted inequalities and identities.

Four checkers live here:

* ``hp_verify`` -- weighted Hardy-Poincare inequality
      int p/(x-x0)^2 w^2 <= C int p (w')^2
  for degenerate weights p, via a random test battery and the sharp discrete
  constant from a generalized eigenvalue problem.
* ``carleman_identity_check`` -- the exact decomposition of <L+ w, L- w>
  into distributed terms and the boundary terms at x = 0, 1 for the
  conjugated operators (those at t = 0, T vanish for admissible w).
* ``carleman_scan`` -- the weighted energy estimate with the e^{2 s phi}
  weight, swept over the large parameter s.
* ``caccioppoli_check`` -- the local-energy (Caccioppoli) inequality on an
  inner interval away from the degeneracy point.

Fitted constants are reported, never asserted against theoretical values:
the theory proves existence of C and s0, not numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.linalg import eigh_tridiagonal

from .coefficients import _sided_monotone
from .grid import Field, SpaceTimeGrid, assemble_operator
from .solvers import ControlConfig, PotentialModel
from .weights import (WeightParams, _exp_flushed, _power_cell_integral, psi, psi_prime,
                      theta, theta_dot, theta_ddot, exp2s_phi)

__all__ = [
    "HardyWeight",
    "HPReport",
    "hp_verify",
    "IdentityReport",
    "carleman_identity_check",
    "CarlemanReport",
    "carleman_scan",
    "manufactured_adjoint_pair",
    "CaccioppoliReport",
    "caccioppoli_check",
]


# ---------------------------------------------------------------------------
# Hardy-Poincare
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HardyWeight:
    """Weight p for the Hardy-Poincare inequality.

    p is continuous, vanishes exactly at x0, and p / |x - x0|^q must be
    nonincreasing left of x0 and nondecreasing right of it for some
    q in (1, 2).
    """

    p: callable
    q: float
    x0: float

    def __post_init__(self):
        if not 1.0 < self.q < 2.0:
            raise ValueError(f"q must lie in (1, 2), got {self.q}")

    @classmethod
    def pure_power(cls, q: float, x0: float) -> "HardyWeight":
        return cls(p=lambda x: np.abs(np.asarray(x) - x0) ** q, q=q, x0=x0)

    @classmethod
    def from_coefficient(cls, model) -> "HardyWeight":
        """The weight (a |x-x0|^4)^(1/3) used to absorb the Theta^(3/2) term;
        its exponent is q = (4 + theta)/3."""
        q = (4.0 + model.theta) / 3.0

        def p(x):
            x = np.asarray(x, dtype=float)
            return (model.eval_a(x) * np.abs(x - model.x0) ** 4) ** (1.0 / 3.0)

        return cls(p=p, q=q, x0=model.x0)

    def paper_bound(self) -> float:
        """min over beta in (1, q) of 1/((beta-1)(q-beta)), at beta=(1+q)/2."""
        return 4.0 / (self.q - 1.0) ** 2


@dataclass(frozen=True)
class HPReport:
    paper_bound: float
    rayleigh_estimate: float
    battery_max_ratio: float
    battery_ratios: np.ndarray = field(repr=False)


def _hp_matrices(weight: HardyWeight, grid: SpaceTimeGrid):
    """Stiffness and lumped singular mass with exact local-power quadrature.

    The stiffness cell averages of p and the lumped mass integrals of
    p/(x-x0)^2 are one ``_power_cell_integral`` call each, p ~ C |r|^gamma
    through every cell's endpoint values (exact for pure powers; gamma = q on
    a cell ending at x0).  The blunt alternatives -- midpoint p and nodal
    p/(x-x0)^2 h -- converge only like h^(q-1) near x0, too slowly for q
    close to 1.  The entries equal a per-cell scalar evaluation of the rule
    to rounding, not bit for bit (see ``_power_cell_integral``).
    """
    h = grid.h
    d = np.abs(grid.x - weight.x0)
    pv = np.asarray(weight.p(grid.x), dtype=float)
    # stiffness: entry per cell [x_i, x_i+1] is (cell average of p) / h
    p_cell = _power_cell_integral(d[:-1], d[1:], pv[:-1], pv[1:], 0.0, weight.q) / h
    # lumped mass: m_i integrates p/(x-x0)^2 over [x_i - h/2, x_i] and [x_i, x_i + h/2]
    inner = grid.x[1:-1]
    half_nodes = np.concatenate((inner - 0.5 * h, inner + 0.5 * h))
    halves = _power_cell_integral(np.abs(half_nodes - weight.x0), np.tile(d[1:-1], 2),
                                  np.asarray(weight.p(half_nodes), dtype=float),
                                  np.tile(pv[1:-1], 2), -2.0, weight.q)
    m = halves[:inner.size] + halves[inner.size:]
    return (p_cell[:-1] + p_cell[1:]) / h, -p_cell[1:-1] / h, m


def _require_hardy_monotone(weight: HardyWeight, x: np.ndarray):
    """Raise unless p/|x-x0|^q is one-sided monotone on the nodes x."""
    good = np.abs(x - weight.x0) > 1e-14
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio_vals = np.where(good, weight.p(x) / np.abs(x - weight.x0) ** weight.q, 0.0)
    ok, interval = _sided_monotone(x[good], ratio_vals[good], weight.x0, 1e-12)
    if not ok:
        raise ValueError(f"p/|x-x0|^q is not one-sided monotone near {interval}")


def _hp_energy(k_diag, k_off, w):
    out = np.dot(k_diag * w, w)
    out += 2.0 * np.dot(k_off * w[:-1], w[1:])
    return out


def hp_verify(weight: HardyWeight, grid: SpaceTimeGrid,
              battery_size: int = 20, seed: int = 0) -> HPReport:
    """Verify the Hardy-Poincare inequality for the weight p on a grid.

    Battery members are random piecewise-cubic profiles vanishing at 0 and 1
    (free at x0); the sharp discrete constant is 1/lambda_min of the
    generalized pair (stiffness with weight p, mass with weight p/(x-x0)^2).
    """
    x = grid.x
    _require_hardy_monotone(weight, x)
    k_diag, k_off, m = _hp_matrices(weight, grid)
    # symmetrize: M^(-1/2) K M^(-1/2) is tridiagonal with the same eigenvalues
    inv_sqrt_m = 1.0 / np.sqrt(m)
    d_sym = k_diag * inv_sqrt_m ** 2
    e_sym = k_off * inv_sqrt_m[:-1] * inv_sqrt_m[1:]
    lam = eigh_tridiagonal(d_sym, e_sym, select="i", select_range=(0, 0),
                           eigvals_only=True)[0]
    rayleigh = 1.0 / lam

    rng = np.random.default_rng(seed)
    n_knots = 8
    knots = np.linspace(0.0, 1.0, n_knots)
    ratios = []
    for _ in range(battery_size):
        vals = rng.standard_normal(n_knots)
        vals[0] = vals[-1] = 0.0
        w = CubicSpline(knots, vals)(x)
        w[0] = w[-1] = 0.0
        wi = w[1:-1]
        num = np.dot(m * wi, wi)
        den = _hp_energy(k_diag, k_off, wi)
        ratios.append(0.0 if den == 0.0 else num / den)
    ratios = np.asarray(ratios)
    return HPReport(
        paper_bound=weight.paper_bound(),
        rayleigh_estimate=float(rayleigh),
        battery_max_ratio=float(np.max(ratios)) if ratios.size else 0.0,
        battery_ratios=ratios,
    )


# ---------------------------------------------------------------------------
# shared discrete derivative helpers
# ---------------------------------------------------------------------------

def _derivative(values: np.ndarray, step: float, axis: int) -> np.ndarray:
    """Nodal derivative along ``axis`` (1: d/dx, 0: d/dt): centered interior,
    one-sided 2nd order at the ends."""
    v = np.moveaxis(values, axis, 0)
    out = np.empty_like(values)
    o = np.moveaxis(out, axis, 0)          # a view: writing o fills out
    np.subtract(v[2:], v[:-2], out=o[1:-1])
    o[1:-1] /= 2.0 * step
    o[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * step)
    o[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * step)
    return out


def _div_a_grad(op, values: np.ndarray) -> np.ndarray:
    """(a w_x)_x at all nodes; boundary rows by quadratic extrapolation."""
    out = op.apply(values)
    out[:, 0] = 3.0 * out[:, 1] - 3.0 * out[:, 2] + out[:, 3]
    out[:, -1] = 3.0 * out[:, -2] - 3.0 * out[:, -3] + out[:, -4]
    return out


def _q2_profile(model, x):
    """(x - x0)^2 / a, extended by its limit 0 at x0 (finite for K < 2)."""
    a = model.eval_a(x)
    d = x - model.x0
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(a > 0.0, d ** 2 / np.where(a > 0.0, a, 1.0), 0.0)
    return out


# ---------------------------------------------------------------------------
# Lemma-level identity: <L+ w, L- w> = D.T. + B.T.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityReport:
    lhs: float
    rhs: float
    residual: float


def carleman_identity_check(model, params: WeightParams, grid: SpaceTimeGrid,
                            w: Field) -> IdentityReport:
    """Check the distributed + boundary decomposition of <L+ w, L- w>.

    The conjugated operators are
        L+ w = (a w_x)_x - s phi_t w + s^2 a phi_x^2 w,
        L- w = w_t - 2 s a phi_x w_x - s (a phi_x)_x w,
    with the exact simplifications a phi_x = c1 Theta (x - x0) and
    (a phi_x)_x = c1 Theta.  w must vanish on the spatial boundary for all t
    and at t = 0, T for all x; integrands carrying unbounded Theta powers
    are then zero at the time endpoints and are set so.
    """
    if not w.is_dirichlet(1e-13):
        raise ValueError("w must vanish at x = 0 and x = 1 for all t")
    if np.max(np.abs(w.values[0])) > 1e-13 or np.max(np.abs(w.values[-1])) > 1e-13:
        raise ValueError("w must vanish at t = 0 and t = T for all x")

    s = params.s
    c1 = params.c1
    x = grid.x
    t = grid.t
    h = grid.h
    dt = grid.dt
    M, N = grid.M, grid.N
    interior_t = slice(1, M)

    a = model.eval_a(x)
    xa = model.eval_xa_prime(x)          # (x - x0) a'
    g2 = 2.0 * a - xa                    # 2a - (x-x0)a'; (2-alpha)a for powers
    q2 = _q2_profile(model, x)           # (x-x0)^2 / a
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
    a_b = a[[0, -1]]
    wx_b = wxi[:, [0, -1]]
    wt_b = w_t[interior_t][:, [0, -1]]    # taken before L- overwrites w_t
    w_b = wi[:, [0, -1]]

    # Every integrand is written into the interior rows of one zero-bordered
    # buffer, and L+ and L- overwrite the rows of (a w_x)_x and w_t they start
    # from.  Each in-place step is one correctly rounded operation taken in the
    # left-to-right order of the formula, e.g. ((s phi_t) w), so every entry
    # has the bits of the formula evaluated on fresh arrays.
    full = np.zeros((M + 1, N + 1))
    inner = full[interior_t]
    sw = grid.space_weights()
    tw_full = grid.time_weights()

    def st_integral():
        return float(np.dot(tw_full, full @ sw))

    def outer_integral(col, row, square):
        """int int (col row) square, with (M-1, 1) col and (1, N+1) row."""
        np.multiply(col, row, out=inner)
        np.multiply(inner, square, out=inner)
        return st_integral()

    # L+ in the interior rows of div_a_grad_w, L- in those of w_t
    L_plus = div_a_grad_w[interior_t]
    np.multiply(th_d[:, None], psi_x[None, :], out=inner)        # phi_t
    inner *= s
    inner *= wi
    L_plus -= inner
    np.multiply(c1 ** 2 * th[:, None] ** 2, q2[None, :], out=inner)  # a * phi_x^2
    inner *= s ** 2
    inner *= wi
    L_plus += inner
    L_minus = w_t[interior_t]
    np.multiply(c1 * th[:, None], d[None, :], out=inner)           # a phi_x
    inner *= 2.0 * s
    inner *= wxi
    L_minus -= inner
    np.multiply(s * c1 * th[:, None], wi, out=inner)
    L_minus -= inner
    np.multiply(L_plus, L_minus, out=inner)
    lhs = st_integral()
    del L_plus, L_minus, div_a_grad_w, w_t     # frees two fields before the squares

    # distributed terms
    r2 = np.where(a > 0.0, g2 / np.where(a > 0.0, a, 1.0), 0.0)
    square = np.square(wi)
    dt1 = outer_integral(0.5 * s * th_dd[:, None], psi_x[None, :], square)
    dt2 = outer_integral(s ** 3 * c1 ** 3 * th[:, None] ** 3, (q2 * r2)[None, :], square)
    dt3 = outer_integral(-2.0 * s ** 2 * c1 ** 2 * (th * th_d)[:, None], q2[None, :], square)
    np.square(wxi, out=square)
    dt4 = outer_integral(s * c1 * th[:, None], g2[None, :], square)

    # boundary terms at x = 0, 1; w vanishes there, so every group except the
    # -s phi_x (a w_x)^2 flux is analytically zero, but all three are assembled
    # from the data.  The groups at t = 0, T carry factors w and w_x, which
    # vanish there, so they are not formed.
    tw = tw_full[interior_t]

    def t_integral_bdry(vals_interior_t):
        return float(np.dot(tw, vals_interior_t))

    phi_x_b = th[:, None] * psi_p_bdry[None, :]
    phi_t_b = th_d[:, None] * psi_x[[0, -1]][None, :]

    def bracket(vals):  # [f]_{x=0}^{x=1}
        return vals[:, 1] - vals[:, 0]

    bt1 = t_integral_bdry(bracket(a_b[None, :] * wx_b * wt_b))
    bt4 = t_integral_bdry(bracket(
        -s * phi_x_b * (a_b[None, :] * wx_b) ** 2
        + s ** 2 * a_b[None, :] * phi_t_b * phi_x_b * w_b ** 2
        - s ** 3 * a_b[None, :] ** 2 * phi_x_b ** 3 * w_b ** 2))
    bt5 = t_integral_bdry(bracket(-s * c1 * th[:, None] * a_b[None, :] * w_b * wx_b))

    rhs = (dt1 + dt2 + dt3 + dt4) + (bt1 + bt4 + bt5)
    residual = abs(lhs - rhs) / (abs(lhs) + 1e-300)
    return IdentityReport(lhs=lhs, rhs=rhs, residual=residual)


# ---------------------------------------------------------------------------
# Carleman estimate s-sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CarlemanReport:
    s_values: np.ndarray
    lhs: np.ndarray
    rhs_source: np.ndarray
    rhs_boundary: np.ndarray
    ratios: np.ndarray
    fitted_C: float
    s0_observed: float
    nonpositive_rhs: bool


def default_s_values(n: int = 12, start: float = 1.0, ratio: float = 1.5) -> np.ndarray:
    """Geometric scan grid for the large parameter."""
    return start * ratio ** np.arange(n)


def manufactured_adjoint_pair(model, potential: PotentialModel, grid: SpaceTimeGrid,
                              v_func) -> tuple[Field, Field]:
    """Sample v and build h as the discrete residual of v_t + (a v_x)_x - c v.

    Using the scheme's own operators (centered time differences, assembled
    divergence stencil) makes (v, h) an exact pair at the discrete level,
    so the estimate check is not polluted by solver error.
    """
    c = potential.values(grid)
    v = Field.from_function(grid, v_func)
    op = assemble_operator(model, grid)
    res = _derivative(v.values, grid.dt, axis=0) + _div_a_grad(op, v.values)
    res -= c * v.values
    return v, Field(grid, res)


def carleman_scan(model, params_base: WeightParams, grid: SpaceTimeGrid, v: Field,
                  h: Field, s_values=None, window_tol: float = 0.05) -> CarlemanReport:
    """Sweep the weighted estimate over s and fit the stability constant.

    For each s:
        LHS          = int int (s Theta a v_x^2 + s^3 Theta^3 (x-x0)^2/a v^2) e^{2s phi}
        RHS_source   = int int h^2 e^{2s phi}
        RHS_boundary = s c1 int [a Theta e^{2s phi} (x-x0) v_x^2]_{x=0}^{x=1} dt
    s0_observed is the first scan point after which the ratio LHS/RHS is
    non-increasing within ``window_tol`` over three consecutive points;
    fitted_C is the largest ratio past s0_observed.

    Both sides are multiplied by the common positive factor e^{-2s max phi}
    before integrating, i.e. the exponential weight is evaluated as
    e^{2s(phi - max phi)}.  Every ratio LHS/RHS is unchanged, while the raw
    weight e^{2s phi} would underflow for large s Theta (for T = 1/2 its log
    is below -2000 already at s = 1).

    What does not depend on s (phi - max phi, v_x^2, v^2, Theta^3) is computed
    once, and each s fills the same few buffers in place.  Each in-place step is
    the elementwise product, sum or exp of the same operands, taken in the
    left-to-right order of the formula, e.g. ((s (Theta E)) a) v_x^2, so every
    entry has the bits of the formula evaluated on fresh arrays, and the
    integrals are the same (M+1, N+1) @ space-weights products.  E is
    exp(2s(phi - max phi)), flushed to 0 below the log of the smallest normal
    by setting those logs to -inf, whose exp is exactly 0.
    """
    if not 0.0 < model.x0 < 1.0:
        raise ValueError("x0 must be strictly interior")
    s_values = default_s_values() if s_values is None else np.asarray(s_values, dtype=float)
    if np.any(s_values < 0.0):
        raise ValueError(f"s must be nonnegative, got {s_values}")
    x = grid.x
    t = grid.t
    a = model.eval_a(x)[None, :]
    q2 = _q2_profile(model, x)[None, :]
    v_x2 = _derivative(v.values, grid.h, axis=1)
    v_x2 *= v_x2                             # v_x^2, the same bits as v_x ** 2
    v2 = v.values ** 2
    th_full = np.zeros(grid.M + 1)
    th_full[1:-1] = theta(params_base, t[1:-1])
    th = th_full[:, None]
    th3 = th ** 3
    ps = psi(params_base, model, x)          # < 0 for admissible c2
    phi_shift = th * ps[None, :]             # phi, then phi - max phi in place
    phi_max = float(np.max(phi_shift[1:-1]))
    phi_shift -= phi_max
    a_b = a[:, [0, -1]]
    d_b = (x[[0, -1]] - model.x0)[None, :]
    v_x2_b = v_x2[:, [0, -1]]

    sw = grid.space_weights()
    tw = grid.time_weights()

    # per-s buffers: E, the LHS integrand, and its second term or the source integrand
    E = np.empty_like(phi_shift)
    flushed = np.empty(E.shape, dtype=bool)
    integrand = np.empty_like(E)
    work = np.empty_like(E)
    lhs_arr, src_arr, bdy_arr = [], [], []
    for s in s_values:
        np.multiply(phi_shift, 2.0 * s, out=E)                # log E
        E[0] = E[-1] = -np.inf
        _exp_flushed(E, flushed)
        np.multiply(th, E, out=integrand)    # Theta E, zero at the time endpoints by contract
        bdry_vals = a_b * integrand[:, [0, -1]] * d_b * v_x2_b
        integrand *= s
        integrand *= a
        integrand *= v_x2
        np.multiply(s ** 3 * th3, E, out=work)
        work *= q2
        work *= v2
        integrand += work
        lhs_arr.append(float(tw @ (integrand @ sw)))
        np.multiply(h.values, h.values, out=work)
        work *= E
        src_arr.append(float(tw @ (work @ sw)))
        bdy_arr.append(float(s * params_base.c1 * (tw @ (bdry_vals[:, 1] - bdry_vals[:, 0]))))

    lhs_arr = np.asarray(lhs_arr)
    src_arr = np.asarray(src_arr)
    bdy_arr = np.asarray(bdy_arr)
    rhs = src_arr + bdy_arr
    nonpositive = bool(np.any(rhs <= 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(rhs > 0.0, lhs_arr / np.where(rhs > 0.0, rhs, 1.0), np.inf)

    s0_observed = float(s_values[-1])
    for k in range(len(s_values) - 2):
        tail = ratios[k:]
        if np.all(tail[1:] <= tail[:-1] * (1.0 + window_tol)):
            s0_observed = float(s_values[k])
            break
    past = s_values >= s0_observed
    finite = past & np.isfinite(ratios)
    fitted_C = float(np.max(ratios[finite])) if np.any(finite) else np.inf
    return CarlemanReport(
        s_values=s_values, lhs=lhs_arr, rhs_source=src_arr, rhs_boundary=bdy_arr,
        ratios=ratios, fitted_C=fitted_C, s0_observed=s0_observed,
        nonpositive_rhs=nonpositive)


# ---------------------------------------------------------------------------
# Caccioppoli
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CaccioppoliReport:
    local_gradient_integral: float
    outer_solution_integral: float
    ratio: float


def _require_caccioppoli_geometry(x0: float, omega_prime: tuple[float, float],
                                  omega: tuple[float, float]):
    """Raise unless omega' is compactly contained in omega and its closure misses x0."""
    lo_p, hi_p = omega_prime
    lo, hi = omega
    if not (lo < lo_p < hi_p < hi):
        raise ValueError(f"omega'={omega_prime} must be compactly contained in omega={omega}")
    if lo_p <= x0 <= hi_p:
        raise ValueError(f"x0={x0} must not lie in the closure of omega'={omega_prime}")


def caccioppoli_check(model, params: WeightParams, grid: SpaceTimeGrid, v: Field,
                      omega_prime: tuple[float, float],
                      omega: tuple[float, float]) -> CaccioppoliReport:
    """Local energy vs. outer mass:  int int_{omega'} v_x^2 e^{2s phi}  vs
    C int int_{omega} v^2.

    omega' must be compactly contained in omega and must stay away from x0.
    """
    _require_caccioppoli_geometry(model.x0, omega_prime, omega)
    lo_p, hi_p = omega_prime
    lo, hi = omega
    E = exp2s_phi(params, model, grid.t[:, None], grid.x[None, :])
    local_integrand = _derivative(v.values, grid.h, axis=1)
    chi_p = ControlConfig(lo_p, hi_p).indicator(grid)
    chi = ControlConfig(lo, hi).indicator(grid)
    sw = grid.space_weights()
    tw = grid.time_weights()
    local_integrand *= local_integrand     # ((v_x^2) E) chi', built in place
    local_integrand *= E
    local_integrand *= chi_p[None, :]
    local = float(tw @ (local_integrand @ sw))
    outer = float(tw @ ((v.values ** 2 * chi[None, :]) @ sw))
    ratio = np.inf if outer == 0.0 and local > 0.0 else (0.0 if outer == 0.0 else local / outer)
    return CaccioppoliReport(local_gradient_integral=local,
                             outer_solution_integral=outer, ratio=float(ratio))
