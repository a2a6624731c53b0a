"""Numerical verification of the weighted inequalities and identities.

Four checkers live here:

* ``hp_verify`` -- weighted Hardy-Poincare inequality
      int p/(x-x0)^2 w^2 <= C int p (w')^2
  for degenerate weights p, via a random test battery and the sharp discrete
  constant from a generalized eigenvalue problem.  The battery members are
  the piecewise-linear interpolants of random values at 8 equally spaced
  knots, read at the grid nodes.
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

import math
import random
from dataclasses import dataclass, field

import numpy as np

from ._lapack import eigh_tridiagonal
from .grid import Field, SpaceTimeGrid, _sample_rows, assemble_operator
from .solvers import ControlConfig, PotentialModel
from .weights import (_LOG_TINY, WeightParams, _exp_flushed, log2s_phi, psi, psi_prime, theta,
                      theta_dot, theta_ddot)

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
    """Weight p = |x - x0|^gamma for the Hardy-Poincare inequality.

    p vanishes exactly at x0, and p / |x - x0|^q = |x - x0|^(gamma - q) must be
    nonincreasing left of x0 and nondecreasing right of it, for q in (1, 2):
    that holds exactly when gamma >= q.
    """

    q: float
    x0: float
    gamma: float

    def __post_init__(self):
        if not 1.0 < self.q < 2.0:
            raise ValueError(f"q must lie in (1, 2), got {self.q}")
        if not self.gamma >= self.q:
            raise ValueError(f"p/|x-x0|^q is not one-sided monotone: gamma={self.gamma} "
                             f"is below q={self.q}")

    @classmethod
    def pure_power(cls, q: float, x0: float) -> "HardyWeight":
        return cls(q=q, x0=x0, gamma=q)

    @classmethod
    def from_coefficient(cls, model) -> "HardyWeight":
        """The weight (a |x-x0|^4)^(1/3) used to absorb the Theta^(3/2) term.

        For a = scale |x-x0|^alpha that is scale^(1/3) |x-x0|^((4+alpha)/3); the
        factor scale^(1/3) multiplies stiffness and mass alike and cancels from
        every ratio, so it is dropped.  The exponent q is (4 + theta)/3.
        """
        return cls(q=(4.0 + model.theta) / 3.0, x0=model.x0, gamma=(4.0 + model.alpha) / 3.0)

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
    """Stiffness and lumped singular mass, each cell integral in closed form.

    The stiffness entry of cell [x_i, x_i+1] is the cell average of
    p = r^gamma over h, and the lumped mass m_i integrates p/r^2 = r^(gamma-2)
    over [x_i - h/2, x_i] and [x_i, x_i + h/2], with r = |x - x0|.  No cell
    straddles x0, which is a node, so the integral of r^(e-1) from distance
    r_a to r_b is |r_b^e - r_a^e| / e.  The blunt alternatives -- midpoint p
    and nodal p/(x-x0)^2 h -- converge only like h^(q-1) near x0, too slowly
    for q close to 1.
    """
    h = grid.h
    d = np.abs(grid.x - weight.x0)      # 0 at the x0 node, which is x0 exactly

    def cells(r_a, r_b, e):
        return np.abs(r_b ** e - r_a ** e) / e

    # stiffness: entry per cell [x_i, x_i+1] is (cell average of p) / h
    p_cell = cells(d[:-1], d[1:], weight.gamma + 1.0) / h
    # lumped mass: m_i integrates p/r^2 over the half-cells on each side of x_i
    inner = grid.x[1:-1]
    e = weight.gamma - 1.0
    m = (cells(np.abs(inner - 0.5 * h - weight.x0), d[1:-1], e)
         + cells(d[1:-1], np.abs(inner + 0.5 * h - weight.x0), e))
    return (p_cell[:-1] + p_cell[1:]) / h, -p_cell[1:-1] / h, m


def _hp_energy(k_diag, k_off, w):
    out = np.dot(k_diag * w, w)
    out += 2.0 * np.dot(k_off * w[:-1], w[1:])
    return out


def hp_verify(weight: HardyWeight, grid: SpaceTimeGrid,
              battery_size: int = 20, seed: int = 0) -> HPReport:
    """Verify the Hardy-Poincare inequality for the weight p on a grid.

    Battery members are the piecewise-linear interpolants of random values at
    8 equally spaced knots, vanishing at 0 and 1 (free at x0), taken at the
    grid nodes.  The 6 interior knot values are uniform draws on [-1, 1] from
    ``random.Random(seed)``, whose stream Python keeps fixed for an int seed
    across versions.  A member enters the pencil only through its nodal values,
    so its ratio is a Rayleigh quotient of the pair, at most (up to rounding) the
    sharp discrete constant, 1/lambda_min of the generalized pair (stiffness with
    weight p, mass with weight p/(x-x0)^2).
    """
    k_diag, k_off, m = _hp_matrices(weight, grid)
    # symmetrize: M^(-1/2) K M^(-1/2) is tridiagonal with the same eigenvalues
    inv_sqrt_m = 1.0 / np.sqrt(m)
    d_sym = k_diag * inv_sqrt_m ** 2
    e_sym = k_off * inv_sqrt_m[:-1] * inv_sqrt_m[1:]
    lam = eigh_tridiagonal(d_sym, e_sym, 0, 0, eigvals_only=True)[0]
    rayleigh = 1.0 / lam

    rng = random.Random(seed)
    knots = np.linspace(0.0, 1.0, 8)
    ratios = []
    for _ in range(battery_size):
        vals = np.zeros(knots.size)
        vals[1:-1] = [rng.uniform(-1.0, 1.0) for _ in range(knots.size - 2)]
        wi = np.interp(grid.x, knots, vals)[1:-1]
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
# shared discrete derivative and row-streaming helpers
# ---------------------------------------------------------------------------

# The streamed checkers work on blocks of time rows whose per-row arrays hold
# about this many bytes together, so that a block's arrays stay in a 2 MB L2 cache.
_BLOCK_BYTES = 1 << 20

# The bytes per node of one time row that a block holds, counted as float64
# arrays of N + 1 values (8 bytes a node) and boolean ones (1 byte a node):
#   carleman_scan: the stacked P, Q, H integrands (three), phi - max phi, E and
#     the flush mask (used only by a block whose log E straddles log tiny); the
#     pair's sampled v rows with their halo, its h rows from op.apply, op.apply's
#     scratch, the t-derivative and c v; and v_x, 11 1/8 arrays;
#   carleman_identity_check: the sampled w rows with their halo, L+ from
#     op.apply and its scratch, w_x, inner and the c_q2 q2 temporary, 6 arrays.
_SCAN_NODE_BYTES = 11 * 8 + 1
_IDENTITY_NODE_BYTES = 6 * 8


def _row_blocks(n_rows: int, row_bytes: int) -> list[slice]:
    """Consecutive slices covering range(n_rows), each of about _BLOCK_BYTES
    of rows that take ``row_bytes`` each (a checker's node bytes above times
    N + 1), and at least one row."""
    size = max(1, _BLOCK_BYTES // row_bytes)
    return [slice(r, min(r + size, n_rows)) for r in range(0, n_rows, size)]


def _row_dots(rows: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """``rows @ vectors`` one row at a time.

    Each result depends on its own row only, so it does not change with the
    row blocks: a single 2-D BLAS product may group rows differently as
    their number changes, and round them differently.
    """
    return np.matmul(rows[:, None, :], vectors)[:, 0]


def _halo(part: slice, n: int) -> slice:
    """The indices of range(n) that a nodal derivative at ``part`` reads: one
    halo index on each side, and at least three, so the ends keep their
    one-sided formulas."""
    start, stop, _ = part.indices(n)
    lo = max(min(start - 1, n - 3), 0)
    return slice(lo, min(max(stop + 1, lo + 3), n))


def _derivative(values: np.ndarray, step: float, axis: int, part=slice(None)) -> np.ndarray:
    """Nodal derivative of a 2-D array along ``axis`` (1: d/dx, 0: d/dt) at the
    indices ``part``: centered interior, one-sided 2nd order at the ends.  Only
    ``part`` and the indices it reads (``_halo``) are differenced, bit for bit as
    the whole axis.

    The window is differenced as one C-contiguous array (copied if it is not
    one already): the centred difference is one pass over its flat array, with
    neighbours ``k`` elements apart (1 along x, a row along t), and the
    one-sided ends then overwrite the lanes whose neighbours lie in other rows."""
    n = values.shape[axis]
    start, stop, stride = part.indices(n)
    if stride != 1:
        raise ValueError(f"a nodal derivative takes consecutive indices, got the slice {part}")
    if n < 3:
        raise ValueError(f"a nodal derivative needs 3 nodes along axis {axis}, got {n}")
    window = _halo(part, n)
    v = np.ascontiguousarray(values[:, window] if axis else values[window])
    out = np.empty_like(v)
    k = 1 if axis else v.shape[1]
    vf, of = v.reshape(-1), out.reshape(-1)
    two_step = 2.0 * step
    np.subtract(vf[2 * k:], vf[:-2 * k], out=of[k:-k])
    of[k:-k] /= two_step
    v, out = (v.T, out.T) if axis else (v, out)      # the derivative's axis first
    out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / two_step
    out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / two_step
    out = out[start - window.start:stop - window.start]
    return out.T if axis else out


def _div_a_grad(op, values: np.ndarray) -> np.ndarray:
    """(a w_x)_x at all nodes; boundary rows by quadratic extrapolation from 4 nodes."""
    if values.shape[-1] < 4:
        raise ValueError(f"(a w_x)_x extrapolates from 4 nodes in x, got {values.shape[-1]}")
    out = op.apply(values)
    out[:, 0] = 3.0 * out[:, 1] - 3.0 * out[:, 2] + out[:, 3]
    out[:, -1] = 3.0 * out[:, -2] - 3.0 * out[:, -3] + out[:, -4]
    return out


def _require_interior_row(grid: SpaceTimeGrid):
    """Raise unless the grid has a time row strictly inside (0, T), where the
    Carleman weights live."""
    if grid.M < 2:
        raise ValueError(f"no interior time row: M={grid.M} steps leave none inside (0, T)")


def _q2(model, x):
    """(x - x0)^2 / a in closed form, |x - x0|^(2 - alpha) / scale: 0 at x0, as alpha < 2."""
    return np.abs(x - model.x0) ** (2.0 - model.alpha) / model.scale


# ---------------------------------------------------------------------------
# Lemma-level identity: <L+ w, L- w> = D.T. + B.T.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityReport:
    lhs: float
    rhs: float
    residual: float


def carleman_identity_check(model, params: WeightParams, grid: SpaceTimeGrid,
                            w) -> IdentityReport:
    """Check the distributed + boundary decomposition of <L+ w, L- w>.

    The conjugated operators are
        L+ w = (a w_x)_x - s phi_t w + s^2 a phi_x^2 w,
        L- w = w_t - 2 s a phi_x w_x - s (a phi_x)_x w,
    with the exact simplifications a phi_x = c1 Theta (x - x0) and
    (a phi_x)_x = c1 Theta.  w is the profile w(t, x), elementwise as
    ``Field.from_function`` requires, and never a field.  It must vanish (a NaN
    does not) on the spatial boundary for all t and at t = 0, T for all x;
    integrands carrying unbounded Theta powers are then zero at the time
    endpoints and are set so.

    Every factor but w and its derivatives is a function of t alone or of x
    alone.  The coefficients of L+- are outer products of t and x vectors
    with s folded into the t vector; each distributed term f(t) g(x) w^2 is
    tw @ (f (w^2 @ (g sw))), with the time and space weights tw and sw; as
    (x - x0)^2 / a = q2 (``_q2``) and (2a - (x - x0) a') / a = 2 - alpha, the
    three w^2 terms contract with the two columns psi sw and q2 sw, and the
    boundary terms are one bracket [f]_{x=0}^{x=1}.  The interior time rows are
    streamed in blocks (``_row_blocks``), each sampling w on its rows and the
    halo row on each side that w_t reads, so no stencil or product is formed on
    the whole grid, and every row sum is taken one row at a time
    (``_row_dots``).  The values are those of this order of operations bit for
    bit, whatever the blocks, and agree with the integrand-first formulas to
    rounding.
    """
    M, N = grid.M, grid.N
    _require_interior_row(grid)
    if not np.all(np.abs(_sample_rows(w, grid, slice(0, M + 1, M))) <= 1e-13):
        raise ValueError("w must vanish at t = 0 and t = T for all x")

    s, c1 = params.s, params.c1
    x, t, h, dt = grid.x, grid.t, grid.h, grid.dt
    interior_t = slice(1, M)

    a = model.eval_a(x)
    q2 = _q2(model, x)                   # (x-x0)^2 / a
    g = 2.0 - model.alpha                # (2a - (x-x0)a') / a, as (x - x0) a' = alpha a
    d = x - model.x0
    psi_x = psi(params, model, x)
    psi_p_bdry = psi_prime(params, model, np.array([0.0, 1.0]))

    th = theta(params, t[interior_t])
    th_d = theta_dot(params, t[interior_t])
    th_dd = theta_ddot(params, t[interior_t])

    op = assemble_operator(model, grid)
    sw = grid.space_weights()
    tw = grid.time_weights()[interior_t]
    w2_vectors = np.column_stack((psi_x * sw, q2 * sw))
    g_a_sw = g * a * sw
    # L+ = (a w_x)_x + (c_psi psi + c_q2 q2) w, as -s phi_t + s^2 a phi_x^2;
    # L- = w_t - c_wx (x - x0) w_x - c_w w, as a phi_x = c1 Theta (x - x0)
    c_psi, c_q2 = -s * th_d, s ** 2 * c1 ** 2 * th ** 2
    c_wx, c_w = 2.0 * s * c1 * th, s * c1 * th

    # per interior row: the two w^2 sums, the w_x^2 sum, the L+ L- sum, and
    # w, w_x, w_t at x = 0, 1
    w2_rows = np.empty((M - 1, 2))
    wx2_rows = np.empty(M - 1)
    lhs_rows = np.empty(M - 1)
    w_b, wx_b, wt_b = np.empty((3, M - 1, 2))
    for blk in _row_blocks(M - 1, _IDENTITY_NODE_BYTES * (N + 1)):
        wv = _sample_rows(w, grid, slice(blk.start, blk.stop + 2))   # the rows blk + 1 and a halo
        if not np.all(np.abs(wv[:, [0, -1]]) <= 1e-13):
            raise ValueError("w must vanish at x = 0 and x = 1 for all t")
        wi = wv[1:-1]
        # (a w_x)_x becomes L+ in place, and w_x's buffer becomes L- once the w_x
        # terms are taken, w_t differenced into it; one more buffer holds each product
        L_plus = _div_a_grad(op, wi)
        w_x = _derivative(wi, h, axis=1)
        inner = np.multiply(c_psi[blk, None], psi_x)
        inner += c_q2[blk, None] * q2
        inner *= wi
        L_plus += inner

        np.square(wi, out=inner)
        w2_rows[blk] = _row_dots(inner, w2_vectors)
        np.square(w_x, out=inner)
        wx2_rows[blk] = _row_dots(inner, g_a_sw)
        w_b[blk], wx_b[blk] = wi[:, [0, -1]], w_x[:, [0, -1]]

        np.multiply(c_wx[blk, None], d, out=inner)
        inner *= w_x
        L_minus = w_x
        np.subtract(wv[2:], wv[:-2], out=L_minus)
        L_minus /= 2.0 * dt                      # w_t
        wt_b[blk] = L_minus[:, [0, -1]]
        L_minus -= inner
        np.multiply(c_w[blk, None], wi, out=inner)
        L_minus -= inner
        np.multiply(L_plus, L_minus, out=inner)
        lhs_rows[blk] = _row_dots(inner, sw)

    lhs = float(tw @ lhs_rows)
    # distributed terms: int int f(t) g(x) w^2 = tw @ (f (w^2 @ (g sw)))
    dt1 = float(tw @ ((0.5 * s * th_dd) * w2_rows[:, 0]))
    dt2 = float(tw @ ((g * s ** 3 * c1 ** 3 * th ** 3) * w2_rows[:, 1]))
    dt3 = float(tw @ ((-2.0 * s ** 2 * c1 ** 2 * (th * th_d)) * w2_rows[:, 1]))
    dt4 = float(tw @ ((s * c1 * th) * wx2_rows))

    # boundary terms [f]_{x=0}^{x=1} of five products; w vanishes there, so every
    # product except the -s phi_x (a w_x)^2 flux is analytically zero, but all five
    # are formed from the data.  The terms at t = 0, T carry factors w and w_x,
    # which vanish there, so they are not formed.
    a_b = a[[0, -1]]
    phi_x_b = th[:, None] * psi_p_bdry
    phi_t_b = th_d[:, None] * psi_x[[0, -1]]
    f = (a_b * wx_b * wt_b
         - s * phi_x_b * (a_b * wx_b) ** 2
         + s ** 2 * a_b * phi_t_b * phi_x_b * w_b ** 2
         - s ** 3 * a_b ** 2 * phi_x_b ** 3 * w_b ** 2
         - s * c1 * th[:, None] * a_b * w_b * wx_b)
    rhs = (dt1 + dt2 + dt3 + dt4) + float(tw @ (f[:, 1] - f[:, 0]))
    # a zero <L+ w, L- w> measures nothing: a residual of 0 there is 0/0
    residual = abs(lhs - rhs) / (abs(lhs) + 1e-300) if lhs != 0.0 else math.inf
    return IdentityReport(lhs=lhs, rhs=rhs, residual=residual)


# ---------------------------------------------------------------------------
# Carleman estimate s-sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CarlemanReport:
    """One s-sweep of ``carleman_scan`` on one manufactured profile.

    ``fitted_C`` is the largest LHS/RHS ratio past ``s0_observed`` for that
    one profile: a lower bound for the discrete Carleman constant, not a
    certified value of it; ``window_found`` says whether s0_observed starts a window,
    and ``window_max_rise``, the largest ratios[k+1]/ratios[k] - 1 over the
    window's steps (None with no window), how close it came to window_tol.
    """

    s_values: np.ndarray
    lhs: np.ndarray
    rhs_source: np.ndarray
    rhs_boundary: np.ndarray
    ratios: np.ndarray
    fitted_C: float
    s0_observed: float
    window_found: bool
    window_max_rise: float | None
    nonpositive_rhs: bool


_S_RATIO = 1.5         # the ratio of the scan's geometric s ladder


def default_s_values(n: int = 12, start: float = 1.0, ratio: float = _S_RATIO) -> np.ndarray:
    """Geometric scan grid for the large parameter."""
    return start * ratio ** np.arange(n)


def manufactured_adjoint_pair(model, potential: PotentialModel, grid: SpaceTimeGrid, v_func):
    """pair(rows) -> (v, h) on the time rows ``rows``: the profile v = v_func(t, x)
    and its discrete residual h = v_t + (a v_x)_x - c v.

    Using the scheme's own operators (centered time differences, assembled
    divergence stencil) makes (v, h) an exact pair at the discrete level,
    so the estimate check is not polluted by solver error.

    The operator is assembled, c read and the grid checked here; neither v nor
    h is ever a field.  Each call samples v_func, which must be elementwise as
    ``Field.from_function`` requires, on ``rows`` and the halo rows v_t reads
    (``_halo``), and puts every element through the operations of
    ``_div_a_grad(op, v) + _derivative(v, dt, 0) - c * v`` in that order: its
    rows are those of that whole-field expression bit for bit.
    """
    c = potential.values(grid)
    op = assemble_operator(model, grid)
    _div_a_grad(op, c[:0])      # no rows: rejects a grid too small for the stencil

    def pair(rows: slice):
        window = _halo(rows, grid.M + 1)
        v = _sample_rows(v_func, grid, window)
        own = slice(rows.start - window.start, rows.stop - window.start)
        h = _div_a_grad(op, v[own])
        h += _derivative(v, grid.dt, 0, own)
        h -= c[rows] * v[own]
        return v[own], h
    return pair


def carleman_scan(model, params_base: WeightParams, grid: SpaceTimeGrid, pair,
                  s_values=None, window_tol: float = 0.05) -> CarlemanReport:
    """Sweep the weighted estimate over s and fit the stability constant.

    For each s:
        LHS          = int int (s Theta a v_x^2 + s^3 Theta^3 (x-x0)^2/a v^2) e^{2s phi}
        RHS_source   = int int h^2 e^{2s phi}
        RHS_boundary = s c1 int [a Theta e^{2s phi} (x-x0) v_x^2]_{x=0}^{x=1} dt
    s0_observed is the first scan point from which every step to the end keeps
    ratios[k+1] <= ratios[k] (1 + window_tol), over at least three points whose
    ratios are finite and positive; with no such window, window_found is False
    and s0_observed is the last point.  nonpositive_rhs is set when some RHS is
    not positive, NaN included.
    fitted_C is the largest ratio at s >= s0_observed.  It is measured on the one
    profile v, so it is a lower bound for the discrete Carleman constant.

    pair is the row sampler of ``manufactured_adjoint_pair``: each block of
    rows calls it once for its rows of v and h, so neither is ever a field.

    Both sides are multiplied by the common positive factor e^{-2s max phi}
    before integrating, i.e. the exponential weight is evaluated as
    E = e^{2s(phi - max phi)}.  Every ratio LHS/RHS is unchanged, while the raw
    weight e^{2s phi} would underflow for large s Theta (for T = 1/2 its log
    is below -2000 already at s = 1).  E is flushed to 0 below the log of the
    smallest normal; it vanishes at t = 0, T, so only the interior time rows
    are formed.  A block's least and greatest log E are its corner products
    (its extreme Theta times psi's extremes) put through the same operations,
    exact as rounding is monotone: a block wholly above the threshold takes
    the exponential alone, one wholly below is zero, and only one that
    straddles it (or whose bound is NaN) builds the flush mask.

    Every factor but E and the fields is a function of t alone or of x alone.
    The x factors and the space weights sw are folded into the s-invariant
    integrands v_x^2 (a sw), v^2 (q2 sw) and h^2 sw, each filling one
    contiguous (rows, N+1) plane of a (3, rows, N+1) buffer; E with one stacked
    matmul over the planes' (rows, 3, N+1) view gives their three row sums.  A
    block whose E is all zero takes no matmul: its row sums are +0.0, as the
    integrands are >= 0, unless one is inf or NaN.  Theta, s and the time
    weights tw act on those row sums:
        LHS = tw @ ((s Theta) P + (s^3 Theta^3) Q),  RHS_source = tw @ H.
    The interior rows are streamed in blocks (``_row_blocks``) outside the s
    loop, so a block's integrands, phi and E stay in cache across every s and
    no field-sized array is formed.  The values are those of this order of
    operations bit for bit, whatever the blocks, and agree with the
    integrand-first formula to rounding.
    """
    s_values = default_s_values() if s_values is None else np.asarray(s_values, dtype=float)
    if not np.all(np.isfinite(s_values) & (s_values >= 0.0)) or np.any(np.diff(s_values) < 0.0):
        raise ValueError(f"s must be nonnegative, nondecreasing and finite, got {s_values}")
    if not s_values.size:
        raise ValueError("no s value to scan")
    _require_interior_row(grid)
    x = grid.x
    n_rows = grid.M - 1
    interior_t = slice(1, grid.M)
    a = model.eval_a(x)
    sw = grid.space_weights()
    tw = grid.time_weights()[interior_t]
    th = theta(params_base, grid.t[interior_t])
    th3 = th ** 3
    psi_x = psi(params_base, model, x)                    # psi < 0
    # max of th psi over the grid, exactly: th > 0 and rounding is monotone, so
    # each column's largest product is at the smallest th where psi < 0
    phi_max = float(np.max(np.where(psi_x < 0.0, th.min() * psi_x, th.max() * psi_x)))
    psi_ends = np.array([psi_x.min(), psi_x.max()])
    x_factors = (a * sw, _q2(model, x) * sw, sw)
    bdry_a = a[[0, -1]] * (x[[0, -1]] - model.x0)

    # per s and interior row: the (P, Q, H) row sums and E at x = 0, 1
    row_sums = np.empty((s_values.size, n_rows, 3))
    E_bdry = np.empty((s_values.size, n_rows, 2))
    bdry_x = np.empty((n_rows, 2))
    blocks = _row_blocks(n_rows, _SCAN_NODE_BYTES * x.size)
    # one set of block buffers, reused by every block: the s-invariant
    # integrands (P, Q, H) as three (rows, N+1) planes, phi - max phi and E
    size = blocks[0].stop - blocks[0].start
    stack_buf = np.empty((3, size, x.size))
    phi_buf, E_buf = np.empty((2, size, x.size))
    flushed_buf = np.empty((size, x.size), dtype=bool)
    for blk in blocks:
        n = blk.stop - blk.start
        stack, phi_shift, E, flushed = stack_buf[:, :n], phi_buf[:n], E_buf[:n], flushed_buf[:n]
        v_rows, h_rows = pair(slice(blk.start + 1, blk.stop + 1))
        v_x = _derivative(v_rows, grid.h, axis=1)
        for plane, f, x_factor in zip(stack, (v_x, v_rows, h_rows), x_factors):
            np.multiply(f, f, out=plane)
            plane *= x_factor
        bdry_x[blk] = bdry_a * v_x[:, [0, -1]] ** 2
        del v_rows, h_rows, v_x
        np.multiply(th[blk, None], psi_x[None, :], out=phi_shift)
        phi_shift -= phi_max
        # the block's least and greatest phi - max phi, exactly: rounding is
        # monotone, so they are among the corner products th psi of its extremes
        corners = np.multiply.outer([th[blk].min(), th[blk].max()], psi_ends) - phi_max
        lo, hi = float(corners.min()), float(corners.max())       # NaN if any is
        integrands_finite = None    # asked once, by the first all-zero weight
        for k, s in enumerate(s_values):
            if hi * (2.0 * s) < _LOG_TINY:          # all flush: exp(-inf) is +0.0
                # the integrands are >= 0, so their largest is finite only if all
                # are, and then every product with E = 0 is +0.0; an inf or NaN
                # keeps the matmul, whose row sums are NaN
                if integrands_finite is None:
                    integrands_finite = bool(np.isfinite(stack.max()))
                if integrands_finite:
                    row_sums[k, blk] = E_bdry[k, blk] = 0.0
                    continue
                E.fill(0.0)
            else:
                np.multiply(phi_shift, 2.0 * s, out=E)            # log E
                if lo * (2.0 * s) >= _LOG_TINY:     # none flushes
                    np.exp(E, out=E)
                else:
                    _exp_flushed(E, flushed)
            np.matmul(stack.transpose(1, 0, 2), E[:, :, None], out=row_sums[k, blk, :, None])
            E_bdry[k, blk] = E[:, ::x.size - 1]

    lhs_arr, src_arr, bdy_arr = [], [], []
    for k, s in enumerate(s_values):
        P, Q, H = np.ascontiguousarray(row_sums[k].T)
        lhs_arr.append(float(tw @ ((s * th) * P + (s ** 3 * th3) * Q)))
        src_arr.append(float(tw @ H))
        bdry_vals = (th[:, None] * E_bdry[k]) * bdry_x
        bdy_arr.append(float(s * params_base.c1 * (tw @ (bdry_vals[:, 1] - bdry_vals[:, 0]))))

    lhs_arr = np.asarray(lhs_arr)
    src_arr = np.asarray(src_arr)
    bdy_arr = np.asarray(bdy_arr)
    rhs = src_arr + bdy_arr
    nonpositive = bool(np.any(~(rhs > 0.0)))          # a NaN is not positive
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(rhs > 0.0, lhs_arr / np.where(rhs > 0.0, rhs, 1.0), np.inf)

    # a window starts one past the last step that rises by more than window_tol,
    # and past the last ratio that is not finite and positive (an integral that
    # is NaN, or has underflowed to 0, measures nothing)
    breaks = np.append(~(ratios[1:] <= ratios[:-1] * (1.0 + window_tol)), False)
    breaks |= ~(np.isfinite(ratios) & (ratios > 0.0))
    start = int(np.flatnonzero(breaks)[-1]) + 1 if breaks.any() else 0
    window_found = start <= s_values.size - 3
    s0_observed = float(s_values[start if window_found else -1])
    window_max_rise = (float(np.max(ratios[start + 1:] / ratios[start:-1] - 1.0))
                       if window_found else None)
    past = s_values >= s0_observed
    finite = past & np.isfinite(ratios)
    fitted_C = float(np.max(ratios[finite])) if np.any(finite) else np.inf
    return CarlemanReport(
        s_values=s_values, lhs=lhs_arr, rhs_source=src_arr, rhs_boundary=bdy_arr,
        ratios=ratios, fitted_C=fitted_C, s0_observed=s0_observed,
        window_found=window_found, window_max_rise=window_max_rise,
        nonpositive_rhs=nonpositive)


# ---------------------------------------------------------------------------
# Caccioppoli
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CaccioppoliReport:
    """The two integrals, their ratio, and the log of the ratio.

    ``log_ratio`` is formed in log space, so it stays finite where the local
    integral underflows to 0 (large s Theta); it is -inf when the local
    integrand vanishes and +inf when only the outer one does.  It is
    ``log_shift + log_rest`` to rounding: the shift m of the weight's log and
    log(mantissa) - log(outer).  Where |m| is huge, log_ratio rounds away what
    the rest holds, and the two parts keep it.  log_rest is log_ratio's
    infinity wherever log_ratio is infinite.
    """

    local_gradient_integral: float
    outer_solution_integral: float
    ratio: float
    log_ratio: float
    log_shift: float
    log_rest: float


def _require_caccioppoli_geometry(x0: float, omega_prime: tuple[float, float],
                                  omega: tuple[float, float]):
    """Raise unless omega' is compactly contained in omega and its closure misses x0."""
    lo_p, hi_p = omega_prime
    lo, hi = omega
    if not (lo < lo_p < hi_p < hi):
        raise ValueError(f"omega'={omega_prime} must be compactly contained in omega={omega}")
    if lo_p <= x0 <= hi_p:
        raise ValueError(f"x0={x0} must not lie in the closure of omega'={omega_prime}")


def _support(chi: np.ndarray) -> slice:
    """The nodes from the first to the last where chi != 0; empty if there are none."""
    nonzero = np.flatnonzero(chi)
    return slice(nonzero[0], nonzero[-1] + 1) if nonzero.size else slice(0, 0)


def caccioppoli_check(model, params: WeightParams, grid: SpaceTimeGrid, v: Field,
                      omega_prime: tuple[float, float],
                      omega: tuple[float, float]) -> CaccioppoliReport:
    """Local energy vs. outer mass:  int int_{omega'} v_x^2 e^{2s phi}  vs
    C int int_{omega} v^2.

    omega' must be compactly contained in omega and must stay away from x0.

    The indicators and the space weights sw are folded into one x vector per
    integral, and only the columns where an indicator is nonzero are formed.
    The local integral is taken in log space: with L = 2 s phi from one
    ``log2s_phi`` call on the columns of omega' and its largest value m,
        log local = m + log(tw @ ((v_x^2 e^{L - m})[:, omega'] @ (chi' sw)[omega'])),
        outer     = tw @ (v^2[:, omega] @ (chi sw)[omega]),
    and local = e^m times the mantissa, which underflows to 0 where e^{2s phi}
    does (T = 1/2 puts 2 s phi near -4e4) while log local stays finite.
    e^{L - m} is flushed to 0 below the log of the smallest normal.  The outer
    integral is taken first, so its v^2 is gone before L and the local
    integrand are formed.
    """
    _require_caccioppoli_geometry(model.x0, omega_prime, omega)
    chi_p = ControlConfig(*omega_prime).indicator(grid)
    chi = ControlConfig(*omega).indicator(grid)
    near, far = _support(chi_p), _support(chi)
    sw = grid.space_weights()
    tw = grid.time_weights()
    outer = float(tw @ (np.square(v.values[:, far]) @ (chi * sw)[far]))
    weight = log2s_phi(params, model, grid.t[:, None], grid.x[None, near])
    shift = float(np.max(weight, initial=-np.inf))   # -inf: no node of omega' inside (0, T)
    mantissa = 0.0
    if shift > -np.inf:
        weight -= shift
        _exp_flushed(weight)                   # e^{L - m}
        local_integrand = _derivative(v.values, grid.h, 1, near)
        local_integrand *= local_integrand     # (v_x^2) e^{L - m}, built in place
        local_integrand *= weight
        mantissa = float(tw @ (local_integrand @ (chi_p * sw)[near]))
    local = mantissa * math.exp(shift)
    ratio = np.inf if outer == 0.0 and local > 0.0 else (0.0 if outer == 0.0 else local / outer)
    if mantissa > 0.0 and outer > 0.0:
        log_mantissa, log_outer = math.log(mantissa), math.log(outer)
        log_ratio = shift + log_mantissa - log_outer
        log_rest = log_mantissa - log_outer
    else:                       # as the ratio: 0 with no local integral, else inf
        log_ratio = log_rest = -math.inf if mantissa == 0.0 else math.inf
    return CaccioppoliReport(local_gradient_integral=local, outer_solution_integral=outer,
                             ratio=float(ratio), log_ratio=log_ratio,
                             log_shift=shift, log_rest=log_rest)
