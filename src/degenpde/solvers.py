"""Crank-Nicolson time stepping for the controlled forward problem

    u_t - (a u_x)_x + c(t,x) u = h(t,x) chi_omega(x),   u(0) = u0,

and the backward adjoint problem

    v_t + (a v_x)_x - c(t,x) v = h,   v(T) = vT,

both with homogeneous Dirichlet conditions.  The adjoint is integrated
forward in the reversed time tau = T - t, where it is again parabolic.
Crank-Nicolson (rather than backward Euler) keeps the scheme second order,
which the identity and estimate checkers rely on.

Each solve assembles the operator once and validates every left-hand side
L_k = I/dt - A/2 + C_k/2 up front with reductions over c: its minimum decides
diagonal dominance and its per-node maximum decides overflow, so no
(M+1) x (N-1) temporary is built.

A step from level p to level n solves L_n u_n = R_p u_p + f, with
R_p = I/dt + A/2 - C_p/2 and f = (f_p + f_n)/2.  Since R_p = G - L_n for the
diagonal G = 2I/dt + (C_n - C_p)/2, one solve gives s = u_p + u_n:

    L_n s = g u_p + f,   g = 2/dt + (c_n - c_p)/2,   u_n = s - u_p.

Both sides are halved, so that g/2 = 1/dt + (c_n - c_p)/4 is finite wherever
1/dt is (2/dt overflows for a subnormal dt); halving is exact in the normal
range, for the factors of L_n too, so s does not change.  A step is one
product (g/2) u_p into the output row, one ``gttrs`` in place and one
subtraction of u_p.  With a source, the product goes to a buffer that one
more ufunc adds to the row, where each step's (h_p + h_n)/4 was summed before
the first step (added forward, subtracted backward).

The halved left-hand sides come from a single-entry table keyed by value on
their inputs: the off-diagonal, the diagonal without its c term and the rows
of c (one for constant c, one per level for sampled c).  A level is factored
with LAPACK ``gttrf`` the first time a solve needs it (levels 1..M forward,
0..M-1 adjoint), and a sampled c's rows g/2 are formed once per direction;
for constant c, g/2 is the value 1/dt.  So repeated solves on one potential
(the HUM iteration) factor and form nothing.  ``gttrf`` then ``gttrs`` runs
the elimination of ``gtsv`` and of ``scipy.linalg.solve_banded``.  SciPy's
``gttrf`` rejects two interior nodes, so there each step calls ``gtsv`` on a
stored diagonal; one interior node is a division.

The field equals, bit for bit, a per-step loop that forms g u_p, adds f only
when there is a source, solves with ``solve_banded`` and subtracts u_p,
unless a value leaves the normal range.  The textbook form and the discrete
adjoint identity hold to rounding; a stiff mode (u_n close to -u_p) makes s
small, but its error stays at the rounding level of u_p.

A non-finite matrix raises ValueError up front and a singular one raises
LinAlgError, as in ``solve_banded``.  Non-finite right-hand sides are found
by one check of the whole field after the last step: every divisor of a
solve is a finite LU pivot or diagonal, so no step turns a non-finite value
finite, and a non-finite right-hand side leaves a non-finite value in its
row and every later one.  The same inputs raise
ValueError as under a check of each right-hand side, plus one case that
check missed: a last solve whose result overflows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, get_lapack_funcs

from .grid import Field, SpaceTimeGrid, assemble_operator, integrate_space

__all__ = [
    "PotentialModel",
    "ControlConfig",
    "solve_forward",
    "solve_adjoint",
    "energy_trace",
]


@dataclass(frozen=True)
class PotentialModel:
    """Bounded zero-order term c(t, x), held as ``rows`` that broadcast over a grid.

    One row (a single value) when c is zero or constant, and one row per time
    level, of shape (M+1, N+1), when c is sampled on a grid.
    """

    rows: np.ndarray

    @classmethod
    def zero(cls) -> "PotentialModel":
        return cls.constant(0.0)

    @classmethod
    def constant(cls, value: float) -> "PotentialModel":
        return cls(np.full((1, 1), float(value)))

    @classmethod
    def sampled(cls, samples: Field) -> "PotentialModel":
        return cls(samples.values)

    def values(self, grid: SpaceTimeGrid) -> np.ndarray:
        """c at every node of ``grid``, as a read-only (M+1, N+1) view of ``rows``."""
        shape = (grid.M + 1, grid.N + 1)
        try:
            return np.broadcast_to(self.rows, shape)
        except ValueError:
            raise ValueError(f"potential of shape {self.rows.shape} does not fit "
                             f"the grid shape {shape}") from None


@dataclass(frozen=True)
class ControlConfig:
    """Control interval omega = (omega_lo, omega_hi) inside (0, 1)."""

    omega_lo: float
    omega_hi: float
    epsilon: float = 0.0   # optional Tikhonov term in the HUM functional

    def __post_init__(self):
        if not 0.0 <= self.omega_lo < self.omega_hi <= 1.0:
            raise ValueError(
                f"need 0 <= omega_lo < omega_hi <= 1, got ({self.omega_lo}, {self.omega_hi})")
        if self.epsilon < 0.0:
            raise ValueError(f"epsilon must be nonnegative, got {self.epsilon}")

    def require_x0_inside(self, x0: float):
        if not self.omega_lo < x0 < self.omega_hi:
            raise ValueError(
                f"x0={x0} must lie inside omega=({self.omega_lo}, {self.omega_hi}) "
                "for observability/control")

    def indicator(self, grid: SpaceTimeGrid) -> np.ndarray:
        """Node indicator of omega, half-weighted at interval endpoints.

        The half weights make pointwise multiplication by the indicator
        consistent with trapezoid quadrature restricted to omega.
        """
        chi = np.zeros(grid.N + 1)
        x = grid.x
        inside = (x > self.omega_lo + 1e-12) & (x < self.omega_hi - 1e-12)
        chi[inside] = 1.0
        chi[np.isclose(x, self.omega_lo, rtol=0.0, atol=1e-12)] = 0.5
        chi[np.isclose(x, self.omega_hi, rtol=0.0, atol=1e-12)] = 0.5
        return chi


def _check_dirichlet(vec: np.ndarray, name: str) -> np.ndarray:
    """Validate homogeneous boundary values and snap them to exact zero.

    Sampled analytic data often carries boundary values at rounding level
    (sin(pi x) at x = 1 gives ~1e-16), so the check is relative.
    """
    tol = 1e-12 * max(1.0, float(np.max(np.abs(vec))))
    if abs(vec[0]) > tol or abs(vec[-1]) > tol:
        raise ValueError(f"{name} must be Dirichlet-compatible ({name}[0]={vec[0]}, "
                         f"{name}[-1]={vec[-1]})")
    out = vec.copy()
    out[0] = out[-1] = 0.0
    return out


def _require_finite(arr: np.ndarray):
    if not np.isfinite(arr).all():
        raise ValueError("array must not contain infs or NaNs")


def _check_info(info: int):
    if info > 0:
        raise LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal LAPACK routine")


def _require_dominance(c_min: float, dt: float):
    """Raise unless every left-hand side I/dt - A/2 + C/2 with c >= c_min is dominant.

    Row sums of |off-diagonals| equal -d/2, so the LHS is diagonally dominant iff
    1/dt + c/2 > 0 on every node; a rounded sum is <= 0 iff the exact one is.
    """
    if 0.5 * c_min <= -(1.0 / dt):
        raise ValueError("Crank-Nicolson system lost diagonal dominance; reduce the time step")


# The level table's single entry: the inputs (off, base, rows c) of the halved
# left-hand sides L_k/2, per row the factors of L_k/2 (None until a solve needs
# them), and per direction the rows g/2 of a sampled c's steps.
_level_table = None


def _level_factors(gttrf, inv_dt, off, base, c, times, backward):
    """Per step through ``times``: the factors of L_next/2 and the value(s) g/2.

    L_k/2 = I/(2 dt) - A/4 + C_k/4 has off-diagonal ``off`` and diagonal
    ``base + c_k/4``, and g/2 = 1/dt + (c_next - c_prev)/4, one value when c has
    one row.  A level is factored, and a direction's rows g/2 formed, the first
    time a solve needs them.  The entry is reused when its inputs equal these by
    value, since rows may be edited in place between solves; ``np.array_equal``
    takes -0.0 == +0.0, which changes no factor and no g.  With two interior
    nodes or fewer a level's "factors" are its diagonal.
    """
    global _level_table
    # read once, so that a solve in another thread replacing the entry cannot mix two
    entry, inputs = _level_table, (off, base, c)
    if entry is None or not all(map(np.array_equal, entry[:3], inputs)):
        entry = _level_table = (off, base, c.copy(), [None] * len(c), {})
    off, base, c, factors, g_rows = entry
    sampled = len(c) > 1
    no_swap = None
    for k in times[1:] if sampled else [0]:
        if factors[k] is None:
            diag = base + 0.25 * c[k]
            if diag.size <= 2:
                factors[k] = diag
                continue
            dl, d, *tail, info = gttrf(off, diag, off)
            _check_info(info)
            # a level factored without row interchanges (every dominant one) has
            # du = off, du2 = 0 and ipiv = 1..n, so such levels share one copy
            if no_swap is None:
                no_swap = (off, np.zeros_like(tail[1]),
                           np.arange(1, d.size + 1, dtype=tail[2].dtype))
            if all(map(np.array_equal, tail, no_swap)):
                tail = no_swap
            factors[k] = (dl, d, *tail)
    if not sampled:
        return [factors[0]] * (len(times) - 1), [inv_dt] * (len(times) - 1)
    if backward not in g_rows:
        quarter_c = 0.25 * (c[::-1] if backward else c)      # in step order
        g_rows[backward] = np.diff(quarter_c, axis=0) + inv_dt
    return [factors[k] for k in times[1:]], g_rows[backward]


def _propagate(model, potential: PotentialModel, grid: SpaceTimeGrid, start: np.ndarray,
               source: np.ndarray | None, backward: bool) -> Field:
    """Step ``start`` through every time of the grid, from t = T down when backward.

    Crank-Nicolson for u_t = A u - c u + f on the interior nodes.  ``source`` holds
    the interior h, one row per time level (None means zero); f = h forward and
    f = -h backward.
    """
    c = potential.values(grid)[:, 1:-1]          # raises before any work if c does not fit
    d, e = assemble_operator(model, grid).interior_tridiag()
    n, inv_dt = d.size, 1.0 / grid.dt
    _require_finite(e)
    base = inv_dt - 0.5 * d                      # diagonal of L without its c/2 term
    times = range(grid.M, -1, -1) if backward else range(grid.M + 1)
    if potential.rows.shape[0] > 1:
        lhs_c = c[:-1] if backward else c[1:]    # the rows c(t_next) that enter a LHS
    else:
        c = lhs_c = c[:1]
    _require_finite(c)
    _require_dominance(lhs_c.min(), grid.dt)
    # base + c/2 grows with c, so the largest c of each node decides overflow
    _require_finite(base + 0.5 * lhs_c.max(axis=0))

    gttrf, gttrs, gtsv = get_lapack_funcs(("gttrf", "gttrs", "gtsv"), (d,))
    off = -0.25 * e
    factors, steps = _level_factors(gttrf, inv_dt, off, 0.5 * base, c, times, backward)

    out = np.zeros((grid.M + 1, grid.N + 1))
    out[times[0]] = start
    rows = out[:, 1:-1]
    if source is not None:
        # each step's f/2 = +/-(h_prev + h_next)/4, the sum written into the row the
        # step solves into
        summed = rows[:-1] if backward else rows[1:]
        np.add(source[:-1], source[1:], out=summed, dtype=float)
        summed *= 0.25
        combine = np.subtract if backward else np.add
        acc = np.empty(n)
    for j_prev, j_next, lu, g in zip(times, times[1:], factors, steps):
        # (L/2) s = (g/2) u + f/2 for s = u + u_next, then u_next = s - u
        u, rhs = rows[j_prev], rows[j_next]
        if source is None:
            np.multiply(g, u, out=rhs)
        else:
            combine(np.multiply(g, u, out=acc), rhs, out=rhs)
        # f2py solves a contiguous float64 right-hand side in place under overwrite_b
        if n > 2:
            _, info = gttrs(*lu, rhs, overwrite_b=True)
            _check_info(info)
        elif n == 2:
            *_, info = gtsv(off, lu, off, rhs, overwrite_b=True)
            _check_info(info)
        else:
            rhs /= lu
        np.subtract(rhs, u, out=rhs)
    # A non-finite value stays non-finite through every later step, since every
    # divisor is finite, so one check of the whole field rejects what a per-step
    # check of each right-hand side would.
    _require_finite(out)
    return Field(grid, out)


def solve_forward(model, potential: PotentialModel, grid: SpaceTimeGrid,
                  u0: np.ndarray, h: Field | None = None) -> Field:
    """Solve the forward problem with source h, taken as given.

    A control restricted to omega is passed as h = h_omega * chi_omega.
    """
    u0 = _check_dirichlet(np.asarray(u0, dtype=float), "u0")
    source = None if h is None else h.values[:, 1:-1]
    return _propagate(model, potential, grid, u0, source, backward=False)


def solve_adjoint(model, potential: PotentialModel, grid: SpaceTimeGrid,
                  vT: np.ndarray, h: Field | None = None) -> Field:
    """Solve v_t + (a v_x)_x - c v = h backward from v(T) = vT.

    Under tau = T - t the problem is forward-parabolic with source -h, so
    the same Crank-Nicolson stepper applies with time indices reversed.
    """
    vT = _check_dirichlet(np.asarray(vT, dtype=float), "vT")
    source = None if h is None else h.values[:, 1:-1]
    return _propagate(model, potential, grid, vT, source, backward=True)


def energy_trace(field: Field, model, grid: SpaceTimeGrid) -> np.ndarray:
    """t |-> integral a (v_x)^2 dx with midpoint differences and midpoint a.

    For homogeneous adjoint solutions this trace is nondecreasing in t.
    """
    a_mid = model.eval_a(grid.x_mid)
    dv = np.diff(field.values, axis=1) / grid.h
    return (dv ** 2 * a_mid).sum(axis=1) * grid.h


def l2_norm(vec: np.ndarray, grid: SpaceTimeGrid) -> float:
    """Grid L2 norm of a space profile."""
    return float(np.sqrt(integrate_space(np.asarray(vec) ** 2, grid)))
