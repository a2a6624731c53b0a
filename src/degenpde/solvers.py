"""Crank-Nicolson time stepping for the controlled forward problem

    u_t - (a u_x)_x + c(t,x) u = h(t,x) chi_omega(x),   u(0) = u0,

and the backward adjoint problem

    v_t + (a v_x)_x - c(t,x) v = h,   v(T) = vT,

both with homogeneous Dirichlet conditions.  The adjoint is integrated
forward in the reversed time tau = T - t, where it is again parabolic.
Crank-Nicolson (rather than backward Euler) keeps the scheme second order,
which the identity and estimate checkers rely on.

Each solve assembles the operator once and validates every left-hand side
I/dt - A/2 + C/2 up front with reductions over c: its minimum decides
diagonal dominance and its per-node maximum decides overflow, so no
(M+1) x (N-1) temporary is built.  The left-hand sides are then looked up
in a single-entry table of per-level factors, keyed by value on the inputs
they depend on: the off-diagonal, the diagonal 1/dt - d/2 without its c
term, and the rows -c/2 (one row for constant c, one per time level for
sampled c).  A level is factored with LAPACK ``gttrf`` the first time a
solve needs it, so a forward solve factors levels 1..M, an adjoint solve
0..M-1, and a level whose c enters only a right-hand side never is.  Every
step is then one ``gttrs`` with the stored factors, whether c is constant
or sampled, and repeated solves on one potential (the HUM iteration) factor
nothing.  ``gttrf`` followed by ``gttrs`` runs the same partial-pivot
elimination, in the same order, as ``gtsv`` and as
``scipy.linalg.solve_banded`` for a tridiagonal matrix.  SciPy's ``gttrf``
wrapper rejects two interior nodes, so there a level stores its diagonal
and each step calls ``gtsv``; one interior node is a division.

Each step builds its right-hand side in the output row it solves into, with
four ufunc calls on preallocated buffers.  A sliding window over the field
gives the rows (lower, u, upper) of the previous time, and one product with
the stencil [e/2, d/2, e/2], zero-padded at the ends, fills three rows of a
(5, N-1) buffer; u/dt and (-c/2) u fill the other two.  One reduction over
the buffer's first axis adds the rows in order, giving
((upper + (d/2) u) + lower) + u/dt + (-c/2) u.  This matches a per-step
banded solve's (((d/2) u + upper) + lower) + u/dt - (c/2) u bit for bit:
halving is exact, so A/2 and c/2 are precomputed (the products agree unless
one leaves the normal floating-point range); a + b == b + a; x - y ==
x + (-y); and the zero pads only ever add +0.0, which could change a sum
only if it were -0.0, and each sum containing (d/2) u = -0.0 then adds
u/dt = +0.0 and comes out the same.  Before the first step, one vectorised
sum writes each step's source term (h_prev + h_next)/2 into the row the
step will solve into; a step adds it forward and subtracts it backward,
which equals adding (-h_prev - h_next)/2.  A missing source adds nothing,
since the zero source's (0 + 0)/2 = +0.0 could only have changed a -0.0,
which the sum before it never is.

A non-finite matrix raises ValueError up front and a singular one raises
LinAlgError, as in ``solve_banded``.  Non-finite right-hand sides are found
by one check of the whole field after the last step: every divisor of a
solve is a finite LU pivot, dt or the diagonal, so no step turns a
non-finite value finite, and a non-finite right-hand side leaves a
non-finite value in its row and every later one.  The same inputs raise
ValueError as under a check of each right-hand side, plus one case that
check missed: a last solve whose result overflows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
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


# The level table's single entry: the LHS inputs (off, base, rows -c/2) and per row
# the factors of its left-hand side, None until a solve needs them.
_level_table = None


def _level_factors(gttrf, off, base, neg_half_c, levels):
    """Factors of I/dt - A/2 + C_k/2 for every k in ``levels``, factoring only new ones.

    The table is hit when its inputs equal these by value, since rows may be
    edited in place between solves.  ``np.array_equal`` takes -0.0 == +0.0,
    which changes no factor: base - (-0.0) == base - (+0.0).  With two interior
    nodes or fewer a level's "factors" are its diagonal.
    """
    global _level_table
    # read once, so that a solve in another thread replacing the entry cannot mix two
    table, inputs = _level_table, (off, base, neg_half_c)
    if table is None or not all(map(np.array_equal, table[:3], inputs)):
        table = _level_table = (*inputs, [None] * len(neg_half_c))
    off, base, neg_half_c, factors = table
    for k in levels:
        if factors[k] is None:
            diag = base - neg_half_c[k]
            if diag.size <= 2:
                factors[k] = diag
                continue
            *lu, info = gttrf(off, diag, off)
            _check_info(info)
            factors[k] = lu
    return [factors[k] for k in levels]


def _propagate(model, potential: PotentialModel, grid: SpaceTimeGrid, start: np.ndarray,
               source: np.ndarray | None, backward: bool) -> Field:
    """Step ``start`` through every time of the grid, from t = T down when backward.

    Crank-Nicolson for u_t = A u - c u + f on the interior nodes.  ``source`` holds
    the interior h, one row per time level (None means zero); f = h forward and
    f = -h backward.
    """
    c = potential.values(grid)[:, 1:-1]          # raises before any work if c does not fit
    d, e = assemble_operator(model, grid).interior_tridiag()
    n, dt = d.size, grid.dt
    half_d, half_e = 0.5 * d, 0.5 * e
    off = -half_e
    _require_finite(off)
    base = 1.0 / dt - half_d                     # LHS diagonal without its c/2 term
    times = range(grid.M, -1, -1) if backward else range(grid.M + 1)
    sampled = potential.rows.shape[0] > 1
    if sampled:
        lhs_c = c[:-1] if backward else c[1:]    # the rows c(t_next) that enter a LHS
    else:
        c = lhs_c = c[:1]
    _require_finite(c)
    _require_dominance(lhs_c.min(), dt)
    # base + c/2 grows with c, so the largest c of each node decides overflow
    _require_finite(base + 0.5 * lhs_c.max(axis=0))

    gttrf, gttrs, gtsv = get_lapack_funcs(("gttrf", "gttrs", "gtsv"), (d,))
    neg_half_c = -0.5 * c
    # each step's LHS row of the table: the row of c(t_next), or the only row
    factors = _level_factors(gttrf, off, base, neg_half_c,
                             times[1:] if sampled else [0] * grid.M)
    neg_half_c = list(neg_half_c) if sampled else [neg_half_c[0]] * (grid.M + 1)

    out = np.zeros((grid.M + 1, grid.N + 1))
    out[times[0]] = start
    rows = out[:, 1:-1]
    if source is not None:
        # each step's (h_prev + h_next)/2, written into the row the step solves into
        summed = rows[:-1] if backward else rows[1:]
        np.add(source[:-1], source[1:], out=summed, dtype=float)
        summed *= 0.5
        combine = np.subtract if backward else np.add
        acc = np.empty(n)
    # window[j] holds the rows lower, u, upper of time j; the Dirichlet columns of out
    # are +0.0 and meet the zero pads of the stencil, so every product there is +0.0.
    window = sliding_window_view(out, n, axis=1)
    stencil = np.zeros((3, n))
    stencil[0, 1:] = stencil[2, :-1] = half_e
    stencil[1] = half_d
    terms = np.empty((5, n))
    products, by_dt, by_c = terms[2::-1], terms[3], terms[4]
    for j_prev, j_next, lu in zip(times, times[1:], factors):
        # RHS (I/dt + A/2 - C_prev/2) u + (f_prev + f_next)/2, in the order
        # (((upper + (d/2) u) + lower) + u/dt + (-c_prev/2) u) +/- (h_prev + h_next)/2,
        # the last term already in rhs: any other order changes the last bits of the
        # artifacts.
        u, rhs = rows[j_prev], rows[j_next]
        np.multiply(window[j_prev], stencil, out=products)
        np.divide(u, dt, out=by_dt)
        np.multiply(neg_half_c[j_prev], u, out=by_c)
        if source is None:
            np.add.reduce(terms, axis=0, out=rhs)
        else:
            combine(np.add.reduce(terms, axis=0, out=acc), rhs, out=rhs)
        # f2py solves a contiguous float64 right-hand side in place under overwrite_b
        if n > 2:
            _, info = gttrs(*lu, rhs, overwrite_b=True)
            _check_info(info)
        elif n == 2:
            *_, info = gtsv(off, lu, off, rhs, overwrite_b=True)
            _check_info(info)
        else:
            rhs /= lu
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
