"""Crank-Nicolson time stepping for the controlled forward problem

    u_t - (a u_x)_x + c(t,x) u = h(t,x) chi_omega(x),   u(0) = u0,

and the backward adjoint problem

    v_t + (a v_x)_x - c(t,x) v = h,   v(T) = vT,

both with homogeneous Dirichlet conditions.  The adjoint is integrated
forward in the reversed time tau = T - t, where it is again parabolic.
Crank-Nicolson (rather than backward Euler) keeps the scheme second order,
which the identity and estimate checkers rely on.

Each solve assembles the operator once.  A direction's left-hand sides
L_k = I/dt - A/2 + C_k/2 are validated before its first step with reductions
over c: the minimum decides diagonal dominance and the per-node maximum
decides overflow, so no (M+1) x (N-1) temporary is built.

A step from level p to level n solves L_n u_n = R_p u_p + f, with
R_p = I/dt + A/2 - C_p/2 and f = (f_p + f_n)/2.  Since R_p = G - L_n for the
diagonal G = 2I/dt + (C_n - C_p)/2, one solve gives s = u_p + u_n:

    L_n s = g u_p + f,   g = 2/dt + (c_n - c_p)/2,   u_n = s - u_p.

Both sides are halved, so that g/2 = 1/dt + (c_n - c_p)/4 is finite wherever
1/dt is (2/dt overflows for a subnormal dt); halving is exact in the normal
range, for the factors of L_n too, so s does not change.  A step is one
product (g/2) u_p into the output row, one ``pttrs`` in place and one
subtraction of u_p.  With a source, the product goes to a buffer that one
more ufunc adds to the row, where each step's (h_p + h_n)/4 was summed before
the first step (added forward, subtracted backward).

Every left-hand side is symmetric positive definite: the interior block of A
is symmetric, and the dominance check below admits only 1/dt + c/2 > 0, which
makes L_k strictly diagonally dominant with a positive diagonal.  So L_k/2 is
factored as L D L^T with LAPACK ``pttrf``, without row interchanges, and a
step back-substitutes with ``pttrs``.  Both are SciPy's double-precision
``dpttrf``/``dpttrs`` from its compiled ``_flapack`` extension, which
``degenpde._lapack`` loads without running SciPy's linalg initialiser.

A potential owns its rows of c (one for constant c, one per level for
sampled c) as a read-only copy, checked finite once when it is made.  It keeps
one entry keyed by value on the operator's off-diagonal and its diagonal
without the c term.  The entry holds each level's factors, made the first time
a solve needs them (levels 1..M forward, 0..M-1 adjoint), and per direction,
keyed on 1/dt and M, the checked lists of factors and g/2 in step order (a
sampled c's rows, or one row of 1/dt).  So repeated solves on one potential
(the HUM iteration) check, factor and form nothing, whatever other potentials
solved in between, and the step loop only walks lists.
``pttrf`` then ``pttrs`` is ``ptsv``, the routine
``scipy.linalg.solveh_banded`` calls on a two-row band; one interior node is
a division.

The field equals, bit for bit, a per-step loop that forms g u_p, adds f only
when there is a source, solves with ``solveh_banded`` and subtracts u_p,
unless a value leaves the normal range.  The textbook form L_n u_n =
R_p u_p + f, solved per step with ``solve_banded``, and the discrete adjoint
identity hold to rounding; a stiff mode (u_n close to -u_p) makes s small,
but its error stays at the rounding level of u_p.

A non-finite matrix raises ValueError before the first step and a matrix
that ``pttrf`` finds not positive definite raises LinAlgError.  Non-finite
right-hand sides are found by one check of the last row after the last step:
every divisor of a solve is a finite, positive pivot and every g/2 is finite,
so a non-finite entry of a right-hand side stays non-finite through the
solve, the subtraction and every later step at its node, and the last row
holds it.  The same inputs raise ValueError as under a check of each
right-hand side, plus one case that check missed: a last solve whose result
overflows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import LinAlgError

from ._lapack import pttrf, pttrs
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
    level, of shape (M+1, N+1), when c is sampled on a grid.  ``rows`` is the
    potential's own read-only copy, checked 2-D and finite here, boundary columns too.
    """

    rows: np.ndarray
    _levels: list = field(default_factory=lambda: [None], init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = np.asarray_chkfinite(self.rows, dtype=float).copy()
        if rows.ndim != 2:
            raise ValueError(f"potential rows must be 2-D, got shape {rows.shape}")
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)

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
        if not 0.0 <= self.epsilon < np.inf:
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


def _check_info(info: int):
    if info > 0:
        raise LinAlgError(f"{info}th leading minor not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal LAPACK routine")


def _require_dominance(c_min: float, dt: float):
    """Raise unless every left-hand side I/dt - A/2 + C/2 with c >= c_min is dominant.

    Row sums of |off-diagonals| equal -d/2, so the LHS is diagonally dominant iff
    1/dt + c/2 > 0 on every node; a rounded sum is <= 0 iff the exact one is.
    """
    if 0.5 * c_min <= -(1.0 / dt):
        raise ValueError("Crank-Nicolson system lost diagonal dominance; reduce the time step")


def _directed_steps(levels, e, base, c, dt, M, backward):
    """The checked factors of L_next/2 and values g/2 of each step, in step order.

    L_k/2 = I/(2 dt) - A/4 + C_k/4 has off-diagonal -e/4 and diagonal
    (base + c_k/2)/2, and g/2 = 1/dt + (c_next - c_prev)/4.  The factors are
    ``pttrf``'s (d, e) of L D L^T, the same pivots d as an LU without
    interchanges; with one interior node they are (diagonal, None).  The entry
    ``levels[0]`` is (e, base, factors per row, lists per direction).  c is the
    potential's read-only rows, checked finite when it was made, so the entry
    is reused when e and base equal these by value; a non-finite e equals
    nothing, so it is checked again, and ``np.array_equal`` takes -0.0 == +0.0,
    which changes no check, factor or g.
    """
    entry = levels[0]
    if entry is None or not all(map(np.array_equal, entry[:2], (e, base))):
        np.asarray_chkfinite(e)
        entry = levels[0] = (e, base, [None] * len(c), {})
    e, base, factors, directions = entry
    inv_dt, steps = 1.0 / dt, directions.get(backward)
    if steps is not None and steps[0] == (inv_dt, M):
        return steps[1:]
    sampled = len(c) > 1
    lhs_c = (c[:-1] if backward else c[1:]) if sampled else c   # the rows that enter a LHS
    _require_dominance(lhs_c.min(), dt)
    # base + c/2 grows with c, so the largest c of each node decides overflow
    np.asarray_chkfinite(base + 0.5 * lhs_c.max(axis=0))
    order = (range(M - 1, -1, -1) if backward else range(1, M + 1)) if sampled else [0] * M
    off, half_base = -0.25 * e, 0.5 * base
    for k in order:
        if factors[k] is None:
            diag = half_base + 0.25 * c[k]
            if diag.size == 1:
                factors[k] = diag, None
                continue
            d, e, info = pttrf(diag, off, overwrite_d=True)
            _check_info(info)
            factors[k] = d, e
    if sampled:
        # g/2 in one buffer: in the normal range a quarter of the difference is
        # the difference of the quarters
        g = np.diff(c[::-1] if backward else c, axis=0)
        g *= 0.25
        g += inv_dt
    # a row of 1/dt, since NumPy multiplies by an array faster than by a float
    g = list(g) if sampled else [np.full(base.size, inv_dt)] * M
    steps = directions[backward] = (inv_dt, M), [factors[k] for k in order], g
    return steps[1:]


def _propagate(model, potential: PotentialModel, grid: SpaceTimeGrid, start: np.ndarray,
               source: np.ndarray | None, backward: bool) -> Field:
    """Step ``start`` through every time of the grid, from t = T down when backward.

    Crank-Nicolson for u_t = A u - c u + f on the interior nodes.  ``source`` holds
    the interior h, one row per time level (None means zero); f = h forward and
    f = -h backward.
    """
    # raises before any work if c does not fit; one row when c is constant
    c = potential.values(grid)[:len(potential.rows), 1:-1]
    d, e = assemble_operator(model, grid).interior_tridiag()
    base = 1.0 / grid.dt - 0.5 * d               # diagonal of L without its c/2 term
    factors, steps = _directed_steps(potential._levels, e, base, c, grid.dt, grid.M, backward)

    out = np.empty((grid.M + 1, grid.N + 1))
    out[:, 0] = out[:, -1] = 0.0                 # the steps write every interior row
    out[grid.M if backward else 0] = start
    rows = out[:, 1:-1]
    if source is not None:
        # each step's f/2 = +/-(h_prev + h_next)/4, the sum written into the row the
        # step solves into
        summed = rows[:-1] if backward else rows[1:]
        np.add(source[:-1], source[1:], out=summed, dtype=float)
        summed *= 0.25
        combine = np.subtract if backward else np.add
        acc = np.empty(d.size)
    rows = list(rows[::-1] if backward else rows)     # the row views in step order
    for u, rhs, (d, e), g in zip(rows, rows[1:], factors, steps):
        # (L/2) s = (g/2) u + f/2 for s = u + u_next, then u_next = s - u
        if source is None:
            np.multiply(g, u, rhs)
        else:
            combine(np.multiply(g, u, acc), rhs, rhs)
        if e is None:
            rhs /= d
        else:
            # f2py solves a contiguous float64 right-hand side in place when the
            # fourth argument, overwrite_b, is 1
            _, info = pttrs(d, e, rhs, 1)
            if info:
                _check_info(info)
        np.subtract(rhs, u, rhs)
    # A non-finite value leaves a non-finite entry in its row and in every later
    # one, since every divisor is a finite positive pivot, so a check of the last
    # row rejects what a per-step check of each right-hand side would.
    np.asarray_chkfinite(rows[-1])
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
