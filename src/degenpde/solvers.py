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
(M+1) x (N-1) temporary is built.  When c does not depend on time ("zero"
or "constant") the left-hand side never changes, so it is factored once
with LAPACK ``gttrf`` and each step is one ``gttrs``; with sampled c each
step solves its own system with ``gtsv``.  These run the same partial-pivot
elimination, in the same order, that ``scipy.linalg.solve_banded`` runs for
a tridiagonal matrix.  Each step builds its right-hand side in the output
row it solves into, using a few preallocated length-(N-1) buffers, in the
order of operations of a per-step banded solve, so the results match one
bit for bit: halving is exact, so A/2 and c/2 are precomputed (the
products agree unless one leaves the normal floating-point range); a + b
== b + a; and a missing source adds nothing, since the zero source's
(0 + 0)/2 = +0.0 could only have changed a -0.0, which the sum before it
never is.  A non-finite matrix or right-hand side
raises ValueError and a singular one raises LinAlgError, as in
``solve_banded``.
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
    """Bounded zero-order term c(t, x)."""

    kind: str = "zero"              # "zero" | "constant" | "sampled"
    value: float = 0.0
    samples: Field | None = None

    @classmethod
    def zero(cls) -> "PotentialModel":
        return cls(kind="zero")

    @classmethod
    def constant(cls, value: float) -> "PotentialModel":
        return cls(kind="constant", value=float(value))

    @classmethod
    def sampled(cls, samples: Field) -> "PotentialModel":
        return cls(kind="sampled", samples=samples)

    @property
    def sup_norm(self) -> float:
        if self.kind == "zero":
            return 0.0
        if self.kind == "constant":
            return abs(self.value)
        return float(np.max(np.abs(self.samples.values)))

    @property
    def inf_value(self) -> float:
        if self.kind == "zero":
            return 0.0
        if self.kind == "constant":
            return self.value
        return float(np.min(self.samples.values))

    def values_at(self, grid: SpaceTimeGrid, j: int) -> np.ndarray:
        if self.kind == "zero":
            return np.zeros(grid.N + 1)
        if self.kind == "constant":
            return np.full(grid.N + 1, self.value)
        return self.samples.values[j]

    @property
    def time_dependent(self) -> bool:
        return self.kind == "sampled"


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


def _propagate(model, potential: PotentialModel, grid: SpaceTimeGrid, start: np.ndarray,
               source, backward: bool) -> Field:
    """Step ``start`` through every time of the grid, from t = T down when backward.

    Crank-Nicolson for u_t = A u - c u + f on the interior nodes.  ``source(j, out)``
    writes the interior source at time index j into ``out``; None means zero.
    """
    d, e = assemble_operator(model, grid).interior_tridiag()
    n, dt = d.size, grid.dt
    half_d, half_e = 0.5 * d, 0.5 * e
    off = -half_e
    _require_finite(off)
    base = 1.0 / dt - half_d                     # LHS diagonal without its c/2 term
    times = range(grid.M, -1, -1) if backward else range(grid.M + 1)
    sampled = potential.time_dependent
    if sampled:
        c = potential.samples.values[:, 1:-1]
        lhs_c = c[:-1] if backward else c[1:]    # the rows c(t_next) that enter a LHS
    else:
        c = lhs_c = potential.values_at(grid, 0)[None, 1:-1]
    _require_finite(c)
    # Row sums of |off-diagonals| equal -d/2, so the LHS I/dt - A/2 + C/2 is diagonally
    # dominant iff 1/dt + c/2 > 0 on every node; a rounded sum is <= 0 iff the exact one is.
    if 0.5 * lhs_c.min() <= -(1.0 / dt):
        raise ValueError("Crank-Nicolson system lost diagonal dominance; reduce the time step")
    # base + c/2 grows with c, so the largest c of each node decides overflow
    _require_finite(base + 0.5 * lhs_c.max(axis=0))

    half_c = 0.5 * c[times[0] if sampled else 0]    # c/2 at the previous time, for the RHS
    diag = base + half_c                  # the LHS diagonal; with sampled c, refilled each step
    gttrf, gttrs, gtsv = get_lapack_funcs(("gttrf", "gttrs", "gtsv"), (d,))
    # LAPACK's tridiagonal wrappers need n >= 2; one interior node is a division.
    factored = not sampled and n > 1
    if factored:
        *lu, info = gttrf(off, diag, off)
        _check_info(info)

    out = np.zeros((grid.M + 1, grid.N + 1))
    out[times[0]] = start
    u = out[times[0], 1:-1]
    tmp = np.empty(n)
    if source is not None:
        f_prev, f_next = np.empty(n), np.empty(n)
        source(times[0], f_prev)
    for j_prev, j_next in zip(times, times[1:]):
        # RHS (I/dt + A/2 - C_prev/2) u + (f_prev + f_next)/2, built in the row it solves
        # into, in the order ((A u/2 + u/dt) - (c_prev/2) u) + (f_prev + f_next)/2: any
        # other order changes the last bits of the artifacts.
        rhs = out[j_next, 1:-1]
        np.multiply(half_d, u, out=rhs)
        rhs[:-1] += np.multiply(half_e, u[1:], out=tmp[:-1])
        rhs[1:] += np.multiply(half_e, u[:-1], out=tmp[:-1])
        rhs += np.divide(u, dt, out=tmp)
        rhs -= np.multiply(half_c, u, out=tmp)
        # A zero source's +0.0 could only change a -0.0, and this sum never is -0.0:
        # d < 0, so (d/2) u_i and u_i/dt never are both -0.0.
        if source is not None:
            source(j_next, f_next)
            rhs += np.multiply(np.add(f_prev, f_next, out=tmp), 0.5, out=tmp)
            f_prev, f_next = f_next, f_prev
        _require_finite(rhs)
        if sampled:
            np.multiply(c[j_next], 0.5, out=half_c)
            np.add(half_c, base, out=diag)
        # f2py solves a contiguous float64 right-hand side in place under overwrite_b
        if factored:
            _, info = gttrs(*lu, rhs, overwrite_b=True)
            _check_info(info)
        elif n == 1:
            rhs /= diag
        else:
            *_, info = gtsv(off, diag, off, rhs, overwrite_d=True, overwrite_b=True)
            _check_info(info)
        u = rhs
    return Field(grid, out)


def solve_forward(model, potential: PotentialModel, grid: SpaceTimeGrid,
                  u0: np.ndarray, h: Field | None = None,
                  control: ControlConfig | None = None) -> Field:
    """Solve the controlled forward problem; source is h * chi_omega.

    With control=None the source h acts on all of (0, 1).
    """
    u0 = _check_dirichlet(np.asarray(u0, dtype=float), "u0")
    source = None
    if h is not None:
        chi = control.indicator(grid)[1:-1] if control is not None else np.ones(grid.N - 1)
        source = lambda j, out: np.multiply(h.values[j, 1:-1], chi, out=out)
    return _propagate(model, potential, grid, u0, source, backward=False)


def solve_adjoint(model, potential: PotentialModel, grid: SpaceTimeGrid,
                  vT: np.ndarray, h: Field | None = None) -> Field:
    """Solve v_t + (a v_x)_x - c v = h backward from v(T) = vT.

    Under tau = T - t the problem is forward-parabolic with source -h, so
    the same Crank-Nicolson stepper applies with time indices reversed.
    """
    vT = _check_dirichlet(np.asarray(vT, dtype=float), "vT")
    source = None if h is None else (lambda j, out: np.negative(h.values[j, 1:-1], out=out))
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
    return float(np.sqrt(integrate_space(np.asarray(vec) ** 2, None, grid)))
