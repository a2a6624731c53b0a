"""Crank-Nicolson time stepping for the controlled forward problem

    u_t - (a u_x)_x + c(t,x) u = h(t,x) chi_omega(x),   u(0) = u0,

and the backward adjoint problem

    v_t + (a v_x)_x - c(t,x) v = h,   v(T) = vT,

both with homogeneous Dirichlet conditions.  The adjoint is integrated
forward in the reversed time tau = T - t, where it is again parabolic.
Crank-Nicolson (rather than backward Euler) keeps the scheme second order,
which the identity and estimate checkers rely on.

Each solve builds one propagator.  When c does not depend on time ("zero"
or "constant") the left-hand side I/dt - A/2 + C/2 never changes, so it is
factored once with LAPACK ``gttrf`` and each step is one ``gttrs``; with
sampled c each step solves its own system with ``gtsv``.  These run the
same partial-pivot elimination, in the same order, that
``scipy.linalg.solve_banded`` runs for a tridiagonal matrix, and the
right-hand side keeps its order of operations, so the results match a
per-step banded solve bit for bit.  The input checks that ``solve_banded``
made are kept: a non-finite matrix or right-hand side raises ValueError and
a singular one raises LinAlgError.
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
    "apply_lambda_shift",
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


class _CrankNicolson:
    """CN propagator for u_t = A u - c u + f on the interior nodes.

    Built once per solve; the module docstring says when the left-hand side
    is factored once and why the steps match a per-step banded solve.
    """

    def __init__(self, model, grid: SpaceTimeGrid, potential: PotentialModel):
        d, e = assemble_operator(model, grid).interior_tridiag()
        self.A_diag = d
        self.A_off = e
        self.dt = grid.dt
        self.off = -0.5 * e
        _require_finite(self.off)
        if potential.time_dependent:
            self.c = potential.samples.values[:, 1:-1]
        else:
            # rows c(t_j) as views of one vector, so the step indexes c alike in both cases
            self.c = np.broadcast_to(potential.values_at(grid, 0)[1:-1], (grid.M + 1, d.size))
        self._lu = None
        # LAPACK's tridiagonal wrappers need n >= 2; one interior node is a division.
        if potential.time_dependent or d.size == 1:
            self._gtsv, = get_lapack_funcs(("gtsv",), (d,))
        else:
            gttrf, self._gttrs = get_lapack_funcs(("gttrf", "gttrs"), (d,))
            *self._lu, info = gttrf(self.off, self._lhs_diag(self.c[0]), self.off)
            _check_info(info)

    def _lhs_diag(self, c: np.ndarray) -> np.ndarray:
        """Diagonal of I/dt - A/2 + C/2, checked before it is factored."""
        # row sums of |off-diagonals| equal -A_diag/2, so dominance reduces to this
        if np.any(1.0 / self.dt + 0.5 * c <= 0.0):
            raise ValueError("Crank-Nicolson system lost diagonal dominance; reduce the time step")
        diag = 1.0 / self.dt - 0.5 * self.A_diag + 0.5 * c
        _require_finite(diag)
        return diag

    def step(self, u: np.ndarray, j_prev: int, j_next: int,
             f_prev: np.ndarray, f_next: np.ndarray) -> np.ndarray:
        """Advance interior values from time index j_prev to j_next."""
        # RHS: (I/dt + A/2 - C_prev/2) u + (f_prev + f_next)/2, in this order of
        # operations: any other order changes the last bits of the artifacts.
        Au = self.A_diag * u
        Au[:-1] += self.A_off * u[1:]
        Au[1:] += self.A_off * u[:-1]
        rhs = u / self.dt + 0.5 * Au - 0.5 * self.c[j_prev] * u + 0.5 * (f_prev + f_next)
        _require_finite(rhs)
        if self._lu is not None:
            x, info = self._gttrs(*self._lu, rhs, overwrite_b=True)
        else:
            diag = self._lhs_diag(self.c[j_next])
            if diag.size == 1:
                return rhs / diag
            _, _, _, x, info = self._gtsv(self.off, diag, self.off, rhs,
                                          overwrite_d=True, overwrite_b=True)
        _check_info(info)
        return x


def _propagate(model, potential: PotentialModel, grid: SpaceTimeGrid, start: np.ndarray,
               source, backward: bool) -> Field:
    """Step ``start`` through every time of the grid, from t = T down when backward.

    ``source(j)`` gives the interior source at time index j; None means zero.
    """
    stepper = _CrankNicolson(model, grid, potential)
    times = range(grid.M, -1, -1) if backward else range(grid.M + 1)
    out = np.zeros((grid.M + 1, grid.N + 1))
    out[times[0]] = start
    u = start[1:-1]
    if source is None:
        zero = np.zeros(grid.N - 1)
        source = lambda j: zero
    f_prev = source(times[0])
    for j_prev, j_next in zip(times, times[1:]):
        f_next = source(j_next)
        u = stepper.step(u, j_prev, j_next, f_prev, f_next)
        out[j_next, 1:-1] = u
        f_prev = f_next
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
        chi = control.indicator(grid) if control is not None else np.ones(grid.N + 1)
        source = lambda j: (h.values[j] * chi)[1:-1]
    return _propagate(model, potential, grid, u0, source, backward=False)


def solve_adjoint(model, potential: PotentialModel, grid: SpaceTimeGrid,
                  vT: np.ndarray, h: Field | None = None) -> Field:
    """Solve v_t + (a v_x)_x - c v = h backward from v(T) = vT.

    Under tau = T - t the problem is forward-parabolic with source -h, so
    the same Crank-Nicolson stepper applies with time indices reversed.
    """
    vT = _check_dirichlet(np.asarray(vT, dtype=float), "vT")
    source = None if h is None else (lambda j: -h.values[j][1:-1])
    return _propagate(model, potential, grid, vT, source, backward=True)


def energy_trace(field: Field, model, grid: SpaceTimeGrid) -> np.ndarray:
    """t |-> integral a (v_x)^2 dx with midpoint differences and midpoint a.

    For homogeneous adjoint solutions this trace is nondecreasing in t.
    """
    a_mid = model.eval_a(grid.x_mid)
    dv = np.diff(field.values, axis=1) / grid.h
    return (dv ** 2 * a_mid).sum(axis=1) * grid.h


def apply_lambda_shift(field: Field, lam: float) -> Field:
    """Return e^{-lam t} v, the substitution that makes a signed potential
    effectively nonnegative (shift by lam >= -inf c)."""
    factors = np.exp(-lam * field.grid.t)[:, None]
    return Field(field.grid, field.values * factors)


def l2_norm(vec: np.ndarray, grid: SpaceTimeGrid) -> float:
    """Grid L2 norm of a space profile."""
    return float(np.sqrt(integrate_space(np.asarray(vec) ** 2, None, grid)))
