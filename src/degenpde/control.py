"""Observability-constant estimation and null-control synthesis by duality.

The observability inequality  ||v(0)||^2 <= C_T int int_omega v^2  for the
homogeneous adjoint problem is probed by maximizing the ratio over a sample
of terminal data (discrete eigenmodes, random profiles, power iteration).
The dual (HUM) route synthesizes a distributed null control by minimizing

    J(vT) = 1/2 int int_omega v^2 + <u0, v(0)> (+ eps/2 ||vT||^2)

with conjugate gradient; the gradient of J is the terminal state of the
forward problem driven by h = v chi_omega from u0.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from .grid import Field, SpaceTimeGrid, assemble_operator, dirichlet_eigenmodes, \
    integrate_space, integrate_spacetime
from .solvers import ControlConfig, PotentialModel, l2_norm, solve_adjoint, solve_forward

__all__ = [
    "ObservabilityReport",
    "ControlSolution",
    "estimate_observability",
    "synthesize_null_control",
]


@dataclass(frozen=True)
class ObservabilityReport:
    samples: list          # (descriptor, ratio) pairs
    C_T_estimate: float
    violation: bool        # ||v(0)|| > 0 with zero observation (must not occur)


@dataclass
class ControlSolution:
    h: Field
    terminal_norm: float
    initial_norm: float
    cost: float
    cg_iterations: int
    residual_history: np.ndarray = field(repr=False)
    J_history: np.ndarray = field(repr=False)
    converged: bool = True


def _observation_ratio(model, potential, grid, control, vT, chi):
    """(||v(0)||^2, int int_omega v^2) for the adjoint solution v from vT.

    v is squared and masked in place, so a sample allocates one field.
    """
    v2 = solve_adjoint(model, potential, grid, vT).values
    np.square(v2, out=v2)
    num = integrate_space(v2[0], grid)
    den = integrate_spacetime(np.multiply(v2, chi, out=v2), grid)
    return num, den


def estimate_observability(model, potential: PotentialModel, grid: SpaceTimeGrid,
                           control: ControlConfig, n_modes: int = 10,
                           n_random: int = 10, n_power: int = 20,
                           seed: int = 0) -> ObservabilityReport:
    """Estimate C_T = sup ||v(0)||^2 / int int_omega v^2 over terminal data.

    The sample set is the first ``n_modes`` discrete Dirichlet eigenmodes of
    the degenerate operator, ``n_random`` random Dirichlet-compatible
    profiles, and ``n_power`` power-iteration steps on the squared solution
    map started from the best candidate so far (the iteration sharpens
    ||v(0)|| while the ratio is tracked and maximized).

    A random profile is zero at both ends, and its N - 1 interior values are
    uniform draws on [-1, 1] from ``random.Random(seed)``, whose stream Python
    keeps fixed for an int seed across versions.
    """
    control.require_x0_inside(model.x0)
    chi = control.indicator(grid)
    op = assemble_operator(model, grid)
    _, modes = dirichlet_eigenmodes(op, n_modes)
    rng = random.Random(seed)

    samples = []
    violation = False
    best_ratio = 0.0
    best_vT = None

    def record(desc, vT):
        nonlocal violation, best_ratio, best_vT
        nrm = l2_norm(vT, grid)
        if nrm == 0.0:
            return
        vT = vT / nrm
        num, den = _observation_ratio(model, potential, grid, control, vT, chi)
        if den == 0.0:
            if num > 0.0:
                violation = True
            return
        ratio = num / den
        samples.append((desc, float(ratio)))
        if ratio > best_ratio:
            best_ratio = ratio
            best_vT = vT

    for m in range(modes.shape[0]):
        record(f"eigenmode_{m}", modes[m])
    for k in range(n_random):
        vT = np.zeros(grid.N + 1)
        vT[1:-1] = [rng.uniform(-1.0, 1.0) for _ in range(grid.N - 1)]
        record(f"random_{k}", vT)

    # power iteration on S*S (S: vT -> v(0); symmetric propagator)
    z = best_vT if best_vT is not None else modes[0]
    for it in range(n_power):
        # no field stays bound across the second solve
        v0 = solve_adjoint(model, potential, grid, z).values[0].copy()
        z_new = solve_adjoint(model, potential, grid, v0).values[0].copy()
        nrm = l2_norm(z_new, grid)
        if nrm == 0.0:
            break
        z = z_new / nrm
        record(f"power_iter_{it}", z)

    C_T = max((r for _, r in samples), default=0.0)
    return ObservabilityReport(samples=samples, C_T_estimate=float(C_T),
                               violation=violation)


def _hum_operator(model, potential, grid, control, chi, z):
    """Lambda z = u(T) of the forward problem driven by h = v chi_omega, u(0)=0,
    where v is the adjoint solution with terminal datum z.  Returns (Lambda z, h)."""
    h = solve_adjoint(model, potential, grid, z)
    h.values *= chi                  # v chi_omega, in the adjoint field nothing else reads
    u = solve_forward(model, potential, grid, np.zeros(grid.N + 1), h=h)
    return u.values[-1].copy(), h


def synthesize_null_control(model, potential: PotentialModel, grid: SpaceTimeGrid,
                            control: ControlConfig, u0: np.ndarray,
                            tol: float = 1e-2, max_iters: int = 500) -> ControlSolution:
    """Minimize the HUM functional by conjugate gradient in the terminal datum.

    Solves (Lambda + eps I) z = -b with b = free forward evolution of u0 at
    time T; the controlled terminal state at the iterate z is -(r + eps z)
    where r is the CG residual, so the terminal-norm stopping test is free.
    The returned control h = v chi_omega vanishes exactly outside omega.
    """
    control.require_x0_inside(model.x0)
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    u0 = np.asarray(u0, dtype=float)
    chi = control.indicator(grid)
    eps = control.epsilon
    w = grid.space_weights()

    def dot(p, q):
        return float(np.dot(w * p, q))

    initial_norm = l2_norm(u0, grid)
    if initial_norm == 0.0:
        return ControlSolution(h=Field.zeros(grid), terminal_norm=0.0,
                               initial_norm=0.0, cost=0.0, cg_iterations=0,
                               residual_history=np.zeros(0), J_history=np.zeros(0),
                               converged=True)

    b = solve_forward(model, potential, grid, u0).values[-1].copy()

    z = np.zeros(grid.N + 1)
    r = -b.copy()                  # r = -b - (Lambda + eps) z at z = 0
    p = r.copy()
    res_hist = []
    J_hist = []
    rr = dot(r, r)
    converged = False
    iterations = 0

    for it in range(max_iters):
        terminal = -r - eps * z    # controlled terminal state b + Lambda z
        terminal_norm = l2_norm(terminal, grid)
        res_hist.append(terminal_norm)
        # J(z) = 1/2 z^T (Lambda + eps) z + b^T z = 1/2 z^T (-b - r) + b^T z
        J_hist.append(0.5 * (dot(z, b) - dot(z, r)))
        if terminal_norm <= tol * initial_norm:
            converged = True
            break
        if it > 0:
            rel_drop = abs(J_hist[-2] - J_hist[-1]) / max(abs(J_hist[-2]), 1e-300)
            if rel_drop < 1e-10:
                break
        Ap, _ = _hum_operator(model, potential, grid, control, chi, p)
        Ap = Ap + eps * p
        pAp = dot(p, Ap)
        if pAp <= 0.0:
            break
        alpha = rr / pAp
        z = z + alpha * p
        r = r - alpha * Ap
        rr_new = dot(r, r)
        p = r + (rr_new / rr) * p
        rr = rr_new
        iterations = it + 1

    _, h_field = _hum_operator(model, potential, grid, control, chi, z)
    u = solve_forward(model, potential, grid, u0, h=h_field)
    terminal_norm = l2_norm(u.values[-1], grid)
    cost = integrate_spacetime(h_field.values ** 2, grid)
    return ControlSolution(h=h_field, terminal_norm=float(terminal_norm),
                           initial_norm=float(initial_norm), cost=float(cost),
                           cg_iterations=iterations,
                           residual_history=np.asarray(res_hist),
                           J_history=np.asarray(J_hist),
                           converged=converged and terminal_norm <= tol * initial_norm)
