"""Carleman weight phi(t, x) = Theta(t) * psi(x) and its admissibility data.

Theta blows up like [t(T-t)]^-4 at both ends of the time interval, psi is
the strictly negative spatial profile c1 * (b(x) - c2) built from
b(x) = integral_{x0}^{x} (y - x0) / a(y) dy.  The exponential factor
e^{2 s phi} therefore vanishes (faster than any power of Theta) at t = 0, T,
and every weighted space-time integrand is defined as 0 there.

Every profile works elementwise on numpy arrays; a scalar argument gives a
0-d result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "THETA_EXPONENT",
    "WeightParams",
    "c2_min",
    "b_integral",
    "theta",
    "theta_dot",
    "theta_ddot",
    "psi",
    "psi_prime",
    "exp2s_phi",
]

# Exponent of 1/[t(T-t)] in Theta; fixed by the theory, not configurable.
THETA_EXPONENT = 4

_LOG_TINY = math.log(np.finfo(float).tiny)


def c2_min(model) -> float:
    """Admissibility threshold max{(1-x0)^2 / (a(1)(2-K)), x0^2 / (a(0)(2-K))}."""
    a0 = model.eval_a(0.0)
    a1 = model.eval_a(1.0)
    if a0 <= 0.0 or a1 <= 0.0:
        raise ValueError("a must be positive at both endpoints (interior degeneracy only)")
    two_minus_k = 2.0 - model.K
    return max((1.0 - model.x0) ** 2 / (a1 * two_minus_k),
               model.x0 ** 2 / (a0 * two_minus_k))


@dataclass(frozen=True)
class WeightParams:
    """Weight data (T, c1, c2, s); c2 must exceed c2_min of the model in use."""

    T: float
    c1: float
    c2: float
    s: float

    def __post_init__(self):
        if self.T <= 0.0:
            raise ValueError(f"T must be positive, got {self.T}")
        if self.c1 <= 0.0:
            raise ValueError(f"c1 must be positive, got {self.c1}")
        if self.s < 0.0:
            raise ValueError(f"s must be nonnegative, got {self.s}")

    @classmethod
    def for_model(cls, model, T: float, s: float, c1: float = 1.0,
                  c2: float | None = None, c2_margin: float = 0.05) -> "WeightParams":
        """Build admissible parameters; default c2 = (1 + c2_margin) * c2_min."""
        bound = c2_min(model)
        if c2 is None:
            c2 = (1.0 + c2_margin) * bound
        elif c2 <= bound:
            raise ValueError(f"c2={c2} is inadmissible; need c2 > c2_min={bound:.6g}")
        return cls(T=float(T), c1=float(c1), c2=float(c2), s=float(s))


def _tabulated_b_table(model):
    """Cumulative integral of (y - x0)/a on the model's own nodes.

    The two cells adjacent to x0 use the local power model a ~ c |y - x0|^K
    fitted from the nearest sample: the integrand ~ |y - x0|^(1-K) is
    integrable but has unbounded derivative for K > 1, so the plain
    trapezoid rule is replaced there by the closed-form local integral.
    """
    nodes = model.nodes
    a = model.a_values
    g = np.zeros_like(nodes)
    safe = a > 0.0
    g[safe] = (nodes[safe] - model.x0) / a[safe]
    increments = 0.5 * (g[:-1] + g[1:]) * np.diff(nodes)
    # cells strictly on one side of x0 with positive endpoint samples:
    # model a ~ c |r|^gamma through the endpoints and integrate r/a in
    # closed form, which reproduces pure power laws exactly and tames
    # the unbounded curvature of the integrand near x0
    r = nodes - model.x0
    for i in range(nodes.size - 1):
        r_lo, r_hi = r[i], r[i + 1]
        if r_lo * r_hi <= 0.0 or a[i] <= 0.0 or a[i + 1] <= 0.0:
            continue
        u_lo, u_hi = abs(r_lo), abs(r_hi)
        gamma = np.log(a[i + 1] / a[i]) / np.log(u_hi / u_lo)
        c = a[i] / u_lo ** gamma
        expo = 2.0 - gamma
        if abs(expo) < 1e-10:
            increments[i] = np.log(u_hi / u_lo) / c
        else:
            increments[i] = (u_hi ** expo - u_lo ** expo) / (c * expo)
    i0 = int(np.argmin(np.abs(nodes - model.x0)))
    # x0 is a node and a vanishes there
    if abs(nodes[i0] - model.x0) < 1e-12 and abs(np.interp(model.x0, nodes, a)) < 1e-14:
        K = model.K
        if i0 + 1 < nodes.size:
            hr = nodes[i0 + 1] - nodes[i0]
            c = a[i0 + 1] / hr ** K
            increments[i0] = hr ** (2.0 - K) / (c * (2.0 - K))
        if i0 - 1 >= 0:
            hl = nodes[i0] - nodes[i0 - 1]
            c = a[i0 - 1] / hl ** K
            increments[i0 - 1] = -hl ** (2.0 - K) / (c * (2.0 - K))
    cum = np.concatenate(([0.0], np.cumsum(increments)))
    return cum - cum[i0] if abs(nodes[i0] - model.x0) < 1e-12 else cum - np.interp(model.x0, nodes, cum)


def b_integral(model, x):
    """b(x) = integral_{x0}^{x} (y - x0)/a(y) dy >= 0.

    Closed form |x - x0|^(2 - alpha) / (2 - alpha) for power laws;
    singularity-aware quadrature on the model's nodes otherwise.
    """
    x = np.asarray(x, dtype=float)
    if model.alpha is not None:
        return np.abs(x - model.x0) ** (2.0 - model.alpha) / (2.0 - model.alpha)
    return np.interp(x, model.nodes, _tabulated_b_table(model))


def theta(params: WeightParams, t):
    """Theta(t) = [t(T-t)]^-4 for 0 < t < T; +inf at the endpoints."""
    t = np.asarray(t, dtype=float)
    prod = t * (params.T - t)
    with np.errstate(divide="ignore"):
        out = np.where(prod > 0.0, prod, np.nan) ** (-THETA_EXPONENT)
    return np.where(prod > 0.0, out, np.inf)


def theta_dot(params: WeightParams, t):
    t = np.asarray(t, dtype=float)
    prod = t * (params.T - t)
    return -THETA_EXPONENT * prod ** (-THETA_EXPONENT - 1) * (params.T - 2.0 * t)


def theta_ddot(params: WeightParams, t):
    t = np.asarray(t, dtype=float)
    n = THETA_EXPONENT
    prod = t * (params.T - t)
    return (n * (n + 1) * prod ** (-n - 2) * (params.T - 2.0 * t) ** 2
            + 2.0 * n * prod ** (-n - 1))


def psi(params: WeightParams, model, x):
    """psi(x) = c1 * (b(x) - c2) < 0 for admissible c2."""
    return params.c1 * (b_integral(model, x) - params.c2)


def psi_prime(params: WeightParams, model, x):
    """psi'(x) = c1 (x - x0) / a(x); unbounded at x0 for K > 1."""
    x = np.asarray(x, dtype=float)
    a = model.eval_a(x)
    with np.errstate(divide="ignore"):
        return np.where(a > 0.0, params.c1 * (x - model.x0) / np.where(a > 0.0, a, 1.0), 0.0)


def exp2s_phi(params: WeightParams, model, t, x):
    """e^{2 s phi(t,x)}, computed in log space; exactly 0 at t in {0, T}.

    Flushes to 0 whenever 2 s phi falls below the log of the smallest
    positive normal, which also covers the endpoint limit Theta -> +inf,
    psi < 0.

    The weight is separable: ``(2s) [t(T-t)]^-4`` is formed on t's own shape
    and psi on x's own shape (psi is called once, and not at all when no
    time is interior); only their product and its exponential take the
    broadcast shape.  Each entry still goes through
    ``((2s) * prod**-4) * psi`` and ``exp`` with the same elementwise ufuncs
    on contiguous arrays, so the bits do not depend on the shapes t and x
    come in.  A log below log tiny is set to -inf, whose exp is exactly the
    flushed 0, and above it exp(max(log, log tiny)) is exp(log).
    """
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    prod = t * (params.T - t)
    interior = prod > 0.0
    out = np.zeros(np.broadcast_shapes(t.shape, x.shape))
    if not interior.any():
        return out
    with np.errstate(divide="ignore", over="ignore"):
        scale = 2.0 * params.s * np.where(interior, prod, 1.0) ** (-THETA_EXPONENT)
        np.multiply(scale, psi(params, model, x), out=out)
        flushed = out < _LOG_TINY
        flushed |= ~interior
        np.copyto(out, -np.inf, where=flushed)      # exp(-inf) is exactly the flushed 0
        np.exp(out, out=out)
    return out
