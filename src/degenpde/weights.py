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
    "log2s_phi",
    "exp2s_phi",
]

# Exponent of 1/[t(T-t)] in Theta; fixed by the theory, not configurable.
THETA_EXPONENT = 4

_LOG_TINY = math.log(np.finfo(float).tiny)
_LOG_MAX = math.log(np.finfo(float).max)


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
        if not 0.0 < self.T < np.inf:
            raise ValueError(f"T must be positive, got {self.T}")
        if not 0.0 < self.c1 < np.inf:
            raise ValueError(f"c1 must be positive, got {self.c1}")
        if not np.isfinite(self.c2):
            raise ValueError(f"c2 must be finite, got {self.c2}")
        if not 0.0 <= self.s < np.inf:
            raise ValueError(f"s must be nonnegative, got {self.s}")

    @classmethod
    def for_model(cls, model, T: float, s: float, c1: float = 1.0,
                  c2: float | None = None) -> "WeightParams":
        """Build admissible parameters; default c2 = 1.05 * c2_min."""
        bound = c2_min(model)
        if c2 is None:
            c2 = (1.0 + 0.05) * bound
        elif c2 <= bound:
            raise ValueError(f"c2={c2} is inadmissible; need c2 > c2_min={bound:.6g}")
        return cls(T=float(T), c1=float(c1), c2=float(c2), s=float(s))


def b_integral(model, x):
    """b(x) = integral_{x0}^{x} (y - x0)/a(y) dy >= 0, in closed form.

    For a = scale |x - x0|^alpha this is |x - x0|^(2 - alpha) / ((2 - alpha) scale).
    """
    x = np.asarray(x, dtype=float)
    two_minus_alpha = 2.0 - model.alpha
    return np.abs(x - model.x0) ** two_minus_alpha / (two_minus_alpha * model.scale)


def _exp_flushed(log, mask=None):
    """exp(log) in place, exactly 0 where log is below log tiny; ``mask`` is a bool buffer.

    A flushed log is set to -inf, whose exp is exactly 0; above log tiny
    exp(max(log, log tiny)) is exp(log).
    """
    mask = np.less(log, _LOG_TINY, out=mask)
    np.copyto(log, -np.inf, where=mask)
    np.exp(log, out=log)


def theta(params: WeightParams, t):
    """Theta(t) = [t(T-t)]^-4 for 0 < t < T; +inf at the endpoints."""
    t = np.asarray(t, dtype=float)
    prod = t * (params.T - t)
    with np.errstate(divide="ignore"):
        out = np.where(prod > 0.0, prod, np.nan) ** (-THETA_EXPONENT)
    return np.where(prod > 0.0, out, np.inf)


def _require_finite_theta(T: float, M: int) -> float:
    """log Theta at t = T/M, where Theta peaks; raise unless Theta^3, a factor of the
    weighted integrals' largest time factor (k Theta)^3, is finite there.  In logs,
    which cannot overflow."""
    t = T / M
    log_theta = -THETA_EXPONENT * (math.log(t) + math.log(T - t))
    if 3.0 * log_theta >= _LOG_MAX:
        raise ValueError(f"T={T:g} makes Theta^3 overflow at t = T/{M}")
    return log_theta


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


def log2s_phi(params: WeightParams, model, t, x):
    """2 s phi(t, x), the log of e^{2 s phi}; -inf at t in {0, T}.

    -inf is the endpoint limit Theta -> +inf with psi < 0.  A weighted
    integral whose weight underflows (large s Theta) takes its shift
    ``max 2 s phi`` out of this before exponentiating.

    ``(2s) [t(T-t)]^-4`` is formed on t's own shape and psi on x's own shape
    (psi is called once, and not at all when no time is interior); only their
    product takes the broadcast shape.  Each entry goes through
    ``((2s) * prod**-4) * psi`` with the same elementwise ufuncs on contiguous
    arrays, so the bits do not depend on the shapes t and x come in.
    """
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    prod = t * (params.T - t)
    interior = prod > 0.0
    out = np.full(np.broadcast_shapes(t.shape, x.shape), -np.inf)
    if interior.any():
        with np.errstate(divide="ignore", over="ignore"):
            scale = 2.0 * params.s * np.where(interior, prod, 1.0) ** (-THETA_EXPONENT)
            np.multiply(scale, psi(params, model, x), out=out)
        np.copyto(out, -np.inf, where=~interior)
    return out


def exp2s_phi(params: WeightParams, model, t, x):
    """e^{2 s phi(t,x)}, computed in log space; exactly 0 at t in {0, T}.

    The exponential of ``log2s_phi``, entry for entry.  Flushes to 0 whenever
    2 s phi falls below the log of the smallest positive normal, which also
    covers the endpoint limit Theta -> +inf, psi < 0.
    """
    out = log2s_phi(params, model, t, x)
    with np.errstate(over="ignore"):
        _exp_flushed(out)
    return out
