"""Diffusion coefficients a(x) that vanish at an interior point x0.

Two classes are supported: pure powers a(x) = |x - x0|^alpha and tabulated
coefficients with caller-supplied derivative samples.  The structural
requirement on every model is the one-sided bound (x - x0) a'(x) <= K a(x)
with K in (0, 2); K < 1 is the weakly degenerate regime, K in [1, 2) the
strongly degenerate one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CoefficientModel",
    "HypothesisReport",
    "check_hypotheses",
]


def _as_array(x):
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


@dataclass(frozen=True)
class CoefficientModel:
    """Degenerate diffusion coefficient on [0, 1].

    Parameters
    ----------
    x0 : degeneracy point, strictly inside (0, 1).
    kind : "power_law", "tabulated" or "constant".
    K : structural constant in (0, 2); for power laws K = alpha.
    theta : monotonicity exponent in (0, K] used by the weight machinery
        (a / |x - x0|^theta one-sided monotone).  Defaults to K.
    """

    x0: float
    kind: str
    K: float
    theta: float
    alpha: float | None = None
    nodes: np.ndarray | None = field(default=None, repr=False)
    a_values: np.ndarray | None = field(default=None, repr=False)
    a_prime_values: np.ndarray | None = field(default=None, repr=False)
    degenerate: bool = True

    # -- constructors -----------------------------------------------------

    @classmethod
    def power_law(cls, alpha: float, x0: float, theta: float | None = None):
        """a(x) = |x - x0|^alpha with 0 < alpha < 2."""
        if not 0.0 < alpha < 2.0:
            raise ValueError(f"alpha must lie in (0, 2), got {alpha}")
        if not 0.0 < x0 < 1.0:
            raise ValueError(f"x0 must lie strictly in (0, 1), got {x0}")
        theta = alpha if theta is None else theta
        if not 0.0 < theta <= alpha:
            raise ValueError(f"theta must lie in (0, K], got {theta} with K={alpha}")
        return cls(x0=x0, kind="power_law", K=alpha, theta=theta, alpha=alpha)

    @classmethod
    def tabulated(cls, nodes, a_values, a_prime_values, x0: float,
                  K: float, theta: float | None = None):
        """Piecewise-linear a with caller-supplied derivative samples.

        Derivative samples are required rather than differenced from the
        table: the structural checks are sign-sensitive and numerical
        differentiation of the table would produce spurious failures.
        """
        nodes = np.asarray(nodes, dtype=float)
        a_values = np.asarray(a_values, dtype=float)
        a_prime_values = np.asarray(a_prime_values, dtype=float)
        if not (nodes.shape == a_values.shape == a_prime_values.shape):
            raise ValueError("nodes, a_values and a_prime_values must have equal shapes")
        if nodes[0] != 0.0 or nodes[-1] != 1.0 or np.any(np.diff(nodes) <= 0):
            raise ValueError("nodes must increase strictly from 0 to 1")
        if not 0.0 < x0 < 1.0:
            raise ValueError(f"x0 must lie strictly in (0, 1), got {x0}")
        if not 0.0 < K < 2.0:
            raise ValueError(f"K must lie in (0, 2), got {K}")
        if np.any(a_values < 0.0):
            raise ValueError("a must be nonnegative on [0, 1]")
        theta = K if theta is None else theta
        if not 0.0 < theta <= K:
            raise ValueError(f"theta must lie in (0, K], got {theta} with K={K}")
        degenerate = abs(np.interp(x0, nodes, a_values)) < 1e-14
        return cls(x0=x0, kind="tabulated", K=K, theta=theta,
                   nodes=nodes, a_values=a_values,
                   a_prime_values=a_prime_values, degenerate=degenerate)

    @classmethod
    def constant(cls, value: float = 1.0, x0: float = 0.5, n: int = 11):
        """Non-degenerate sanity coefficient a = value (solver benchmarks)."""
        if value <= 0.0:
            raise ValueError(f"constant coefficient must be positive, got {value}")
        nodes = np.linspace(0.0, 1.0, n)
        return cls(x0=x0, kind="constant", K=0.5, theta=0.5,
                   nodes=nodes, a_values=np.full(n, float(value)),
                   a_prime_values=np.zeros(n), degenerate=False)

    # -- evaluation -------------------------------------------------------

    def eval_a(self, x):
        """Evaluate a(x) for x in [0, 1]; vectorized."""
        arr, scalar = _as_array(x)
        if np.any(arr < 0.0) or np.any(arr > 1.0):
            raise ValueError(f"x outside [0, 1]: {x}")
        if self.kind == "power_law":
            out = np.abs(arr - self.x0) ** self.alpha
        else:
            out = np.interp(arr, self.nodes, self.a_values)
        return float(out) if scalar else out

    def eval_xa_prime(self, x):
        """Evaluate (x - x0) a'(x), extended by its limit 0 at x = x0.

        For power laws this is alpha * a(x) exactly; the combination stays
        bounded even where a' itself blows up (alpha < 1).
        """
        arr, scalar = _as_array(x)
        if self.kind == "power_law":
            out = self.alpha * self.eval_a(arr if not scalar else float(arr))
            return out
        at_x0 = np.isclose(arr, self.x0, rtol=0.0, atol=1e-14)
        d = np.where(at_x0, 0.0, arr - self.x0)
        ap = np.interp(arr, self.nodes, self.a_prime_values)
        out = np.where(at_x0, 0.0, d * ap)
        return float(out) if scalar else out


@dataclass(frozen=True)
class HypothesisReport:
    """Verdicts of the structural checks on a coefficient model."""

    slack_max: float
    slack_tol: float
    slack_ok: bool
    gamma_monotone_ok: bool
    theta_monotone_ok: bool
    degenerate_at_x0: bool


def _sided_monotone(x: np.ndarray, vals: np.ndarray, x0: float, tol: float):
    """Check nonincreasing left of x0 / nondecreasing right of x0.

    Returns (ok, failure_interval).  The scale-relative tolerance absorbs
    interpolation noise in tabulated models.
    """
    scale = np.max(np.abs(vals)) if vals.size else 1.0
    atol = tol * max(scale, 1.0)
    left = x < x0
    right = x > x0
    for side, mask in (("left", left), ("right", right)):
        xs, vs = x[mask], vals[mask]
        if xs.size < 2:
            continue
        dv = np.diff(vs)
        bad = dv > atol if side == "left" else dv < -atol
        if np.any(bad):
            k = int(np.argmax(bad))
            return False, (float(xs[k]), float(xs[k + 1]))
    return True, None


def check_hypotheses(model: CoefficientModel, grid) -> HypothesisReport:
    """Verify the structural hypotheses on the sample points of a grid.

    Checks, pointwise away from x0:
      (i)   (x - x0) a' / a <= K + tol,
      (ii)  |x - x0|^K / a one-sided monotone (decreasing left, increasing right),
      (iii) a / |x - x0|^theta one-sided monotone the same way.

    Violations are reported in the returned record, never raised.
    """
    slack_tol = 1e-12 if model.kind == "power_law" else 1e-9
    x = grid.x
    off = ~np.isclose(x, model.x0, rtol=0.0, atol=1e-14)
    xs = x[off]
    a = model.eval_a(xs)
    xap = model.eval_xa_prime(xs)
    good = a > 0.0
    slack = np.max(xap[good] / a[good] - model.K) if np.any(good) else np.inf
    slack_ok = slack <= slack_tol

    d = np.abs(xs - model.x0)
    with np.errstate(divide="ignore"):
        gamma_vals = np.where(good, d ** model.K / np.where(good, a, 1.0), np.inf)
        theta_vals = np.where(good, a / d ** model.theta, 0.0)
    mono_tol = 0.0 if model.kind == "power_law" else 1e-9
    gamma_ok, _ = _sided_monotone(xs[good], gamma_vals[good], model.x0, mono_tol)
    theta_ok, _ = _sided_monotone(xs[good], theta_vals[good], model.x0, mono_tol)

    try:
        a_x0 = model.eval_a(model.x0)
    except ValueError:
        a_x0 = np.nan
    degenerate_at_x0 = bool(abs(a_x0) < 1e-14)
    return HypothesisReport(
        slack_max=float(slack),
        slack_tol=float(slack_tol),
        slack_ok=bool(slack_ok),
        gamma_monotone_ok=bool(gamma_ok),
        theta_monotone_ok=bool(theta_ok),
        degenerate_at_x0=degenerate_at_x0,
    )
