"""Diffusion coefficients a(x) = scale * |x - x0|^alpha on [0, 1].

Every model is this one closed form.  A power law has scale 1 and alpha in
(0, 2), so it vanishes at the interior point x0; the constant coefficient
a = value is alpha 0 with scale value, a non-degenerate sanity case.  The
structural requirement on every model is the one-sided bound
(x - x0) a'(x) <= K a(x) with K in (0, 2); K < 1 is the weakly degenerate
regime, K in [1, 2) the strongly degenerate one.  For the closed form
(x - x0) a' = alpha a exactly, so the bound holds with slack alpha - K.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "CoefficientModel",
    "HypothesisReport",
    "check_hypotheses",
]


@dataclass(frozen=True)
class CoefficientModel:
    """Diffusion coefficient a(x) = scale * |x - x0|^alpha on [0, 1].

    Parameters
    ----------
    x0 : degeneracy point (a vanishes there when alpha > 0), strictly inside (0, 1).
    K : structural constant in (0, 2); for power laws K = alpha.
    theta : monotonicity exponent in (0, K] used by the weight machinery
        (a / |x - x0|^theta one-sided monotone).  Defaults to K.
    alpha : exponent, in (0, 2) for power laws and 0 for the constant.
    scale : positive factor, 1 for power laws and the value for the constant.
    """

    x0: float
    K: float
    theta: float
    alpha: float
    scale: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.x0 < 1.0:
            raise ValueError(f"x0 must lie strictly in (0, 1), got {self.x0}")

    # -- constructors -----------------------------------------------------

    @classmethod
    def power_law(cls, alpha: float, x0: float, theta: float | None = None):
        """a(x) = |x - x0|^alpha with 0 < alpha < 2."""
        if not 0.0 < alpha < 2.0:
            raise ValueError(f"alpha must lie in (0, 2), got {alpha}")
        theta = alpha if theta is None else theta
        if not 0.0 < theta <= alpha:
            raise ValueError(f"theta must lie in (0, K], got {theta} with K={alpha}")
        return cls(x0=x0, K=alpha, theta=theta, alpha=alpha)

    @classmethod
    def constant(cls, value: float = 1.0, x0: float = 0.5):
        """Non-degenerate sanity coefficient a = value, with K = theta = 0.5."""
        if not 0.0 < value < np.inf:
            raise ValueError(f"constant coefficient must be positive and finite, got {value}")
        return cls(x0=x0, K=0.5, theta=0.5, alpha=0.0, scale=float(value))

    # -- evaluation -------------------------------------------------------

    def eval_a(self, x):
        """Evaluate a(x) for x in [0, 1], elementwise; a scalar x gives a 0-d result."""
        x = np.asarray(x, dtype=float)
        if np.any(x < 0.0) or np.any(x > 1.0):
            raise ValueError(f"x outside [0, 1]: {x}")
        return self.scale * np.abs(x - self.x0) ** self.alpha

    def eval_xa_prime(self, x):
        """Evaluate (x - x0) a'(x) = alpha a(x), extended by its limit 0 at x = x0.

        The combination stays bounded even where a' itself blows up (alpha < 1).
        """
        return self.alpha * self.eval_a(x)


@dataclass(frozen=True)
class HypothesisReport:
    """Verdicts of the structural checks on a coefficient model."""

    slack_max: float
    slack_tol: float
    gamma_monotone_ok: bool
    theta_monotone_ok: bool
    degenerate_at_x0: bool


def _sided_monotone(x: np.ndarray, vals: np.ndarray, x0: float) -> bool:
    """Whether vals is nonincreasing left of x0 and nondecreasing right of x0."""
    left, right = np.diff(vals[x < x0]), np.diff(vals[x > x0])
    return not (np.any(left > 0.0) or np.any(right < 0.0))


def _hypothesis_slack(model: CoefficientModel, x: np.ndarray, a: np.ndarray, xap: np.ndarray):
    """(slack, measured): (x - x0) a'/a - K of hypothesis (i) where measured, else 0.

    The slack is measured away from x0 where a > 0; a and xap sample a and (x - x0) a'.
    """
    measured = ~np.isclose(x, model.x0, rtol=0.0, atol=1e-14) & (a > 0.0)
    return np.where(measured, xap / np.where(measured, a, 1.0) - model.K, 0.0), measured


def check_hypotheses(model: CoefficientModel, grid) -> HypothesisReport:
    """Verify the structural hypotheses on the sample points of a grid.

    Checks, pointwise away from x0:
      (i)   (x - x0) a' / a <= K + tol,
      (ii)  |x - x0|^K / a one-sided monotone (decreasing left, increasing right),
      (iii) a / |x - x0|^theta one-sided monotone the same way.

    Violations are reported in the returned record, never raised.  For the
    closed form the answers are known analytically: the slack is alpha - K at
    every point (0 for a power law), and (ii) and (iii) hold iff
    theta <= alpha <= K, so the constant (alpha 0) fails (iii).
    """
    x = grid.x
    off = ~np.isclose(x, model.x0, rtol=0.0, atol=1e-14)
    xs = x[off]
    a = model.eval_a(xs)
    slacks, good = _hypothesis_slack(model, xs, a, model.eval_xa_prime(xs))
    slack = np.max(slacks[good]) if np.any(good) else np.inf

    d = np.abs(xs - model.x0)
    with np.errstate(divide="ignore"):
        gamma_vals = np.where(good, d ** model.K / np.where(good, a, 1.0), np.inf)
        theta_vals = np.where(good, a / d ** model.theta, 0.0)
    gamma_ok = _sided_monotone(xs[good], gamma_vals[good], model.x0)
    theta_ok = _sided_monotone(xs[good], theta_vals[good], model.x0)
    degenerate_at_x0 = bool(abs(model.eval_a(model.x0)) < 1e-14)
    return HypothesisReport(
        slack_max=float(slack),
        slack_tol=1e-12,
        gamma_monotone_ok=gamma_ok,
        theta_monotone_ok=theta_ok,
        degenerate_at_x0=degenerate_at_x0,
    )
