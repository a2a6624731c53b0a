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


@dataclass(frozen=True)
class HypothesisReport:
    """Verdicts of the structural checks on a coefficient model."""

    slack_max: float
    gamma_monotone_ok: bool
    theta_monotone_ok: bool
    degenerate_at_x0: bool


def check_hypotheses(model: CoefficientModel) -> HypothesisReport:
    """The structural hypotheses, exact for a = scale |x - x0|^alpha; never raises.

    (i) (x - x0) a' <= K a holds with slack alpha - K, as (x - x0) a' = alpha a;
    (ii) |x - x0|^K / a and (iii) a / |x - x0|^theta are one-sided monotone
    (nonincreasing left of x0, nondecreasing right) iff alpha <= K and theta <= alpha,
    so the constant (alpha 0) fails (iii); a vanishes at x0 iff alpha > 0.
    """
    return HypothesisReport(
        slack_max=float(model.alpha - model.K),
        gamma_monotone_ok=model.alpha <= model.K,
        theta_monotone_ok=model.theta <= model.alpha,
        degenerate_at_x0=model.alpha > 0.0,
    )
