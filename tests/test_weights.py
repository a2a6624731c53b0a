import numpy as np
import pytest
from scipy.integrate import quad

from degenpde import CoefficientModel, b_integral, c2_min, exp2s_phi, psi, theta
from degenpde.weights import (WeightParams, _require_finite_theta, carleman_weight, psi_prime,
                              theta_ddot, theta_dot)


class TestC2Min:
    def test_asymmetric_case(self):
        m = CoefficientModel.power_law(0.5, 0.3)
        assert c2_min(m) == pytest.approx(0.3904413457159019, rel=1e-14)

    def test_symmetric_case(self):
        m = CoefficientModel.power_law(1.0, 0.5)
        assert c2_min(m) == pytest.approx(0.5, rel=1e-14)

    def test_strong_degeneracy(self):
        m = CoefficientModel.power_law(1.5, 0.5)
        assert c2_min(m) == pytest.approx(1.414213562373095, rel=1e-13)

    def test_sign_of_psi_around_threshold(self):
        m = CoefficientModel.power_law(1.5, 0.5)
        bound = c2_min(m)
        x = np.linspace(0.0, 1.0, 1001)
        good = WeightParams(T=1.0, c2=bound * 1.001, s=1.0)
        assert np.all(psi(good, m, x) < 0.0)
        bad = WeightParams(T=1.0, c2=bound * 0.999, s=1.0)
        assert np.any(psi(bad, m, x) >= 0.0)


class TestWeightParams:
    def test_carleman_weight_margin(self):
        m = CoefficientModel.power_law(0.5, 0.3)
        p = carleman_weight(m, 2.0, 3.0)
        assert (p.T, p.c2, p.s) == (2.0, 1.05 * c2_min(m), 3.0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            WeightParams(T=-1.0, c2=1.0, s=1.0)
        with pytest.raises(ValueError):
            WeightParams(T=1.0, c2=1.0, s=-2.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["T", "c2", "s"])
    def test_non_finite_parameters(self, name, value):
        # each message names its parameter
        with pytest.raises(ValueError, match=rf"^{name} must be"):
            WeightParams(**{"T": 1.0, "c2": 1.0, "s": 1.0, name: value})
        if name != "c2":
            m = CoefficientModel.power_law(0.5, 0.3)
            with pytest.raises(ValueError, match=rf"^{name} must be"):
                carleman_weight(m, **{"T": 1.0, "s": 1.0, name: value})


class TestTheta:
    def test_values(self):
        p = WeightParams(T=1.0, c2=1.0, s=1.0)
        assert theta(p, 0.5) == pytest.approx(256.0, rel=1e-14)
        assert theta(p, 0.25) == pytest.approx(809.0864197530864, rel=1e-12)
        p2 = WeightParams(T=2.0, c2=1.0, s=1.0)
        assert theta(p2, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_log_peak_is_log_theta_at_first_step(self):
        for T, M in ((1.0, 400), (0.5, 40)):
            p = WeightParams(T=T, c2=1.0, s=1.0)
            assert _require_finite_theta(T, M) == pytest.approx(np.log(theta(p, T / M)),
                                                                rel=1e-13)
        with pytest.raises(ValueError, match=r"Theta\^3 overflow"):
            _require_finite_theta(1e-30, 400)

    def test_endpoints_are_infinite(self):
        p = WeightParams(T=1.0, c2=1.0, s=1.0)
        assert theta(p, 0.0) == np.inf
        assert theta(p, 1.0) == np.inf

    def test_derivatives_match_finite_differences(self):
        p = WeightParams(T=1.0, c2=1.0, s=1.0)
        eps = 1e-6
        for t in (0.2, 0.35, 0.7):
            fd1 = (theta(p, t + eps) - theta(p, t - eps)) / (2 * eps)
            assert theta_dot(p, t) == pytest.approx(fd1, rel=1e-6)
            fd2 = (theta(p, t + eps) - 2 * theta(p, t) + theta(p, t - eps)) / eps ** 2
            assert theta_ddot(p, t) == pytest.approx(fd2, rel=1e-3)
        # the midpoint is the minimum of Theta
        assert theta_dot(p, 0.5) == 0.0


class TestPsi:
    def test_closed_form_values(self):
        m = CoefficientModel.power_law(0.5, 0.3)
        p = WeightParams(T=1.0, c2=1.0, s=1.0)
        assert psi(p, m, 0.8) == pytest.approx(-0.7642977396044841, rel=1e-14)
        assert psi(p, m, 0.3) == pytest.approx(-p.c2, rel=1e-14)
        m2 = CoefficientModel.power_law(1.0, 0.5)
        p2 = WeightParams(T=1.0, c2=0.6, s=1.0)
        assert psi(p2, m2, 0.0) == pytest.approx(-0.1, rel=1e-12)

    @pytest.mark.parametrize("alpha,x0", [(0.5, 0.3), (1.0, 0.5), (1.5, 0.5)])
    def test_negative_and_bounded_below(self, alpha, x0):
        m = CoefficientModel.power_law(alpha, x0)
        p = carleman_weight(m, 1.0, 1.0)
        x = np.linspace(0.0, 1.0, 2001)
        vals = psi(p, m, x)
        assert np.all(vals < 0.0)
        assert np.all(vals >= -p.c2 - 1e-15)

    def test_b_nondecreasing_away_from_x0(self):
        m = CoefficientModel.power_law(1.5, 0.3)
        x_right = np.linspace(0.3, 1.0, 200)
        assert np.all(np.diff(b_integral(m, x_right)) >= 0.0)
        x_left = np.linspace(0.3, 0.0, 200)
        assert np.all(np.diff(b_integral(m, x_left)) >= 0.0)

    @pytest.mark.parametrize("alpha", [0.5, 1.5])
    def test_closed_form_matches_quadrature(self, alpha):
        x0 = 0.3
        m = CoefficientModel.power_law(alpha, x0)

        def integrand(y):
            return (y - x0) / np.abs(y - x0) ** alpha

        for x in (0.05, 0.31, 0.7, 1.0):
            ref, err = quad(integrand, x0, x, points=[x0], limit=200)
            assert b_integral(m, x) == pytest.approx(ref, rel=1e-8, abs=1e-12)

    def test_constant_b_is_exact_on_a_grid(self):
        # a = 2 does not vanish at x0: b = (x - x0)^2 / 4 at every node of a 200-cell grid
        m = CoefficientModel.constant(2.0, 0.5)
        x = np.linspace(0.0, 1.0, 201)
        np.testing.assert_allclose(b_integral(m, x), (x - 0.5) ** 2 / 4.0,
                                   rtol=0.0, atol=1e-15)


class TestPsiPrime:
    @pytest.mark.parametrize("m", [CoefficientModel.power_law(1.5, 0.3),
                                   CoefficientModel.constant(1.0, 0.3)],
                             ids=["power_law", "constant"])
    def test_matches_finite_difference_away_from_x0(self, m):
        p = carleman_weight(m, 1.0, 1.0)
        eps = 1e-7
        # 0.42 is off the nodes of any 0.1-spaced table: there a piecewise-linear b
        # would give its chord slope, not psi'
        for x in (0.1, 0.42, 0.5, 0.9):
            fd = (psi(p, m, x + eps) - psi(p, m, x - eps)) / (2 * eps)
            assert psi_prime(p, m, x) == pytest.approx(fd, rel=1e-6)

    def test_sign_follows_side_of_x0(self):
        m = CoefficientModel.power_law(0.5, 0.3)
        p = carleman_weight(m, 1.0, 1.0)
        assert psi_prime(p, m, 0.1) < 0.0
        assert psi_prime(p, m, 0.8) > 0.0


class TestExpWeight:
    def test_underflow_flushes_to_zero(self):
        m = CoefficientModel.power_law(0.5, 0.3)
        p = WeightParams(T=1.0, c2=1.0, s=2.0)
        # 2 s Theta(1/2) psi ~ 4*256*(-0.89) ~ -912: below log(tiny)
        assert exp2s_phi(p, m, 0.5, 0.8) == 0.0

    def test_moderate_value(self):
        m = CoefficientModel.power_law(1.0, 0.5)
        p = WeightParams(T=2.0, c2=0.7, s=1.0)
        assert exp2s_phi(p, m, 1.0, 0.0) == pytest.approx(0.6703200460356393, rel=1e-12)

    def test_zero_at_time_endpoints(self):
        m = CoefficientModel.power_law(0.5, 0.3)
        p = carleman_weight(m, 1.0, 1.0)
        x = np.linspace(0.0, 1.0, 11)
        assert np.all(exp2s_phi(p, m, np.zeros(11), x) == 0.0)
        assert np.all(exp2s_phi(p, m, np.full(11, 1.0), x) == 0.0)

    def test_monotone_decreasing_in_s(self):
        m = CoefficientModel.power_law(1.0, 0.5)
        prev = None
        for s in (0.1, 0.5, 1.0, 2.0):
            p = WeightParams(T=2.0, c2=0.6, s=s)
            val = exp2s_phi(p, m, 1.0, 0.2)
            if prev is not None:
                assert val < prev
            prev = val
