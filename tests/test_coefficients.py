import numpy as np
import pytest

from degenpde import CoefficientModel, check_hypotheses


def all_hold(rep):
    return (rep.slack_max <= 0.0 and rep.gamma_monotone_ok
            and rep.theta_monotone_ok and rep.degenerate_at_x0)


class TestEvalA:
    def test_power_law_values(self):
        m = CoefficientModel.power_law(0.5, 0.3)
        assert m.eval_a(0.8) == pytest.approx(0.7071067811865476, rel=1e-14)
        assert m.eval_a(0.0) == pytest.approx(0.5477225575051661, rel=1e-14)

    def test_vanishes_exactly_at_x0(self):
        m = CoefficientModel.power_law(1.5, 0.3)
        assert m.eval_a(0.3) == 0.0
        x = np.linspace(0.0, 1.0, 101)
        a = m.eval_a(x)
        assert np.all(a[x != 0.3] > 0.0)

    def test_domain_error(self):
        m = CoefficientModel.power_law(0.5, 0.3)
        with pytest.raises(ValueError):
            m.eval_a(1.2)
        with pytest.raises(ValueError):
            m.eval_a(-0.1)

    def test_constant_model(self):
        m = CoefficientModel.constant(2.5, 0.5)
        assert m.eval_a(0.5) == 2.5


class TestConstruction:
    @pytest.mark.parametrize("alpha", [0.0, 2.0, 2.5, -0.5])
    def test_alpha_out_of_range(self, alpha):
        with pytest.raises(ValueError):
            CoefficientModel.power_law(alpha, 0.3)

    @pytest.mark.parametrize("value", [0.0, -1.0, np.inf, np.nan])
    def test_constant_value_out_of_range(self, value):
        with pytest.raises(ValueError):
            CoefficientModel.constant(value, 0.3)

    @pytest.mark.parametrize("x0", [0.0, 1.0, -0.2, 1.5])
    def test_x0_out_of_range(self, x0):
        with pytest.raises(ValueError):
            CoefficientModel.power_law(0.5, x0)
        with pytest.raises(ValueError):
            CoefficientModel.constant(1.0, x0)

    def test_theta_range(self):
        with pytest.raises(ValueError):
            CoefficientModel.power_law(0.5, 0.3, theta=0.7)
        m = CoefficientModel.power_law(0.5, 0.3, theta=0.25)
        assert m.theta == 0.25


class TestCheckHypotheses:
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75, 1.0, 1.5, 1.9])
    def test_equality_slack(self, alpha):
        # (x - x0) a' = alpha a = K a exactly, so the slack is exactly 0
        rep = check_hypotheses(CoefficientModel.power_law(alpha, 0.3))
        assert rep.slack_max == 0.0
        assert all_hold(rep)

    def test_degeneracy_classes(self):
        wd = check_hypotheses(CoefficientModel.power_law(0.5, 0.3))
        sd = check_hypotheses(CoefficientModel.power_law(1.5, 0.5))
        assert all_hold(wd) and all_hold(sd)

    def test_theta_below_alpha(self):
        # a / |x - x0|^theta = |x - x0|^(alpha - theta) rises away from x0
        rep = check_hypotheses(CoefficientModel.power_law(1.5, 0.3, theta=0.5))
        assert rep.theta_monotone_ok
        assert all_hold(rep)

    def test_constant_not_degenerate_at_x0(self):
        rep = check_hypotheses(CoefficientModel.constant(1.0, 0.5))
        assert not rep.degenerate_at_x0
        # (x - x0) a' = 0, so the slack is 0 - K; a / |x - x0|^0.5 rises toward x0
        # from the left, so hypothesis (iii) fails while (ii) holds
        assert rep.slack_max == -0.5
        assert rep.gamma_monotone_ok
        assert not rep.theta_monotone_ok
