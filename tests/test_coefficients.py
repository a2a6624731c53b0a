import numpy as np
import pytest

from degenpde import CoefficientModel, SpaceTimeGrid, check_hypotheses


def grid_for(x0, N=1000):
    return SpaceTimeGrid.create(N, 1, 1.0, x0)


def all_hold(rep):
    return (rep.slack_ok and rep.gamma_monotone_ok
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
        assert not m.degenerate


class TestEvalAPrime:
    def test_xa_prime_equals_alpha_a(self):
        m = CoefficientModel.power_law(0.75, 0.3)
        x = np.linspace(0.0, 1.0, 501)
        np.testing.assert_allclose(m.eval_xa_prime(x), 0.75 * m.eval_a(x), rtol=1e-14)


class TestConstruction:
    @pytest.mark.parametrize("alpha", [0.0, 2.0, 2.5, -0.5])
    def test_alpha_out_of_range(self, alpha):
        with pytest.raises(ValueError):
            CoefficientModel.power_law(alpha, 0.3)

    @pytest.mark.parametrize("x0", [0.0, 1.0, -0.2, 1.5])
    def test_x0_out_of_range(self, x0):
        with pytest.raises(ValueError):
            CoefficientModel.power_law(0.5, x0)

    def test_theta_range(self):
        with pytest.raises(ValueError):
            CoefficientModel.power_law(0.5, 0.3, theta=0.7)
        m = CoefficientModel.power_law(0.5, 0.3, theta=0.25)
        assert m.theta == 0.25

    def test_tabulated_shape_mismatch(self):
        with pytest.raises(ValueError):
            CoefficientModel.tabulated([0.0, 0.5, 1.0], [1.0, 0.0], [0.0, 0.0, 0.0],
                                       x0=0.5, K=1.0)


class TestCheckHypotheses:
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75, 1.0, 1.5, 1.9])
    def test_equality_slack(self, alpha):
        m = CoefficientModel.power_law(alpha, 0.3)
        rep = check_hypotheses(m, grid_for(0.3))
        assert abs(rep.slack_max) < 1e-12
        assert all_hold(rep)

    def test_degeneracy_classes(self):
        wd = check_hypotheses(CoefficientModel.power_law(0.5, 0.3), grid_for(0.3))
        sd = check_hypotheses(CoefficientModel.power_law(1.5, 0.5), grid_for(0.5))
        assert all_hold(wd) and all_hold(sd)

    def test_tabulated_bump_breaks_theta_monotonicity(self):
        # a = |x-0.5|^0.5 plus a smooth bump near 0.7; the quotient
        # a/|x-0.5|^0.5 rises then falls right of x0
        nodes = np.linspace(0.0, 1.0, 2001)
        r = nodes - 0.5
        bump = 0.05 * np.exp(-200.0 * (nodes - 0.7) ** 2)
        bump_prime = -400.0 * (nodes - 0.7) * bump
        a = np.abs(r) ** 0.5 + bump
        with np.errstate(divide="ignore", invalid="ignore"):
            a_prime = np.where(r == 0.0, 0.0,
                               0.5 * np.abs(r) ** (-0.5) * np.sign(r) + bump_prime)
        m = CoefficientModel.tabulated(nodes, a, a_prime, x0=0.5, K=0.5)
        rep = check_hypotheses(m, grid_for(0.5, N=2000))
        assert not rep.theta_monotone_ok

    def test_verdicts_stable_under_refinement(self):
        for alpha in (0.5, 1.5):
            m = CoefficientModel.power_law(alpha, 0.3)
            r1 = check_hypotheses(m, grid_for(0.3, N=500))
            r2 = check_hypotheses(m, grid_for(0.3, N=1000))
            assert (r1.gamma_monotone_ok, r1.theta_monotone_ok) == \
                   (r2.gamma_monotone_ok, r2.theta_monotone_ok)

    def test_constant_not_degenerate_at_x0(self):
        rep = check_hypotheses(CoefficientModel.constant(1.0, 0.5), grid_for(0.5))
        assert not rep.degenerate_at_x0
