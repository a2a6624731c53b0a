import numpy as np
import pytest

from degenpde import (CoefficientModel, Field, HardyWeight, PotentialModel,
                      SpaceTimeGrid, caccioppoli_check, carleman_identity_check,
                      carleman_scan, hp_verify, manufactured_adjoint_pair)
from degenpde.inequalities import default_s_values
from degenpde.weights import WeightParams


def space_grid(x0, N=1000):
    return SpaceTimeGrid.create(N, 1, 1.0, x0)


class TestHardyPoincare:
    def test_paper_bound(self):
        assert HardyWeight.pure_power(1.5, 0.3).paper_bound() == pytest.approx(16.0)
        assert HardyWeight.pure_power(1.2, 0.5).paper_bound() == pytest.approx(100.0)

    def test_q_range(self):
        with pytest.raises(ValueError):
            HardyWeight.pure_power(1.0, 0.3)
        with pytest.raises(ValueError):
            HardyWeight.pure_power(2.0, 0.3)

    def test_coefficient_weight_exponent(self):
        m = CoefficientModel.power_law(0.5, 0.3)
        w = HardyWeight.from_coefficient(m)
        assert w.q == pytest.approx(1.5, rel=1e-14)
        assert w.p(0.3) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("q,x0", [(1.2, 0.3), (1.5, 0.3), (1.8, 0.5)])
    def test_rayleigh_and_battery(self, q, x0):
        w = HardyWeight.pure_power(q, x0)
        rep = hp_verify(w, space_grid(x0))
        assert rep.rayleigh_estimate <= rep.paper_bound * 1.05
        assert rep.battery_max_ratio <= rep.rayleigh_estimate * 1.02
        assert np.all(rep.battery_ratios >= 0.0)

    def test_supported_away_from_x0_oracle(self):
        # direct quadrature on fixed profiles supported in (x0 + delta, 1)
        q, x0, delta = 1.5, 0.3, 0.2
        bound = HardyWeight.pure_power(q, x0).paper_bound()
        x = np.linspace(0.0, 1.0, 200001)
        mask = (x > x0 + delta) & (x < 1.0)
        for profile in (
            lambda y: np.sin(np.pi * (y - x0 - delta) / (1.0 - x0 - delta)),
            lambda y: (y - x0 - delta) * (1.0 - y),
            lambda y: ((y - x0 - delta) * (1.0 - y)) ** 2,
        ):
            w = np.where(mask, profile(x), 0.0)
            wp = np.gradient(w, x)
            p = np.abs(x - x0) ** q
            num = np.trapezoid(p / (x - x0) ** 2 * w ** 2, x)
            den = np.trapezoid(p * wp ** 2, x)
            assert num / den <= bound * 1.05

    def test_non_monotone_weight_rejected(self):
        w = HardyWeight(p=lambda x: np.abs(np.asarray(x) - 0.5) ** 1.5
                        * (1.0 + 0.5 * np.sin(20.0 * np.asarray(x))),
                        q=1.5, x0=0.5)
        with pytest.raises(ValueError):
            hp_verify(w, space_grid(0.5, N=500))

    def test_coefficient_preset_verifies(self):
        m = CoefficientModel.power_law(0.5, 0.3)
        w = HardyWeight.from_coefficient(m)
        rep = hp_verify(w, space_grid(0.3))
        assert rep.rayleigh_estimate <= w.paper_bound() * 1.05


def identity_profile(T, x0, kappa=5):
    return lambda t, x: (t * (T - t)) ** kappa * (x - x0) ** 2 * x * (1.0 - x)


class TestCarlemanIdentity:
    def test_residual_shrinks_under_refinement(self):
        m = CoefficientModel.power_law(0.5, 0.3)
        T = 1.0
        params = WeightParams.for_model(m, T=T, s=1.0)
        residuals = []
        for N, M in ((100, 200), (200, 400)):
            g = SpaceTimeGrid.create(N, M, T, 0.3)
            w = Field.from_function(g, identity_profile(T, 0.3))
            rep = carleman_identity_check(m, params, g, w)
            residuals.append(rep.residual)
        assert residuals[1] < 5e-2
        assert residuals[0] / residuals[1] >= 3.0

    def test_s_zero_identity_is_trivial(self):
        # at s = 0 both sides collapse to int (a w_x)_x w_t = 0 for w
        # vanishing at t = 0, T; check absolute agreement at the s = 1 scale
        m = CoefficientModel.power_law(0.5, 0.3)
        T = 1.0
        g = SpaceTimeGrid.create(100, 200, T, 0.3)
        w = Field.from_function(g, identity_profile(T, 0.3))
        scale = abs(carleman_identity_check(
            m, WeightParams.for_model(m, T=T, s=1.0), g, w).lhs)
        rep = carleman_identity_check(m, WeightParams.for_model(m, T=T, s=0.0), g, w)
        assert abs(rep.lhs) < 1e-12 * scale
        assert abs(rep.rhs) < 1e-12 * scale

    def test_rejects_nonvanishing_profiles(self):
        m = CoefficientModel.power_law(0.5, 0.3)
        g = SpaceTimeGrid.create(50, 50, 1.0, 0.3)
        params = WeightParams.for_model(m, T=1.0, s=1.0)
        bad_space = Field.from_function(g, lambda t, x: (t * (1 - t)) ** 5 * (x + 0.1))
        with pytest.raises(ValueError):
            carleman_identity_check(m, params, g, bad_space)
        bad_time = Field.from_function(g, lambda t, x: x * (1 - x))
        with pytest.raises(ValueError):
            carleman_identity_check(m, params, g, bad_time)


def scan_profile(T, x0):
    return lambda t, x: t * (T - t) * (x - x0) ** 2 * x * (1.0 - x)


class TestCarlemanScan:
    def make_scan(self, cval=0.0, N=100, T=2.0, x0=0.3, alpha=0.5):
        m = CoefficientModel.power_law(alpha, x0)
        g = SpaceTimeGrid.create(N, 2 * N, T, x0)
        pot = PotentialModel.zero() if cval == 0.0 else PotentialModel.constant(cval)
        params = WeightParams.for_model(m, T=T, s=1.0)
        v, h = manufactured_adjoint_pair(m, pot, g, scan_profile(T, x0))
        return m, params, pot, g, v, h

    def test_default_s_values_geometric(self):
        s = default_s_values(5, 1.0, 1.5)
        np.testing.assert_allclose(s, [1.0, 1.5, 2.25, 3.375, 5.0625], rtol=1e-14)

    def test_ratios_finite_and_tail_nonincreasing(self):
        m, params, pot, g, v, h = self.make_scan()
        rep = carleman_scan(m, params, g, v, h)
        assert np.all(np.isfinite(rep.ratios))
        assert not rep.nonpositive_rhs
        tail = rep.ratios[rep.s_values >= rep.s0_observed]
        assert np.all(tail[1:] <= tail[:-1] * 1.05)

    def test_scaling_invariance(self):
        m, params, pot, g, v, h = self.make_scan()
        rep1 = carleman_scan(m, params, g, v, h)
        v3 = Field(g, 3.0 * v.values)
        h3 = Field(g, 3.0 * h.values)
        rep2 = carleman_scan(m, params, g, v3, h3)
        np.testing.assert_allclose(rep2.ratios, rep1.ratios, rtol=1e-12)

    def test_potential_absorbed(self):
        _, params, _, _, _, _ = self.make_scan()
        reps = {}
        for cval in (0.0, 1.0):
            m, params, pot, g, v, h = self.make_scan(cval=cval)
            reps[cval] = carleman_scan(m, params, g, v, h)
        assert np.isfinite(reps[1.0].fitted_C)
        assert reps[1.0].fitted_C <= 4.0 * reps[0.0].fitted_C
        assert reps[0.0].fitted_C <= 4.0 * reps[1.0].fitted_C

    def test_manufactured_pair_is_discrete_solution(self):
        m, params, pot, g, v, h = self.make_scan()
        from degenpde.grid import assemble_operator
        from degenpde.inequalities import _derivative, _div_a_grad
        op = assemble_operator(m, g)
        res = _derivative(v.values, g.dt, axis=0) + _div_a_grad(op, v.values) - h.values
        assert np.max(np.abs(res)) < 1e-10

    @pytest.mark.parametrize("M", [100, 400])    # fewer and more time levels than g.M = 200
    def test_manufactured_pair_rejects_potential_from_another_grid(self, M):
        m, _, _, g, _, _ = self.make_scan()
        pot = PotentialModel.sampled(Field.zeros(SpaceTimeGrid.create(g.N, M, g.T, g.x0)))
        with pytest.raises(ValueError, match=rf"\({M + 1}, 101\).*\(201, 101\)"):
            manufactured_adjoint_pair(m, pot, g, scan_profile(g.T, g.x0))

    def test_derivative_matches_stencil_on_each_axis(self):
        from degenpde.inequalities import _derivative
        values = np.random.default_rng(3).standard_normal((9, 12))

        def reference(v, step):    # the stencil along the first axis
            out = np.empty_like(v)
            out[1:-1] = (v[2:] - v[:-2]) / (2.0 * step)
            out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * step)
            out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * step)
            return out

        np.testing.assert_array_equal(_derivative(values, 0.1, axis=0),
                                      reference(values, 0.1))
        np.testing.assert_array_equal(_derivative(values, 0.3, axis=1),
                                      reference(values.T, 0.3).T)


class TestCaccioppoli:
    def setup_field(self, N=100, T=2.0):
        from degenpde import assemble_operator, dirichlet_eigenmodes, solve_adjoint
        m = CoefficientModel.power_law(0.5, 0.3)
        g = SpaceTimeGrid.create(N, 2 * N, T, 0.3)
        op = assemble_operator(m, g)
        _, modes = dirichlet_eigenmodes(op, 1)
        v = solve_adjoint(m, PotentialModel.zero(), g, modes[0])
        return m, g, v

    def test_geometry_validation(self):
        m, g, v = self.setup_field(N=50)
        params = WeightParams.for_model(m, T=2.0, s=1.0)
        with pytest.raises(ValueError):
            caccioppoli_check(m, params, g, v, (0.1, 0.6), (0.2, 0.5))
        with pytest.raises(ValueError):
            caccioppoli_check(m, params, g, v, (0.25, 0.45), (0.2, 0.5))

    def test_ratio_finite_and_stable(self):
        params_s = [1.0, 2.0, 4.0]
        ratios = {}
        for N in (100, 200):
            m, g, v = self.setup_field(N=N)
            for s in params_s:
                params = WeightParams.for_model(m, T=2.0, s=s)
                rep = caccioppoli_check(m, params, g, v, (0.35, 0.45), (0.2, 0.5))
                ratios.setdefault(s, []).append(rep.ratio)
        for s, (r1, r2) in ratios.items():
            assert np.isfinite(r1) and r1 > 0.0
            assert abs(r2 - r1) / r1 < 0.2
