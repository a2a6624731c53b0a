import random

import numpy as np
import pytest

from degenpde import (CoefficientModel, Field, HardyWeight, PotentialModel,
                      SpaceTimeGrid, caccioppoli_check, carleman_identity_check,
                      carleman_scan, hp_verify, manufactured_adjoint_pair)
from degenpde.inequalities import _hp_energy, _hp_matrices, default_s_values


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
        assert w.gamma == pytest.approx(1.5, rel=1e-14)
        w = HardyWeight.from_coefficient(CoefficientModel.power_law(1.5, 0.3, theta=0.5))
        assert w.q == pytest.approx(1.5, rel=1e-14)
        assert w.gamma == pytest.approx(5.5 / 3.0, rel=1e-14)

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
        # p/|x-x0|^q = |x-x0|^(gamma-q) decreases right of x0 when gamma < q
        with pytest.raises(ValueError, match="not one-sided monotone"):
            HardyWeight(q=1.5, x0=0.5, gamma=1.4)
        with pytest.raises(ValueError, match="not one-sided monotone"):
            HardyWeight.from_coefficient(CoefficientModel.constant(1.0, 0.5))
        HardyWeight(q=1.5, x0=0.5, gamma=1.5)

    @pytest.mark.parametrize("alpha, theta", [(1.5, 0.5), (1.0, 0.2)])
    def test_coefficient_rayleigh_independent_of_theta(self, alpha, theta):
        # p = (a |x-x0|^4)^(1/3) does not depend on theta, so neither do its matrices
        grid = space_grid(0.3, N=200)
        same, below = (hp_verify(HardyWeight.from_coefficient(
            CoefficientModel.power_law(alpha, 0.3, theta=th)), grid).rayleigh_estimate
            for th in (alpha, theta))
        assert below == same

    def test_coefficient_preset_verifies(self):
        m = CoefficientModel.power_law(0.5, 0.3)
        w = HardyWeight.from_coefficient(m)
        rep = hp_verify(w, space_grid(0.3))
        assert rep.rayleigh_estimate <= w.paper_bound() * 1.05

    @pytest.mark.parametrize("N, q, x0", [(400, 1.5, 0.3), (700, 1.5, 0.3), (14, 1.2, 0.5),
                                          (1000, 1.8, 0.5), (1400, 1.2, 0.5)])
    def test_battery_is_the_hat_function_interpolant(self, N, q, x0):
        # each member rebuilt as a sum of hat functions on the knots j/7; when 7
        # divides N the knots are the nodes N/7 * j, otherwise some fall between nodes
        weight, grid = HardyWeight.pure_power(q, x0), space_grid(x0, N=N)
        rep = hp_verify(weight, grid, battery_size=20, seed=3)
        k_diag, k_off, m = _hp_matrices(weight, grid)
        hats = np.maximum(0.0, 1.0 - np.abs(7.0 * grid.x[:, None] - np.arange(8.0)))
        step, rem = divmod(grid.N, 7)
        rng = random.Random(3)
        expected = []
        for _ in range(20):
            vals = np.array([0.0, *(rng.uniform(-1.0, 1.0) for _ in range(6)), 0.0])
            w = hats @ vals
            if rem == 0:
                np.testing.assert_allclose(w[::step], vals, rtol=0.0, atol=1e-14)
            assert w[0] == 0.0 and w[-1] == 0.0
            wi = w[1:-1]
            expected.append(np.dot(m * wi, wi) / _hp_energy(k_diag, k_off, wi))
        np.testing.assert_allclose(rep.battery_ratios, expected, rtol=1e-10, atol=0.0)

    def test_battery_follows_its_seed(self):
        weight, grid = HardyWeight.pure_power(1.5, 0.3), space_grid(0.3, N=200)
        first, again, other = (hp_verify(weight, grid, battery_size=5, seed=s).battery_ratios
                               for s in (4, 4, 5))
        np.testing.assert_array_equal(first, again)
        assert np.all(first != other)

    def test_empty_battery(self):
        rep = hp_verify(HardyWeight.pure_power(1.5, 0.3), space_grid(0.3, N=200),
                        battery_size=0)
        assert rep.battery_ratios.size == 0 and rep.battery_max_ratio == 0.0

    @pytest.mark.parametrize("q, x0", [(1.2, 0.3), (1.5, 0.5), (1.8, 0.3)])
    def test_matrices_are_the_cell_integrals(self, q, x0):
        # stiffness from the cell averages of p, lumped mass from p/r^2 over the
        # half-cells around each interior node, both by adaptive quadrature
        from scipy.integrate import quad

        weight, grid = HardyWeight.pure_power(q, x0), space_grid(x0, N=40)
        k_diag, k_off, m = _hp_matrices(weight, grid)
        x, h = grid.x, grid.h

        def integral(e, a, b):
            # the integral of |y - x0|^e over [a, b], split at x0; a piece ending at
            # x0 goes to quad's algebraic end-point weight, since r^e is singular for e < 0
            cuts = [a, *([x0] if a < x0 < b else []), b]
            total = 0.0
            for lo, hi in zip(cuts[:-1], cuts[1:]):
                if abs(lo - x0) < 1e-12 or abs(hi - x0) < 1e-12:
                    wvar = (e, 0.0) if abs(lo - x0) < 1e-12 else (0.0, e)
                    total += quad(lambda y: 1.0, lo, hi, weight="alg", wvar=wvar)[0]
                else:
                    total += quad(lambda y: abs(y - x0) ** e, lo, hi,
                                  epsabs=0.0, epsrel=1e-12)[0]
            return total

        p_cell = np.array([integral(q, a, b) / h for a, b in zip(x[:-1], x[1:])])
        mass = np.array([integral(q - 2.0, xi - h / 2, xi + h / 2) for xi in x[1:-1]])
        np.testing.assert_allclose(k_diag, (p_cell[:-1] + p_cell[1:]) / h, rtol=1e-9)
        np.testing.assert_allclose(k_off, -p_cell[1:-1] / h, rtol=1e-9)
        np.testing.assert_allclose(m, mass, rtol=1e-9)

    @pytest.mark.parametrize("q, x0", [(1.2, 0.3), (1.5, 0.5), (1.8, 0.3)])
    def test_rayleigh_is_the_dense_pencil_constant(self, q, x0):
        # 1 / smallest eigenvalue of the dense generalized pair K w = lambda M w
        from scipy.linalg import eigh

        weight, grid = HardyWeight.pure_power(q, x0), space_grid(x0, N=200)
        k_diag, k_off, m = _hp_matrices(weight, grid)
        stiff = np.diag(k_diag) + np.diag(k_off, 1) + np.diag(k_off, -1)
        lam = eigh(stiff, np.diag(m), eigvals_only=True, subset_by_index=[0, 0])[0]
        rep = hp_verify(weight, grid)
        assert rep.rayleigh_estimate == pytest.approx(1.0 / lam, rel=1e-9)
        assert np.all(rep.battery_ratios <= rep.rayleigh_estimate * (1.0 + 1e-9))

def identity_profile(T, x0, kappa=5):
    return lambda t, x: (t * (T - t)) ** kappa * (x - x0) ** 2 * x * (1.0 - x)


class TestCarlemanIdentity:
    def test_residual_shrinks_under_refinement(self):
        m = CoefficientModel.power_law(0.5, 0.3)
        T = 1.0
        residuals = []
        for N, M in ((100, 200), (200, 400)):
            g = SpaceTimeGrid.create(N, M, T, 0.3)
            rep = carleman_identity_check(m, g, 1.0, identity_profile(T, 0.3))
            residuals.append(rep.residual)
        assert residuals[1] < 5e-2
        assert residuals[0] / residuals[1] >= 3.0

    def test_s_zero_identity_is_trivial(self):
        # at s = 0 both sides collapse to int (a w_x)_x w_t = 0 for w
        # vanishing at t = 0, T; check absolute agreement at the s = 1 scale
        m = CoefficientModel.power_law(0.5, 0.3)
        T = 1.0
        g = SpaceTimeGrid.create(100, 200, T, 0.3)
        w = identity_profile(T, 0.3)
        scale = abs(carleman_identity_check(m, g, 1.0, w).lhs)
        rep = carleman_identity_check(m, g, 0.0, w)
        assert abs(rep.lhs) < 1e-12 * scale
        assert abs(rep.rhs) < 1e-12 * scale

    def test_rejects_nonvanishing_profiles(self):
        m = CoefficientModel.power_law(0.5, 0.3)
        g = SpaceTimeGrid.create(50, 50, 1.0, 0.3)
        with pytest.raises(ValueError, match="x = 0 and x = 1"):
            carleman_identity_check(m, g, 1.0, lambda t, x: (t * (1 - t)) ** 5 * (x + 0.1))
        with pytest.raises(ValueError, match="t = 0 and t = T"):
            carleman_identity_check(m, g, 1.0, lambda t, x: x * (1 - x))
        # a NaN is not small: on the t = 0 row away from x = 0, 1, and at x = 1 on
        # an interior row, it raises instead of giving a NaN residual
        g = SpaceTimeGrid.create(20, 40, 1.0, 0.3)
        for t_nan, x_nan, where in ((0.0, 0.5, "t = 0"), (0.5, 1.0, "x = 1")):
            def with_nan(t, x, t_nan=t_nan, x_nan=x_nan):
                return identity_profile(1.0, 0.3)(t, x) + np.where(
                    (t == t_nan) & (x == x_nan), np.nan, 0.0)
            with pytest.raises(ValueError, match=where):
                carleman_identity_check(m, g, 1.0, with_nan)

    def test_no_interior_time_row_rejected(self):
        """M = 1 leaves no time row inside (0, T), where the weights live: the
        check raises instead of comparing 0 with 0."""
        m = CoefficientModel.power_law(0.5, 0.3)
        g = SpaceTimeGrid.create(20, 1, 1.0, 0.3)
        with pytest.raises(ValueError, match="no interior time row"):
            carleman_identity_check(m, g, 1.0, identity_profile(1.0, 0.3))

    @pytest.mark.parametrize("s", [-1.0, np.nan, np.inf])
    def test_invalid_s_rejected(self, s):
        """The check builds its weight from s, which raises naming s."""
        m = CoefficientModel.power_law(0.5, 0.3)
        g = SpaceTimeGrid.create(20, 40, 1.0, 0.3)
        with pytest.raises(ValueError, match="^s must be nonnegative"):
            carleman_identity_check(m, g, s, identity_profile(1.0, 0.3))

    def test_zero_profile_measures_nothing(self):
        """For w = 0 both sides are 0; the residual 0/0 is inf, not 0, so it meets
        neither the residual gate nor a refinement factor."""
        m = CoefficientModel.power_law(0.5, 0.3)
        g = SpaceTimeGrid.create(20, 40, 1.0, 0.3)
        rep = carleman_identity_check(m, g, 1.0, lambda t, x: 0.0 * t * x)
        assert rep.lhs == rep.rhs == 0.0
        assert rep.residual == np.inf

    def test_three_nodes_rejected(self):
        """(a w_x)_x extrapolates its end values from four nodes: three raise a
        ValueError, in the identity check and in the manufactured pair."""
        m = CoefficientModel.power_law(0.5, 0.5)
        g = SpaceTimeGrid.create(2, 4, 1.0, 0.5)
        w = identity_profile(1.0, 0.5)
        with pytest.raises(ValueError, match="4 nodes in x, got 3"):
            carleman_identity_check(m, g, 1.0, w)
        with pytest.raises(ValueError, match="4 nodes in x, got 3"):
            manufactured_adjoint_pair(m, PotentialModel.zero(), g, scan_profile(1.0, 0.5))


def scan_profile(T, x0):
    return lambda t, x: t * (T - t) * (x - x0) ** 2 * x * (1.0 - x)


class TestCarlemanScan:
    def make_scan(self, cval=0.0, N=100, T=2.0, x0=0.3, alpha=0.5):
        m = CoefficientModel.power_law(alpha, x0)
        g = SpaceTimeGrid.create(N, 2 * N, T, x0)
        pot = PotentialModel.zero() if cval == 0.0 else PotentialModel.constant(cval)
        return m, pot, g, manufactured_adjoint_pair(m, pot, g, scan_profile(T, x0))

    def test_default_s_values_geometric(self):
        s = default_s_values(5)
        np.testing.assert_allclose(s, [1.0, 1.5, 2.25, 3.375, 5.0625], rtol=1e-14)

    def test_ratios_finite_and_tail_nonincreasing(self):
        m, pot, g, pair = self.make_scan()
        rep = carleman_scan(m, g, pair)
        assert np.all(np.isfinite(rep.ratios))
        assert not rep.nonpositive_rhs
        assert rep.window_found
        tail = rep.ratios[rep.s_values >= rep.s0_observed]
        assert tail.size >= 3 and np.all(tail[1:] <= tail[:-1] * 1.05)
        assert rep.window_max_rise == max(tail[1:] / tail[:-1] - 1.0) <= 0.05

    @pytest.mark.parametrize("n_s", [3, 5])
    def test_rising_ratios_find_no_window(self, n_s):
        """At N = 20 every step rises by more than 5%: no window, and s0 and
        fitted_C fall back to the last scan point, finite."""
        m, pot, g, pair = self.make_scan(N=20)
        rep = carleman_scan(m, g, pair, s_values=default_s_values(n_s))
        assert np.all(rep.ratios[1:] > rep.ratios[:-1] * 1.05)
        assert rep.window_found is False and rep.window_max_rise is None
        assert rep.s0_observed == rep.s_values[-1]
        assert rep.fitted_C == rep.ratios[-1] and np.isfinite(rep.fitted_C)

    def test_window_starts_past_last_rise_and_holds_three_points(self):
        """At N = 20 the rises fall from step to step; a window_tol between two
        of them puts s0 one past the last step that rises by more, and a
        window of two points is none."""
        m, pot, g, pair = self.make_scan(N=20)
        s_values = default_s_values(5)
        ratios = carleman_scan(m, g, pair, s_values=s_values).ratios
        rises = ratios[1:] / ratios[:-1] - 1.0
        assert np.all(np.diff(rises) < 0.0)
        tols = [2.0 * rises[0], *(0.5 * (rises[:-1] + rises[1:]))]
        for start, tol in enumerate(tols):
            rep = carleman_scan(m, g, pair, s_values=s_values, window_tol=tol)
            assert rep.window_found is (start <= 2)
            assert rep.s0_observed == s_values[start if start <= 2 else -1]
            # the window's largest rise is its first, the margin left below tol
            assert rep.window_max_rise == (rises[start] if start <= 2 else None)
            assert start > 2 or rep.window_max_rise <= tol

    @pytest.mark.parametrize("fault", ["v_zero", "h_nan"])
    def test_unmeasured_integrals_find_no_window(self, fault):
        """An LHS that is 0 at every s (as when it underflows) or an RHS that is
        NaN gives ratios that are not finite and positive: they hold no window,
        and a NaN RHS counts as not positive."""
        m, pot, g, real = self.make_scan(N=20)

        def pair(rows):
            v, h = real(rows)
            if fault == "v_zero":
                return np.zeros_like(v), h
            h[np.arange(rows.start, rows.stop) == g.M // 2] = np.nan
            return v, h
        rep = carleman_scan(m, g, pair, s_values=default_s_values(5))
        if fault == "v_zero":
            assert np.all(rep.lhs == 0.0) and np.all(rep.ratios == 0.0)
        else:
            assert np.all(np.isnan(rep.rhs_source)) and np.all(rep.ratios == np.inf)
        assert rep.window_found is False
        assert rep.nonpositive_rhs is (fault == "h_nan")

    def test_negative_s_rejected(self):
        m, pot, g, pair = self.make_scan(N=20)
        with pytest.raises(ValueError, match="s must be nonnegative"):
            carleman_scan(m, g, pair, s_values=[1.0, -1.0])
        with pytest.raises(ValueError, match="nondecreasing"):
            carleman_scan(m, g, pair, s_values=[2.0, 1.0, 3.0])

    def test_no_s_value_rejected(self):
        m, pot, g, pair = self.make_scan(N=20)
        with pytest.raises(ValueError, match="no s value"):
            carleman_scan(m, g, pair, s_values=[])

    def test_no_interior_time_row_rejected(self):
        m = CoefficientModel.power_law(0.5, 0.3)
        g = SpaceTimeGrid.create(20, 1, 2.0, 0.3)
        pair = manufactured_adjoint_pair(m, PotentialModel.zero(), g, scan_profile(2.0, 0.3))
        with pytest.raises(ValueError, match="no interior time row"):
            carleman_scan(m, g, pair)

    @pytest.mark.parametrize("s_values", [[1.0, np.nan, 2.0, 3.0], [1.0, 2.0, np.inf],
                                          [np.nan, np.nan, np.nan]])
    def test_non_finite_s_rejected(self, s_values):
        m, pot, g, pair = self.make_scan(N=20)
        with pytest.raises(ValueError, match="finite"):
            carleman_scan(m, g, pair, s_values=s_values)

    def test_scaling_invariance(self):
        m, pot, g, pair = self.make_scan()
        rep1 = carleman_scan(m, g, pair)
        v = scan_profile(g.T, g.x0)
        pair3 = manufactured_adjoint_pair(m, pot, g, lambda t, x: 3.0 * v(t, x))
        rep2 = carleman_scan(m, g, pair3)
        np.testing.assert_allclose(rep2.ratios, rep1.ratios, rtol=1e-12)

    def test_potential_absorbed(self):
        reps = {}
        for cval in (0.0, 1.0):
            m, pot, g, pair = self.make_scan(cval=cval)
            reps[cval] = carleman_scan(m, g, pair)
        assert np.isfinite(reps[1.0].fitted_C)
        assert reps[1.0].fitted_C <= 4.0 * reps[0.0].fitted_C
        assert reps[0.0].fitted_C <= 4.0 * reps[1.0].fitted_C

    def test_manufactured_pair_is_discrete_solution(self):
        m, pot, g, pair = self.make_scan()
        from degenpde.grid import assemble_operator
        from degenpde.inequalities import _derivative, _div_a_grad
        op = assemble_operator(m, g)
        v, h = pair(slice(0, g.M + 1))
        assert np.array_equal(v, Field.from_function(g, scan_profile(g.T, g.x0)).values)
        res = _derivative(v, g.dt, axis=0) + _div_a_grad(op, v) - h
        assert np.max(np.abs(res)) < 1e-10

    @pytest.mark.parametrize("M", [100, 400])    # fewer and more time levels than g.M = 200
    def test_manufactured_pair_rejects_potential_from_another_grid(self, M):
        m, _, g, _ = self.make_scan()
        pot = PotentialModel.sampled(Field.zeros(SpaceTimeGrid.create(g.N, M, g.T, g.x0)))
        with pytest.raises(ValueError, match=rf"\({M + 1}, 101\).*\(201, 101\)"):
            manufactured_adjoint_pair(m, pot, g, scan_profile(g.T, g.x0))

    @pytest.mark.parametrize("axis", [0, 1])
    def test_derivative_rejects_a_stepped_slice(self, axis):
        from degenpde.inequalities import _derivative
        values = np.random.default_rng(3).standard_normal((20, 20))
        with pytest.raises(ValueError, match=r"consecutive indices.*slice\(0, 10, 2\)"):
            _derivative(values, 0.1, axis, slice(0, 10, 2))

    @pytest.mark.parametrize("n", [0, 1, 2])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_derivative_rejects_a_short_axis(self, n, axis):
        from degenpde.inequalities import _derivative
        values = np.ones((n, 5) if axis == 0 else (5, n))
        with pytest.raises(ValueError, match=f"needs 3 nodes along axis {axis}, got {n}"):
            _derivative(values, 0.1, axis)

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
        with pytest.raises(ValueError):
            caccioppoli_check(m, g, 1.0, v, (0.1, 0.6), (0.2, 0.5))
        with pytest.raises(ValueError):
            caccioppoli_check(m, g, 1.0, v, (0.25, 0.45), (0.2, 0.5))

    def test_no_interior_time_row_rejected(self):
        """M = 1 leaves no time row inside (0, T), where the weight lives: the
        check raises instead of a local integral over no rows (ratio 0, log
        ratio -inf)."""
        m = CoefficientModel.power_law(0.5, 0.3)
        g = SpaceTimeGrid.create(20, 1, 2.0, 0.3)
        v = Field(g, np.ones((g.M + 1, g.N + 1)))
        with pytest.raises(ValueError, match="no interior time row"):
            caccioppoli_check(m, g, 1.0, v, (0.35, 0.45), (0.2, 0.5))

    @pytest.mark.parametrize("s", [-1.0, np.nan, np.inf])
    def test_invalid_s_rejected(self, s):
        """The check builds its weight from s, which raises naming s."""
        m, g, v = self.setup_field(N=20)
        with pytest.raises(ValueError, match="^s must be nonnegative"):
            caccioppoli_check(m, g, s, v, (0.35, 0.45), (0.2, 0.5))

    def test_ratio_finite_and_stable(self):
        params_s = [1.0, 2.0, 4.0]
        ratios = {}
        for N in (100, 200):
            m, g, v = self.setup_field(N=N)
            for s in params_s:
                rep = caccioppoli_check(m, g, s, v, (0.35, 0.45), (0.2, 0.5))
                ratios.setdefault(s, []).append(rep.ratio)
        for s, (r1, r2) in ratios.items():
            assert np.isfinite(r1) and r1 > 0.0
            assert abs(r2 - r1) / r1 < 0.2
