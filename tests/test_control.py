import numpy as np
import pytest

import degenpde.control as control
from degenpde import (CoefficientModel, ControlConfig, PotentialModel, SpaceTimeGrid,
                      estimate_observability, synthesize_null_control)
from degenpde.control import _observation_ratio
from degenpde.solvers import l2_norm
from test_weighted_integrals import traced_peak


def degenerate_setup(N=100, M=200, T=0.5):
    m = CoefficientModel.power_law(0.5, 0.3)
    g = SpaceTimeGrid.create(N, M, T, 0.3)
    return m, PotentialModel.zero(), g, ControlConfig(0.2, 0.5, epsilon=1e-8)


class TestObservability:
    def test_estimate_finite_positive(self):
        m, pot, g, ctrl = degenerate_setup()
        rep = estimate_observability(m, pot, g, ctrl, n_modes=5, n_random=5, n_power=5)
        assert np.isfinite(rep.C_T_estimate) and rep.C_T_estimate > 0.0
        assert not rep.violation
        assert rep.C_T_estimate == pytest.approx(max(r for _, r in rep.samples))

    def test_ratio_scaling_invariance(self):
        m, pot, g, ctrl = degenerate_setup(N=60, M=80)
        chi = ctrl.indicator(g)
        vT = np.sin(np.pi * g.x)
        vT[0] = vT[-1] = 0.0
        n1, d1 = _observation_ratio(m, pot, g, ctrl, vT, chi)
        n2, d2 = _observation_ratio(m, pot, g, ctrl, 3.0 * vT, chi)
        assert n2 / d2 == pytest.approx(n1 / d1, rel=1e-13)

    def test_ratio_allocates_one_field(self):
        """v is squared and masked in place: a sample allocates the adjoint field
        and the solver's small buffers, not a second field."""
        m, pot, g, ctrl = degenerate_setup(N=400, M=800)
        chi = ctrl.indicator(g)
        vT = np.sin(np.pi * g.x)
        _observation_ratio(m, pot, g, ctrl, vT, chi)      # stores the level factors
        _, peak = traced_peak(lambda: _observation_ratio(m, pot, g, ctrl, vT, chi))
        # 1.14 fields measured, as for solve_adjoint alone; 2.03 with v ** 2 a new field
        assert peak / ((g.M + 1) * (g.N + 1) * 8) < 1.2

    def test_power_step_holds_one_field(self):
        """A power step keeps only v(0) of its first adjoint field while the second
        solve runs, so no two fields are alive at once."""
        m, pot, g, ctrl = degenerate_setup()

        def estimate():
            return estimate_observability(m, pot, g, ctrl, n_modes=3, n_random=2, n_power=3)
        estimate()                                      # stores the level factors
        _, peak = traced_peak(estimate)
        # 1.56 fields measured at N = 100, M = 200; 2.56 with the first field bound
        assert peak / ((g.M + 1) * (g.N + 1) * 8) < 2.0

    def test_unobserved_solution_is_a_violation(self, monkeypatch):
        # an observation that vanishes while v(0) does not: no ratio is recorded
        monkeypatch.setattr(control, "integrate_spacetime", lambda values, grid: 0.0)
        m, pot, g, ctrl = degenerate_setup(N=20, M=40)
        rep = estimate_observability(m, pot, g, ctrl, n_modes=2, n_random=2, n_power=2)
        assert rep.violation
        assert rep.samples == [] and rep.C_T_estimate == 0.0

    def test_x0_must_lie_in_omega(self):
        m, pot, g, _ = degenerate_setup(N=60, M=80)
        with pytest.raises(ValueError):
            estimate_observability(m, pot, g, ControlConfig(0.4, 0.6))

    def test_seed_reproducibility(self):
        m, pot, g, ctrl = degenerate_setup(N=60, M=80)
        r1, r2, other = (estimate_observability(m, pot, g, ctrl, n_modes=3, n_random=3,
                                                n_power=3, seed=seed) for seed in (5, 5, 6))
        assert r1.samples == r2.samples
        assert r1.C_T_estimate == r2.C_T_estimate
        mine, theirs = ([ratio for desc, ratio in r.samples if desc.startswith("random_")]
                        for r in (r1, other))
        assert len(mine) == len(theirs) == 3
        assert all(a != b for a, b in zip(mine, theirs))


class TestNullControl:
    def test_zero_initial_data(self):
        m, pot, g, ctrl = degenerate_setup(N=60, M=80)
        sol = synthesize_null_control(m, pot, g, ctrl, np.zeros(g.N + 1))
        assert sol.cg_iterations == 0 and sol.stop_reason == "tolerance"
        assert sol.terminal_norm == 0.0
        assert np.all(sol.h.values == 0.0)

    def test_heat_sanity_preset(self):
        m = CoefficientModel.constant(1.0, 0.5)
        g = SpaceTimeGrid.create(100, 200, 0.5, 0.5)
        ctrl = ControlConfig(0.2, 0.8)
        sol = synthesize_null_control(m, PotentialModel.zero(), g, ctrl,
                                      np.sin(np.pi * g.x), tol=1e-3, max_iters=200)
        assert sol.converged
        assert sol.terminal_norm <= 1e-3 * sol.initial_norm
        assert sol.cg_iterations <= 200

    def test_degenerate_preset(self):
        m, pot, g, ctrl = degenerate_setup(N=200, M=400)
        sol = synthesize_null_control(m, pot, g, ctrl, g.x * (1.0 - g.x),
                                      tol=1e-2, max_iters=500)
        assert sol.converged and sol.stop_reason == "tolerance"
        assert sol.terminal_norm <= 1e-2 * sol.initial_norm
        assert np.all(np.diff(sol.J_history) < 0.0)

    def test_control_supported_in_omega(self):
        m, pot, g, ctrl = degenerate_setup()
        sol = synthesize_null_control(m, pot, g, ctrl, g.x * (1.0 - g.x))
        chi = ctrl.indicator(g)
        assert np.max(np.abs(sol.h.values[:, chi == 0.0])) == 0.0
        assert np.max(np.abs(sol.h.values)) > 0.0

    def test_linearity_in_initial_data(self):
        # fixed iteration budget, no early tolerance exit: CG is linear in u0
        m, pot, g, ctrl = degenerate_setup(N=60, M=80)
        u0 = g.x * (1.0 - g.x)
        sol1 = synthesize_null_control(m, pot, g, ctrl, u0, tol=1e-30, max_iters=4)
        sol2 = synthesize_null_control(m, pot, g, ctrl, 2.0 * u0, tol=1e-30, max_iters=4)
        np.testing.assert_allclose(sol2.h.values, 2.0 * sol1.h.values,
                                   rtol=1e-9, atol=1e-13)
        assert sol1.stop_reason == sol2.stop_reason == "max_iters"
        assert sol1.cg_iterations == 4 and not sol1.converged

    def test_stalled_functional_stops_unconverged(self):
        # a tolerance no terminal state reaches: CG stops when J drops by < 1e-10
        m, pot, g, ctrl = degenerate_setup(N=20, M=40)
        sol = synthesize_null_control(m, pot, g, ctrl, g.x * (1.0 - g.x),
                                      tol=1e-30, max_iters=500)
        J = sol.J_history
        assert not sol.converged and sol.stop_reason == "J-drop"
        assert 0 < sol.cg_iterations < 500 and J.size == sol.cg_iterations + 1   # 36 here
        assert abs(J[-2] - J[-1]) < 1e-10 * abs(J[-2])
        assert np.all(np.diff(J[:-1]) < 0.0)

    def test_nonpositive_curvature_stops_before_a_step(self, monkeypatch):
        # Lambda + eps I with Lambda = -I is negative definite: p^T A p <= 0 at once
        hum = control._hum_operator

        def negated(*args):
            _, h = hum(*args)
            return -args[-1], h
        monkeypatch.setattr(control, "_hum_operator", negated)
        m, pot, g, ctrl = degenerate_setup(N=20, M=40)
        sol = synthesize_null_control(m, pot, g, ctrl, g.x * (1.0 - g.x), max_iters=500)
        assert sol.cg_iterations == 0 and not sol.converged
        assert sol.stop_reason == "pAp<=0"
        assert sol.J_history.tolist() == [0.0]
        assert not np.any(sol.h.values)
        assert sol.terminal_norm == pytest.approx(sol.residual_history[0], rel=1e-12)

    def test_invalid_tolerance(self):
        m, pot, g, ctrl = degenerate_setup(N=60, M=80)
        with pytest.raises(ValueError):
            synthesize_null_control(m, pot, g, ctrl, g.x * (1 - g.x), tol=0.0)

    def test_terminal_norm_matches_actual_solve(self):
        from degenpde import solve_forward
        m, pot, g, ctrl = degenerate_setup()
        u0 = g.x * (1.0 - g.x)
        sol = synthesize_null_control(m, pot, g, ctrl, u0)
        u = solve_forward(m, pot, g, u0, h=sol.h)
        assert l2_norm(u.values[-1], g) == pytest.approx(sol.terminal_norm, rel=1e-10)
