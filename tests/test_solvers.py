import numpy as np
import pytest
from scipy.linalg import solve_banded, solveh_banded

from degenpde import (CoefficientModel, ControlConfig, Field, PotentialModel,
                      SpaceTimeGrid, energy_trace, solve_adjoint, solve_forward, solvers)
from degenpde.grid import assemble_operator, integrate_space
from degenpde.solvers import l2_norm


def heat_setup(N=200, M=400, T=0.1):
    m = CoefficientModel.constant(1.0, 0.5)
    g = SpaceTimeGrid.create(N, M, T, 0.5)
    return m, g


class TestForward:
    def test_heat_mode_accuracy(self):
        m, g = heat_setup()
        u0 = np.sin(np.pi * g.x)
        u = solve_forward(m, PotentialModel.zero(), g, u0)
        exact = np.exp(-np.pi ** 2 * g.T) * u0
        assert np.max(np.abs(u.values[-1] - exact)) < 1e-3

    def test_zero_data(self):
        m, g = heat_setup(N=50, M=20)
        u = solve_forward(m, PotentialModel.zero(), g, np.zeros(g.N + 1))
        assert np.all(u.values == 0.0)

    def test_degenerate_norm_decay(self):
        m = CoefficientModel.power_law(0.5, 0.3)
        g = SpaceTimeGrid.create(100, 200, 0.5, 0.3)
        u = solve_forward(m, PotentialModel.constant(0.5), g, g.x * (1.0 - g.x))
        norms = [l2_norm(u.values[j], g) for j in range(g.M + 1)]
        assert np.all(np.diff(norms) <= 1e-12)

    def test_convergence_order(self):
        errs = []
        for N, M in ((100, 200), (200, 400)):
            m, g = heat_setup(N, M)
            u0 = np.sin(np.pi * g.x)
            u = solve_forward(m, PotentialModel.zero(), g, u0)
            exact = np.exp(-np.pi ** 2 * g.T) * u0
            errs.append(np.max(np.abs(u.values[-1] - exact)))
        order = np.log2(errs[0] / errs[1])
        assert order >= 1.8

    def test_incompatible_initial_data(self):
        m, g = heat_setup(N=50, M=20)
        with pytest.raises(ValueError):
            solve_forward(m, PotentialModel.zero(), g, np.ones(g.N + 1))

    def test_rounding_level_boundary_values_accepted(self):
        m, g = heat_setup(N=50, M=20)
        u0 = np.sin(np.pi * g.x)
        assert abs(u0[-1]) > 0.0    # rounding noise, not exact zero
        u = solve_forward(m, PotentialModel.zero(), g, u0)
        assert u.values[0, -1] == 0.0

    def test_diagonal_dominance_guard(self):
        m, g = heat_setup(N=20, M=10, T=1.0)     # dt = 0.1
        with pytest.raises(ValueError):
            solve_forward(m, PotentialModel.constant(-30.0), g, np.zeros(g.N + 1))


def banded_reference(model, potential, grid, start, sources, backward):
    """Per-step CN loop with a validated solve_banded, the reference for the stepper.

    sources[j] is the interior source at time index j.
    """
    d, e = assemble_operator(model, grid).interior_tridiag()
    dt = grid.dt
    times = list(range(grid.M, -1, -1)) if backward else list(range(grid.M + 1))
    out = np.zeros((grid.M + 1, grid.N + 1))
    out[times[0]] = start
    u = start[1:-1].copy()
    for j_prev, j_next in zip(times, times[1:]):
        c_prev = potential.values(grid)[j_prev, 1:-1]
        c_next = potential.values(grid)[j_next, 1:-1]
        Au = d * u
        Au[:-1] += e * u[1:]
        Au[1:] += e * u[:-1]
        rhs = u / dt + 0.5 * Au - 0.5 * c_prev * u + 0.5 * (sources[j_prev] + sources[j_next])
        ab = np.zeros((3, d.size))
        ab[0, 1:] = -0.5 * e
        ab[1] = 1.0 / dt - 0.5 * d + 0.5 * c_next
        ab[2, :-1] = -0.5 * e
        u = solve_banded((1, 1), ab, rhs)
        out[j_next, 1:-1] = u
    return out


def one_solve_reference(model, potential, grid, start, sources, backward):
    """Per-step CN loop in the one-solve form, with a validated solveh_banded.

    Since R_prev = G - L_next with G = 2I/dt + (C_next - C_prev)/2, each step solves
    L_next s = g u + f for s = u + u_next and takes u_next = s - u, where
    g = 2/dt + (c_next - c_prev)/2 and f = (sources[j_prev] + sources[j_next])/2,
    or nothing when sources is None.  On its two-row band solveh_banded calls
    LAPACK ptsv, which is pttrf then pttrs; it rejects one interior node, where the
    solve is a division.  This is the stepper's arithmetic bit for bit.
    """
    d, e = assemble_operator(model, grid).interior_tridiag()
    c = potential.values(grid)[:, 1:-1]
    dt = grid.dt
    times = list(range(grid.M, -1, -1)) if backward else list(range(grid.M + 1))
    out = np.zeros((grid.M + 1, grid.N + 1))
    out[times[0]] = start
    u = start[1:-1].copy()
    for j_prev, j_next in zip(times, times[1:]):
        rhs = (2.0 / dt + 0.5 * (c[j_next] - c[j_prev])) * u
        if sources is not None:
            rhs = rhs + 0.5 * (sources[j_prev] + sources[j_next])
        ab = np.zeros((2, d.size))      # upper form: superdiagonal, then diagonal
        ab[0, 1:] = -0.5 * e
        ab[1] = 1.0 / dt - 0.5 * d + 0.5 * c[j_next]
        u = (rhs / ab[1] if d.size == 1 else solveh_banded(ab, rhs)) - u
        out[j_next, 1:-1] = u
    return out


def assert_steps_exact(field, model, potential, grid, start, sources, backward):
    """``field`` is the one-solve reference bit for bit, and the textbook form
    (I/dt - A/2 + C_next/2) u_next = (I/dt + A/2 - C_prev/2) u + f to rounding:
    within 1e-12 of each time row's largest magnitude.  Its boundary columns are
    +0.0 exactly, which callers rely on without rewriting them."""
    ends = field.values[:, [0, -1]]
    assert np.all(ends == 0.0) and not np.signbit(ends).any()
    assert np.array_equal(field.values,
                          one_solve_reference(model, potential, grid, start, sources, backward))
    if sources is None:
        sources = np.zeros((grid.M + 1, grid.N - 1))
    textbook = banded_reference(model, potential, grid, start, sources, backward)
    row_max = np.abs(textbook).max(axis=1, keepdims=True)
    assert np.all(np.abs(field.values - textbook) <= 1e-12 * row_max)


def degenerate_setup(N=60, M=40, x0=0.3):
    m = CoefficientModel.power_law(0.5, x0)
    return m, SpaceTimeGrid.create(N, M, 0.3, x0)


def potentials(g):
    c = Field.from_function(g, lambda t, x: 2.0 + np.sin(3 * np.pi * x) * np.cos(5 * t))
    return {"zero": PotentialModel.zero(), "constant": PotentialModel.constant(0.7),
            "sampled": PotentialModel.sampled(c)}


def dirichlet_noise(rng, g):
    vec = rng.standard_normal(g.N + 1)
    vec[0] = vec[-1] = 0.0
    return vec


class TestStepperMatchesBandedSolve:
    @pytest.mark.parametrize("kind", ["zero", "constant", "sampled"])
    # N=2: one interior node, a division; N=3: two, the smallest grid pttrf factors
    @pytest.mark.parametrize("N, x0", [(2, 0.5), (3, 1.0 / 3.0), (60, 0.3)])
    def test_forward_with_control_source(self, kind, N, x0):
        m, g = degenerate_setup(N=N, x0=x0)
        assert g.N == N
        pot = potentials(g)[kind]
        rng = np.random.default_rng(3)
        u0 = dirichlet_noise(rng, g)
        h = Field(g, rng.standard_normal((g.M + 1, g.N + 1)))
        chi = ControlConfig(0.2, 0.5).indicator(g)
        u = solve_forward(m, pot, g, u0, h=Field(g, h.values * chi))
        assert_steps_exact(u, m, pot, g, u0, (h.values * chi)[:, 1:-1], False)
        assert_steps_exact(solve_forward(m, pot, g, u0), m, pot, g, u0, None, False)

    @pytest.mark.parametrize("kind", ["zero", "constant", "sampled"])
    def test_adjoint_with_source(self, kind, N=60, x0=0.3):
        m, g = degenerate_setup(N=N, x0=x0)
        pot = potentials(g)[kind]
        rng = np.random.default_rng(4)
        vT = dirichlet_noise(rng, g)
        h = Field(g, rng.standard_normal((g.M + 1, g.N + 1)))
        assert_steps_exact(solve_adjoint(m, pot, g, vT, h=h), m, pot, g, vT,
                           -h.values[:, 1:-1], True)
        assert_steps_exact(solve_adjoint(m, pot, g, vT), m, pot, g, vT, None, True)

    @pytest.mark.parametrize("kind", ["zero", "constant", "sampled"])
    @pytest.mark.parametrize("N, x0", [(2, 0.5), (3, 1.0 / 3.0)])
    def test_adjoint_on_smallest_grids(self, kind, N, x0):
        self.test_adjoint_with_source(kind, N, x0)

    @pytest.mark.parametrize("backward", [False, True])
    @pytest.mark.parametrize("kind", ["zero", "sampled"])
    def test_stiff_steps(self, kind, backward):
        # dt max|d| ~ 3e4: the stiffest modes flip sign every step (u_next ~ -u), so
        # s = u + u_next nearly cancels, and u_next = s - u must stay within rounding
        m = CoefficientModel.power_law(0.5, 0.3)
        g = SpaceTimeGrid.create(200, 6, 3.0, 0.3)
        assert g.dt * np.abs(assemble_operator(m, g).interior_tridiag()[0]).max() >= 1e4
        pot = potentials(g)[kind]
        start = dirichlet_noise(np.random.default_rng(14), g)
        field = (solve_adjoint if backward else solve_forward)(m, pot, g, start)
        assert_steps_exact(field, m, pot, g, start, None, backward)

    @pytest.mark.parametrize("backward", [False, True])
    def test_signed_zeros_without_source(self, backward):
        # no source adds nothing to g u, so the signs of zeros follow the one-solve form
        m, g = degenerate_setup()
        rng = np.random.default_rng(11)
        c = Field(g, rng.uniform(-1.0, 1.0, (g.M + 1, g.N + 1)))
        c.values[::2, ::3] = -0.0
        start = np.zeros(g.N + 1)
        start[1:-1:2] = -0.0
        for pot in (PotentialModel.zero(), PotentialModel.sampled(c)):
            field = (solve_adjoint if backward else solve_forward)(m, pot, g, start)
            ref = one_solve_reference(m, pot, g, start, None, backward)
            assert np.array_equal(np.signbit(field.values), np.signbit(ref))
            assert_steps_exact(field, m, pot, g, start, None, backward)


def sampled_potential(g, seed):
    return PotentialModel.sampled(Field(g, np.random.default_rng(seed).uniform(
        -1.0, 3.0, (g.M + 1, g.N + 1))))


class TestLevelTable:
    @pytest.fixture
    def factorizations(self, monkeypatch):
        """Calls of each routine that factors a tridiagonal left-hand side."""
        # pttrf is the only factoring routine solvers imports; the other two stay 0
        counts = {"pttrf": 0, "gttrf": 0, "gtsv": 0}
        pttrf = solvers.pttrf

        def counting(*args, **kwargs):
            counts["pttrf"] += 1
            return pttrf(*args, **kwargs)

        monkeypatch.setattr(solvers, "pttrf", counting)
        return counts

    @pytest.mark.parametrize("first, then", [(solve_forward, solve_adjoint),
                                             (solve_adjoint, solve_forward)])
    def test_repeated_solve_factors_nothing(self, factorizations, first, then):
        # forward factors levels 1..M and the adjoint 0..M-1: M each, M + 1 together
        m, g = degenerate_setup()
        pot = sampled_potential(g, 20)
        u0 = dirichlet_noise(np.random.default_rng(21), g)
        once = first(m, pot, g, u0)
        assert factorizations == {"pttrf": g.M, "gttrf": 0, "gtsv": 0}
        assert np.array_equal(first(m, pot, g, u0).values, once.values)
        assert factorizations == {"pttrf": g.M, "gttrf": 0, "gtsv": 0}
        for _ in range(2):
            then(m, pot, g, u0)
            assert factorizations == {"pttrf": g.M + 1, "gttrf": 0, "gtsv": 0}

    def test_interleaved_potentials(self, factorizations):
        # each potential holds its own factors, so interleaved solves factor each once
        m, g = degenerate_setup()
        pots = [sampled_potential(g, 22), sampled_potential(g, 23)]
        rng = np.random.default_rng(24)
        for pot in pots + pots:
            u0 = dirichlet_noise(rng, g)
            assert_steps_exact(solve_forward(m, pot, g, u0), m, pot, g, u0, None, False)
        assert factorizations["pttrf"] == 2 * g.M

    @pytest.mark.parametrize("backward", [False, True])
    def test_steps_keyed_on_dt(self, backward):
        # |d|/2 ~ 3e21 absorbs 1/dt, so T = 1 and T = 1.5 share every left-hand side
        # and factor but not g/2 = 1/dt + (c_next - c_prev)/4; the zeros of the start
        # make the field show g bit for bit
        m = CoefficientModel.constant(1e20, 0.5)
        grids = [SpaceTimeGrid.create(6, 8, T, 0.5) for T in (1.0, 1.5, 1.0)]
        d = assemble_operator(m, grids[0]).interior_tridiag()[0]
        assert np.array_equal(1.0 / grids[0].dt - 0.5 * d, 1.0 / grids[1].dt - 0.5 * d)
        rows = np.random.default_rng(27).uniform(-1.0, 3.0, (9, 7))
        pot = PotentialModel.sampled(Field(grids[0], rows.copy()))
        start = np.array([0.0, 0.0, 1.0, 0.0, -2.0, 0.0, 0.0])
        solve = solve_adjoint if backward else solve_forward
        fields = []
        for g in grids:
            fields.append(solve(m, pot, g, start).values)
            fresh = PotentialModel.sampled(Field(g, rows.copy()))
            assert np.array_equal(fields[-1], solve(m, fresh, g, start).values)
        assert not np.array_equal(fields[0], fields[1])

    @pytest.mark.parametrize("backward", [False, True])
    def test_constant_steps_keyed_on_M(self, backward):
        # M steps over T and 2M over 2T share dt, so they share every factor
        m, g = degenerate_setup(M=20)
        grids = [g, SpaceTimeGrid.create(g.N, 2 * g.M, 2 * g.T, g.x0), g]
        pot = PotentialModel.constant(0.7)
        start = dirichlet_noise(np.random.default_rng(32), g)
        solve = solve_adjoint if backward else solve_forward
        for g in grids:
            assert np.array_equal(solve(m, pot, g, start).values,
                                  solve(m, PotentialModel.constant(0.7), g, start).values)

    @pytest.mark.parametrize("N, x0", [(2, 0.5), (3, 1.0 / 3.0), (60, 0.3)])
    def test_adjoint_then_forward(self, N, x0):
        m, g = degenerate_setup(N=N, x0=x0)
        pot = sampled_potential(g, 25)
        rng = np.random.default_rng(26)
        for backward in (True, False, True):
            start = dirichlet_noise(rng, g)
            field = (solve_adjoint if backward else solve_forward)(m, pot, g, start)
            assert_steps_exact(field, m, pot, g, start, None, backward)


class TestLDLFactors:
    @pytest.mark.parametrize("n", [2, 3, 199])
    def test_pttrs_solves_a_row_view_in_place(self, n):
        # each step solves into a row of the (M+1, N+1) output through its interior
        # view; with overwrite_b, f2py must hand LAPACK that row, not a copy
        pttrf, pttrs = solvers.pttrf, solvers.pttrs
        rng = np.random.default_rng(29)
        off = -rng.uniform(0.5, 1.0, n - 1)
        diag = 2.5 + rng.uniform(0.0, 1.0, n)
        d, e, info = pttrf(diag, off)
        assert info == 0
        out = rng.standard_normal((6, n + 2))
        rows = out[:, 1:-1]
        b = rows[3].copy()
        x, info = pttrs(d, e, rows[3], overwrite_b=True)
        assert info == 0 and np.shares_memory(x, out)
        ab = np.vstack((np.r_[0.0, off], diag))
        assert np.array_equal(rows[3], solveh_banded(ab, b))
        # the step loop passes overwrite_b positionally, as the fourth argument
        b = rows[4].copy()
        x, info = pttrs(d, e, rows[4], 1)
        assert info == 0 and np.shares_memory(x, rows[4])
        assert np.array_equal(rows[4], solveh_banded(ab, b))

    @pytest.mark.parametrize("kind", ["constant", "sampled"])
    def test_dominance_edge(self, kind):
        # the smallest c_min the dominance check admits leaves 1/dt + c/2 at one
        # ulp of 1/dt; L is still positive definite through -A/2, so pttrf factors
        # it (any other info would raise) and the solves stay the banded ones
        m, g = degenerate_setup()
        c_min = np.nextafter(-2.0 * (1.0 / g.dt), 0.0)
        solvers._require_dominance(c_min, g.dt)
        with pytest.raises(ValueError, match="dominance"):
            solvers._require_dominance(-2.0 * (1.0 / g.dt), g.dt)
        if kind == "constant":
            pot = PotentialModel.constant(c_min)
        else:
            rng = np.random.default_rng(30)
            c = c_min + rng.uniform(0.0, 3.0, (g.M + 1, g.N + 1))
            c[g.M // 2, g.N // 2] = c_min
            pot = PotentialModel.sampled(Field(g, c))
        rng = np.random.default_rng(31)
        for backward in (False, True):
            start = dirichlet_noise(rng, g)
            field = (solve_adjoint if backward else solve_forward)(m, pot, g, start)
            assert_steps_exact(field, m, pot, g, start, None, backward)
        assert_adjoint_pairing(m, pot, g, rng, trials=3)


class TestLeftHandSideChecks:
    @pytest.mark.parametrize("backward", [False, True])
    def test_dominance_checked_on_last_lhs_row(self, backward):
        # forward steps end on the LHS of time index M, adjoint steps on that of index 0
        m, g = degenerate_setup()
        rows = potentials(g)["sampled"].rows.copy()
        rows[0 if backward else g.M, g.N // 2] = -2.5 / g.dt
        c = PotentialModel(rows)
        start = dirichlet_noise(np.random.default_rng(9), g)
        with pytest.raises(ValueError, match="dominance"):
            (solve_adjoint if backward else solve_forward)(m, c, g, start)

    @pytest.mark.parametrize("backward", [False, True])
    def test_rhs_only_row_not_held_to_dominance(self, backward):
        # c at the starting time enters only a right-hand side, never a LHS
        m, g = degenerate_setup()
        rows = potentials(g)["sampled"].rows.copy()
        rows[g.M if backward else 0, g.N // 2] = -2.5 / g.dt
        c = PotentialModel(rows)
        start = dirichlet_noise(np.random.default_rng(9), g)
        field = (solve_adjoint if backward else solve_forward)(m, c, g, start)
        assert_steps_exact(field, m, c, g, start, None, backward)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_lhs_diagonal_overflow_raises(self):
        # 1/dt ~ 1e308, so 1/dt - A/2 + c/2 overflows for a c that is itself finite
        m = CoefficientModel.power_law(0.5, 0.3)
        g = SpaceTimeGrid.create(20, 10, 1e-307, 0.3)
        c = Field.zeros(g)
        u0 = np.zeros(g.N + 1)
        solve_forward(m, PotentialModel.sampled(c), g, u0)
        c.values[g.M // 2, g.N // 2] = 1.7e308
        with pytest.raises(ValueError):
            solve_forward(m, PotentialModel.sampled(c), g, u0)

    def test_step_where_two_over_dt_overflows(self):
        # dt ~ 1e-308: 1/dt is finite but 2/dt is not, so the step's g only fits halved
        m = CoefficientModel.power_law(0.5, 0.3)
        g = SpaceTimeGrid.create(20, 10, 1e-307, 0.3)
        pot = potentials(g)["sampled"]
        u0 = g.x * (1.0 - g.x)
        u = solve_forward(m, pot, g, u0)
        textbook = banded_reference(m, pot, g, u0, np.zeros((g.M + 1, g.N - 1)), False)
        assert np.all(np.abs(u.values - textbook) <= 1e-12 * np.abs(textbook).max())

    @pytest.mark.parametrize("backward", [False, True])
    def test_dominance_rechecked_per_direction(self, backward):
        # the row at the far end of a direction enters a LHS of that direction only,
        # so the other direction's checked steps do not pass it
        m, g = degenerate_setup()
        rows = potentials(g)["sampled"].rows.copy()
        rows[0 if backward else g.M, g.N // 2] = -2.5 / g.dt
        pot = PotentialModel(rows)
        start = dirichlet_noise(np.random.default_rng(13), g)
        solve, other = ((solve_adjoint, solve_forward) if backward
                        else (solve_forward, solve_adjoint))
        other(m, pot, g, start)
        with pytest.raises(ValueError, match="dominance"):
            solve(m, pot, g, start)
        assert_steps_exact(other(m, pot, g, start), m, pot, g, start, None, not backward)

    @pytest.mark.parametrize("kind", ["zero", "sampled"])
    def test_repeated_solves_identical(self, kind):
        m, g = degenerate_setup()
        pot = potentials(g)[kind]
        rng = np.random.default_rng(10)
        u0 = dirichlet_noise(rng, g)
        chi = ControlConfig(0.2, 0.5).indicator(g)
        h = Field(g, rng.standard_normal((g.M + 1, g.N + 1)) * chi)
        first = solve_forward(m, pot, g, u0, h=h)
        second = solve_forward(m, pot, g, u0, h=h)
        assert np.array_equal(first.values, second.values)


class TestNonFiniteInput:
    @pytest.mark.parametrize("where", ["u0", "vT", "h", "c"])
    def test_nan_raises(self, where):
        m, g = degenerate_setup()
        rng = np.random.default_rng(5)
        start = dirichlet_noise(rng, g)
        h = Field(g, rng.standard_normal((g.M + 1, g.N + 1)))
        rows = potentials(g)["sampled"].rows.copy()
        if where in ("u0", "vT"):
            start[g.N // 2] = np.nan
        elif where == "h":
            h.values[g.M // 2, g.N // 2] = np.nan
        else:   # c(T) enters only the left-hand side of the last forward step
            rows[g.M, g.N // 2] = np.nan
        with pytest.raises(ValueError):
            c = PotentialModel(rows)
            if where == "vT":
                solve_adjoint(m, c, g, start, h=h)
            else:
                solve_forward(m, c, g, start, h=h)

    # The last row is checked once, after the last step: these pin that a non-finite
    # value entering any step, the last one included, still raises.
    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    @pytest.mark.parametrize("where", ["inf_start", "nan_first_source_row",
                                       "nan_last_source_row", "overflowing_rhs"])
    @pytest.mark.parametrize("kind", ["zero", "sampled"])
    @pytest.mark.parametrize("backward", [False, True])
    def test_non_finite_step_raises(self, backward, kind, where):
        m, g = degenerate_setup()
        rng = np.random.default_rng(6)
        start = dirichlet_noise(rng, g)
        h = Field(g, rng.standard_normal((g.M + 1, g.N + 1)))
        pot = potentials(g)[kind]
        if where == "inf_start":
            start[g.N // 2] = np.inf
        elif where == "nan_first_source_row":
            h.values[0, g.N // 2] = np.nan
        elif where == "nan_last_source_row":
            h.values[g.M, g.N // 2] = np.nan
        else:   # finite data, but (d/2) u and the sums leave the floating-point range
            start[1:-1] = 1e308 * g.dt
        with pytest.raises(ValueError, match="infs or NaNs"):
            (solve_adjoint if backward else solve_forward)(m, pot, g, start, h=h)

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    def test_overflowing_last_solve_raises(self):
        # a finite right-hand side whose solve overflows, on the only step (M = 1):
        # a check of each right-hand side never sees it, the check of the field does
        m = CoefficientModel.constant(1e-6, 0.5)
        g = SpaceTimeGrid.create(20, 1, 1.0, 0.5)
        c = PotentialModel.constant(-2.0 / g.dt * (1.0 - 1e-14))   # margin 1/dt + c/2 ~ 1e-14
        u0 = 1e304 * np.sin(np.pi * g.x)
        with pytest.raises(ValueError, match="infs or NaNs"):
            solve_forward(m, c, g, u0)


class TestAdjoint:
    def test_heat_mode_accuracy(self):
        m, g = heat_setup()
        vT = np.sin(np.pi * g.x)
        v = solve_adjoint(m, PotentialModel.zero(), g, vT)
        exact = np.exp(-np.pi ** 2 * g.T) * vT
        assert np.max(np.abs(v.values[0] - exact)) < 1e-3

    def test_zero_data(self):
        m, g = heat_setup(N=50, M=20)
        v = solve_adjoint(m, PotentialModel.zero(), g, np.zeros(g.N + 1))
        assert np.all(v.values == 0.0)

    def test_discrete_adjoint_identity(self):
        m = CoefficientModel.power_law(0.5, 0.3)
        g = SpaceTimeGrid.create(100, 150, 0.4, 0.3)
        pot = PotentialModel.constant(1.0)
        rng = np.random.default_rng(7)
        for _ in range(20):
            u0 = rng.standard_normal(g.N + 1)
            vT = rng.standard_normal(g.N + 1)
            u0[0] = u0[-1] = vT[0] = vT[-1] = 0.0
            u = solve_forward(m, pot, g, u0)
            v = solve_adjoint(m, pot, g, vT)
            lhs = integrate_space(u.values[-1] * vT, g)
            rhs = integrate_space(u0 * v.values[0], g)
            assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), abs(rhs), 1.0)

    @pytest.mark.parametrize("kind", ["constant", "sampled"])
    def test_discrete_adjoint_identity_time_dependent(self, kind):
        m = CoefficientModel.power_law(0.5, 0.3)
        g = SpaceTimeGrid.create(100, 150, 0.4, 0.3)
        assert_adjoint_pairing(m, potentials(g)[kind], g, np.random.default_rng(8), trials=5)


@pytest.mark.parametrize("solve", [solve_forward, solve_adjoint])
def test_boundary_columns_zero_on_dirty_memory(solve):
    """The solution's boundary columns are the only entries no step writes, and
    they are +0.0 even where the allocator hands back memory that held NaN."""
    m = CoefficientModel.power_law(0.5, 0.3)
    g = SpaceTimeGrid.create(20, 10, 1.0, 0.3)
    start = np.sin(np.pi * g.x)
    start[0] = start[-1] = 0.0
    dirty = np.full((g.M + 1, g.N + 1), np.nan)
    del dirty
    ends = solve(m, PotentialModel.constant(1.0), g, start).values[:, [0, -1]]
    assert np.all(ends == 0.0) and not np.any(np.signbit(ends))


def assert_adjoint_pairing(m, pot, g, rng, trials):
    """CN conserves <(I/dt^2 - K_j^2/4) u_j, v_j> with K_j = A - C_j exactly.

    With c independent of time the weight commutes with the propagator and the
    identity reduces to <u(T), vT> = <u0, v(0)>; with sampled c that plain
    pairing is only approximate.
    """
    op = assemble_operator(m, g)

    def pairing(j, u, v):
        def K(w):
            return op.apply(w) - pot.values(g)[j] * w
        weighted = u / g.dt ** 2 - 0.25 * K(K(u))
        scale = integrate_space(np.abs(u / g.dt ** 2 * v) + np.abs(0.25 * K(K(u)) * v), g)
        return integrate_space(weighted * v, g), scale

    for _ in range(trials):
        u0 = dirichlet_noise(rng, g)
        vT = dirichlet_noise(rng, g)
        u = solve_forward(m, pot, g, u0)
        v = solve_adjoint(m, pot, g, vT)
        lhs, scale_T = pairing(g.M, u.values[-1], vT)
        rhs, scale_0 = pairing(0, u0, v.values[0])
        assert abs(lhs - rhs) <= 1e-13 * max(scale_T, scale_0)


class TestEnergyTrace:
    def test_heat_mode_trace(self):
        m, g = heat_setup(T=0.05)
        vT = np.sin(np.pi * g.x)
        v = solve_adjoint(m, PotentialModel.zero(), g, vT)
        trace = energy_trace(v, m, g)
        assert np.all(np.diff(trace) > 0.0)
        # terminal value pi^2/2 for the normalized mode
        assert trace[-1] == pytest.approx(np.pi ** 2 / 2.0, rel=1e-3)

    def test_zero_field(self):
        m, g = heat_setup(N=50, M=20)
        trace = energy_trace(Field.zeros(g), m, g)
        assert np.all(trace == 0.0)

    def test_degenerate_nondecreasing(self):
        m = CoefficientModel.power_law(0.5, 0.3)
        g = SpaceTimeGrid.create(200, 400, 0.5, 0.3)
        vT = np.sin(np.pi * g.x)
        v = solve_adjoint(m, PotentialModel.zero(), g, vT)
        trace = energy_trace(v, m, g)
        assert np.all(np.diff(trace) >= -1e-10 * np.max(trace))


class TestEnergyStability:
    def test_fitted_constant_stable_under_refinement(self):
        # sup_t ||u||^2 + sum dt ||sqrt(a) u_x||^2 <= C (||u0||^2 + ||h||^2)
        m = CoefficientModel.power_law(0.5, 0.3)
        ratios = []
        for N, M in ((100, 200), (200, 400)):
            g = SpaceTimeGrid.create(N, M, 0.5, 0.3)
            u0 = g.x * (1.0 - g.x)
            h = Field.from_function(g, lambda t, x: np.sin(np.pi * x) * (1.0 + t))
            u = solve_forward(m, PotentialModel.zero(), g, u0, h=h)
            sup_norm2 = max(l2_norm(u.values[j], g) ** 2 for j in range(g.M + 1))
            trace = energy_trace(u, m, g)
            left = sup_norm2 + float(np.dot(g.time_weights(), trace))
            right = l2_norm(u0, g) ** 2 + sum(
                g.time_weights()[j] * l2_norm(h.values[j], g) ** 2
                for j in range(g.M + 1))
            ratios.append(left / right)
        assert abs(ratios[1] - ratios[0]) / ratios[0] < 0.05


class TestPotentialAndControl:
    @pytest.mark.parametrize("M", [20, 80])     # fewer and more time levels than g.M = 40
    @pytest.mark.parametrize("backward", [False, True])
    def test_sampled_potential_from_another_grid_raises(self, backward, M):
        m, g = degenerate_setup()
        pot = PotentialModel.sampled(Field.zeros(SpaceTimeGrid.create(g.N, M, g.T, g.x0)))
        start = dirichlet_noise(np.random.default_rng(12), g)
        with pytest.raises(ValueError, match=rf"\({M + 1}, 61\).*\(41, 61\)"):
            (solve_adjoint if backward else solve_forward)(m, pot, g, start)

    @pytest.mark.parametrize("value, column", [(np.nan, 30), (np.inf, 0), (-np.inf, 60)])
    def test_potential_owns_a_finite_read_only_copy(self, value, column):
        # rows are copied and checked once, boundary columns too (they reach the c v
        # of manufactured_adjoint_pair), so no later write reaches a solve
        m, g = degenerate_setup()
        c = Field(g, potentials(g)["sampled"].rows.copy())
        kept = c.values.copy()
        pot = PotentialModel.sampled(c)
        with pytest.raises(ValueError, match="read-only"):
            pot.rows[g.M // 2, g.N // 2] = 0.0
        c.values[:, column] = value
        start = dirichlet_noise(np.random.default_rng(15), g)
        for solve in (solve_forward, solve_adjoint):
            assert np.array_equal(solve(m, pot, g, start).values,
                                  solve(m, PotentialModel.sampled(Field(g, kept)), g, start).values)
        with pytest.raises(ValueError, match="infs or NaNs"):
            PotentialModel.sampled(c)
        with pytest.raises(ValueError, match="infs or NaNs"):
            PotentialModel.constant(value)

    def test_potential_rows_must_be_2d(self):
        # a 1-D row would broadcast as one per time level, or fail as an index error
        m, g = CoefficientModel.power_law(0.5, 0.3), SpaceTimeGrid.create(20, 40, 0.1, 0.3)
        with pytest.raises(ValueError, match=r"2-D, got shape \(21,\)"):
            PotentialModel(np.full(21, 0.5))
        start = dirichlet_noise(np.random.default_rng(16), g)
        for solve in (solve_forward, solve_adjoint):
            np.testing.assert_allclose(
                solve(m, PotentialModel(np.full((1, 21), 0.5)), g, start).values,
                solve(m, PotentialModel.constant(0.5), g, start).values, rtol=1e-13, atol=1e-15)

    def test_control_config_validation(self):
        with pytest.raises(ValueError):
            ControlConfig(0.5, 0.2)
        with pytest.raises(ValueError):
            ControlConfig(0.2, 0.5, epsilon=-1.0)
        with pytest.raises(ValueError):
            ControlConfig(0.4, 0.5).require_x0_inside(0.3)

    @pytest.mark.parametrize("omega_lo, omega_hi, epsilon", [
        (np.nan, 0.5, 0.0), (0.2, np.nan, 0.0), (0.2, np.inf, 0.0),
        (0.2, 0.5, np.nan), (0.2, 0.5, np.inf)])
    def test_control_config_rejects_non_finite(self, omega_lo, omega_hi, epsilon):
        with pytest.raises(ValueError, match="omega_lo|epsilon"):
            ControlConfig(omega_lo, omega_hi, epsilon)

    def test_indicator_half_weights(self):
        g = SpaceTimeGrid.create(10, 1, 1.0, 0.5)
        chi = ControlConfig(0.2, 0.5).indicator(g)
        assert chi[2] == 0.5 and chi[5] == 0.5
        assert np.all(chi[3:5] == 1.0)
        assert chi[0] == 0.0 and chi[6] == 0.0
