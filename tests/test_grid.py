import copy
import csv
import io

import numpy as np
import pytest

from degenpde import (CoefficientModel, Field, SpaceTimeGrid, assemble_operator,
                      dirichlet_eigenmodes, integrate_space, integrate_spacetime)
from degenpde.cli import DEFAULT_CONFIG, PRESETS, _carleman_profile, build_grid, build_model


class TestGridConstruction:
    def test_x0_snapped_to_node(self):
        g = SpaceTimeGrid.create(100, 10, 1.0, 0.3)
        assert g.N == 100
        assert g.x[g.x0_index] == pytest.approx(0.3, abs=1e-15)

    @pytest.mark.parametrize("x0", [0.3, 0.5, 1.0 / 3.0, 0.7])
    def test_x0_node_is_x0_exactly(self, x0):
        # linspace alone puts it 5.6e-17 off at N = 20 and 40 for x0 = 0.3, where
        # a = |x - x0|^0.5 read 7.45e-9 at the degeneracy point
        for N in range(20, 4001):
            g = SpaceTimeGrid.create(N, 1, 1.0, x0)
            assert g.x[g.x0_index] == x0
        g = SpaceTimeGrid.create(20, 1, 1.0, 0.3)
        assert CoefficientModel.power_law(0.5, 0.3).eval_a(g.x)[g.x0_index] == 0.0

    def test_snapping_adjusts_N_upward(self):
        g = SpaceTimeGrid.create(100, 10, 1.0, 1.0 / 3.0)
        assert g.N == 102
        assert g.x0_index == 34

    def test_midpoints_avoid_x0(self):
        g = SpaceTimeGrid.create(50, 10, 1.0, 0.5)
        assert np.min(np.abs(g.x_mid - 0.5)) > 0.0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            SpaceTimeGrid.create(100, 10, -1.0, 0.3)
        with pytest.raises(ValueError):
            SpaceTimeGrid.create(100, 10, 1.0, 0.0)

    @pytest.mark.parametrize("T, x0", [(np.nan, 0.3), (np.inf, 0.3), (1.0, np.nan)])
    def test_non_finite_arguments(self, T, x0):
        with pytest.raises(ValueError, match="T must be positive|x0 must lie"):
            SpaceTimeGrid.create(20, 40, T, x0)

    @pytest.mark.parametrize("T", [5e-324, 1e-310, 40 * 5e-309])
    def test_time_step_without_finite_reciprocal(self, T):
        # T/M rounds to 0, or is so small that 1/(T/M) overflows
        with pytest.raises(ValueError, match=f"T={T} over M=40"):
            SpaceTimeGrid.create(20, 40, T, 0.3)

    def test_time_step_of_an_integer_beyond_the_float_range(self):
        # T / M raised an OverflowError, which no caller names a key for
        with pytest.raises(ValueError, match="beyond the floating-point range"):
            SpaceTimeGrid.create(20, 2 * 10 ** 308, 1.0, 0.3)

    def test_smallest_time_step_with_finite_reciprocal(self):
        g = SpaceTimeGrid.create(20, 40, 40 * 6e-309, 0.3)
        assert 1.0 / g.dt < np.inf


def three_product_apply(op, u):
    """A u as ``(diag u[1:-1] + flux[1:] u[2:]) + flux[:-1] u[:-2]``, every product a
    fresh array, and +0.0 at the two boundary nodes."""
    out = np.zeros(np.shape(u))
    out[..., 1:-1] = (op.diag * u[..., 1:-1] + op.flux[1:] * u[..., 2:]) + op.flux[:-1] * u[..., :-2]
    return out


def assert_same_bits(a, b):
    """Equal values, NaN where the other is NaN, and equal signs of zero."""
    assert a.shape == b.shape
    assert np.array_equal(a, b, equal_nan=True)
    assert np.array_equal(np.signbit(a), np.signbit(b))


class TestOperator:
    @pytest.mark.parametrize("preset", [*sorted(PRESETS), "constant"])
    def test_interior_block_symmetric(self, preset):
        # the Crank-Nicolson solves factor it as L D L^T, which reads one off-diagonal
        config = copy.deepcopy(DEFAULT_CONFIG)
        if preset == "constant":
            config["coefficient"]["alpha"] = 0
        else:
            config["coefficient"].update(PRESETS[preset]["coefficient"])
        model = build_model(config)
        for N in (3, 20, config["grid"]["N"]):
            grid = build_grid(config, 1.0, N=N, M=1)
            op = assemble_operator(model, grid)
            block = op.apply(np.eye(grid.N + 1))[1:-1, 1:-1]
            assert np.array_equal(block, block.T)
            d, e = op.interior_tridiag()
            assert np.array_equal(np.diag(block), d) and np.array_equal(np.diag(block, 1), e)
            # every solve and eigen solve reads these bits: the diagonal is summed from
            # the midpoint values of a, not from the fluxes, which rounds differently
            a_mid, h2 = model.eval_a(grid.x_mid), grid.h ** 2
            assert np.array_equal(d, -(a_mid[:-1] + a_mid[1:]) / h2)
            assert np.array_equal(e, a_mid[1:-1] / h2)

    def test_laplacian_eigenvalues(self):
        m = CoefficientModel.constant(1.0, 0.5)
        g = SpaceTimeGrid.create(400, 1, 1.0, 0.5)
        op = assemble_operator(m, g)
        vals, modes = dirichlet_eigenmodes(op, 2)
        assert vals[0] == pytest.approx(-np.pi ** 2, rel=1e-4)
        assert vals[1] == pytest.approx(-4 * np.pi ** 2, rel=1e-4)
        # modes normalized with zero boundary values
        assert modes[0, 0] == 0.0 and modes[0, -1] == 0.0
        assert integrate_space(modes[0] ** 2, g) == pytest.approx(1.0, rel=1e-12)

    def test_hand_assembled_row_at_x0(self):
        m = CoefficientModel.power_law(0.5, 0.3, theta=0.5)
        g = SpaceTimeGrid.create(10, 1, 1.0, 0.3)
        op = assemble_operator(m, g)
        i0 = g.x0_index
        a_left = 0.05 ** 0.5
        a_right = 0.05 ** 0.5
        h2 = g.h ** 2
        # diag holds the interior nodes 1..N-1, flux the cells [x_i, x_i+1]
        assert op.diag[i0 - 1] == pytest.approx(-(a_left + a_right) / h2, rel=1e-14)
        assert op.flux[i0] == pytest.approx(a_right / h2, rel=1e-14)
        assert op.flux[i0 - 1] == pytest.approx(a_left / h2, rel=1e-14)

    def test_negative_semidefinite(self):
        m = CoefficientModel.power_law(0.5, 0.3)
        g = SpaceTimeGrid.create(64, 1, 1.0, 0.25)
        op = assemble_operator(m, g)
        rng = np.random.default_rng(1)
        for _ in range(10):
            z = rng.standard_normal(g.N + 1)
            z[0] = z[-1] = 0.0
            assert np.dot(z, op.apply(z)) <= 1e-12

    def test_exact_on_quadratic_constant_a(self):
        m = CoefficientModel.constant(1.0, 0.5)
        g = SpaceTimeGrid.create(100, 1, 1.0, 0.5)
        op = assemble_operator(m, g)
        u = g.x * (1.0 - g.x)
        Au = op.apply(u)
        np.testing.assert_allclose(Au[1:-1], -2.0, rtol=1e-11)

    def test_apply_block_matches_rows(self):
        m = CoefficientModel.power_law(0.5, 0.3)
        g = SpaceTimeGrid.create(40, 1, 1.0, 0.3)
        op = assemble_operator(m, g)
        block = np.random.default_rng(2).standard_normal((7, g.N + 1))
        np.testing.assert_array_equal(op.apply(block), np.stack([op.apply(r) for r in block]))

    @pytest.mark.parametrize("alpha", [0.5, 1.5])
    def test_apply_bit_identical_to_fresh_products(self, alpha):
        """The flat shifted passes give the bits of the three fresh products, and
        the boundary entries are 0 whatever u holds there."""
        g = SpaceTimeGrid.create(60, 120, 1.0, 0.3)
        op = assemble_operator(CoefficientModel.power_law(alpha, 0.3), g)
        rng = np.random.default_rng(3)
        for u in (rng.standard_normal(g.N + 1), rng.standard_normal((g.M + 1, g.N + 1))):
            assert_same_bits(op.apply(u), three_product_apply(op, u))

    @pytest.mark.parametrize("rows", [0, 1, 2, 27])
    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("N, x0", [(3, 1.0 / 3.0), (40, 0.3)])
    def test_apply_blocks_and_layouts(self, rows, layout, N, x0):
        """Every block height (a one-row block has no row whose shift stays inside
        it), every memory layout and the smallest grid, N + 1 = 4, give the three
        products' bits, signed zeros included; finite input raises no flag."""
        g = SpaceTimeGrid.create(N, 1, 1.0, x0)
        assert g.N == N
        op = assemble_operator(CoefficientModel.power_law(1.5, x0), g)
        rng = np.random.default_rng(rows)
        u = rng.standard_normal((rows, 2 * (N + 1)))[:, ::2] if layout == "strided" else \
            np.asarray(rng.standard_normal((rows, N + 1)), order=layout)
        u[:, 1::3] *= 0.0               # signed zeros: -0.0 where the draw was negative
        assert u.shape == (rows, N + 1)
        assert u.flags.c_contiguous or layout != "C"
        assert not u.flags.c_contiguous or layout == "C" or rows < 2
        with np.errstate(all="raise"):
            out = op.apply(u)
        assert out.shape == (rows, N + 1) and out.flags.c_contiguous
        assert_same_bits(out, three_product_apply(op, u))
        assert_same_bits(op.apply(u[0]) if rows else op.apply(np.ones(N + 1)),
                         three_product_apply(op, u[0] if rows else np.ones(N + 1)))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("col", [1, 2, 20, 39])
    @pytest.mark.parametrize("row", [0, 3, 6])
    def test_apply_nonfinite_interior_node(self, bad, col, row):
        """An inf or NaN at an interior node gives the formula's interior bits.  A
        padded lane next to it computes 0 times inf, a NaN and an invalid flag
        (ignored here), in a boundary column that is then written +0.0."""
        g = SpaceTimeGrid.create(40, 1, 1.0, 0.3)
        op = assemble_operator(CoefficientModel.power_law(0.5, 0.3), g)
        u = np.random.default_rng(col).standard_normal((7, g.N + 1))
        u[row, col] = bad
        with np.errstate(invalid="ignore"):
            out = op.apply(u)
        assert_same_bits(out, three_product_apply(op, u))

    def test_apply_boundary_columns_zero_on_dirty_memory(self):
        """apply zeroes only the two boundary columns of an uninitialised output:
        they are +0.0 even where the allocator hands back memory that held NaN."""
        g = SpaceTimeGrid.create(20, 1, 1.0, 0.3)
        op = assemble_operator(CoefficientModel.power_law(0.5, 0.3), g)
        rng = np.random.default_rng(4)
        for u in (rng.standard_normal(g.N + 1), rng.standard_normal((7, g.N + 1))):
            dirty = np.full(u.shape, np.nan)
            del dirty
            ends = op.apply(u)[..., [0, -1]]
            assert np.all(ends == 0.0) and not np.any(np.signbit(ends))


class TestQuadrature:
    def test_constant_and_linear_exact(self):
        g = SpaceTimeGrid.create(100, 1, 1.0, 0.5)
        assert integrate_space(np.ones(g.N + 1), g) == pytest.approx(1.0, rel=1e-14)
        assert integrate_space(g.x, g) == pytest.approx(0.5, rel=1e-14)

    def test_degenerate_integrand(self):
        g = SpaceTimeGrid.create(1000, 1, 1.0, 0.5)
        f = np.abs(g.x - 0.5) ** 1.0   # |x-x0|^(2-2a), a = 0.5
        assert integrate_space(f, g) == pytest.approx(0.25, abs=1e-4)

    def test_order_two_convergence(self):
        exact = 2.0 / np.pi
        errs = []
        for N in (100, 200):
            g = SpaceTimeGrid.create(N, 1, 1.0, 0.5)
            errs.append(abs(integrate_space(np.sin(np.pi * g.x), g) - exact))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)

    def test_spacetime_constant_field(self):
        g = SpaceTimeGrid.create(50, 20, 2.0, 0.5)
        vals = np.ones((g.M + 1, g.N + 1))
        assert integrate_spacetime(vals, g) == pytest.approx(2.0, rel=1e-13)

    def test_length_mismatch(self):
        g = SpaceTimeGrid.create(50, 1, 1.0, 0.5)
        with pytest.raises(ValueError):
            integrate_space(np.ones(10), g)


class TestField:
    def test_sample_rows_keeps_an_array_of_the_rows_shape(self):
        """A profile's value that has the rows' shape is returned as it is; a
        smaller one is broadcast to that shape, read-only."""
        from degenpde.grid import _sample_rows
        g = SpaceTimeGrid.create(20, 10, 1.0, 0.3)
        full = np.ones((4, g.N + 1))
        assert _sample_rows(lambda t, x: full, g, slice(2, 6)) is full
        row = _sample_rows(lambda t, x: x, g, slice(2, 6))
        assert row.shape == full.shape and not row.flags.writeable

    def test_shape_validation(self):
        g = SpaceTimeGrid.create(10, 5, 1.0, 0.5)
        with pytest.raises(ValueError):
            Field(g, np.zeros((3, 3)))

    def test_from_function_and_dirichlet(self):
        g = SpaceTimeGrid.create(10, 5, 1.0, 0.5)
        f = Field.from_function(g, lambda t, x: x * (1.0 - x) * t)
        assert not np.any(f.values[:, [0, -1]])
        assert f.values[0, 3] == 0.0
        assert f.values[-1, 5] == pytest.approx(0.25, rel=1e-14)

    @pytest.mark.parametrize("N,M,x0", [(10, 5, 0.5), (101, 37, 0.3), (400, 800, 0.123)])
    # the CLI's profiles are wrapped in lambdas, so every case id is <lambda>k
    @pytest.mark.parametrize("profile", [
        lambda t, x: _carleman_profile(1.0, 0.3, 5)(t, x),
        lambda t, x: _carleman_profile(0.5, 0.123, 1)(t, x),
        lambda t, x: x * (1.0 - x) * t, lambda t, x: t + x,
        lambda t, x: np.sin(7 * x) * np.exp(t), lambda t, x: x * (1.0 - x),
    ])
    def test_from_function_equals_meshgrid_evaluation(self, N, M, x0, profile):
        g = SpaceTimeGrid.create(N, M, 0.5, x0)
        f = Field.from_function(g, profile)
        tt, xx = np.meshgrid(g.t, g.x, indexing="ij")
        expected = np.broadcast_to(profile(tt, xx), f.values.shape)
        assert np.array_equal(f.values, expected)
        assert np.array_equal(np.signbit(f.values), np.signbit(expected))
        assert f.values.flags.c_contiguous and f.values.flags.writeable
        assert f.values.flags.owndata

    def test_csv_round_trip(self):
        g = SpaceTimeGrid.create(4, 2, 1.0, 0.5)
        f = Field.from_function(g, lambda t, x: t + x)
        text = f.to_csv()
        lines = text.splitlines()
        assert lines[0] == "t,x,value"
        assert len(lines) == 1 + (g.M + 1) * (g.N + 1)
        t, x, v = lines[7].split(",")
        assert float(t) + float(x) == pytest.approx(float(v), rel=1e-15)

    def test_csv_matches_csv_writer(self):
        g = SpaceTimeGrid.create(6, 3, 1.0, 0.5)
        f = Field.from_function(g, lambda t, x: np.sin(7 * x) * np.exp(t))
        f.values[0, :6] = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e300]
        f.values[1, :3] = [-1e-300, -1e300, 2.2250738585072014e-308]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["t", "x", "value"])
        for j, t in enumerate(g.t):
            for i, x in enumerate(g.x):
                writer.writerow([f"{t:.17g}", f"{x:.17g}", f"{f.values[j, i]:.17g}"])
        assert f.to_csv() == buf.getvalue()

    def test_csv_matches_per_value_format(self):
        # the row template's %.17g gives the bytes of f"{v:.17g}" on every value kind
        g = SpaceTimeGrid.create(10, 2, 0.7, 0.5)
        f = Field.from_function(g, lambda t, x: np.cos(5 * x) / (1.0 + t))
        f.values[0] = [-0.0, 0.0, 5e-324, -5e-324, 2.225073858507201e-308,
                       1e16, -1e16, 1e16 + 2, 9007199254740993.0, 1e-5, 0.1]
        f.values[1, :4] = [np.nan, np.inf, -np.inf, 1.7976931348623157e308]
        lines = ["t,x,value\n"]
        for j, t in enumerate(g.t.tolist()):
            for x, v in zip(g.x.tolist(), f.values[j].tolist()):
                lines.append(f"{t:.17g},{x:.17g},{v:.17g}\n")
        assert f.to_csv() == "".join(lines)
