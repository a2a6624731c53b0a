"""Space-time grids, sampled fields, the divergence-form operator, quadrature.

The space grid is uniform on [0, 1] with the degeneracy point snapped to a
node; the operator (a u_x)_x is assembled conservatively from midpoint
values of a, which keeps every coefficient positive and never touches a'.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from ._lapack import eigh_tridiagonal

__all__ = [
    "SpaceTimeGrid",
    "Field",
    "TridiagonalOperator",
    "assemble_operator",
    "integrate_space",
    "integrate_spacetime",
    "dirichlet_eigenmodes",
]

_SNAP_SEARCH_LIMIT = 100_000


def _snap_N(N: int, x0: float) -> int:
    """Smallest N' >= N for which x0 * N' is an integer (to fp accuracy)."""
    for cand in range(N, N + _SNAP_SEARCH_LIMIT):
        k = round(x0 * cand)
        if 0 < k < cand and abs(x0 * cand - k) < 1e-9:
            return cand
    raise ValueError(f"no admissible N >= {N} puts x0={x0} on a grid node")


def _require_time_step(T: float, M: int):
    """Raise unless T is positive and finite and the step T/M is nonzero with a
    finite reciprocal, which the time steppers divide by."""
    if not 0.0 < T < np.inf:
        raise ValueError(f"T must be positive, got {T}")
    try:
        dt = T / M
    except OverflowError:       # an integer M beyond the floating-point range
        raise ValueError(f"T={T} over M steps: M is beyond the floating-point range")
    if dt == 0.0 or 1.0 / dt == np.inf:
        raise ValueError(f"T={T} over M={M} steps gives the step {dt}, whose reciprocal "
                         "is infinite")


@dataclass(frozen=True)
class SpaceTimeGrid:
    """Uniform grid: x_i = i/N on [0, 1], t_j = j T / M, with x0 a node, exactly."""

    N: int
    M: int
    T: float
    x0: float
    x0_index: int
    x: np.ndarray = field(repr=False)
    t: np.ndarray = field(repr=False)

    @classmethod
    def create(cls, N: int, M: int, T: float, x0: float) -> "SpaceTimeGrid":
        if N < 2 or M < 1:
            raise ValueError(f"need N >= 2 and M >= 1, got N={N}, M={M}")
        _require_time_step(T, M)
        if not 0.0 < x0 < 1.0:
            raise ValueError(f"x0 must lie strictly in (0, 1), got {x0}")
        snapped = _snap_N(N, x0)
        x0_index = round(x0 * snapped)
        x = np.linspace(0.0, 1.0, snapped + 1)
        x[x0_index] = x0      # linspace may put it a rounding error off (N = 40, x0 = 0.3)
        t = np.linspace(0.0, T, M + 1)
        return cls(N=snapped, M=M, T=float(T), x0=float(x0),
                   x0_index=x0_index, x=x, t=t)

    @property
    def h(self) -> float:
        return 1.0 / self.N

    @property
    def dt(self) -> float:
        return self.T / self.M

    @property
    def x_mid(self) -> np.ndarray:
        """Cell midpoints x_{i+1/2}; never equal to x0 since x0 is a node."""
        return 0.5 * (self.x[:-1] + self.x[1:])

    def space_weights(self) -> np.ndarray:
        w = np.full(self.N + 1, self.h)
        w[0] = w[-1] = 0.5 * self.h
        return w

    def time_weights(self) -> np.ndarray:
        w = np.full(self.M + 1, self.dt)
        w[0] = w[-1] = 0.5 * self.dt
        return w


def _sample_rows(f, grid: SpaceTimeGrid, rows: slice = slice(None)) -> np.ndarray:
    """f(t, x) on the time rows ``rows`` and every node: f is called once on a
    column of those times and a row of nodes, and its float values broadcast to
    the rows' shape, read-only where they are a broadcast (an array of f's that
    has that shape is returned as it is).  For an elementwise f, the rows of a
    block are those of the whole grid, bit for bit."""
    t = grid.t[rows, None]
    values = np.asarray(f(t, grid.x[None, :]), dtype=float)
    shape = (t.shape[0], grid.N + 1)
    return values if values.shape == shape else np.broadcast_to(values, shape)


@dataclass
class Field:
    """Function sampled on the space-time grid; values[j, i] ~ f(t_j, x_i)."""

    grid: SpaceTimeGrid
    values: np.ndarray

    def __post_init__(self):
        expected = (self.grid.M + 1, self.grid.N + 1)
        if self.values.shape != expected:
            raise ValueError(f"field shape {self.values.shape} != grid shape {expected}")

    @classmethod
    def zeros(cls, grid: SpaceTimeGrid) -> "Field":
        return cls(grid, np.zeros((grid.M + 1, grid.N + 1)))

    @classmethod
    def from_function(cls, grid: SpaceTimeGrid, f) -> "Field":
        """Sample f(t, x), called once on a column of times and a row of nodes.

        f must broadcast its arguments, as elementwise numpy expressions do; the
        values are then those of f on the full meshgrid arrays, bit for bit,
        without building those arrays.  The field owns a writable copy.
        """
        return cls(grid, np.array(_sample_rows(f, grid), order="C"))

    def to_csv(self) -> str:
        """Serialize as RFC-4180 CSV with header t,x,value.

        Every field is a ``.17g`` number, which never needs quoting, so rows are
        joined directly rather than through ``csv.writer``.  Each time row is one
        ``%`` of a template that holds its t and x strings, with the bytes of
        ``f"{v:.17g}"`` for each value.
        """
        buf = io.StringIO()
        buf.write("t,x,value\n")
        xs = [f"{x:.17g}" for x in self.grid.x.tolist()]
        for j, t in enumerate(self.grid.t.tolist()):
            ts = f"{t:.17g}"
            template = "".join([f"{ts},{x},%.17g\n" for x in xs])
            buf.write(template % tuple(self.values[j].tolist()))
        return buf.getvalue()


@dataclass(frozen=True)
class TridiagonalOperator:
    """Discrete (a u_x)_x at the interior nodes; Dirichlet data fix the other two.

    Interior stencil: (A u)_i = [a_{i+1/2}(u_{i+1}-u_i) - a_{i-1/2}(u_i-u_{i-1})]/h^2.
    """

    grid: SpaceTimeGrid
    diag: np.ndarray    # interior diagonal, length N-1
    flux: np.ndarray    # a(x_{i+1/2}) / h^2 for each cell, length N

    def apply(self, u: np.ndarray) -> np.ndarray:
        """A u for a node vector, or for each row of a (rows, N+1) block, with 0 at
        x = 0 and x = 1.

        Each interior entry is ``(diag u + flux_right u) + flux_left u``, three
        products and two sums.  Every pass runs on C-contiguous memory (any
        other input is copied first): the diagonal, right and left coefficients
        are padded with zeros to N+1, and a neighbour term reads the block's
        flat array shifted by one element, as whole rows but for the one row
        whose shift would leave the block.  A padded lane computes 0 times a
        finite value, and the two boundary columns are written +0.0 last.
        """
        u = np.ascontiguousarray(u)
        n = u.shape[-1]
        rows = u.reshape(-1, n)
        flat = rows.reshape(-1)
        m = rows.shape[0] - 1           # the rows whose shifted neighbours stay in the block
        diag, right, left = np.zeros((3, n))
        diag[1:-1], right[1:-1], left[1:-1] = self.diag, self.flux[1:], self.flux[:-1]
        out = np.empty(u.shape)
        block = out.reshape(-1, n)
        np.multiply(rows, diag, out=block)
        if m >= 0:                      # a block of no rows has no neighbour terms
            scratch = np.empty(block.shape)
            np.multiply(right, flat[1:m * n + 1].reshape(m, n), out=scratch[:m])
            np.multiply(right[:-1], rows[m, 1:], out=scratch[m, :-1])
            scratch[m, -1] = 0.0
            block += scratch
            np.multiply(left, flat[n - 1:(m + 1) * n - 1].reshape(m, n), out=scratch[1:])
            np.multiply(left[1:], rows[0, :-1], out=scratch[0, 1:])
            scratch[0, 0] = 0.0
            block += scratch
        block[:, 0] = block[:, -1] = 0.0
        return out

    def interior_tridiag(self):
        """(d, e) of the symmetric interior block, rows/cols 1..N-1."""
        return self.diag.copy(), self.flux[1:-1].copy()


def assemble_operator(model, grid: SpaceTimeGrid) -> TridiagonalOperator:
    """Assemble the conservative second-order stencil for (a u_x)_x."""
    a_mid = model.eval_a(grid.x_mid)
    if np.any(a_mid <= 0.0):
        raise ValueError("coefficient vanishes at a cell midpoint; x0 must be a node")
    h2 = grid.h ** 2
    return TridiagonalOperator(grid=grid, diag=-(a_mid[:-1] + a_mid[1:]) / h2,
                               flux=a_mid / h2)


def dirichlet_eigenmodes(op: TridiagonalOperator, k: int):
    """First k eigenpairs of the interior block, sorted by |eigenvalue|.

    Eigenvalues are negative; modes are returned as full node vectors with
    zero boundary values, normalized in the grid L2 norm.
    """
    d, e = op.interior_tridiag()
    k = min(k, d.size)
    vals, vecs = eigh_tridiagonal(d, e, d.size - k, d.size - 1)
    order = np.argsort(-vals)  # closest to zero first
    vals = vals[order]
    vecs = vecs[:, order]
    grid = op.grid
    modes = np.zeros((k, grid.N + 1))
    for m in range(k):
        modes[m, 1:-1] = vecs[:, m]
        nrm = np.sqrt(integrate_space(modes[m] ** 2, grid))
        modes[m] /= nrm
    return vals, modes


def integrate_space(f: np.ndarray, grid: SpaceTimeGrid) -> float:
    """Composite trapezoid of f over [0, 1]."""
    f = np.asarray(f, dtype=float)
    if f.shape != (grid.N + 1,):
        raise ValueError(f"expected array of length {grid.N + 1}, got {f.shape}")
    return float(np.dot(grid.space_weights(), f))


def integrate_spacetime(values: np.ndarray, grid: SpaceTimeGrid) -> float:
    """Trapezoid in both variables of a (M+1, N+1) sampled integrand."""
    vals = np.asarray(values, dtype=float)
    if vals.shape != (grid.M + 1, grid.N + 1):
        raise ValueError(f"expected shape {(grid.M + 1, grid.N + 1)}, got {vals.shape}")
    per_t = vals @ grid.space_weights()
    return float(np.dot(grid.time_weights(), per_t))
