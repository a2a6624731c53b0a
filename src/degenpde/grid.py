"""Space-time grids, sampled fields, the divergence-form operator, quadrature.

The space grid is uniform on [0, 1] with the degeneracy point snapped to a
node; the operator (a u_x)_x is assembled conservatively from midpoint
values of a, which keeps every coefficient positive and never touches a'.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh_tridiagonal

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


@dataclass(frozen=True)
class SpaceTimeGrid:
    """Uniform grid: x_i = i/N on [0, 1], t_j = j T / M, with x0 a node."""

    N: int
    M: int
    T: float
    x0: float
    x0_index: int
    requested_N: int
    x: np.ndarray = field(repr=False)
    t: np.ndarray = field(repr=False)

    @classmethod
    def create(cls, N: int, M: int, T: float, x0: float) -> "SpaceTimeGrid":
        if T <= 0.0:
            raise ValueError(f"T must be positive, got {T}")
        if N < 2 or M < 1:
            raise ValueError(f"need N >= 2 and M >= 1, got N={N}, M={M}")
        if not 0.0 < x0 < 1.0:
            raise ValueError(f"x0 must lie strictly in (0, 1), got {x0}")
        snapped = _snap_N(N, x0)
        x0_index = round(x0 * snapped)
        x = np.linspace(0.0, 1.0, snapped + 1)
        t = np.linspace(0.0, T, M + 1)
        return cls(N=snapped, M=M, T=float(T), x0=float(x0),
                   x0_index=x0_index, requested_N=N, x=x, t=t)

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
        tt, xx = np.meshgrid(grid.t, grid.x, indexing="ij")
        return cls(grid, np.asarray(f(tt, xx), dtype=float))

    def is_dirichlet(self, tol: float = 0.0) -> bool:
        return bool(np.all(np.abs(self.values[:, 0]) <= tol)
                    and np.all(np.abs(self.values[:, -1]) <= tol))

    def to_csv(self) -> str:
        """Serialize as RFC-4180 CSV with header t,x,value.

        Every field is a ``.17g`` number, which never needs quoting, so rows are
        joined directly rather than through ``csv.writer``.
        """
        buf = io.StringIO()
        buf.write("t,x,value\n")
        xs = [f"{x:.17g}" for x in self.grid.x.tolist()]
        for j, t in enumerate(self.grid.t.tolist()):
            ts = f"{t:.17g}"
            row = self.values[j].tolist()
            buf.write("".join([f"{ts},{x},{v:.17g}\n" for x, v in zip(xs, row)]))
        return buf.getvalue()


@dataclass(frozen=True)
class TridiagonalOperator:
    """Discrete (a u_x)_x with Dirichlet identity rows at i = 0 and i = N.

    Interior stencil: (A u)_i = [a_{i+1/2}(u_{i+1}-u_i) - a_{i-1/2}(u_i-u_{i-1})]/h^2.
    """

    grid: SpaceTimeGrid
    lower: np.ndarray   # sub-diagonal, length N
    diag: np.ndarray    # length N+1
    upper: np.ndarray   # super-diagonal, length N

    def apply(self, u: np.ndarray) -> np.ndarray:
        """A u for a node vector, or for each row of a (rows, N+1) block."""
        out = self.diag * u
        out[..., :-1] += self.upper * u[..., 1:]
        out[..., 1:] += self.lower * u[..., :-1]
        return out

    def interior_tridiag(self):
        """(d, e) of the symmetric interior block, rows/cols 1..N-1."""
        return self.diag[1:-1].copy(), self.upper[1:-1].copy()


def assemble_operator(model, grid: SpaceTimeGrid) -> TridiagonalOperator:
    """Assemble the conservative second-order stencil for (a u_x)_x."""
    a_mid = model.eval_a(grid.x_mid)
    if np.any(a_mid <= 0.0):
        raise ValueError("coefficient vanishes at a cell midpoint; x0 must be a node")
    h2 = grid.h ** 2
    N = grid.N
    diag = np.zeros(N + 1)
    lower = np.zeros(N)
    upper = np.zeros(N)
    diag[1:N] = -(a_mid[:-1] + a_mid[1:]) / h2
    upper[1:N] = a_mid[1:N] / h2
    lower[0:N - 1] = a_mid[0:N - 1] / h2
    # Dirichlet identity rows
    diag[0] = diag[N] = 1.0
    upper[0] = 0.0
    lower[N - 1] = 0.0
    return TridiagonalOperator(grid=grid, lower=lower, diag=diag, upper=upper)


def dirichlet_eigenmodes(op: TridiagonalOperator, k: int):
    """First k eigenpairs of the interior block, sorted by |eigenvalue|.

    Eigenvalues are negative; modes are returned as full node vectors with
    zero boundary values, normalized in the grid L2 norm.
    """
    d, e = op.interior_tridiag()
    k = min(k, d.size)
    vals, vecs = eigh_tridiagonal(d, e, select="i", select_range=(d.size - k, d.size - 1))
    order = np.argsort(-vals)  # closest to zero first
    vals = vals[order]
    vecs = vecs[:, order]
    grid = op.grid
    modes = np.zeros((k, grid.N + 1))
    for m in range(k):
        modes[m, 1:-1] = vecs[:, m]
        nrm = np.sqrt(integrate_space(modes[m] ** 2, None, grid))
        modes[m] /= nrm
    return vals, modes


def integrate_space(f: np.ndarray, weight, grid: SpaceTimeGrid) -> float:
    """Composite trapezoid of f * weight over [0, 1]."""
    f = np.asarray(f, dtype=float)
    if f.shape != (grid.N + 1,):
        raise ValueError(f"expected array of length {grid.N + 1}, got {f.shape}")
    integrand = f if weight is None else f * np.asarray(weight, dtype=float)
    return float(np.dot(grid.space_weights(), integrand))


def integrate_spacetime(values: np.ndarray, grid: SpaceTimeGrid,
                        weight: np.ndarray | None = None) -> float:
    """Trapezoid in both variables of a (M+1, N+1) sampled integrand."""
    vals = np.asarray(values, dtype=float)
    if vals.shape != (grid.M + 1, grid.N + 1):
        raise ValueError(f"expected shape {(grid.M + 1, grid.N + 1)}, got {vals.shape}")
    if weight is not None:
        vals = vals * weight
    per_t = vals @ grid.space_weights()
    return float(np.dot(grid.time_weights(), per_t))
