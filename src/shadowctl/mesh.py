"""Cell-centered 1D mesh primitives on the unit interval.

The grid covers Omega = (0, 1) with ``n_cells`` uniform cells; field values
live at cell centers.  A marked open subinterval ``(omega_a, omega_b)`` is the
control window; cells straddling its endpoints carry fractional indicator
values (cut cells).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

# Smallest indicator mass, in cells, of an accepted control window.
_MIN_WINDOW_MASS = 1e-6


@dataclass(frozen=True)
class Grid1D:
    """Uniform cell-centered grid on (0, 1) with a control window.

    Parameters
    ----------
    n_cells : int
        Number of cells; at least 4.
    omega_a, omega_b : float
        Endpoints of the open control window, ``0 < omega_a < omega_b < 1``.
        The window must carry an indicator mass ``sum(omega_indicator)`` of
        at least ``_MIN_WINDOW_MASS`` = 1e-6 of a cell: a control confined to
        less acts on nothing measurable, so such a window is rejected with
        ``ValueError`` rather than left to report a converged solve that
        controls nothing.
    """

    n_cells: int
    omega_a: float = 0.3
    omega_b: float = 0.7

    def __post_init__(self) -> None:
        if self.n_cells < 4:
            raise ValueError(f"n_cells must be at least 4, got {self.n_cells}")
        if not (0.0 < self.omega_a < self.omega_b < 1.0):
            raise ValueError(
                "control window must satisfy 0 < omega_a < omega_b < 1, got "
                f"({self.omega_a}, {self.omega_b})"
            )
        # The few cells around the one holding omega_a carry the whole mass
        # of a window below one cell, and at least one cell of any larger
        # window, so checking those keeps this O(1) in n_cells.
        first = int(self.omega_a * self.n_cells)
        near = np.arange(max(first - 1, 0), min(first + 4, self.n_cells))
        mass = float(np.sum(self._overlap_fraction(near)))
        if mass < _MIN_WINDOW_MASS:
            raise ValueError(f"control window ({self.omega_a}, {self.omega_b}) "
                             f"covers {mass:.3g} of a cell, below the minimum "
                             f"{_MIN_WINDOW_MASS:g}")

    @property
    def spacing(self) -> float:
        """Cell width h = 1 / n_cells."""
        return 1.0 / self.n_cells

    @cached_property
    def cell_centers(self) -> np.ndarray:
        """Cell centers x_i = (i + 1/2) h, shape (n_cells,)."""
        x = (np.arange(self.n_cells) + 0.5) * self.spacing
        x.flags.writeable = False
        return x

    @cached_property
    def omega_indicator(self) -> np.ndarray:
        """Per-cell overlap fraction |cell ∩ (omega_a, omega_b)| / h.

        Values are in [0, 1]; interior cells of the window get exactly 1,
        cells outside get exactly 0, and the two straddling cells (if the
        window endpoints fall inside a cell) get the overlap fraction.
        """
        chi = self._overlap_fraction(np.arange(self.n_cells))
        chi.flags.writeable = False
        return chi

    def _overlap_fraction(self, cells: np.ndarray) -> np.ndarray:
        h = self.spacing
        left = cells * h
        overlap = np.minimum(left + h, self.omega_b) - np.maximum(left, self.omega_a)
        chi = np.clip(overlap / h, 0.0, 1.0)
        # snap fractions born of edge-coordinate round-off so window bounds
        # that align with cell edges give an exact 0/1 indicator
        chi[chi < 1e-12] = 0.0
        chi[chi > 1.0 - 1e-12] = 1.0
        return chi


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid on [0, horizon] with ``n_steps`` implicit steps."""

    horizon: float
    n_steps: int

    def __post_init__(self) -> None:
        if not 0.0 < self.horizon < np.inf:
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be at least 1, got {self.n_steps}")

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    @cached_property
    def nodes(self) -> np.ndarray:
        """Time nodes t_m = m dt, shape (n_steps + 1,)."""
        t = np.linspace(0.0, self.horizon, self.n_steps + 1)
        t.flags.writeable = False
        return t


def _laplacian_stencil(grid: Grid1D) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal, shape (n_cells,), and off-diagonal, shape (n_cells - 1,),
    of the symmetric tridiagonal Neumann Laplacian on cell centers."""
    inv_h2 = 1.0 / grid.spacing**2
    main = np.full(grid.n_cells, -2.0 * inv_h2)
    main[0] = main[-1] = -inv_h2
    off = np.full(grid.n_cells - 1, inv_h2)
    return main, off


@cache
def _cosine_basis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal eigenvectors C, shape (n, n), and eigenvalues mu, shape
    (n,), of minus the Laplacian of :func:`_laplacian_stencil` on a grid of n
    cells: L C = C diag(-mu), with C[i, k] = c_k cos(pi k (i + 1/2) / n), c_0
    = sqrt(1/n), c_k = sqrt(2/n), and mu_k = (4 / h^2) sin^2(pi k / (2n)).
    Read-only, computed once per n."""
    k = np.arange(n)
    c = np.cos(np.pi / n * np.outer(np.arange(n) + 0.5, k)) * np.sqrt(2.0 / n)
    c[:, 0] = np.sqrt(1.0 / n)
    h = 1.0 / n   # Grid1D.spacing
    mu = (2.0 / h * np.sin(0.5 * np.pi / n * k))**2
    c.flags.writeable = mu.flags.writeable = False
    return c, mu


def inner_product(grid: Grid1D, u: np.ndarray, v: np.ndarray) -> float:
    """Discrete L2(Omega) inner product h * sum(u_i v_i)."""
    u = np.asarray(u)
    v = np.asarray(v)
    if u.shape != (grid.n_cells,) or v.shape != (grid.n_cells,):
        raise ValueError(
            f"expected two vectors of shape ({grid.n_cells},), got {u.shape} and {v.shape}"
        )
    return grid.spacing * float(np.dot(u, v))


def norm_l2(grid: Grid1D, u: np.ndarray) -> float:
    """Discrete L2(Omega) norm induced by :func:`inner_product`."""
    return float(np.sqrt(inner_product(grid, u, u)))


def mean_value(grid: Grid1D, u: np.ndarray) -> float:
    """Average of u over Omega = (0, 1); equals h * sum(u_i) here."""
    u = np.asarray(u)
    if u.shape != (grid.n_cells,):
        raise ValueError(f"expected a vector of shape ({grid.n_cells},), got {u.shape}")
    return grid.spacing * float(np.sum(u))


def fit_slope(x, y) -> float:
    """Least-squares slope of y against x, sum(dx dy) / sum(dx^2) on the
    centred data: the leading coefficient of a degree-1 fit."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    dx = x - x.mean()
    return float(dx @ (y - y.mean()) / (dx @ dx))
