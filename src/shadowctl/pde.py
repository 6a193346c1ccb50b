"""Implicit-Euler solvers for the controlled two-component system.

The controlled system on Omega = (0, 1) with zero-flux boundaries is

    y_t - lap y       = f(y, z) + chi_omega h,
    z_t - sigma lap z = g(y, z),

together with its linearizations (frozen coefficient fields a_ij) and the
backward-in-time dual system.  An implicit Euler step takes one of two
exact forms:

* For coefficients constant in space and time, :func:`_march_in_modes`
  steps each mode of the cosine basis of the Neumann Laplacian on its own:
  the step is n independent 2 x 2 blocks, whose inverses
  :func:`_mode_blocks` gives in a form finite at every sigma, the shadow
  limit sigma = inf included.  The penalized solve of
  :func:`~shadowctl.hum.hum_solve` takes this march and builds no step
  band.
* Otherwise the step is one solve with a banded LU factorization
  (:func:`_band_lu`: LAPACK dgbtrf per step matrix, two triangular band
  solves dtbtrs per step, both from scipy, which the first such
  factorization loads): pentadiagonal for the two-component step (see
  :class:`StepOperators`), which the linear, dual and semilinear marchers
  all take, and tridiagonal for the heat step of
  :class:`ShadowStepOperators`.  These marchers take constant fields too;
  their digits fall as sigma grows, in proportion to sigma dt / h^2.

The dual march solves with the transpose on the same LU factors, so it
applies the exact transpose of the forward one-step matrix and the discrete
duality identity

    <u(T), p(T)> = <u(0), p(0)> + dt sum_m <chi h^m, phi^m>

holds to round-off for any control and any terminal data.

A frozen-coefficient system is named once, by its :class:`StepOperators`:
the linear marchers take them, the semilinear one those of its reaction-free
part, and all read sigma and the grids from them.
:class:`ShadowStepOperators` step the same system in the shadow limit
sigma = inf, where z collapses onto its spatial mean, the scalar mode xi:
their stacked state is (y; xi), of length n_cells + 1.  Each ops exposes
one primitive, ``ops.solve(row, m, trans=0)``, which takes step m in place
on a state held in the ops' solve order, with ``ops.order`` and
``ops.restack`` permuting into and out of it and ``ops.y_entries`` and
``ops.z_entries`` picking its components.  Each marcher owns its loop over
the steps in that order and hands back stacked states (y; z), y first, of
length ``ops.size``, in the march array that :class:`Trajectory` keeps.
The forward marchers take either ops; the dual marcher takes
:class:`StepOperators` alone, as the reduced step has no transpose yet.
``ops.restrict`` maps a z field to the z-entries, by its mean for xi, and
:attr:`Trajectory.z` lifts xi back to the constant field z = xi.

Conventions: coefficient fields are node-indexed with shape
(n_steps + 1, n_cells) and the step t_m -> t_{m+1} reads slice m; control
fields carry one slice per step, shape (n_steps, n_cells), slice m acting on
(t_m, t_{m+1}] and pairing with dual node m.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .mesh import (Grid1D, TimeGrid, _cosine_basis, _laplacian_stencil, fit_slope,
                   mean_value, norm_l2)
from .nonlinear import NonlinearityPair

__all__ = [
    "CoefficientField", "ControlField", "Trajectory", "EnergyReport",
    "SemigroupReport", "StepOperators", "ShadowStepOperators",
    "constant_coefficients", "zero_coefficients", "control_cost",
    "solve_forward_linear", "solve_adjoint", "solve_forward_semilinear",
    "energy_functional", "semigroup_checks",
]


# OpenBLAS runs a product with m * n * k up to 64^3 on the calling thread
# (:mod:`shadowctl.hum`'s docstring).
_SERIAL_GEMM = 64**3
# the most rows a chunk of _serial_product holds once it tiles b's columns;
# 32 was fastest of 8, 16, 32, 64 and 128 at n = 400 and 1000
_PRODUCT_ROWS = 32


def _checked(a, shape: tuple[int, ...], name: str) -> np.ndarray:
    """``a`` as a float array, which must have ``shape`` and finite entries."""
    arr = np.asarray(a, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


@dataclass(frozen=True)
class CoefficientField:
    """Frozen linearization coefficients, node-indexed space-time fields."""

    grid: Grid1D
    tgrid: TimeGrid
    a11: np.ndarray
    a12: np.ndarray
    a21: np.ndarray
    a22: np.ndarray

    def __post_init__(self) -> None:
        shape = (self.tgrid.n_steps + 1, self.grid.n_cells)
        for name in ("a11", "a12", "a21", "a22"):
            object.__setattr__(self, name, _checked(getattr(self, name), shape, name))

    @cached_property
    def sup_norms(self) -> tuple[float, float, float, float]:
        """(sup|a11|, sup|a12|, sup|a21|, sup|a22|) over the space-time lattice."""
        return tuple(float(np.max(np.abs(getattr(self, n))))
                     for n in ("a11", "a12", "a21", "a22"))

    @property
    def max_sup(self) -> float:
        return max(self.sup_norms)

    @cached_property
    def constant(self) -> bool:
        """Whether each field holds one value, in space and in time."""
        return all(np.ptp(getattr(self, n)) == 0.0
                   for n in ("a11", "a12", "a21", "a22"))


def constant_coefficients(grid: Grid1D, tgrid: TimeGrid,
                          a11: float, a12: float, a21: float, a22: float) -> CoefficientField:
    """Spatially and temporally constant coefficient field."""
    shape = (tgrid.n_steps + 1, grid.n_cells)
    return CoefficientField(grid, tgrid,
                            np.full(shape, float(a11)), np.full(shape, float(a12)),
                            np.full(shape, float(a21)), np.full(shape, float(a22)))


def zero_coefficients(grid: Grid1D, tgrid: TimeGrid) -> CoefficientField:
    return constant_coefficients(grid, tgrid, 0.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class ControlField:
    """Control acting in the y-equation, one slice per time step.

    Entries on cells whose window indicator vanishes are zeroed at
    construction; the solvers additionally weight the injected source by the
    (possibly fractional) indicator itself.
    """

    grid: Grid1D
    tgrid: TimeGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        arr = _checked(self.values, (self.tgrid.n_steps, self.grid.n_cells), "control")
        arr = arr * (self.grid.omega_indicator > 0.0)
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)


def control_cost(control: ControlField) -> float:
    """Indicator-weighted space-time norm ||h||_{L2(omega x (0,T))}.

    Computed as sqrt(dt * sum_m sum_i h_sp * chi_i * h_{m,i}^2), the exact
    dual norm appearing in the discrete optimality system.
    """
    grid = control.grid
    chi = grid.omega_indicator
    sq = control.tgrid.dt * grid.spacing * float(np.sum(chi[None, :] * control.values**2))
    return float(np.sqrt(sq))


@dataclass(frozen=True)
class Trajectory:
    """March array ``u``: row m is the stacked state (y; z) at node m, so
    ``u`` has shape (n_steps + 1, ops.size); ``y`` and ``z`` are views.

    ``z`` is the lifted field, shape (n_steps + 1, n_cells), read-only for
    either ops: for :class:`ShadowStepOperators` it is the constant field
    z = xi, and the scalar mode xi itself is ``u[:, -1]``."""

    grid: Grid1D
    tgrid: TimeGrid
    sigma: float
    u: np.ndarray

    def __post_init__(self) -> None:
        rows, n = self.tgrid.n_steps + 1, self.grid.n_cells
        if np.shape(self.u) not in ((rows, 2 * n), (rows, n + 1)):
            raise ValueError(f"march array must have shape ({rows}, {2 * n}) or "
                             f"({rows}, {n + 1}), got {np.shape(self.u)}")

    @property
    def y(self) -> np.ndarray:
        return self.u[:, :self.grid.n_cells]

    @property
    def z(self) -> np.ndarray:
        return np.broadcast_to(self.u[:, self.grid.n_cells:], self.y.shape)

    def terminal_norms(self) -> tuple[float, float]:
        return norm_l2(self.grid, self.y[-1]), norm_l2(self.grid, self.z[-1])


@cache
def _band_routines():
    """(``dgbtrf``, ``dtbtrs``), scipy's, imported at the first band
    factorization, so that a command which builds no step band never loads
    scipy (:mod:`shadowctl._lapack`).  Cached: an import statement in
    :func:`_band_lu` added 2-7 us to each factorization's 12 us."""
    from ._lapack import dgbtrf, dtbtrs
    return dgbtrf, dtbtrs


def _band_lu(ab: np.ndarray, k: int):
    """LU-factorize a band matrix with k sub- and superdiagonals, stored as
    ``dgbtrf`` takes it: a Fortran-ordered (3k + 1)-row array whose row
    2k + i - j holds entry (i, j) and whose top k rows are zero, for the
    fill-in of row pivoting.  Return ``solve(rhs, trans=0)``, which solves a
    vector or columns, with ``trans=1`` the transpose, in place when ``rhs``
    is a Fortran-ordered float array, and returns the solution.

    ``dgbtrf`` factors ``ab`` in place; each solve is two triangular band
    solves with ``dtbtrs``, unit-diagonal L from the multiplier rows and
    then U, or U and then L with the transposes.  ``dgbtrs`` would make one
    BLAS call per column (``dger`` in its L sweep, ``dgemv`` in its
    transposed one), where ``dtbtrs`` runs each triangle in one ``dtbsv``
    call.  At 2n = 200, on one core of a 2-vCPU Intel Xeon, a solve took
    3.6-5.2 us forward and 3.9-5.1 us transposed, against 6.2-9.4 and
    9.8-18.0 us with ``dgbtrs`` (best of ``timeit``, four runs each).  The
    forward L sweep is column-oriented like ``dgbtrs``'s, so forward solves
    round alike.  Both step matrices are strictly diagonally dominant by
    columns under the step bound dt * max|a_ij| < 0.5, so row pivoting never
    swaps a row; a factorization that pivots raises ``RuntimeError``.  Only
    the two triangles' bands are kept.
    """
    dgbtrf, dtbtrs = _band_routines()
    lu, piv, info = dgbtrf(ab, k, k, overwrite_ab=True)
    if info != 0:
        raise RuntimeError(f"band LU failed: dgbtrf returned info = {info}")
    # pivot i is row piv[i] >= i, so no row was swapped exactly when the
    # pivots sum to 0 + 1 + ... + (size - 1)
    if piv.sum() != piv.size * (piv.size - 1) // 2:
        raise RuntimeError("band LU pivoted: the step matrix is not "
                           "diagonally dominant")
    upper = np.asfortranarray(lu[k:2 * k + 1])
    lower = np.asfortranarray(lu[2 * k:])   # row 0, U's diagonal, is unread

    # dtbtrs(ab, b, uplo, trans, diag, overwrite_b), positional: f2py
    # parses keywords slower than the solve's own arithmetic at these sizes
    def solve(rhs: np.ndarray, trans: int = 0) -> np.ndarray:
        if trans:
            rhs = dtbtrs(upper, rhs, "U", "T", "N", 1)[0]
            return dtbtrs(lower, rhs, "L", "T", "U", 1)[0]
        rhs = dtbtrs(lower, rhs, "L", "N", "U", 1)[0]
        return dtbtrs(upper, rhs, "U", "N", "N", 1)[0]
    return solve


def _heat_band(grid: Grid1D, scale: float) -> np.ndarray:
    """The scalar step matrix I - scale * lap in :func:`_band_lu`'s storage,
    k = 1."""
    main, off = _laplacian_stencil(grid)
    band = np.zeros((4, grid.n_cells), order="F")
    band[1, 1:] = band[3, :-1] = -scale * off
    band[2] = 1.0 - scale * main
    return band


class _Stepper:
    """What both step operators share: the grids and the coefficient field,
    the bound that keeps every implicit step safely invertible, and the
    per-step factors, each made by the subclass's ``_build(m)`` on first use
    and once if the coefficients are constant."""

    def __init__(self, coeffs: CoefficientField) -> None:
        if coeffs.tgrid.dt * coeffs.max_sup >= 0.5:
            raise ValueError(
                f"dt * max coefficient sup-norm = {coeffs.tgrid.dt * coeffs.max_sup:.3g} "
                "must stay below 0.5 for a safely invertible implicit step")
        self.grid = coeffs.grid
        self.tgrid = coeffs.tgrid
        self.coeffs = coeffs
        self._factors: list = [None] * coeffs.tgrid.n_steps

    def _factor(self, m: int):
        if self.coeffs.constant:
            m = 0
        if self._factors[m] is None:
            self._factors[m] = self._build(m)
        return self._factors[m]


class StepOperators(_Stepper):
    """Factorized one-step solvers for a frozen-coefficient system.

    Built from sigma and a coefficient field, whose grids it takes; every
    marcher of the two-component system steps with one and labels its
    results with its sigma.  A state is one stacked vector of length
    ``size`` = 2 n_cells, y in its first n_cells entries and z after them.

    I - dt*A_m couples y_i and z_i only through the coefficient slice m, so
    in the interleaved unknowns (y_0, z_0, y_1, z_1, ...) it is pentadiagonal:
    a12, a21 on the first off-diagonals, the stencils of lap and sigma*lap on
    the second, and each band is LU-factorized.  That interleaved order is
    the solve order: ``order`` permutes a stacked state into it,
    :meth:`restack` a march array out of it, and ``y_entries`` and
    ``z_entries`` pick the components.  :meth:`solve` takes one step in
    place, with ``trans=1`` the exact transpose on the same factors.
    ``cache`` keeps what solvers derive from these operators for later
    calls, such as the Gramian and factors of :func:`~shadowctl.hum.hum_solve`.
    """

    y_entries = slice(0, None, 2)
    z_entries = slice(1, None, 2)

    def __init__(self, sigma: float, coeffs: CoefficientField) -> None:
        if not 0.0 < sigma < np.inf:
            raise ValueError(f"sigma must be positive and finite, got {sigma}; "
                             "the shadow limit sigma = inf is ShadowStepOperators")
        super().__init__(coeffs)
        self.sigma = float(sigma)
        size, dt = self.size, self.tgrid.dt
        # diffusion rows of the interleaved band: y and z columns alternate
        heat = np.stack([_heat_band(self.grid, dt), _heat_band(self.grid, dt * sigma)],
                        axis=-1)
        self._band = np.zeros((7, size))
        self._band[2::2] = heat[1:].reshape(3, size)
        self.order = np.arange(size).reshape(2, -1).T.ravel()
        self._stack = np.arange(size).reshape(-1, 2).T.ravel()
        self.cache: dict = {}

    @property
    def size(self) -> int:
        """Length 2 n_cells of a stacked state."""
        return 2 * self.grid.n_cells

    def _build(self, m: int):
        dt, c = self.tgrid.dt, self.coeffs
        band = self._band.copy(order="F")
        band[3, 1::2] = -dt * c.a12[m]
        band[4, 0::2] -= dt * c.a11[m]
        band[4, 1::2] -= dt * c.a22[m]
        band[5, 0::2] = -dt * c.a21[m]
        return _band_lu(band, 2)

    def solve(self, row: np.ndarray, m: int, trans: int = 0) -> None:
        """Solve step m in place on ``row``, a contiguous state in the solve
        order: from node m to node m + 1, or with ``trans=1`` the dual step
        from node m + 1 to node m."""
        self._factor(m)(row, trans=trans)

    def restack(self, u: np.ndarray) -> None:
        """Permute the rows of a march array from the solve order back to
        stacked states, 64 rows at a time, so that no second march array is
        allocated."""
        for i in range(0, u.shape[0], 64):
            u[i:i + 64] = u[i:i + 64, self._stack]

    def restrict(self, field: np.ndarray) -> np.ndarray:
        """The z-entries of a per-cell z field: the field itself."""
        return field


class ShadowStepOperators(_Stepper):
    """Factorized one-step solver for the shadow limit of a frozen-coefficient
    system, the reduced counterpart of :class:`StepOperators`.

    As sigma -> inf the fast component z collapses onto its spatial mean,
    the scalar mode xi with d(xi)/dt = mean(a21 y + a22 xi).  A state is one
    stacked vector of length ``size`` = n_cells + 1, y in its first n_cells
    entries and xi last; ``sigma`` is inf.  The stacked order is the solve
    order, so ``order`` and :meth:`restack` leave a state as it is.  The
    implicit step from node m is the tridiagonal heat block of y bordered by
    the a12 column and the mean row dx a21 (dx the cell width, so dx * sum
    is the mean), with right-hand side (b; b_xi), the state at node m plus
    dt times whatever source the marcher adds:

        [ K_m                 -dt a12[m]             ] [y']   [b   ]
        [ -dt dx a21[m]^T     1 - dt dx sum a22[m]   ] [xi'] = [b_xi]

    with K_m = I - dt lap - dt diag(a11[m]).  It is solved as v = K_m^-1 b,
    xi' = (b_xi + dt dx a21[m] . v) / s_m, y' = v + xi' w_m, where
    w_m = K_m^-1 (dt a12[m]) and s_m = 1 - dt dx sum a22[m] - dt dx a21[m] . w_m
    is the one-unknown Schur complement.  The bound dt * max|a_ij| < 0.5
    keeps K_m an M-matrix and s_m positive.  The step has no transpose yet,
    so the reduced system has no dual march.
    """

    order = slice(None)

    def __init__(self, coeffs: CoefficientField) -> None:
        super().__init__(coeffs)
        self.sigma = np.inf
        n = self.grid.n_cells
        self.y_entries, self.z_entries = slice(0, n), slice(n, None)

    @property
    def size(self) -> int:
        """Length n_cells + 1 of a stacked state (y; xi)."""
        return self.grid.n_cells + 1

    def _build(self, m: int):
        dt, dx, c = self.tgrid.dt, self.grid.spacing, self.coeffs
        band = _heat_band(self.grid, dt)
        band[2] -= dt * c.a11[m]
        solve = _band_lu(band, 1)
        w = solve(dt * c.a12[m])
        mean_row = dt * dx * c.a21[m]
        schur = 1.0 - dt * dx * np.sum(c.a22[m]) - mean_row @ w
        return solve, w, mean_row, schur

    def solve(self, row: np.ndarray, m: int, trans: int = 0) -> None:
        """Solve step m in place on the stacked state ``row`` (y; xi), from
        node m to node m + 1; ``trans=1`` raises ``ValueError``."""
        if trans:
            raise ValueError("the reduced system has no transposed step")
        solve, w, mean_row, schur = self._factor(m)
        v = solve(row[:-1])
        xi = (row[-1] + mean_row @ v) / schur
        np.add(v, xi * w, out=row[:-1])
        row[-1] = xi

    def restack(self, u: np.ndarray) -> None:
        """Nothing to permute: the solve order is the stacked order."""

    def restrict(self, field: np.ndarray) -> np.ndarray:
        """The one z-entry of a per-cell z field: its mean, as a 1-entry array."""
        return self.grid.spacing * np.sum(field, axis=-1, keepdims=True)


def _check_dual(ops: StepOperators | ShadowStepOperators) -> None:
    """Refuse the reduced system, whose step has no transpose."""
    if isinstance(ops, ShadowStepOperators):
        raise ValueError("the reduced system (ShadowStepOperators) has no dual "
                         "march; solve_adjoint and hum_solve take StepOperators")


def _initial_state(ops: StepOperators | ShadowStepOperators,
                   control: ControlField | None,
                   y0: np.ndarray, z0: np.ndarray) -> np.ndarray:
    """The stacked state (y0; z0) of a forward march of ``ops``, once the
    data and the control's grids are checked."""
    n = ops.grid.n_cells
    state = np.concatenate([_checked(y0, (n,), "y0"), _checked(z0, (ops.size - n,), "z0")])
    if control is not None and (control.grid != ops.grid or control.tgrid != ops.tgrid):
        raise ValueError("control field was built for a different grid")
    return state


def _forward_march(ops: StepOperators | ShadowStepOperators,
                   control: ControlField | None,
                   y0: np.ndarray, z0: np.ndarray) -> np.ndarray:
    """Node array of a forward march of ``ops``, row 0 holding (y0; z0) in
    the solve order."""
    u = np.empty((ops.tgrid.n_steps + 1, ops.size))
    u[0] = _initial_state(ops, control, y0, z0)[ops.order]
    return u


def solve_forward_linear(ops: StepOperators | ShadowStepOperators,
                         control: ControlField | None,
                         y0: np.ndarray, z0: np.ndarray) -> Trajectory:
    """March the system of ``ops`` forward from (y0, z0).

    The control is weighted by the window indicator and enters the y-equation
    only; ``control=None`` means free flow.  For :class:`ShadowStepOperators`
    ``z0`` is the one-entry array (xi0,).  Each step adds dt times its
    control slice to the y-entries of the state and solves in place.
    """
    u = _forward_march(ops, control, y0, z0)
    y = ops.y_entries
    scaled = (None if control is None
              else ops.tgrid.dt * (ops.grid.omega_indicator * control.values))
    for m in range(ops.tgrid.n_steps):
        row = u[m + 1]
        row[:] = u[m]
        if scaled is not None:
            row[y] += scaled[m]
        ops.solve(row, m)
    ops.restack(u)
    return Trajectory(ops.grid, ops.tgrid, ops.sigma, u)


def _serial_product(a: np.ndarray, b: np.ndarray) -> None:
    """a <- a b for a square b, in chunks of rows small enough that each
    product runs on the calling thread.  Where such a chunk would hold a
    single row (n >= 363), the rows are split evenly into chunks of at most
    ``_PRODUCT_ROWS``, and each chunk is taken in tiles of b's columns:
    single-row chunks are matrix-vector products, which run at memory speed
    (on one core of a 2-vCPU Intel Xeon, 402 rows at n = 1000 took 127 ms
    that way and 38 ms in tiles)."""
    n = b.shape[1]
    rows = _SERIAL_GEMM // (a.shape[1] * n)
    if rows > 1:
        for i in range(0, a.shape[0], rows):
            a[i:i + rows] = a[i:i + rows] @ b
        return
    width = max(1, _SERIAL_GEMM // (a.shape[1] * _PRODUCT_ROWS))
    chunks = -(-a.shape[0] // _PRODUCT_ROWS)
    bounds = [i * a.shape[0] // chunks for i in range(chunks + 1)]
    out = np.empty((_PRODUCT_ROWS, n))
    for i, j in zip(bounds, bounds[1:]):
        for c in range(0, n, width):
            out[:j - i, c:c + width] = a[i:j] @ b[:, c:c + width]
        a[i:j] = out[:j - i]


def _mode_blocks(ops: StepOperators | ShadowStepOperators) -> tuple[np.ndarray, ...]:
    """The inverse step of a field constant in space and time, per mode of
    the cosine basis Q = diag(C, C) of :func:`~shadowctl.mesh._cosine_basis`.

    In Q the step matrix is n independent 2 x 2 blocks [[p, q], [r, s]], one
    per mode j, with p = 1 + dt mu_j - dt a11, q = -dt a12, r = -dt a21 and
    s = 1 + dt sigma mu_j - dt a22.  Returns (i0, i1, i2, i3), arrays of
    length n holding the inverse blocks [[i0, i1], [i2, i3]] in the
    s-division form i0 = 1 / (p - q r / s), i1 = -(q / s) i0,
    i2 = -(r / s) i0, i3 = (p / s) i0.  It is finite for every sigma: at
    sigma = inf (:class:`ShadowStepOperators`) every mode j >= 1 has s = inf
    and the block [[1 / p, 0], [0, 0]], and mode 0, where mu_0 = 0, keeps its
    2 x 2 block, the bordered mean step.
    """
    n, dt, c = ops.grid.n_cells, ops.tgrid.dt, ops.coeffs
    mu = _cosine_basis(n)[1]
    fast = np.zeros(n)
    with np.errstate(over="ignore"):
        # mu_0 = 0, where 0 * inf would not be; an overflow to inf is the limit
        fast[1:] = dt * ops.sigma * mu[1:]
    p = 1.0 + dt * mu - dt * c.a11[0, 0]
    s = 1.0 + fast - dt * c.a22[0, 0]
    q, r = -dt * c.a12[0, 0], -dt * c.a21[0, 0]
    i0 = 1.0 / (p - q * r / s)
    return i0, -(q / s) * i0, -(r / s) * i0, (p / s) * i0


def _march_in_modes(ops: StepOperators | ShadowStepOperators,
                    control: ControlField | None,
                    y0: np.ndarray, z0: np.ndarray) -> Trajectory:
    """:func:`solve_forward_linear` for coefficients constant in space and
    time (``ValueError`` otherwise), stepped per cosine mode.

    The data and the control are taken to the cosine basis by one product
    with C each, every step applies the inverse blocks of :func:`_mode_blocks`
    to each mode, and one product takes the march array back.  No step band
    is built or solved, and the step is exact at every sigma, including the
    shadow limit: for :class:`ShadowStepOperators` the z-entry marched is the
    mean mode's coordinate sqrt(n) xi, C's column 0 being 1 / sqrt(n), and
    the z-modes j >= 1, which vanish at sigma = inf, are not stored.
    """
    if not ops.coeffs.constant:
        raise ValueError("the per-mode march takes coefficients constant in "
                         "space and time")
    state = _initial_state(ops, control, y0, z0)
    n, size, steps = ops.grid.n_cells, ops.size, ops.tgrid.n_steps
    nz = size - n   # the z-modes stored: n, or the mean mode alone
    basis = _cosine_basis(n)[0]
    i0, i1, i2, i3 = _mode_blocks(ops)
    u = np.empty((steps + 1, size))
    # row m + 1 starts as step m's image of the source, A^-1 (dt C^T chi h^m; 0)
    if control is None:
        u[1:] = 0.0
    else:
        source = ops.tgrid.dt * (ops.grid.omega_indicator * control.values)
        _serial_product(source, basis)
        np.multiply(source, i0, out=u[1:, :n])
        np.multiply(source[:, :nz], i2[:nz], out=u[1:, n:])
    u[0, :n] = state[:n] @ basis
    u[0, n:] = state[n:] @ basis if nz == n else np.sqrt(n) * state[n:]
    # u^(m+1) += same * u^m + cross * u^m[partner]: the diagonal of each
    # block, and its off-diagonal, which pairs y-mode j with z-mode j
    same = np.concatenate([i0, i3[:nz]])
    cross = np.concatenate([i1[:nz], np.zeros(n - nz), i2[:nz]])
    partner = np.concatenate([np.arange(n, size), np.arange(nz, n), np.arange(nz)])
    term = np.empty(size)
    for m in range(steps):
        row, following = u[m], u[m + 1]
        np.multiply(same, row, out=term)
        following += term
        np.multiply(cross, row[partner], out=term)
        following += term
    if nz == n:
        _serial_product(u.reshape(-1, n), basis.T)
    else:
        _serial_product(u[:, :n], basis.T)
        u[:, n] /= np.sqrt(n)
    u[0] = state   # the data themselves, not their round trip through C
    return Trajectory(ops.grid, ops.tgrid, ops.sigma, u)


def solve_adjoint(ops: StepOperators, p_T: np.ndarray) -> Trajectory:
    """March the dual of the system of ``ops`` backward from the state p_T.

    ``p_T`` is a stacked dual state of length ``ops.size``.  Each backward
    step applies the transpose of the corresponding forward step matrix,
    which in particular swaps the zero-order coupling blocks.  Row m of the
    returned trajectory holds the dual state at node m, phi in ``y`` and psi
    in ``z``.  The reduced system has no dual march:
    :class:`ShadowStepOperators` raise ``ValueError``.
    """
    _check_dual(ops)
    last = ops.tgrid.n_steps
    p = np.empty((last + 1, ops.size))
    p[last] = _checked(p_T, (ops.size,), "p_T")[ops.order]
    for m in range(last - 1, -1, -1):
        row = p[m]
        row[:] = p[m + 1]
        ops.solve(row, m, trans=1)
    ops.restack(p)
    return Trajectory(ops.grid, ops.tgrid, ops.sigma, p)


def solve_forward_semilinear(ops: StepOperators | ShadowStepOperators,
                             pair: NonlinearityPair,
                             control: ControlField | None,
                             y0: np.ndarray, z0: np.ndarray,
                             inner_tol: float = 1e-10,
                             max_inner: int = 50) -> Trajectory:
    """March the semilinear system forward, reaction resolved implicitly.

    ``ops`` steps the reaction-free system with zero coefficients: the full
    one, ``StepOperators(sigma, ...)``, whose marches at one sigma can share
    a factorization, or its shadow limit, ``ShadowStepOperators(...)``, with
    ``z0 = (xi0,)`` and d(xi)/dt = mean g(y, xi).  Each step solves the fully
    implicit equation by fixed-point iteration on the reaction term: f and g
    are evaluated on y and the lifted z field, g is taken back to the
    z-entries by ``ops.restrict``, and every iterate is one step of ``ops``,
    taken in place in its solve order.
    dt * max(C_f, C_g) < 1 is enforced so the per-step map is a contraction.
    """
    if ops.coeffs.max_sup != 0.0:
        raise ValueError("the semilinear march needs the StepOperators of the "
                         "reaction-free system (zero coefficients)")
    u = _forward_march(ops, control, y0, z0)
    dt = ops.tgrid.dt
    if not 0.0 < inner_tol < np.inf:
        raise ValueError(f"inner_tol must be positive and finite, got {inner_tol}")
    if max_inner < 1:
        raise ValueError(f"max_inner must be at least 1, got {max_inner}")
    cmax = max(pair.f.lipschitz, pair.g.lipschitz)
    if dt * cmax >= 1.0:
        raise ValueError(
            f"dt * max Lipschitz bound = {dt * cmax:.3g} must stay below 1 "
            "for the per-step fixed point to contract")
    y, z = ops.y_entries, ops.z_entries
    chi = ops.grid.omega_indicator
    # w holds the last iterate; its views, z lifted, are made once per march
    w = np.empty(ops.size)
    wy, wz = w[y], np.broadcast_to(w[z], (ops.grid.n_cells,))
    for m in range(ops.tgrid.n_steps):
        src = chi * control.values[m] if control is not None else 0.0
        # iterate in place on row m + 1, from the state at node m, until the
        # sup-norm change is within inner_tol * max(1, sup of the iterate)
        row = u[m + 1]
        w[:] = u[m]
        for _ in range(max_inner):
            row[y] = np.asarray(pair.f.value(wy, wz)) + src
            row[z] = ops.restrict(np.asarray(pair.g.value(wy, wz)))
            row *= dt
            row += u[m]
            ops.solve(row, m)
            delta = float(np.abs(row - w).max())
            if delta <= inner_tol * max(1.0, float(np.abs(row).max())):
                break
            w[:] = row
        else:
            raise RuntimeError(
                f"implicit reaction solve stalled at step {m}: "
                f"last update {delta:.3e} above tolerance {inner_tol:.1e} "
                f"after {max_inner} iterations")
    ops.restack(u)
    return Trajectory(ops.grid, ops.tgrid, ops.sigma, u)


@dataclass(frozen=True)
class EnergyReport:
    """Space-time energy norms of a trajectory."""

    norm_y_l2h1: float
    norm_z_l2h1: float
    sigma_grad_z: float
    terminal_y: float
    terminal_z: float


def _grad_energy(grid: Grid1D, field: np.ndarray) -> np.ndarray:
    # per-slice Dirichlet energy via interior face differences: sum (du)^2 / h
    du = np.diff(field, axis=-1)
    return np.sum(du * du, axis=-1) / grid.spacing


def _sigma_grad_z(traj: Trajectory) -> float:
    """The weighted gradient term sigma * int int |grad z|^2 of
    :func:`energy_functional`, trapezoid in time; 0 when z is constant in
    space, as on a shadow trajectory, although sigma is inf there."""
    grad_z = np.trapezoid(_grad_energy(traj.grid, traj.z), traj.tgrid.nodes)
    return float(traj.sigma * grad_z) if grad_z else 0.0


def energy_functional(traj: Trajectory) -> EnergyReport:
    """Trapezoid-in-time energy norms of a trajectory.

    Reports ||y||_{L2(0,T;H1)}, ||z||_{L2(0,T;H1)}, the weighted gradient
    term sigma * int int |grad z|^2, and the terminal L2 norms.  On a shadow
    trajectory z is the constant field z = xi, so the weighted gradient term
    is 0, although sigma is inf.
    """
    grid, tgrid = traj.grid, traj.tgrid
    t = tgrid.nodes
    z = traj.z
    l2_y = grid.spacing * np.sum(traj.y**2, axis=1)
    l2_z = grid.spacing * np.sum(z**2, axis=1)
    g_y = _grad_energy(grid, traj.y)
    g_z = _grad_energy(grid, z)
    norm_y = float(np.sqrt(np.trapezoid(l2_y + g_y, t)))
    norm_z = float(np.sqrt(np.trapezoid(l2_z + g_z, t)))
    term_y, term_z = traj.terminal_norms()
    return EnergyReport(norm_y_l2h1=norm_y, norm_z_l2h1=norm_z,
                        sigma_grad_z=_sigma_grad_z(traj),
                        terminal_y=term_y, terminal_z=term_z)


@dataclass(frozen=True)
class SemigroupReport:
    """Diagnostics of the pure fast-diffusion flow z_t = sigma lap z."""

    sigma: float
    constant_error: float
    fitted_exponent: float
    expected_exponent: float
    exponent_rel_error: float
    max_mean_drift: float
    sigma_dt_product: float


def semigroup_checks(grid: Grid1D, tgrid: TimeGrid, sigma: float) -> SemigroupReport:
    """Verify the two structural facts of the Neumann heat flow at rate sigma.

    (i) constants are exact equilibria; (ii) the mean-zero mode cos(pi x)
    decays at rate sigma * lambda_1 with lambda_1 = pi^2, recovered here by a
    log-linear fit of the L2 norm.  Also reports the worst drift of the
    spatial mean, which the implicit stepper conserves.  Both marches are the
    z-component of free flows of one reaction-free :class:`StepOperators`,
    whose z-rows are the heat step at rate sigma.
    """
    ops = StepOperators(sigma, zero_coefficients(grid, tgrid))
    y0 = np.zeros(grid.n_cells)

    # The stepper preserves spatial means identically (the ones-row
    # annihilates the Laplacian), so the constant check carries the mean
    # separately and steps only the fluctuation; the measured defect then
    # reflects the scheme rather than triangular-solve round-off
    # accumulated over the horizon.
    const = 0.7
    zc = np.full(grid.n_cells, const)
    mean0 = mean_value(grid, zc)
    fluct = solve_forward_linear(ops, None, y0, zc - mean0).z[-1]
    constant_error = float(np.max(np.abs(mean0 + fluct - const)) / const)

    z = solve_forward_linear(ops, None, y0, np.cos(np.pi * grid.cell_centers)).z
    norms = np.array([norm_l2(grid, zm) for zm in z])
    means = np.array([mean_value(grid, zm) for zm in z])
    fitted = fit_slope(tgrid.nodes, np.log(norms))
    expected = -sigma * np.pi**2
    return SemigroupReport(
        sigma=float(sigma),
        constant_error=constant_error,
        fitted_exponent=fitted,
        expected_exponent=float(expected),
        exponent_rel_error=float(abs(fitted - expected) / abs(expected)),
        max_mean_drift=float(np.max(np.abs(means - means[0]))),
        sigma_dt_product=float(sigma * np.pi**2 * tgrid.dt),
    )
