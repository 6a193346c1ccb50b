"""Implicit-Euler solvers for the controlled two-component system.

The controlled system on Omega = (0, 1) with zero-flux boundaries is

    y_t - lap y       = f(y, z) + chi_omega h,
    z_t - sigma lap z = g(y, z),

together with its linearizations (frozen coefficient fields a_ij) and the
backward-in-time dual system.  Every implicit Euler step is one solve with
a banded LU factorization (LAPACK dgbtrf/dgbtrs): pentadiagonal for the
two-component step (see :class:`StepOperators`), which the linear, dual and
semilinear marchers all take, and tridiagonal for the scalar heat steps of
the reduced marcher and :func:`solve_heat`.  The dual stepper solves with
the transpose on the same LU factors, so it applies the exact transpose of
the forward one-step matrix and the discrete duality identity

    <u(T), p(T)> = <u(0), p(0)> + dt sum_m <chi h^m, phi^m>

holds to round-off for any control and any terminal data.

A frozen-coefficient system is named once, by its :class:`StepOperators`:
the linear marchers take them, the semilinear one those of its reaction-free
part, and all read sigma and the grids from them.  The
marchers exchange whole stacked states (y; z), y first, of length
``StepOperators.size``, and :class:`Trajectory` keeps their march array.
:class:`ShadowStepOperators` step the same system in the shadow limit
sigma = inf, where z collapses onto its spatial mean, the scalar mode xi:
their stacked state is (y; xi), of length n_cells + 1, so ``z`` holds xi as
a one-entry row, and :func:`solve_forward_linear` marches them too.  Each of
their steps is the tridiagonal heat solve of y bordered by the a12 column
and the mean row, closed by a one-unknown Schur complement.
:func:`solve_shadow` keeps a Gauss-Seidel fixed point for nonlinear
reactions.

Conventions: coefficient fields are node-indexed with shape
(n_steps + 1, n_cells) and the step t_m -> t_{m+1} reads slice m; control
fields carry one slice per step, shape (n_steps, n_cells), slice m acting on
(t_m, t_{m+1}] and pairing with dual node m.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .mesh import Grid1D, TimeGrid, mean_value, neumann_laplacian, norm_l2
from .nonlinear import NonlinearityPair

__all__ = [
    "CoefficientField", "ControlField", "Trajectory", "ShadowTrajectory",
    "EnergyReport", "SemigroupReport", "StepOperators", "ShadowStepOperators",
    "constant_coefficients", "zero_coefficients", "control_cost",
    "solve_forward_linear", "solve_adjoint", "solve_forward_semilinear",
    "solve_shadow", "solve_heat", "energy_functional", "semigroup_checks",
]


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
    def time_invariant(self) -> bool:
        return all(np.ptp(getattr(self, n), axis=0).max() == 0.0
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

    ``z`` has n_cells columns for :class:`StepOperators` and one, the scalar
    mode xi, for :class:`ShadowStepOperators`."""

    grid: Grid1D
    tgrid: TimeGrid
    sigma: float
    u: np.ndarray

    @property
    def y(self) -> np.ndarray:
        return self.u[:, :self.grid.n_cells]

    @property
    def z(self) -> np.ndarray:
        return self.u[:, self.grid.n_cells:]

    def terminal_norms(self) -> tuple[float, float]:
        # a reduced xi is the constant field z = xi, so it broadcasts
        z_T = np.broadcast_to(self.z[-1], (self.grid.n_cells,))
        return norm_l2(self.grid, self.y[-1]), norm_l2(self.grid, z_T)


@dataclass(frozen=True)
class ShadowTrajectory:
    """Reduced state: a diffusing y field coupled to the scalar mean mode xi."""

    grid: Grid1D
    tgrid: TimeGrid
    y: np.ndarray
    xi: np.ndarray


def _check_control(grid: Grid1D, tgrid: TimeGrid, control: ControlField | None) -> None:
    if control is not None and (control.grid != grid or control.tgrid != tgrid):
        raise ValueError("control field was built for a different grid")


def _band_lu(band: np.ndarray, k: int):
    """LU-factorize a band matrix with k sub- and superdiagonals, stored as
    LAPACK does (row k + i - j holds entry (i, j)); return ``solve(rhs,
    trans=0)``, which takes a vector or columns, ``trans=1`` the transpose."""
    ab = np.zeros((3 * k + 1, band.shape[1]), order="F")
    ab[k:] = band   # the top k rows take the fill-in of row pivoting
    lu, piv, info = dgbtrf(ab, k, k, overwrite_ab=True)
    if info != 0:
        raise RuntimeError(f"band LU failed: dgbtrf returned info = {info}")

    def solve(rhs: np.ndarray, trans: int = 0) -> np.ndarray:
        return dgbtrs(lu, k, k, rhs, piv, trans=trans)[0]
    return solve


def _heat_band(grid: Grid1D, scale: float) -> np.ndarray:
    """Band storage (k = 1) of the scalar step matrix I - scale * lap."""
    lap = neumann_laplacian(grid).matrix
    band = np.zeros((3, grid.n_cells))
    band[0, 1:] = -scale * lap.diagonal(1)
    band[1] = 1.0 - scale * lap.diagonal()
    band[2, :-1] = -scale * lap.diagonal(-1)
    return band


def _check_step_size(coeffs: CoefficientField) -> None:
    """Reject a step at which dt * a_ij could make an implicit step singular."""
    if coeffs.tgrid.dt * coeffs.max_sup >= 0.5:
        raise ValueError(
            f"dt * max coefficient sup-norm = {coeffs.tgrid.dt * coeffs.max_sup:.3g} "
            "must stay below 0.5 for a safely invertible implicit step")


class StepOperators:
    """Factorized one-step solvers for a frozen-coefficient system.

    Built from sigma and a coefficient field, whose grids it takes; every
    marcher of the two-component system steps with one and labels its
    results with its sigma.  A state is one stacked vector of length
    ``size`` = 2 n_cells, y in its first n_cells entries and z after them.

    I - dt*A_m couples y_i and z_i only through the coefficient slice m, so
    in the interleaved unknowns (y_0, z_0, y_1, z_1, ...) it is pentadiagonal:
    a12, a21 on the first off-diagonals, the stencils of lap and sigma*lap on
    the second.  Each band is LU-factorized on first use, once if the
    coefficients are constant in time.  The steps map stacked states,
    vectors or column blocks, and the adjoint solves with the transpose on
    the same factors: the exact transpose of the forward step.
    """

    def __init__(self, sigma: float, coeffs: CoefficientField) -> None:
        if not sigma > 0.0:
            raise ValueError(f"sigma must be positive, got {sigma}")
        _check_step_size(coeffs)
        self.grid = grid = coeffs.grid
        self.tgrid = tgrid = coeffs.tgrid
        self.sigma = float(sigma)
        self.coeffs = coeffs
        size, dt = self.size, tgrid.dt
        # diffusion rows of the interleaved band: y and z columns alternate
        heat = np.stack([_heat_band(grid, dt), _heat_band(grid, dt * sigma)], axis=-1)
        self._band = np.zeros((5, size))
        self._band[::2] = heat.reshape(3, size)
        self._interleave = np.arange(size).reshape(2, -1).T.ravel()
        self._stack = np.arange(size).reshape(-1, 2).T.ravel()
        self._solvers: list = [None] * tgrid.n_steps

    @property
    def size(self) -> int:
        """Length 2 n_cells of a stacked state."""
        return 2 * self.grid.n_cells

    def _solver(self, m: int):
        if self.coeffs.time_invariant:
            m = 0
        if self._solvers[m] is None:
            dt, c = self.tgrid.dt, self.coeffs
            band = self._band.copy()
            band[1, 1::2] = -dt * c.a12[m]
            band[2, 0::2] -= dt * c.a11[m]
            band[2, 1::2] -= dt * c.a22[m]
            band[3, 0::2] = -dt * c.a21[m]
            self._solvers[m] = _band_lu(band, 2)
        return self._solvers[m]

    def step_forward(self, u: np.ndarray, m: int,
                     source_y: np.ndarray | None = None) -> np.ndarray:
        """Advance the stacked state from node m to node m + 1."""
        rhs = u if source_y is None else u + np.concatenate(
            [self.tgrid.dt * source_y, np.zeros(self.grid.n_cells)])
        return self._solver(m)(rhs[self._interleave])[self._stack]

    def step_adjoint(self, p: np.ndarray, m: int,
                     source: np.ndarray | None = None) -> np.ndarray:
        """Pull the stacked dual state back from node m + 1 to node m.

        Solves with the exact transpose of the forward step matrix, which in
        particular swaps the zero-order coupling blocks.
        """
        rhs = p if source is None else p + self.tgrid.dt * source
        return self._solver(m)(rhs[self._interleave], trans=1)[self._stack]


class ShadowStepOperators:
    """Factorized one-step solver for the shadow limit of a frozen-coefficient
    system, the reduced counterpart of :class:`StepOperators`.

    As sigma -> inf the fast component z collapses onto its spatial mean,
    the scalar mode xi with d(xi)/dt = mean(a21 y + a22 xi).  A state is one
    stacked vector of length ``size`` = n_cells + 1, y in its first n_cells
    entries and xi last; ``sigma`` is inf.  The implicit step from node m is
    the tridiagonal heat block of y bordered by the a12 column and the mean
    row dx a21 (dx the cell width, so dx * sum is the mean; f = ``source_y``,
    the windowed control):

        [ K_m                 -dt a12[m]             ] [y']   [y + dt f]
        [ -dt dx a21[m]^T     1 - dt dx sum a22[m]   ] [xi'] = [xi      ]

    with K_m = I - dt lap - dt diag(a11[m]).  It is solved as v = K_m^-1 (y +
    dt f), xi' = (xi + dt dx a21[m] . v) / s_m, y' = v + xi' w_m, where
    w_m = K_m^-1 (dt a12[m]) and s_m = 1 - dt dx sum a22[m] - dt dx a21[m] . w_m
    is the one-unknown Schur complement.  The bound dt * max|a_ij| < 0.5
    keeps K_m an M-matrix and s_m positive.  The factors of a slice are built
    on first use, once if the coefficients are constant in time.
    """

    def __init__(self, coeffs: CoefficientField) -> None:
        _check_step_size(coeffs)
        self.grid = coeffs.grid
        self.tgrid = coeffs.tgrid
        self.sigma = np.inf
        self.coeffs = coeffs
        self._factors: list = [None] * coeffs.tgrid.n_steps

    @property
    def size(self) -> int:
        """Length n_cells + 1 of a stacked state (y; xi)."""
        return self.grid.n_cells + 1

    def _factor(self, m: int):
        if self.coeffs.time_invariant:
            m = 0
        if self._factors[m] is None:
            dt, dx, c = self.tgrid.dt, self.grid.spacing, self.coeffs
            band = _heat_band(self.grid, dt)
            band[1] -= dt * c.a11[m]
            solve = _band_lu(band, 1)
            w = solve(dt * c.a12[m])
            mean_row = dt * dx * c.a21[m]
            schur = 1.0 - dt * dx * np.sum(c.a22[m]) - mean_row @ w
            self._factors[m] = solve, w, mean_row, schur
        return self._factors[m]

    def step_forward(self, u: np.ndarray, m: int,
                     source_y: np.ndarray | None = None) -> np.ndarray:
        """Advance the stacked state (y; xi) from node m to node m + 1."""
        n = self.grid.n_cells
        solve, w, mean_row, schur = self._factor(m)
        v = solve(u[:n] if source_y is None else u[:n] + self.tgrid.dt * source_y)
        xi = (u[n] + mean_row @ v) / schur
        return np.append(v + xi * w, xi)


def _forward_march(ops: StepOperators | ShadowStepOperators,
                   control: ControlField | None,
                   y0: np.ndarray, z0: np.ndarray) -> np.ndarray:
    """Node array of a forward march of ``ops``, row 0 holding (y0; z0)."""
    n = ops.grid.n_cells
    u = np.empty((ops.tgrid.n_steps + 1, ops.size))
    u[0, :n] = _checked(y0, (n,), "y0")
    u[0, n:] = _checked(z0, (ops.size - n,), "z0")
    _check_control(ops.grid, ops.tgrid, control)
    return u


def solve_forward_linear(ops: StepOperators | ShadowStepOperators,
                         control: ControlField | None,
                         y0: np.ndarray, z0: np.ndarray) -> Trajectory:
    """March the system of ``ops`` forward from (y0, z0).

    The control is weighted by the window indicator and enters the y-equation
    only; ``control=None`` means free flow.  For :class:`ShadowStepOperators`
    ``z0`` is the one-entry array (xi0,).
    """
    u = _forward_march(ops, control, y0, z0)
    chi = ops.grid.omega_indicator
    for m in range(ops.tgrid.n_steps):
        src = chi * control.values[m] if control is not None else None
        u[m + 1] = ops.step_forward(u[m], m, src)
    return Trajectory(ops.grid, ops.tgrid, ops.sigma, u)


def solve_adjoint(ops: StepOperators, p_T: np.ndarray,
                  source: np.ndarray | None = None) -> Trajectory:
    """March the dual of the system of ``ops`` backward from the state p_T.

    ``p_T`` is a stacked dual state of length ``ops.size`` and ``source``,
    if given, a node-indexed array of them, shape (n_steps + 1, ops.size).
    Each backward step applies the transpose of the corresponding forward
    step matrix; source row m + 1 enters the step down to node m, which
    keeps the sourced duality identity exact.  Row m of the returned
    trajectory holds the dual state at node m, phi in ``y`` and psi in ``z``.
    """
    msteps = ops.tgrid.n_steps
    p = np.empty((msteps + 1, ops.size))
    p[msteps] = _checked(p_T, (ops.size,), "p_T")
    if source is not None:
        source = _checked(source, p.shape, "source")
    for m in range(msteps - 1, -1, -1):
        p[m] = ops.step_adjoint(p[m + 1], m, None if source is None else source[m + 1])
    return Trajectory(ops.grid, ops.tgrid, ops.sigma, p)


def _nonlinear_step(update, start: np.ndarray, inner_tol: float,
                    max_inner: int, m: int) -> np.ndarray:
    """Resolve one implicit step by the fixed-point iteration v <- update(v),
    warm-started at ``start``, until the sup-norm change is within
    inner_tol * max(1, sup|v|)."""
    v = start
    for _ in range(max_inner):
        v_new = update(v)
        delta = float(np.max(np.abs(v_new - v)))
        v = v_new
        if delta <= inner_tol * max(1.0, float(np.max(np.abs(v_new)))):
            return v
    raise RuntimeError(
        f"implicit reaction solve stalled at step {m}: "
        f"last update {delta:.3e} above tolerance {inner_tol:.1e} "
        f"after {max_inner} iterations")


def _check_inner_solve(dt: float, pair: NonlinearityPair, inner_tol: float,
                       max_inner: int) -> None:
    """Reject settings under which the per-step fixed point cannot converge."""
    if not 0.0 < inner_tol < np.inf:
        raise ValueError(f"inner_tol must be positive and finite, got {inner_tol}")
    if max_inner < 1:
        raise ValueError(f"max_inner must be at least 1, got {max_inner}")
    cmax = max(pair.lipschitz_f, pair.lipschitz_g)
    if dt * cmax >= 1.0:
        raise ValueError(
            f"dt * max Lipschitz bound = {dt * cmax:.3g} must stay below 1 "
            "for the per-step fixed point to contract")


def solve_forward_semilinear(ops: StepOperators, pair: NonlinearityPair,
                             control: ControlField | None,
                             y0: np.ndarray, z0: np.ndarray,
                             inner_tol: float = 1e-10,
                             max_inner: int = 50) -> Trajectory:
    """March the semilinear system forward, reaction resolved implicitly.

    ``ops`` steps the reaction-free system, ``StepOperators(sigma,
    zero_coefficients(grid, tgrid))``, so marches at one sigma can share its
    factorization.  Each step solves the fully implicit equation by
    fixed-point iteration on the reaction term, every iterate one step of
    ``ops``; dt * max(C_f, C_g) < 1 is enforced so the per-step map is a
    contraction.
    """
    if ops.coeffs.max_sup != 0.0:
        raise ValueError("the semilinear march needs the StepOperators of the "
                         "reaction-free system (zero coefficients)")
    u = _forward_march(ops, control, y0, z0)
    dt = ops.tgrid.dt
    _check_inner_solve(dt, pair, inner_tol, max_inner)
    n = ops.grid.n_cells
    chi = ops.grid.omega_indicator
    for m in range(ops.tgrid.n_steps):
        src = chi * control.values[m] if control is not None else 0.0

        def update(v: np.ndarray) -> np.ndarray:
            vy, vz = v[:n], v[n:]
            reaction = np.concatenate([np.asarray(pair.f.value(vy, vz)) + src,
                                       np.asarray(pair.g.value(vy, vz))])
            return ops.step_forward(u[m] + dt * reaction, m)

        u[m + 1] = _nonlinear_step(update, u[m], inner_tol, max_inner, m)
    return Trajectory(ops.grid, ops.tgrid, ops.sigma, u)


def solve_shadow(grid: Grid1D, tgrid: TimeGrid,
                 pair: NonlinearityPair,
                 control: ControlField | None,
                 y0: np.ndarray, xi0: float,
                 inner_tol: float = 1e-10,
                 max_inner: int = 50) -> ShadowTrajectory:
    """March the reduced system: diffusing y coupled to the scalar mode xi.

    xi obeys d(xi)/dt = mean_x g(y, xi) and replaces the fast-diffusing
    component; the y-equation keeps unit diffusion and the windowed control.
    Each step iterates Gauss-Seidel fashion: the new y, then xi from it.
    """
    n = grid.n_cells
    # each node stacks y and, last, the scalar mode xi
    u = np.empty((tgrid.n_steps + 1, n + 1))
    u[0, :n] = _checked(y0, (n,), "y0")
    u[0, n] = _checked(xi0, (), "xi0")
    _check_control(grid, tgrid, control)
    dt = tgrid.dt
    _check_inner_solve(dt, pair, inner_tol, max_inner)
    solve_y = _band_lu(_heat_band(grid, dt), 1)
    chi = grid.omega_indicator
    for m in range(tgrid.n_steps):
        src = chi * control.values[m] if control is not None else 0.0

        def update(v: np.ndarray) -> np.ndarray:
            vy, vxi = v[:n], v[n]
            vy_new = solve_y(u[m, :n] + dt * (np.asarray(pair.f.value(vy, vxi)) + src))
            g_mean = mean_value(grid, np.asarray(pair.g.value(vy_new, np.full(n, vxi))))
            return np.append(vy_new, u[m, n] + dt * g_mean)

        u[m + 1] = _nonlinear_step(update, u[m], inner_tol, max_inner, m)
    return ShadowTrajectory(grid, tgrid, u[:, :n], u[:, n])


def solve_heat(grid: Grid1D, tgrid: TimeGrid, kappa: float, u0: np.ndarray,
               source: np.ndarray | None = None) -> np.ndarray:
    """Node slices (n_steps + 1, n_cells) of u_t = kappa lap u + F from u0,
    by implicit Euler; slice m + 1 of the node-indexed source F, if given,
    enters the step to node m + 1."""
    solve = _band_lu(_heat_band(grid, tgrid.dt * kappa), 1)
    u = np.empty((tgrid.n_steps + 1, grid.n_cells))
    u[0] = _checked(u0, (grid.n_cells,), "u0")
    if source is not None:
        source = _checked(source, u.shape, "source")
    for m in range(tgrid.n_steps):
        rhs = u[m] if source is None else u[m] + tgrid.dt * source[m + 1]
        u[m + 1] = solve(rhs)
    return u


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


def energy_functional(traj: Trajectory) -> EnergyReport:
    """Trapezoid-in-time energy norms of a trajectory.

    Reports ||y||_{L2(0,T;H1)}, ||z||_{L2(0,T;H1)}, the weighted gradient
    term sigma * int int |grad z|^2, and the terminal L2 norms.
    """
    grid, tgrid = traj.grid, traj.tgrid
    t = tgrid.nodes
    l2_y = grid.spacing * np.sum(traj.y**2, axis=1)
    l2_z = grid.spacing * np.sum(traj.z**2, axis=1)
    g_y = _grad_energy(grid, traj.y)
    g_z = _grad_energy(grid, traj.z)
    norm_y = float(np.sqrt(np.trapezoid(l2_y + g_y, t)))
    norm_z = float(np.sqrt(np.trapezoid(l2_z + g_z, t)))
    sigma_grad_z = float(traj.sigma * np.trapezoid(g_z, t))
    term_y, term_z = traj.terminal_norms()
    return EnergyReport(norm_y_l2h1=norm_y, norm_z_l2h1=norm_z,
                        sigma_grad_z=sigma_grad_z,
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
    spatial mean, which the implicit stepper conserves.
    """
    if not sigma > 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")

    # The stepper preserves spatial means identically (the ones-row
    # annihilates the Laplacian), so the constant check carries the mean
    # separately and steps only the fluctuation; the measured defect then
    # reflects the scheme rather than triangular-solve round-off
    # accumulated over the horizon.
    const = 0.7
    zc = np.full(grid.n_cells, const)
    mean0 = mean_value(grid, zc)
    fluct = solve_heat(grid, tgrid, sigma, zc - mean0)[-1]
    constant_error = float(np.max(np.abs(mean0 + fluct - const)) / const)

    z = solve_heat(grid, tgrid, sigma, np.cos(np.pi * grid.cell_centers))
    norms = np.array([norm_l2(grid, zm) for zm in z])
    means = np.array([mean_value(grid, zm) for zm in z])
    fitted = float(np.polyfit(tgrid.nodes, np.log(norms), 1)[0])
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
