"""Fixed-point control scheme for the semilinear system.

The nonlinearity is replaced, around a reference trajectory (ybar, zbar), by
the averaged coefficients

    a11 = int_0^1 df/dy(delta ybar, delta zbar) d(delta),   etc.,

so that a11*ybar + a12*zbar = f(ybar, zbar) exactly whenever f(0,0) = 0;
each average is read off the component's closed-form secant.
The first reference is zero, where the averages are the origin partials,
constant in space and time, so the first penalized solve is direct, on a
Gramian assembled in the cosine basis; every later solve is preconditioned
by its Cholesky factor.  Each outer iteration solves the
penalized nulling problem for the frozen coefficients and re-linearizes
around the controlled trajectory, Anderson-mixed with the previous one; the
loop stops when the relative space-time update falls below tolerance.
The returned terminal norms always come from an honest semilinear re-run
under the final control, the one semilinear march of a run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .hum import HumConfig, HumResult, hum_solve
from .mesh import Grid1D, TimeGrid
from .nonlinear import NonlinearityPair
from .pde import (CoefficientField, ControlField, StepOperators, Trajectory,
                  constant_coefficients, solve_forward_semilinear,
                  zero_coefficients)

__all__ = [
    "FixedPointConfig", "FixedPointResult", "origin_coefficients",
    "linearized_coefficients", "coupling_floor_check", "fixed_point_control",
]

# numpy's OpenBLAS runs a dot product (ddot) on the calling thread up to
# 10,000 entries; a threaded one leaves its pool spinning, 134 ms of CPU in
# the 0.3 s after one of 10,368 entries on 2 vCPUs
_SERIAL_DOT = 8192


@dataclass(frozen=True)
class FixedPointConfig:
    """Outer-loop knobs for the linearize-control-relinearize iteration."""

    outer_tol: float = 1e-6
    max_outer: int = 30
    hum: HumConfig = field(default_factory=HumConfig)

    def __post_init__(self) -> None:
        if not 0.0 < self.outer_tol < np.inf:
            raise ValueError(
                f"outer_tol must be positive and finite, got {self.outer_tol}")
        if self.max_outer < 1:
            raise ValueError(f"max_outer must be at least 1, got {self.max_outer}")


@dataclass(frozen=True)
class FixedPointResult:
    """Final control with the honest semilinear trajectory it produces."""

    control: ControlField
    trajectory: Trajectory
    terminal_y: float
    terminal_z: float
    outer_iterations: int
    update_history: tuple[float, ...]
    coupling_floor: tuple[float, ...]
    converged: bool
    oscillation_flagged: bool
    cg_iterations_total: int
    hum_last: HumResult

    @property
    def terminal_total(self) -> float:
        return float(np.hypot(self.terminal_y, self.terminal_z))


def origin_coefficients(grid: Grid1D, tgrid: TimeGrid,
                        pair: NonlinearityPair) -> CoefficientField:
    """Constant coefficients: the reaction pair linearized at the origin."""
    return constant_coefficients(
        grid, tgrid,
        pair.f.d_dy(0.0, 0.0), pair.f.d_dz(0.0, 0.0),
        pair.g.d_dy(0.0, 0.0), pair.g.d_dz(0.0, 0.0))


def linearized_coefficients(grid: Grid1D, tgrid: TimeGrid,
                            pair: NonlinearityPair,
                            ybar: np.ndarray, zbar: np.ndarray) -> CoefficientField:
    """The exact partials averaged along rays from the origin to the reference.

    Each average is the component's secant (``Nonlinearity.secant_dy`` and
    ``secant_dz``) at (ybar, zbar), so a11*ybar + a12*zbar reproduces
    f(ybar, zbar) up to round-off (same for g), and |a_ij| never exceeds the
    declared per-partial bounds.  A callable that serves as several secants
    (both built-in families pass one) is evaluated once, and each slot gets
    its own copy.
    """
    shape = (tgrid.n_steps + 1, grid.n_cells)
    ybar = np.asarray(ybar, dtype=float)
    zbar = np.asarray(zbar, dtype=float)
    if ybar.shape != shape or zbar.shape != shape:
        raise ValueError(f"reference fields must have shape {shape}, "
                         f"got {ybar.shape} and {zbar.shape}")
    secants = (pair.f.secant_dy, pair.f.secant_dz, pair.g.secant_dy, pair.g.secant_dz)
    distinct = {id(s): s for s in secants}
    values = {key: s(ybar, zbar) for key, s in distinct.items()}
    return CoefficientField(grid, tgrid,
                            *(np.array(np.broadcast_to(values[id(s)], shape), dtype=float)
                              for s in secants))


def coupling_floor_check(coeffs: CoefficientField, sign: float = 1.0) -> float:
    """Smallest sign-adjusted a21 value over window cells and all time nodes.

    A positive result certifies that the averaged coupling keeps the
    declared sign with a strictly positive floor where the control acts.
    """
    window = coeffs.grid.omega_indicator > 0.0
    return float(np.min(sign * coeffs.a21[:, window]))


def _serial_dot(a: np.ndarray, b: np.ndarray) -> float:
    """<a, b> over all entries of two arrays of one shape, summed over chunks
    of at most ``_SERIAL_DOT`` entries, each on the calling thread."""
    a, b = a.ravel(), b.ravel()
    return sum(float(a[i:i + _SERIAL_DOT] @ b[i:i + _SERIAL_DOT])
               for i in range(0, a.size, _SERIAL_DOT))


def _coeff_change(a: CoefficientField, b: CoefficientField) -> float:
    num = max(float(np.max(np.abs(getattr(a, n) - getattr(b, n))))
              for n in ("a11", "a12", "a21", "a22"))
    return num / max(1.0, a.max_sup, b.max_sup)


def fixed_point_control(grid: Grid1D, tgrid: TimeGrid, sigma: float,
                        pair: NonlinearityPair,
                        y0: np.ndarray, z0: np.ndarray,
                        config: FixedPointConfig = FixedPointConfig()) -> FixedPointResult:
    """Iterate linearize -> control -> re-linearize to a controlled fixed point.

    Starts from the zero reference trajectory x, whose averaged coefficients
    are the origin linearization (:func:`origin_coefficients`), constant in
    space and time; the first penalized solve is therefore direct, its
    relative update reads 1.0, and its ``StepOperators`` are the
    preconditioning ``reference`` of every later :func:`hum_solve`, so that
    all passes share one Gramian and one Cholesky factor.  Each pass
    freezes the averaged coefficients at x and solves the penalized nulling
    problem; its controlled trajectory g is the fixed-point map of x.  The
    next reference is Anderson-mixed with memory 1 from the last two
    residuals f = g - x: x <- g - gamma (g - g_prev), gamma = <df, f> /
    <df, df>.  The plain step x <- g, after which mixing restarts from
    (g, f) alone, replaces the mixed one on the first pass, when df = 0, and
    when the relative update ||f|| / max(||x||, ||g||) rose against the
    previous pass (``oscillation_flagged``).  Stops when that
    update drops below ``outer_tol`` or when the coefficients themselves are
    stationary (which is immediate for genuinely linear reactions); either
    exit counts as converged only if the last inner solve converged.  The
    final control is re-run through the semilinear march once.
    ``coupling_floor`` holds, one entry per pass, the window floor
    :func:`coupling_floor_check` of that pass's coefficients, signed by the
    pair's coupling sign: a run that does not converge shows there whether
    its coupling collapsed where the control acts.
    """
    n = grid.n_cells
    x = np.zeros((tgrid.n_steps + 1, 2 * n))
    history: list[float] = []
    floors: list[float] = []
    ops = origin_ops = StepOperators(sigma, origin_coefficients(grid, tgrid, pair))
    g_prev = f_prev = None
    converged = False
    oscillation = False
    cg_total = 0

    for it in range(1, config.max_outer + 1):
        if it > 1:
            coeffs = linearized_coefficients(grid, tgrid, pair, x[:, :n], x[:, n:])
            if _coeff_change(coeffs, ops.coeffs) <= 1e-13:
                # Stationary linearization: the previous control is already the
                # fixed point, so do not count this pass as an iteration.
                converged = hum_last.cg_converged
                break
            ops = StepOperators(sigma, coeffs)
        floors.append(coupling_floor_check(ops.coeffs, pair.a21_sign))
        hum_last = hum_solve(ops, y0, z0, config.hum, reference=origin_ops)
        cg_total += hum_last.cg_iterations
        g = hum_last.trajectory.u
        f = g - x
        # h * dt weights the space-time norm of f, x and g, so it cancels
        scale = max(math.sqrt(_serial_dot(x, x)), math.sqrt(_serial_dot(g, g)), 1e-300)
        update = math.sqrt(_serial_dot(f, f)) / scale
        rose = bool(history) and update > history[-1]
        history.append(update)
        if update < config.outer_tol:
            converged = hum_last.cg_converged
            break
        oscillation |= rose
        df = None if f_prev is None else f - f_prev
        df_df = 0.0 if df is None or rose else _serial_dot(df, df)
        if df_df > 0.0:
            x = g - (_serial_dot(df, f) / df_df) * (g - g_prev)
        else:
            x = g
        g_prev, f_prev = g, f

    reaction_free = StepOperators(sigma, zero_coefficients(grid, tgrid))
    final = solve_forward_semilinear(reaction_free, pair, hum_last.control, y0, z0)
    term_y, term_z = final.terminal_norms()
    return FixedPointResult(
        control=hum_last.control, trajectory=final,
        terminal_y=term_y, terminal_z=term_z,
        outer_iterations=len(history),
        update_history=tuple(history),
        coupling_floor=tuple(floors),
        converged=converged,
        oscillation_flagged=oscillation,
        cg_iterations_total=cg_total,
        hum_last=hum_last,
    )
