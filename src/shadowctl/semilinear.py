"""Fixed-point control scheme for the semilinear system.

The nonlinearity is replaced, around a reference trajectory (ybar, zbar), by
the averaged coefficients

    a11 = int_0^1 df/dy(delta ybar, delta zbar) d(delta),   etc.,

so that a11*ybar + a12*zbar = f(ybar, zbar) exactly whenever f(0,0) = 0.
Each outer iteration solves the penalized nulling problem for the frozen
coefficients and re-linearizes around the controlled trajectory; the loop is
damped and stops when the relative space-time update falls below tolerance.
The returned terminal norms always come from an honest semilinear re-run
under the final control.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hum import HumConfig, HumResult, hum_solve
from .mesh import Grid1D, TimeGrid
from .nonlinear import NonlinearityPair
from .pde import (CoefficientField, ControlField, Trajectory,
                  constant_coefficients, solve_forward_semilinear)

__all__ = [
    "FixedPointConfig", "FixedPointResult", "CouplingReport",
    "origin_coefficients", "linearized_coefficients", "coupling_floor_check",
    "fixed_point_control",
]


@dataclass(frozen=True)
class FixedPointConfig:
    """Outer-loop knobs for the linearize-control-relinearize iteration."""

    outer_tol: float = 1e-6
    max_outer: int = 30
    damping: float = 1.0
    quadrature_nodes: int = 32
    hum: HumConfig = field(default_factory=HumConfig)

    def __post_init__(self) -> None:
        if not self.outer_tol > 0.0:
            raise ValueError(f"outer_tol must be positive, got {self.outer_tol}")
        if self.max_outer < 1:
            raise ValueError(f"max_outer must be at least 1, got {self.max_outer}")
        if not (0.0 < self.damping <= 1.0):
            raise ValueError(f"damping must lie in (0, 1], got {self.damping}")
        if self.quadrature_nodes < 4:
            raise ValueError(
                f"quadrature_nodes must be at least 4, got {self.quadrature_nodes}")


@dataclass(frozen=True)
class FixedPointResult:
    """Final control with the honest semilinear trajectory it produces."""

    control: ControlField
    trajectory: Trajectory
    terminal_y: float
    terminal_z: float
    outer_iterations: int
    update_history: tuple[float, ...]
    converged: bool
    oscillation_flagged: bool
    damping_final: float
    cg_iterations_total: int
    hum_last: HumResult | None

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
                            ybar: np.ndarray, zbar: np.ndarray,
                            n_quad: int = 32) -> CoefficientField:
    """Average the exact partials along rays from the origin to the reference.

    Uses Gauss-Legendre quadrature with ``n_quad`` nodes mapped to [0, 1].
    By construction |a_ij| never exceeds the declared per-partial bounds, and
    a11*ybar + a12*zbar reproduces f(ybar, zbar) up to quadrature error (same
    for g), since the integrand is the exact ray derivative.
    """
    if n_quad < 4:
        raise ValueError(f"n_quad must be at least 4, got {n_quad}")
    shape = (tgrid.n_steps + 1, grid.n_cells)
    ybar = np.asarray(ybar, dtype=float)
    zbar = np.asarray(zbar, dtype=float)
    if ybar.shape != shape or zbar.shape != shape:
        raise ValueError(f"reference fields must have shape {shape}, "
                         f"got {ybar.shape} and {zbar.shape}")
    nodes, weights = np.polynomial.legendre.leggauss(n_quad)
    deltas = 0.5 * (nodes + 1.0)
    weights = 0.5 * weights
    a11 = np.zeros(shape)
    a12 = np.zeros(shape)
    a21 = np.zeros(shape)
    a22 = np.zeros(shape)
    for delta, w in zip(deltas, weights):
        yd, zd = delta * ybar, delta * zbar
        a11 += w * np.asarray(pair.f.d_dy(yd, zd))
        a12 += w * np.asarray(pair.f.d_dz(yd, zd))
        a21 += w * np.asarray(pair.g.d_dy(yd, zd))
        a22 += w * np.asarray(pair.g.d_dz(yd, zd))
    return CoefficientField(grid, tgrid, a11, a12, a21, a22)


@dataclass(frozen=True)
class CouplingReport:
    """Sign-adjusted minimum of the y-coupling coefficient on the window."""

    min_signed_a21: float
    a21_sign: float
    positive: bool


def coupling_floor_check(coeffs: CoefficientField, sign: float = 1.0) -> CouplingReport:
    """Smallest sign-adjusted a21 value over window cells and all time nodes.

    A positive result certifies that the averaged coupling keeps the
    declared sign with a strictly positive floor where the control acts.
    """
    window = coeffs.grid.omega_indicator > 0.0
    vals = sign * coeffs.a21[:, window]
    m = float(np.min(vals))
    return CouplingReport(min_signed_a21=m, a21_sign=float(sign), positive=m > 0.0)


def _space_time_norm(grid: Grid1D, tgrid: TimeGrid,
                     y: np.ndarray, z: np.ndarray) -> float:
    w = grid.spacing * tgrid.dt
    return float(np.sqrt(w * (np.sum(y * y) + np.sum(z * z))))


def _coeff_change(a: CoefficientField, b: CoefficientField) -> float:
    num = max(float(np.max(np.abs(getattr(a, n) - getattr(b, n))))
              for n in ("a11", "a12", "a21", "a22"))
    return num / max(1.0, a.max_sup, b.max_sup)


def fixed_point_control(grid: Grid1D, tgrid: TimeGrid, sigma: float,
                        pair: NonlinearityPair,
                        y0: np.ndarray, z0: np.ndarray,
                        config: FixedPointConfig = FixedPointConfig()) -> FixedPointResult:
    """Iterate linearize -> control -> re-linearize to a controlled fixed point.

    Starts from the free semilinear flow, freezes the averaged coefficients,
    solves the penalized nulling problem, and re-linearizes around the damped
    controlled trajectory.  Stops when the relative space-time update drops
    below ``outer_tol`` or when the coefficients themselves are stationary
    (which is immediate for genuinely linear reactions); either exit counts
    as converged only if the last inner solve converged.  Two consecutive
    increases of the update norm halve the damping once.
    """
    free = solve_forward_semilinear(grid, tgrid, sigma, pair, None, y0, z0)
    ref_y, ref_z = free.y, free.z
    damping = config.damping
    history: list[float] = []
    prev_coeffs: CoefficientField | None = None
    hum_last: HumResult | None = None
    control: ControlField | None = None
    converged = False
    oscillation = False
    rises = 0
    cg_total = 0
    iterations = 0

    for it in range(1, config.max_outer + 1):
        coeffs = linearized_coefficients(grid, tgrid, pair, ref_y, ref_z,
                                         config.quadrature_nodes)
        if prev_coeffs is not None and _coeff_change(coeffs, prev_coeffs) <= 1e-13:
            # Stationary linearization: the previous control is already the
            # fixed point, so do not count this pass as an iteration.
            converged = hum_last.cg_converged
            break
        prev_coeffs = coeffs
        hum_last = hum_solve(grid, tgrid, sigma, coeffs, y0, z0, config.hum)
        control = hum_last.control
        cg_total += hum_last.cg_iterations
        iterations = it
        lin = hum_last.trajectory
        new_y = damping * lin.y + (1.0 - damping) * ref_y
        new_z = damping * lin.z + (1.0 - damping) * ref_z
        denom = max(_space_time_norm(grid, tgrid, ref_y, ref_z), 1e-300)
        update = _space_time_norm(grid, tgrid, new_y - ref_y, new_z - ref_z) / denom
        if history and update > history[-1]:
            rises += 1
            if rises >= 2 and damping > 0.5:
                damping = 0.5
                oscillation = True
                rises = 0
        else:
            rises = 0
        history.append(update)
        ref_y, ref_z = new_y, new_z
        if update < config.outer_tol:
            converged = hum_last.cg_converged
            break

    final = solve_forward_semilinear(grid, tgrid, sigma, pair, control, y0, z0)
    term_y, term_z = final.terminal_norms()
    return FixedPointResult(
        control=control, trajectory=final,
        terminal_y=term_y, terminal_z=term_z,
        outer_iterations=iterations,
        update_history=tuple(history),
        converged=converged,
        oscillation_flagged=oscillation,
        damping_final=damping,
        cg_iterations_total=cg_total,
        hum_last=hum_last,
    )
