"""Sweep and scaling experiments for the fast-diffusion reduction.

The central object is the gap between the full second component z^sigma and
the scalar mode xi of the reduced system driven by the same control,
measured away from the initial layer:

    shadow_gap = sup_{t in [t0, T]} || z^sigma(t, .) - xi(t) ||_{L2}.

With the reactions frozen at the origin ("linear" mode) every coefficient is
constant, so the mean mode of z carries no sigma and obeys the reduced
model's equation for xi: xi is the grid mean of the controlled z, and the
gap is the norm of the fluctuation z - mean z.

Two supporting measurements isolate the layer and the forcing contributions:
the free decay of the mean-zero part of z0 (expected sup_t sqrt(t)*|| . ||
to scale like sigma^(-1/2)) and the accumulated response to the mean-free
reaction residual (expected to scale like sigma^(-1)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hum import hum_solve
from .mesh import Grid1D, TimeGrid, fit_slope, mean_value, norm_l2
from .nonlinear import NonlinearityPair
from .pde import (ControlField, ShadowStepOperators, StepOperators, Trajectory,
                  _sigma_grad_z, control_cost, solve_forward_linear,
                  solve_forward_semilinear, zero_coefficients)
from .semilinear import FixedPointConfig, fixed_point_control, origin_coefficients

__all__ = [
    "ControlRun", "SweepRow", "SweepReport", "M1Record", "ScalingReport",
    "fit_decay_rate", "shadow_gap", "control_and_reduce",
    "sigma_sweep", "measure_m1", "measure_m1_scaling", "measure_m2_scaling",
]


def fit_decay_rate(xs, ys) -> float:
    """Least-squares slope of log(ys) against log(xs).

    Both sequences must be strictly positive and finite, with at least two
    entries and two distinct xs.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2 or np.ptp(xs) == 0.0:
        raise ValueError("need two equal-length 1-d sequences with 2 distinct xs")
    if not np.all((0.0 < xs) & (xs < np.inf) & (0.0 < ys) & (ys < np.inf)):
        raise ValueError("log-log fit requires strictly positive, finite data")
    return fit_slope(np.log(xs), np.log(ys))


def _gap_series(traj: Trajectory, xi: np.ndarray) -> np.ndarray:
    """||z(t_m, .) - xi(t_m)||_{L2} at every node t_m, with ``xi`` the
    reduced model's mean mode, one entry per node."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape != traj.tgrid.nodes.shape:
        raise ValueError(f"xi must hold one entry per node, shape "
                         f"{traj.tgrid.nodes.shape}, got {xi.shape}")
    diff = traj.z - xi[:, None]
    return np.sqrt(traj.grid.spacing * np.sum(diff * diff, axis=1))


def shadow_gap(traj: Trajectory, xi: np.ndarray, t0: float) -> float:
    """sup over nodes t_m >= t0 of ||z(t_m, .) - xi(t_m)||_{L2}, ``xi`` the
    reduced model's mean mode at every node (:attr:`ControlRun.xi`)."""
    if not 0.0 <= t0 < traj.tgrid.horizon:
        raise ValueError(f"t0 must lie in [0, horizon), got {t0}")
    return float(np.max(_gap_series(traj, xi)[traj.tgrid.nodes >= t0]))


@dataclass(frozen=True)
class ControlRun:
    """A control, the trajectory it drives, and the reduced model's mean
    mode ``xi`` under it, one entry per node."""

    control: ControlField
    trajectory: Trajectory
    xi: np.ndarray
    outer_iterations: int
    cg_iterations: int
    converged: bool


def control_and_reduce(grid: Grid1D, tgrid: TimeGrid, sigma: float, mode: str,
                       pair: NonlinearityPair, y0: np.ndarray, z0: np.ndarray,
                       fp_config: FixedPointConfig) -> ControlRun:
    """Control the system at one diffusion ratio and drive the reduction.

    In "linear" mode the reactions are frozen at their origin partials and
    the control is one penalized solve with ``fp_config.hum``.  The reduced
    model is the shadow limit of the same linearized system, whose xi is
    the controlled z's mean mode (module docstring), so it is read off the
    controlled trajectory as the grid mean of z, with no march of its own.
    In "semilinear" mode the control comes from the fixed-point scheme and
    the reduced model keeps the nonlinear pair; it is marched, since there
    mean g(y, z) differs from g(y, mean z).
    """
    if mode not in ("linear", "semilinear"):
        raise ValueError(f"mode must be 'linear' or 'semilinear', got {mode!r}")
    if mode == "linear":
        coeffs = origin_coefficients(grid, tgrid, pair)
        res = hum_solve(StepOperators(sigma, coeffs), y0, z0, fp_config.hum)
        control, traj = res.control, res.trajectory
        outer, cg_iters, converged = 0, res.cg_iterations, res.cg_converged
        xi = grid.spacing * np.sum(traj.z, axis=1)
    else:
        fp = fixed_point_control(grid, tgrid, sigma, pair, y0, z0, fp_config)
        control, traj = fp.control, fp.trajectory
        outer, cg_iters, converged = (fp.outer_iterations,
                                      fp.cg_iterations_total, fp.converged)
        xi = solve_forward_semilinear(
            ShadowStepOperators(zero_coefficients(grid, tgrid)), pair, control,
            y0, [mean_value(grid, z0)]).u[:, -1]
    return ControlRun(control=control, trajectory=traj, xi=xi,
                      outer_iterations=outer, cg_iterations=cg_iters,
                      converged=converged)


@dataclass(frozen=True)
class SweepRow:
    sigma: float
    control_cost: float
    terminal_norm_y: float
    terminal_norm_z: float
    sigma_grad_z: float
    shadow_gap: float
    xi_terminal: float
    outer_iterations: int
    cg_iterations: int
    converged: bool


@dataclass(frozen=True)
class SweepReport:
    """Per-sigma rows plus the cross-sigma diagnostics of the sweep."""

    mode: str
    t0: float
    rows: tuple[SweepRow, ...]
    gap_slope: float
    gap_strictly_decreasing: bool
    cost_ratio: float
    grad_bound_ratio: float
    control_deltas: tuple[float, ...]


def _sweep_row(run: ControlRun, sigma: float, t0: float) -> SweepRow:
    """The report row of one controlled run at ``sigma``, its gap taken past t0."""
    term_y, term_z = run.trajectory.terminal_norms()
    return SweepRow(sigma=float(sigma),
                    control_cost=control_cost(run.control),
                    terminal_norm_y=term_y, terminal_norm_z=term_z,
                    sigma_grad_z=_sigma_grad_z(run.trajectory),
                    shadow_gap=shadow_gap(run.trajectory, run.xi, t0),
                    xi_terminal=float(run.xi[-1]),
                    outer_iterations=run.outer_iterations,
                    cg_iterations=run.cg_iterations,
                    converged=run.converged)


def sigma_sweep(grid: Grid1D, tgrid: TimeGrid, sigmas,
                pair: NonlinearityPair, y0: np.ndarray, z0: np.ndarray,
                mode: str,
                t0_fraction: float = 0.1,
                fp_config: FixedPointConfig = FixedPointConfig()) -> SweepReport:
    """Control the system for each diffusion ratio and compare to the reduction.

    For every sigma :func:`control_and_reduce` recomputes the control
    (frozen-coefficient solve with ``fp_config.hum`` in "linear" mode, full
    fixed-point scheme in "semilinear" mode) and drives the reduced system
    with it, and the row records cost, terminal norms, the weighted gradient
    energy of z, and the gap past the initial layer.  Rows are computed one
    after another in sigma order, and reports are reproducible bit for bit.
    """
    sig = [float(s) for s in sigmas]
    if len(sig) < 2 or any(b <= a for a, b in zip(sig, sig[1:])):
        raise ValueError("sigmas must be strictly increasing with at least 2 entries")
    if any(s < 1.0 for s in sig):
        raise ValueError("every sigma must be at least 1")
    if not (0.0 < t0_fraction < 1.0):
        raise ValueError(f"t0_fraction must lie in (0, 1), got {t0_fraction}")
    t0 = t0_fraction * tgrid.horizon

    def row_and_control(s: float) -> tuple[SweepRow, ControlField]:
        # keeps only the control of each run, so its trajectories are freed
        # before the next sigma
        run = control_and_reduce(grid, tgrid, s, mode, pair, y0, z0, fp_config)
        return _sweep_row(run, s, t0), run.control

    rows, controls = zip(*map(row_and_control, sig))
    gaps = [r.shadow_gap for r in rows]
    costs = [r.control_cost for r in rows]
    slope = fit_decay_rate(sig, gaps) if min(gaps) > 0.0 else float("-inf")
    decreasing = all(b < a for a, b in zip(gaps, gaps[1:]))
    cost_ratio = max(costs) / min(costs) if min(costs) > 0.0 else float("inf")
    base_grad = rows[0].sigma_grad_z
    grad_ratio = (max(r.sigma_grad_z for r in rows) / base_grad
                  if base_grad > 0.0 else float("inf"))
    deltas = []
    for a, b in zip(controls, controls[1:]):
        diff = ControlField(grid, tgrid, b.values - a.values)
        deltas.append(control_cost(diff) / max(control_cost(a), 1e-300))
    return SweepReport(mode=mode, t0=t0, rows=rows,
                       gap_slope=slope, gap_strictly_decreasing=decreasing,
                       cost_ratio=float(cost_ratio),
                       grad_bound_ratio=float(grad_ratio),
                       control_deltas=tuple(deltas))


@dataclass(frozen=True)
class M1Record:
    """Free decay of the mean-zero part of z0 under fast diffusion."""

    sigma: float
    sup_sqrt_t_m1: float
    fitted_exponent: float
    expected_exponent: float
    m1_initial: float


@dataclass(frozen=True)
class ScalingReport:
    sigmas: tuple[float, ...]
    values: tuple[float, ...]
    slope: float


def measure_m1(grid: Grid1D, tgrid: TimeGrid, sigma: float,
               z0: np.ndarray) -> M1Record:
    """March z_t = sigma lap z from the mean-free part of z0.

    The march is the z-component of a free flow of the reaction-free
    :class:`StepOperators`.  Records sup over positive nodes of
    sqrt(t) * ||z(t)|| and the log-linear decay exponent (expected
    -sigma pi^2 for the first mode).
    """
    z0 = np.asarray(z0, dtype=float)
    ops = StepOperators(sigma, zero_coefficients(grid, tgrid))
    z = solve_forward_linear(ops, None, np.zeros(grid.n_cells),
                             z0 - mean_value(grid, z0)).z
    norms = np.array([norm_l2(grid, zm) for zm in z])
    t = tgrid.nodes
    sup = float(np.max(np.sqrt(t[1:]) * norms[1:]))
    pos = norms > 0.0
    if np.count_nonzero(pos) < 2:
        # already well-mixed: nothing decays, so there is no rate to fit
        fitted = 0.0
    else:
        fitted = fit_slope(t[pos], np.log(norms[pos]))
    return M1Record(sigma=float(sigma), sup_sqrt_t_m1=sup,
                    fitted_exponent=fitted,
                    expected_exponent=float(-sigma * np.pi**2),
                    m1_initial=float(norms[0]))


def measure_m1_scaling(grid: Grid1D, sigmas, z0: np.ndarray,
                       n_steps: int = 400) -> ScalingReport:
    """sup sqrt(t)*M1 across sigmas on windows scaled by 1/sigma.

    Each sigma runs on the horizon 1 / sigma with the same step count,
    so the one measurement differs from the next only through the diffusion
    ratio; the expected log-log slope is -1/2.
    """
    sig = [float(s) for s in sigmas]
    sups = []
    for s in sig:
        tg = TimeGrid(horizon=1.0 / s, n_steps=n_steps)
        sups.append(measure_m1(grid, tg, s, z0).sup_sqrt_t_m1)
    return ScalingReport(sigmas=tuple(sig), values=tuple(sups),
                         slope=fit_decay_rate(sig, sups))


def measure_m2_scaling(grid: Grid1D, sigmas, pair: NonlinearityPair,
                       y0: np.ndarray, z0: np.ndarray,
                       n_steps: int = 400) -> ScalingReport:
    """Accumulated response to the mean-free reaction residual across sigmas.

    For each sigma, on a window of length 5 / sigma (long enough for the
    response to saturate), the free semilinear march z and the free heat
    march h of z0 step with one reaction-free :class:`StepOperators`.  Their
    mean-free difference v = P(z - h) is then, to the march's inner
    tolerance, the implicit accumulation of v_t = sigma lap v + P g(y, z)
    from v(0) = 0, since the step is linear and P commutes with the Neumann
    Laplacian; reported is sup_t ||v(t)||, expected to scale like sigma^(-1).
    """
    sig = [float(s) for s in sigmas]
    sups = []
    for s in sig:
        tg = TimeGrid(horizon=5.0 / s, n_steps=n_steps)
        ops = StepOperators(s, zero_coefficients(grid, tg))
        z = solve_forward_semilinear(ops, pair, None, y0, z0).z
        h = solve_forward_linear(ops, None, np.zeros(grid.n_cells), z0).z
        v = z - h
        v -= grid.spacing * np.sum(v, axis=1, keepdims=True)
        sups.append(max(norm_l2(grid, vm) for vm in v))
    return ScalingReport(sigmas=tuple(sig), values=tuple(sups),
                         slope=fit_decay_rate(sig, sups))
