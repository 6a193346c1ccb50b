"""Penalized duality method for terminal nulling of the linearized system.

The control is characterized through the dual variable: writing Lambda for
the map that sends terminal dual data pT through the backward solve, observes
the windowed y-component chi*phi, and pushes it through the control-to-state
map, the penalized optimality system is

    (Lambda + eps I) pT = (free terminal state),    h = -phi |_omega.

Lambda is symmetric positive semidefinite with <Lambda a, a> equal to the
windowed space-time norm of phi_a, and the controlled terminal state obeys
(y(T), z(T)) = eps * pT + r with r the normal-equation residual, so driving
eps down drives the terminal state to zero at rate sqrt(eps).

Every solver here takes the :class:`~shadowctl.pde.StepOperators` of its
system and builds none, so calls that share them share their factorizations.

Two ways to apply Lambda inside the Krylov solve, picked by the size 2n of
the stacked state:

* 2n <= ``_FACTOR_MAX_DIM``: :func:`gramian_factor` builds an upper
  triangular R with Lambda = R^T R in one backward sweep of 2n-column
  blocks, on the first iteration, and each iteration applies
  v -> R^T (R v) + eps v.  The factor costs O((2n)^2) memory.  Lambda
  itself is never formed: an explicit R^T R squares the conditioning of R,
  and its rounding swamps small penalties.
* larger 2n: :func:`gramian_apply` re-marches the dual and forward problems
  on every iteration, with memory that stays O(n).

The limit sits at the crossover measured at the default penalty eps = 1e-6
by timing one problem (M = 200, sigma = 1) at a few sizes; below it the
factor is cheaper, and smaller penalties (more iterations) favour it
further.  A solve whose data need no iteration never builds the factor.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.lapack import dtpqrt

from .pde import (ControlField, StepOperators, Trajectory, control_cost,
                  solve_adjoint, solve_forward_linear)

__all__ = [
    "HumConfig", "HumResult", "EpsilonRow", "EpsilonSweepReport",
    "gramian_apply", "gramian_factor", "hum_solve", "duality_residual",
    "epsilon_sweep",
]

# Largest stacked state size 2n for which hum_solve builds the square-root
# Gramian factor (module docstring).  Measured with the former SuperLU step
# kernel; kept until a workload above it measures the banded one.
_FACTOR_MAX_DIM = 256


@dataclass(frozen=True)
class HumConfig:
    """Penalty strength and normal-equation solver knobs."""

    epsilon: float = 1e-6
    cg_tol: float = 1e-9
    cg_max_iters: int = 500

    def __post_init__(self) -> None:
        if not self.epsilon > 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if not (0.0 < self.cg_tol <= 1e-2):
            raise ValueError(f"cg_tol must lie in (0, 1e-2], got {self.cg_tol}")
        if self.cg_max_iters < 1:
            raise ValueError(f"cg_max_iters must be positive, got {self.cg_max_iters}")


@dataclass(frozen=True)
class HumResult:
    """Control, the controlled trajectory, terminal diagnostics, and solver
    history of one solve."""

    control: ControlField
    trajectory: Trajectory
    epsilon: float
    terminal_y: float
    terminal_z: float
    control_cost: float
    adjoint_terminal: np.ndarray
    cg_iterations: int
    cg_residuals: tuple[float, ...]
    cg_converged: bool
    residual_monotone: bool
    duality_residual: float
    free_terminal_norm: float

    @property
    def terminal_total(self) -> float:
        return float(np.hypot(self.terminal_y, self.terminal_z))


def gramian_apply(ops: StepOperators, p_terminal: np.ndarray) -> np.ndarray:
    """Apply the dual observability map Lambda of ``ops`` to terminal dual data.

    Solves the dual system backward from ``p_terminal``, takes the windowed
    observation of its y-component, feeds that as a source into the forward
    solve from zero data, and returns the stacked terminal state.  The map is
    linear, symmetric, and positive semidefinite, with <Lambda a, a> equal to
    the window-weighted space-time norm of the observed component.
    """
    p_terminal = np.asarray(p_terminal, dtype=float)
    n = ops.grid.n_cells
    if p_terminal.shape != (2 * n,):
        raise ValueError(f"terminal data must have shape ({2 * n},), got {p_terminal.shape}")
    dual = solve_adjoint(ops, p_terminal[:n], p_terminal[n:])
    observed = ControlField(ops.grid, ops.tgrid, dual.y[:-1])
    pushed = solve_forward_linear(ops, observed, np.zeros(n), np.zeros(n))
    return np.concatenate([pushed.y[-1], pushed.z[-1]])


def gramian_factor(ops: StepOperators) -> np.ndarray:
    """Upper-triangular R with Lambda = R^T R of ``ops``, from one backward sweep.

    Marches the identity backward through the transposed steps, so that
    after the step down to node m the block P holds the dual states at node
    m of all 2n unit terminal data.  Lambda is the sum over m of G_m^T G_m
    with G_m = sqrt(dt * chi) * P[window], and those rows are folded into R
    by triangular-pentagonal QR updates (LAPACK ``dtpqrt``).  Each update
    takes whole steps, at most 2n rows, so the workspace stays O((2n)^2).
    """
    n2 = 2 * ops.grid.n_cells
    chi = ops.grid.omega_indicator
    window = np.flatnonzero(chi > 0.0)
    weight = np.sqrt(ops.tgrid.dt * chi[window])[:, None]
    steps_per_update = max(1, n2 // window.size)
    r = np.zeros((n2, n2), order="F")
    p = np.eye(n2)
    steps = range(ops.tgrid.n_steps - 1, -1, -1)
    for start in range(0, len(steps), steps_per_update):
        rows = []
        for m in steps[start:start + steps_per_update]:
            p = ops.step_adjoint(p, m)
            rows.append(weight * p[window])
        # Inner block size 4: measured no slower than 32 at these sizes, and
        # it keeps every BLAS call under OpenBLAS's multithreading threshold.
        # A threaded call leaves the pool spinning for about 0.1 s after the
        # sweep, which takes a core from whatever runs next on a 2-core host.
        r, _, _, info = dtpqrt(0, min(n2, 4), r, np.vstack(rows),
                               overwrite_a=True, overwrite_b=True)
        if info != 0:
            raise RuntimeError(f"dtpqrt rejected argument {-info}")
    return r


def _conjugate_gradient(apply_op, b: np.ndarray, tol: float, max_iters: int):
    """Krylov solve of an SPD system, conjugate-residual variant.

    The conjugate-residual recurrence minimizes the residual norm over the
    growing Krylov space (unlike the classical recurrence, which minimizes
    the error in the operator norm and lets residual norms oscillate), so
    the recorded 2-norm history is non-increasing by construction.  One
    operator application per iteration.

    Returns (x, iterations, residual history, converged, monotone) where
    ``monotone`` re-checks the recorded history with one part in 1e14 slack.
    Convergence tests the residual 2-norm against tol * ||b||.
    """
    x = np.zeros_like(b)
    r = b.copy()
    norm_b = float(np.linalg.norm(b))
    residuals = [norm_b]
    if norm_b == 0.0:
        return x, 0, residuals, True, True
    p = r.copy()
    ar = apply_op(r)
    ap = ar.copy()
    rar = float(np.dot(r, ar))
    converged = False
    iters = 0
    for iters in range(1, max_iters + 1):
        denom = float(np.dot(ap, ap))
        if denom <= 0.0 or rar <= 0.0:
            # loss of positive definiteness (round-off); stop with current x
            iters -= 1
            break
        alpha = rar / denom
        x = x + alpha * p
        r = r - alpha * ap
        norm_r = float(np.linalg.norm(r))
        residuals.append(norm_r)
        if norm_r <= tol * norm_b:
            converged = True
            break
        ar = apply_op(r)
        rar_new = float(np.dot(r, ar))
        beta = rar_new / rar
        rar = rar_new
        p = r + beta * p
        ap = ar + beta * ap
    monotone = all(residuals[i + 1] <= residuals[i] * (1.0 + 1e-14)
                   for i in range(len(residuals) - 1))
    return x, iters, residuals, converged, monotone


def hum_solve(ops: StepOperators, y0: np.ndarray, z0: np.ndarray,
              config: HumConfig = HumConfig()) -> HumResult:
    """Compute the penalized terminal-nulling control for the system of ``ops``.

    Solves the normal equations (Lambda + eps I) pT = free(T) by conjugate
    residual, on the square-root factor of Lambda when 2n is within the size
    limit and matrix-free above it (see the module docstring), extracts the
    control h^m = -phi^m on the window from the dual solve at pT, re-runs the
    controlled forward problem, and returns that trajectory with honest
    terminal norms from it, the free one in the same norm.  Deterministic:
    repeated calls with equal inputs produce bit-identical results.
    """
    n = ops.grid.n_cells
    free = solve_forward_linear(ops, None, y0, z0)
    b = np.concatenate([free.y[-1], free.z[-1]])

    if 2 * n <= _FACTOR_MAX_DIM:
        factor = None

        def apply_shifted(v: np.ndarray) -> np.ndarray:
            # built on first use, so a solve that needs no iteration skips it
            nonlocal factor
            if factor is None:
                factor = gramian_factor(ops)
            return factor.T @ (factor @ v) + config.epsilon * v
    else:
        def apply_shifted(v: np.ndarray) -> np.ndarray:
            return gramian_apply(ops, v) + config.epsilon * v

    p_terminal, iters, residuals, converged, monotone = _conjugate_gradient(
        apply_shifted, b, config.cg_tol, config.cg_max_iters)

    dual = solve_adjoint(ops, p_terminal[:n], p_terminal[n:])
    control = ControlField(ops.grid, ops.tgrid, -dual.y[:-1])
    controlled = solve_forward_linear(ops, control, y0, z0)
    term_y, term_z = controlled.terminal_norms()
    return HumResult(
        control=control, trajectory=controlled, epsilon=config.epsilon,
        terminal_y=term_y, terminal_z=term_z, control_cost=control_cost(control),
        adjoint_terminal=p_terminal,
        cg_iterations=iters, cg_residuals=tuple(residuals),
        cg_converged=converged, residual_monotone=monotone,
        duality_residual=duality_residual(control, controlled, dual),
        free_terminal_norm=float(np.hypot(*free.terminal_norms())),
    )


def duality_residual(control: ControlField, state: Trajectory,
                     dual: Trajectory) -> float:
    """Relative defect of the discrete duality identity.

    For a forward trajectory driven by ``control`` and any dual trajectory
    produced by the transposed stepper, the identity

        <u(T), p(T)> = <u(0), p(0)> + dt sum_m <chi h^m, phi^m>

    is exact up to round-off; the returned value is the absolute defect
    divided by the largest participating term.  All three share one grid.
    """
    grid, tgrid = control.grid, control.tgrid
    if any(x.grid != grid or x.tgrid != tgrid for x in (state, dual)):
        raise ValueError("control, state and dual were built for a different grid")
    h_sp = grid.spacing
    chi = grid.omega_indicator
    terminal = h_sp * (float(np.dot(state.y[-1], dual.y[-1]))
                       + float(np.dot(state.z[-1], dual.z[-1])))
    initial = h_sp * (float(np.dot(state.y[0], dual.y[0]))
                      + float(np.dot(state.z[0], dual.z[0])))
    pairing = tgrid.dt * h_sp * float(np.sum(chi[None, :] * control.values * dual.y[:-1]))
    scale = max(abs(terminal), abs(initial), abs(pairing), 1e-300)
    return abs(terminal - initial - pairing) / scale


@dataclass(frozen=True)
class EpsilonRow:
    epsilon: float
    control_cost: float
    terminal_y: float
    terminal_z: float
    terminal_total: float
    terminal_over_sqrt_eps: float
    cg_iterations: int


@dataclass(frozen=True)
class EpsilonSweepReport:
    """Cost and terminal-norm trends as the penalty is driven down."""

    rows: tuple[EpsilonRow, ...]
    cost_spread_last3: float
    ratio_strictly_increasing_last3: bool

    @property
    def cost_bounded(self) -> bool:
        return self.cost_spread_last3 < 0.10

    @property
    def ratio_bounded(self) -> bool:
        return not self.ratio_strictly_increasing_last3


def epsilon_sweep(ops: StepOperators, y0: np.ndarray, z0: np.ndarray,
                  epsilons, base_config: HumConfig = HumConfig()) -> EpsilonSweepReport:
    """Run the penalized solve across a decreasing penalty schedule.

    Tracks the control cost (expected to stabilize) and the terminal norm
    divided by sqrt(eps) (expected bounded, not monotonically growing), the
    two signatures of a uniform-in-penalty control bound.  Every penalty
    steps with the factorizations of ``ops``.
    """
    eps_list = [float(e) for e in epsilons]
    if len(eps_list) < 2 or any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("epsilons must be a strictly decreasing sequence of length >= 2")
    rows = []
    for eps in eps_list:
        res = hum_solve(ops, y0, z0, replace(base_config, epsilon=eps))
        rows.append(EpsilonRow(
            epsilon=eps, control_cost=res.control_cost,
            terminal_y=res.terminal_y, terminal_z=res.terminal_z,
            terminal_total=res.terminal_total,
            terminal_over_sqrt_eps=res.terminal_total / np.sqrt(eps),
            cg_iterations=res.cg_iterations))
    tail = rows[-3:] if len(rows) >= 3 else rows
    costs = [r.control_cost for r in tail]
    low = min(costs)
    spread = (max(costs) - low) / low if low > 0.0 else 0.0
    ratios = [r.terminal_over_sqrt_eps for r in tail]
    increasing = all(b > a for a, b in zip(ratios, ratios[1:])) and len(ratios) >= 2
    return EpsilonSweepReport(rows=tuple(rows),
                              cost_spread_last3=float(spread),
                              ratio_strictly_increasing_last3=bool(increasing))
