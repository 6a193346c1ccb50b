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
system, so calls that share them share their factorizations; the only ones
built here are the mean field's, the default preconditioning reference
below, cached on the ops they serve.  The reduced system has no dual march.
States and dual data are whole stacked vectors of length 2n = ``ops.size``,
y in the first n entries and z in the last n.

Up to the size 2n = ``_FACTOR_MAX_DIM`` of the stacked state, the solve
rests on the Gramian of a field constant in space and time:

* In the cosine basis Q = diag(C, C) of the Neumann Laplacian the adjoint
  step of such a field is n independent 2 x 2 blocks, and G = Q^T Lambda Q
  is assembled from them with no step solve (:func:`_factor_and_basis`).
  G + eps I gets one packed Cholesky factor per penalty (``dpptrf``); both
  are cached per ``StepOperators``.
* A constant field is solved directly: one ``dpptrs`` solve and one step of
  refinement with the residual taken through the observation, never through
  G, whose rounding costs small penalties up to two digits of pT (corrected
  semi-normal equations: A. Bjorck, Linear Algebra Appl. 88/89, 1987).
* Any other field runs conjugate residual on :func:`gramian_apply` + eps I,
  two marches per iteration, preconditioned by the unrefined direct solve
  of a constant reference field (Concus and Golub, SIAM J. Numer. Anal. 10,
  1973): the field's space-time mean, or the reference the caller names,
  which the semilinear fixed point sets to its first pass, so that all its
  passes share one Gramian and one factor.

Above the limit every field runs conjugate residual on :func:`gramian_apply`
with the identity as preconditioner and memory that stays O(n).  A solve
whose data are zero builds and applies nothing.

Building and solving with G keeps every BLAS and LAPACK call on the calling
thread: ``dpptrf`` and ``dpptrs`` are level 2, which OpenBLAS never threads,
and products are split into chunks of at most ``_SERIAL_GEMM`` multiply-adds.
A threaded call leaves OpenBLAS's pool spinning, taking a core from what runs
next on a 2-core host: on 2 vCPUs an unsplit 200^3 product (7 ms; 1.5 ms in
chunks) and ``dpotrf`` of order 200 (250 ms; ``dpptrf`` 0.4 ms) each left
about 120 ms of CPU spinning in the 0.3 s after it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._lapack import dpptrf, dpptrs
from .mesh import _cosine_basis
from .pde import (ControlField, StepOperators, Trajectory, _check_dual,
                  constant_coefficients, control_cost, solve_adjoint,
                  solve_forward_linear)

__all__ = [
    "HumConfig", "HumResult", "EpsilonRow", "EpsilonSweepReport",
    "gramian_apply", "hum_solve", "duality_residual", "epsilon_sweep",
]

# Largest stacked state size 2n for which hum_solve uses the Gramian G
# (module docstring).  G took 1.3-2.0, 3.3-5.2, 13-19 and 440-750 ms to build
# at 2n = 200, 320, 500 and 1000 (sigma = 1, M = 200, 2 vCPUs), each
# penalty's factor 0.4-0.7, 1.2-1.7, 3.8-5.6 and 39-57 ms, against 8.8-20.8
# ms for one matrix-free application; no workload above 256 measures either
# path yet, so the limit stays.
_FACTOR_MAX_DIM = 256

# OpenBLAS runs a product with m * n * k up to 64^3 on the calling thread
# (module docstring); from 2n = 726 on, chunks are single rows.
_SERIAL_GEMM = 64**3


@dataclass(frozen=True)
class HumConfig:
    """Penalty strength and normal-equation solver knobs."""

    epsilon: float = 1e-6
    cg_tol: float = 1e-9
    cg_max_iters: int = 500

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon < np.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
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

    Solves the dual system backward from the stacked state ``p_terminal``
    (length ``ops.size``), takes the windowed observation of its y-component,
    feeds that as a source into the forward solve from zero data, and returns
    the stacked terminal state.  The map is linear, symmetric, and positive
    semidefinite, with <Lambda a, a> equal to the window-weighted space-time
    norm of the observed component.
    """
    dual = solve_adjoint(ops, p_terminal)
    observed = ControlField(ops.grid, ops.tgrid, dual.y[:-1])
    zero = np.zeros(ops.grid.n_cells)
    return solve_forward_linear(ops, observed, zero, zero).u[-1]


def _mode_product(a: tuple, b: tuple) -> tuple:
    """The per-mode 2 x 2 blocks of the product of two block matrices."""
    return (a[0] * b[0] + a[1] * b[2], a[0] * b[1] + a[1] * b[3],
            a[2] * b[0] + a[3] * b[2], a[2] * b[1] + a[3] * b[3])


def _serial_gram(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a^T b, summed over chunks of rows small enough that each product runs
    on the calling thread (module docstring)."""
    rows = max(1, _SERIAL_GEMM // (a.shape[1] * b.shape[1]))
    return sum(a[i:i + rows].T @ b[i:i + rows] for i in range(0, a.shape[0], rows))


def _factor_and_basis(ops: StepOperators):
    """(G, C, (E, W)) for coefficients constant in space and time
    (``ValueError`` otherwise): Lambda = Q G Q^T with Q = diag(C, C), C the
    cosine basis of the Neumann Laplacian, and the observation (E, W).

    Lambda sums O_k^T O_k over k = 1..M, where O_k = W (B^k)[y rows], W =
    sqrt(dt * chi) C[window] and B is the adjoint step.  In the cosine basis
    B is n independent 2 x 2 blocks B_j, so (B^k)[y rows] is two diagonals,
    E[:, k - 1, j] = (B_j^k)[0, :], and G = [[D, D], [D, D]] * (E^T E),
    elementwise, with D = W^T W.  The rows of E are doubled, B^(K + i) =
    B^i B^K, in O(M n) work; D and E^T E take O(n^2 M).  Entries of E below
    sqrt(tiny) are zeroed, so that no product is subnormal.
    """
    if not ops.coeffs.constant:
        raise ValueError("the cosine-basis Gramian is built only for coefficients "
                         "constant in space and time")
    n, m, dt, c = ops.grid.n_cells, ops.tgrid.n_steps, ops.tgrid.dt, ops.coeffs
    chi = ops.grid.omega_indicator
    window = np.flatnonzero(chi > 0.0)
    basis, mu = _cosine_basis(n)
    # the step's mode-j block is [[p, q], [r, s]], so B_j = [[s, -r], [-q, p]] / det
    p = 1.0 + dt * mu - dt * c.a11[0, 0]
    s = 1.0 + dt * ops.sigma * mu - dt * c.a22[0, 0]
    q, r = -dt * c.a12[0, 0], -dt * c.a21[0, 0]
    det = p * s - q * r
    # e holds the first rows of B^1..B^K, power the blocks of B^K
    power, done = (s / det, -r / det, -q / det, p / det), 1
    e = np.empty((2, m, n))
    e[:, 0] = power[:2]
    while done < m:
        e_y, e_z = e[:, :min(done, m - done)]
        e[:, done:done + len(e_y)] = (e_y * power[0] + e_z * power[2],
                                      e_y * power[1] + e_z * power[3])
        power, done = _mode_product(power, power), 2 * done
    e[np.abs(e) < np.sqrt(np.finfo(float).tiny)] = 0.0
    w = np.sqrt(dt * chi[window])[:, None] * basis[window]
    d = _serial_gram(w, w)
    yz = d * _serial_gram(e[0], e[1])
    return np.block([[d * _serial_gram(e[0], e[0]), yz],
                     [yz.T, d * _serial_gram(e[1], e[1])]]), basis, (e, w)


def _observed_gramian(observation: tuple, v: np.ndarray) -> np.ndarray:
    """G v, through the observation (E, W) of :func:`_factor_and_basis`."""
    e, w = observation
    observed = _serial_gram((e * v.reshape(2, 1, -1)).sum(axis=0).T, w.T)
    return (e * _serial_gram(observed.T, w)).sum(axis=1).ravel()


def _cached(ops: StepOperators, key, build):
    """``build()``, made once per ``ops`` and kept in ``ops.cache`` under
    ``key``: :func:`_factor_and_basis`, each penalty's Cholesky factor, and a
    field's default preconditioning reference."""
    if key not in ops.cache:
        ops.cache[key] = build()
    return ops.cache[key]


def _penalized_factor(ops: StepOperators, epsilon: float):
    """(G, U, C, (E, W)): :func:`_factor_and_basis` of ``ops`` with U, the
    upper Cholesky factor of G + eps I packed by columns (``dpptrf``);
    ``ValueError`` when a penalty below about 2.2e-16 max|G| leaves it indefinite."""
    g, basis, observation = _cached(ops, "factor", lambda: _factor_and_basis(ops))

    def cholesky():
        size = g.shape[0]
        # G's lower triangle by rows is its upper one by columns
        packed = g[np.tri(size, dtype=bool)]
        diagonal = np.arange(size)
        packed[diagonal * (diagonal + 3) // 2] += epsilon
        packed, info = dpptrf(size, packed, overwrite_ap=True)
        if info != 0:
            floor = np.finfo(float).eps * g.diagonal().max()
            raise ValueError(f"epsilon = {epsilon:.3g} is below the round-off floor of "
                             f"the Gramian, about {floor:.3g} (dpptrf info = {info})")
        return packed

    return g, _cached(ops, ("cholesky", epsilon), cholesky), basis, observation


def _penalized_solve(factor: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(G + eps I)^-1 v = U^-1 U^-T v, by LAPACK ``dpptrs``."""
    return dpptrs(v.size, factor, v)[0]


def _to_modes(v: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Q^T v of a stacked state v, Q = diag(C, C)."""
    return (v.reshape(2, -1) @ basis).ravel()


def _from_modes(v: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Q v of a stacked state v in the cosine basis, Q = diag(C, C)."""
    return (v.reshape(2, -1) @ basis.T).ravel()


def _preconditioner(ops: StepOperators, reference: StepOperators | None,
                    epsilon: float):
    """v -> Q (G + eps I)^-1 Q^T v, the unrefined direct solve of the constant
    ``reference`` field, by default the space-time mean of the field of
    ``ops``."""
    if reference is None:
        c = ops.coeffs
        reference = _cached(ops, "mean", lambda: StepOperators(
            ops.sigma, constant_coefficients(
                ops.grid, ops.tgrid, *(float(np.mean(getattr(c, name)))
                                       for name in ("a11", "a12", "a21", "a22")))))
    _, factor, basis, _ = _penalized_factor(reference, epsilon)
    return lambda v: _from_modes(_penalized_solve(factor, _to_modes(v, basis)), basis)


def _identity(v: np.ndarray) -> np.ndarray:
    return v


def _conjugate_gradient(apply_op, b: np.ndarray, tol: float, max_iters: int,
                        precondition=_identity):
    """Krylov solve of an SPD system, conjugate-residual variant, with an
    SPD preconditioner ``precondition``, v -> M^-1 v, by default M = I.

    The conjugate-residual recurrence minimizes the residual norm
    sqrt(r . M^-1 r) over the growing Krylov space (unlike the classical
    recurrence, which minimizes the error in the operator norm and lets
    residual norms oscillate), so that norm is non-increasing by
    construction; with M = I it is the 2-norm.  One operator application
    and one of the preconditioner per iteration.

    Returns (x, iterations, residual 2-norm history, converged, monotone),
    where ``monotone`` re-checks the minimized norm's history with one part
    in 1e14 slack.  Convergence tests the residual 2-norm against
    tol * ||b||.
    """
    x = np.zeros_like(b)
    r = b.copy()
    norm_b = float(np.linalg.norm(b))
    residuals = [norm_b]
    if norm_b == 0.0:
        return x, 0, residuals, True, True
    z = precondition(r)
    minimized = [float(np.sqrt(np.dot(r, z)))]
    p = z.copy()
    az = apply_op(z)
    ap = az.copy()
    zaz = float(np.dot(z, az))
    converged = False
    iters = 0
    for iters in range(1, max_iters + 1):
        q = precondition(ap)
        denom = float(np.dot(ap, q))
        if denom <= 0.0 or zaz <= 0.0:
            # loss of positive definiteness (round-off); stop with current x
            iters -= 1
            break
        alpha = zaz / denom
        x = x + alpha * p
        r = r - alpha * ap
        norm_r = float(np.linalg.norm(r))
        residuals.append(norm_r)
        z = z - alpha * q
        minimized.append(float(np.sqrt(max(float(np.dot(r, z)), 0.0))))
        if norm_r <= tol * norm_b:
            converged = True
            break
        az = apply_op(z)
        zaz_new = float(np.dot(z, az))
        beta = zaz_new / zaz
        zaz = zaz_new
        p = z + beta * p
        ap = az + beta * ap
    return x, iters, residuals, converged, _non_increasing(minimized)


def _non_increasing(history) -> bool:
    return all(b <= a * (1.0 + 1e-14) for a, b in zip(history, history[1:]))


def hum_solve(ops: StepOperators, y0: np.ndarray, z0: np.ndarray,
              config: HumConfig = HumConfig(),
              reference: StepOperators | None = None) -> HumResult:
    """Compute the penalized terminal-nulling control for the system of ``ops``.

    Solves the normal equations (Lambda + eps I) pT = free(T) (module
    docstring): directly, when 2n is within the size limit and the
    coefficients are constant; by conjugate residual on :func:`gramian_apply`
    otherwise, preconditioned within the limit by the direct solve of
    ``reference``, a constant-coefficient ``StepOperators`` on the same
    grids, or of the field's space-time mean when it is None.  It then
    extracts the control h^m = -phi^m on the window from the dual solve at
    pT, re-runs the controlled forward problem, and returns that trajectory
    with honest terminal norms from it, the free one in the same norm.

    The solver history keeps one meaning on every path: ``cg_residuals``
    holds residual 2-norms of the normal equations, from ||b|| on, and
    ``cg_converged`` says the last is within ``cg_tol * ||b||``.  A direct
    solve reports 0 iterations and the history (||b||, ||G p + eps p - b||)
    in the cosine basis.  Deterministic: repeated calls with equal
    inputs produce bit-identical results.  The reduced system, as ``ops`` or
    ``reference``, raises ``ValueError`` before any march.
    """
    _check_dual(ops)
    if reference is not None:
        _check_dual(reference)
        if not reference.coeffs.constant:
            raise ValueError("reference coefficients must be constant in space and time")
        if reference.grid != ops.grid or reference.tgrid != ops.tgrid:
            raise ValueError("reference was built for a different grid")
    free = solve_forward_linear(ops, None, y0, z0)
    b = free.u[-1]
    eps = config.epsilon

    # zero data need no solve, so they build no factor and apply nothing
    factored = ops.size <= _FACTOR_MAX_DIM and bool(np.any(b))
    if factored and ops.coeffs.constant:
        g, factor, basis, observation = _penalized_factor(ops, eps)
        b_hat = _to_modes(b, basis)
        p_hat = _penalized_solve(factor, b_hat)
        p_hat += _penalized_solve(factor, b_hat - eps * p_hat
                                  - _observed_gramian(observation, p_hat))
        residuals = [float(np.linalg.norm(b_hat)),
                     float(np.linalg.norm(g @ p_hat + eps * p_hat - b_hat))]
        p_terminal, iters = _from_modes(p_hat, basis), 0
        converged = residuals[1] <= config.cg_tol * residuals[0]
        monotone = _non_increasing(residuals)
    else:
        p_terminal, iters, residuals, converged, monotone = _conjugate_gradient(
            lambda v: gramian_apply(ops, v) + eps * v, b, config.cg_tol,
            config.cg_max_iters,
            _preconditioner(ops, reference, eps) if factored else _identity)

    dual = solve_adjoint(ops, p_terminal)
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


def epsilon_sweep(ops: StepOperators, y0: np.ndarray, z0: np.ndarray,
                  epsilons) -> EpsilonSweepReport:
    """Run the penalized solve, default :class:`HumConfig` but for the
    penalty, across a decreasing penalty schedule.

    Tracks the control cost (expected to stabilize) and the terminal norm
    divided by sqrt(eps) (expected bounded, not monotonically growing), the
    two signatures of a uniform-in-penalty control bound.  Every penalty
    steps with the factorizations of ``ops`` and solves with its one
    Gramian (or that of its reference field), with one Cholesky factor of
    G + eps I per penalty.
    """
    eps_list = [float(e) for e in epsilons]
    if len(eps_list) < 2 or any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("epsilons must be a strictly decreasing sequence of length >= 2")
    rows = []
    for eps in eps_list:
        res = hum_solve(ops, y0, z0, HumConfig(epsilon=eps))
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
