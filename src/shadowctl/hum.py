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
system, so calls that share them share their factorizations and cached
Gramians; this module builds no ops of its own.  The reduced system has no
dual march.  States and dual data are whole stacked vectors of length
2n = ``ops.size``, y in the first n entries and z in the last n.

At every size the solve rests on the Gramian of a field constant in space
and time:

* In the cosine basis Q = diag(C, C) of the Neumann Laplacian the step of
  such a field is n independent 2 x 2 blocks
  (:func:`~shadowctl.pde._mode_blocks`), and G = Q^T Lambda Q is assembled
  from the adjoint blocks' powers with no step solve
  (:func:`_factor_and_basis`).  G + eps I gets one blocked Cholesky factor
  per penalty (:func:`_block_cholesky`); both are cached per
  ``StepOperators``.  G holds (2n)^2 doubles and its factor about half
  that, plus the inverses of its diagonal blocks.
* A constant field is solved in that basis end to end, with no banded
  march (:func:`_solve_in_modes`): the free terminal state is a binary
  power of the blocks, pT one blocked forward and back substitution
  (:func:`_penalized_solve`) and one step of refinement
  with the residual taken through the observation, never through G, whose
  rounding costs small penalties up to two digits of pT (corrected
  semi-normal equations: A. Bjorck, Linear Algebra Appl. 88/89, 1987), the
  control one product of the observation's powers by C, and the controlled
  run :func:`~shadowctl.pde._march_in_modes`.  Every step is exact per
  mode, so the solve holds at any sigma.
* Any other field runs conjugate residual on :func:`gramian_apply` + eps I,
  two banded marches per iteration, preconditioned by the unrefined direct
  solve of the constant reference field the caller names (Concus and
  Golub, SIAM J. Numer. Anal. 10, 1973); the semilinear fixed point names
  its first pass, so that all its passes share one Gramian and one factor.

A solve whose data are zero builds and applies nothing.

Building and solving with G keeps every BLAS and LAPACK call on the calling
thread.  Products are split into chunks of at most ``_SERIAL_GEMM``
multiply-adds (:func:`_serial_gram`).  The factor hands
``np.linalg.cholesky`` and ``np.linalg.inv`` diagonal blocks of
``_CHOLESKY_BLOCK`` = 32 rows or fewer, below the limit of 96: numpy's
OpenBLAS keeps ``dpotrf`` on the calling thread up to 127 rows and the
inverse (``dgesv``) up to 99.  The substitutions are matrix-vector products
(``dgemv``), which stayed on the calling thread at every size measured, up
to 96 x 2000 and 200 x 200.  A threaded call leaves OpenBLAS's pool
spinning, taking a core from what runs next on a 2-core host: on 2 vCPUs an
unsplit 200^3 product (7 ms; 1.5 ms in chunks) left about 120 ms of CPU
spinning in the 0.3 s after it, and ``cholesky`` of order 128 and ``inv`` of
order 100 each left 134 ms, against 0.1 ms at 127 and 99 rows.  Within the
limit, smaller blocks factor faster, as ``inv`` costs more per row as its
order grows: at 2n = 200 and 320 the factor took 0.47 and 1.0 ms in blocks
of 32 rows, against 0.68 and 1.6 ms in blocks of 96.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import _cosine_basis
from .pde import (_SERIAL_GEMM, ControlField, StepOperators, Trajectory, _check_dual,
                  _initial_state, _march_in_modes, _mode_blocks, _serial_product,
                  control_cost, solve_adjoint, solve_forward_linear)

__all__ = [
    "HumConfig", "HumResult", "EpsilonRow", "EpsilonSweepReport",
    "gramian_apply", "hum_solve", "duality_residual", "epsilon_sweep",
]

# the rows of a diagonal block of the Cholesky factor: at most 96 keep it on
# the calling thread (module docstring), and 32 factored fastest
_CHOLESKY_BLOCK = 32
# the fewest rows a chunk of _serial_gram holds
_GRAM_ROWS = 8


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


def _mode_power(blocks: tuple, k: int) -> tuple:
    """The per-mode blocks of a block matrix to the power k >= 1, by binary
    powering: O(n log k) work."""
    power = None
    while True:
        if k & 1:
            power = blocks if power is None else _mode_product(power, blocks)
        k >>= 1
        if not k:
            return power
        blocks = _mode_product(blocks, blocks)


def _mode_apply(blocks: tuple, v: np.ndarray) -> np.ndarray:
    """The block matrix applied to a stacked state v in the cosine basis."""
    y, z = v.reshape(2, -1)
    return np.concatenate([blocks[0] * y + blocks[1] * z, blocks[2] * y + blocks[3] * z])


def _serial_gram(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a^T b, summed over chunks of rows small enough that each product runs
    on the calling thread (module docstring).  A product so wide that a
    chunk would hold fewer than ``_GRAM_ROWS`` rows is taken in tiles of b's
    columns instead: single-row chunks are outer products, which run at
    memory speed (at 2n = 2000, one core of a 2-vCPU Intel Xeon built the
    Gramian in 2.6 s that way and in 0.18 s in tiles)."""
    width = max(1, _SERIAL_GEMM // (a.shape[1] * _GRAM_ROWS))
    if b.shape[1] > width:
        return np.concatenate([_serial_gram(a, b[:, j:j + width])
                               for j in range(0, b.shape[1], width)], axis=1)
    rows = max(1, _SERIAL_GEMM // max(1, a.shape[1] * b.shape[1]))
    gram = a[:rows].T @ b[:rows]
    for i in range(rows, a.shape[0], rows):
        gram += a[i:i + rows].T @ b[i:i + rows]
    return gram


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
    n, m, dt = ops.grid.n_cells, ops.tgrid.n_steps, ops.tgrid.dt
    chi = ops.grid.omega_indicator
    window = np.flatnonzero(chi > 0.0)
    basis = _cosine_basis(n)[0]
    # B_j is the transpose of the step's inverse block [[i0, i1], [i2, i3]];
    # e holds the first rows of B^1..B^K, power the blocks of B^K
    i0, i1, i2, i3 = _mode_blocks(ops)
    power, done = (i0, i2, i1, i3), 1
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
    ``key``: :func:`_factor_and_basis` and each penalty's Cholesky factor."""
    if key not in ops.cache:
        ops.cache[key] = build()
    return ops.cache[key]


def _block_cholesky(a: np.ndarray) -> tuple:
    """The upper Cholesky factor U of a symmetric positive definite ``a``,
    U^T U = a, by block rows of at most ``_CHOLESKY_BLOCK``; ``a`` is
    overwritten, and ``np.linalg.LinAlgError`` raised when a block is not
    positive definite.

    Block row k (rows start:stop) is held as (start, stop, L^-1, P): L the
    lower Cholesky factor of its diagonal block, U[k, k] = L^T, and P =
    U[k, stop:], the panel right of it.  Left-looking: the block row takes
    the Schur update of the rows above it, a[k, start:] - U[:start, k]^T
    U[:start, start:], then L and L^-1 from its diagonal block, then P =
    L^-1 a[k, stop:].  The panels hold fewer numbers than U's upper
    triangle, and the inverses at most 32 per row of ``a``.
    """
    size = a.shape[0]
    count = -(-size // _CHOLESKY_BLOCK)
    bounds = [size * k // count for k in range(count + 1)]
    factor = []
    for start, stop in zip(bounds, bounds[1:]):
        if start:
            a[start:stop, start:] -= _serial_gram(a[:start, start:stop], a[:start, start:])
        inverse = np.linalg.inv(np.linalg.cholesky(a[start:stop, start:stop]))
        panel = a[start:stop, stop:] = _serial_gram(inverse.T, a[start:stop, stop:])
        factor.append((start, stop, inverse, panel))
    return tuple(factor)


def _penalized_factor(ops: StepOperators, epsilon: float):
    """(G, U, C, (E, W)): :func:`_factor_and_basis` of ``ops`` with U, the
    upper Cholesky factor of G + eps I by block rows (:func:`_block_cholesky`);
    ``ValueError`` when a penalty below about 2.2e-16 max|G| leaves it indefinite."""
    g, basis, observation = _cached(ops, "factor", lambda: _factor_and_basis(ops))

    def cholesky():
        penalized = g.copy()
        penalized.flat[::g.shape[0] + 1] += epsilon
        try:
            return _block_cholesky(penalized)
        except np.linalg.LinAlgError:
            floor = np.finfo(float).eps * g.diagonal().max()
            raise ValueError(f"epsilon = {epsilon:.3g} is below the round-off floor of "
                             f"the Gramian, about {floor:.3g}") from None

    return g, _cached(ops, ("cholesky", epsilon), cholesky), basis, observation


def _penalized_solve(factor: tuple, v: np.ndarray) -> np.ndarray:
    """(G + eps I)^-1 v = U^-1 U^-T v, by forward and back substitution over
    the block rows of U (:func:`_block_cholesky`)."""
    x = v.copy()
    for start, stop, inverse, panel in factor:
        x[start:stop] = inverse @ x[start:stop]
        x[stop:] -= x[start:stop] @ panel
    for start, stop, inverse, panel in reversed(factor):
        x[start:stop] = (x[start:stop] - panel @ x[stop:]) @ inverse
    return x


def _to_modes(v: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Q^T v of a stacked state v, Q = diag(C, C)."""
    return (v.reshape(2, -1) @ basis).ravel()


def _from_modes(v: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Q v of a stacked state v in the cosine basis, Q = diag(C, C)."""
    return (v.reshape(2, -1) @ basis.T).ravel()


def _preconditioner(reference: StepOperators, epsilon: float):
    """v -> Q (G + eps I)^-1 Q^T v, the unrefined direct solve of the constant
    ``reference`` field."""
    _, factor, basis, _ = _penalized_factor(reference, epsilon)
    return lambda v: _from_modes(_penalized_solve(factor, _to_modes(v, basis)), basis)


def _conjugate_gradient(apply_op, b: np.ndarray, tol: float, max_iters: int,
                        precondition):
    """Krylov solve of an SPD system, conjugate-residual variant, with an
    SPD preconditioner ``precondition``, v -> M^-1 v.

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
    docstring): not at all when free(T) = 0; directly, and in the cosine
    basis end to end, when the coefficients are constant
    (:func:`_solve_in_modes`); otherwise by conjugate residual on
    :func:`gramian_apply`, preconditioned by the direct solve of
    ``reference``, a constant-coefficient ``StepOperators`` on the same
    grids, which such a field requires.  It then extracts the control
    h^m = -phi^m on the window from the dual solve at pT, re-runs the
    controlled forward problem, and returns that trajectory with honest
    terminal norms from it, the free one in the same norm.

    The solver history keeps one meaning on every path: ``cg_residuals``
    holds residual 2-norms of the normal equations, from ||b|| on, and
    ``cg_converged`` says the last is within ``cg_tol * ||b||``.  A direct
    solve reports 0 iterations and the history (||b||, ||G p + eps p - b||)
    in the cosine basis.  Deterministic: repeated calls with equal
    inputs produce bit-identical results.  The reduced system, as ``ops`` or
    ``reference``, and a field that is not constant with no ``reference``
    raise ``ValueError`` before any march.
    """
    _check_dual(ops)
    if reference is None:
        if not ops.coeffs.constant:
            raise ValueError("coefficients that are not constant need a constant "
                             "reference to precondition with")
    else:
        _check_dual(reference)
        if not reference.coeffs.constant:
            raise ValueError("reference coefficients must be constant in space and time")
        if reference.grid != ops.grid or reference.tgrid != ops.tgrid:
            raise ValueError("reference was built for a different grid")
    if ops.coeffs.constant:
        return _solve_in_modes(ops, y0, z0, config)
    free = solve_forward_linear(ops, None, y0, z0)
    b = free.u[-1]
    eps = config.epsilon
    if not np.any(b):
        # zero data need no solve, so they build no factor and apply nothing
        p_terminal, history = np.zeros_like(b), (0, [0.0], True, True)
    else:
        p_terminal, *history = _conjugate_gradient(
            lambda v: gramian_apply(ops, v) + eps * v, b, config.cg_tol,
            config.cg_max_iters, _preconditioner(reference, eps))
    dual = solve_adjoint(ops, p_terminal)
    control = ControlField(ops.grid, ops.tgrid, -dual.y[:-1])
    controlled = solve_forward_linear(ops, control, y0, z0)
    return _result(config, control, controlled, p_terminal, history,
                   duality_residual(control, controlled, dual),
                   float(np.hypot(*free.terminal_norms())))


def _solve_in_modes(ops: StepOperators, y0: np.ndarray, z0: np.ndarray,
                    config: HumConfig) -> HumResult:
    """:func:`hum_solve` of a field constant in space and time, in the cosine
    basis end to end, with no step band built or solved.

    With A^-1 the per-mode inverse step (:func:`~shadowctl.pde._mode_blocks`)
    and B = A^-T the adjoint step, the free terminal state is
    b = A^-M Q^T (y0; z0), from a binary power of the blocks.  The dual's
    y-rows at nodes m = 0..M-1 are the first rows of B^(M-m) applied to pT,
    E[0, M-1-m] * pT_y + E[1, M-1-m] * pT_z with the E of
    :func:`_factor_and_basis`, so one product by C gives the control; its
    state at node 0, which the duality residual reads, is B^M pT.  The
    controlled march is :func:`~shadowctl.pde._march_in_modes`.
    """
    n, eps = ops.grid.n_cells, config.epsilon
    basis = _cosine_basis(n)[0]
    u0 = _to_modes(_initial_state(ops, None, y0, z0), basis)
    power = _mode_power(_mode_blocks(ops), ops.tgrid.n_steps)   # A^-M
    b_hat = _mode_apply(power, u0)
    if not np.any(b_hat):
        # zero data need no solve, so they build no factor and apply nothing
        p_hat, history = np.zeros_like(b_hat), (0, [0.0], True, True)
        phi = np.zeros((ops.tgrid.n_steps, n))
    else:
        g, factor, _, observation = _penalized_factor(ops, eps)
        p_hat = _penalized_solve(factor, b_hat)
        p_hat += _penalized_solve(factor, b_hat - eps * p_hat
                                  - _observed_gramian(observation, p_hat))
        residuals = [float(np.linalg.norm(b_hat)),
                     float(np.linalg.norm(g @ p_hat + eps * p_hat - b_hat))]
        history = (0, residuals, residuals[1] <= config.cg_tol * residuals[0],
                   _non_increasing(residuals))
        e = observation[0]
        phi = e[0, ::-1] * p_hat[:n]
        phi += e[1, ::-1] * p_hat[n:]
        _serial_product(phi, basis.T)
    control = ControlField(ops.grid, ops.tgrid, -phi)
    controlled = _march_in_modes(ops, control, y0, z0)
    p_terminal = _from_modes(p_hat, basis)
    p_initial = _from_modes(_mode_apply((power[0], power[2], power[1], power[3]), p_hat),
                            basis)
    return _result(config, control, controlled, p_terminal, history,
                   _duality_defect(control, controlled, p_terminal, p_initial, phi),
                   float(np.sqrt(ops.grid.spacing) * np.linalg.norm(b_hat)))


def _result(config: HumConfig, control: ControlField, controlled: Trajectory,
            p_terminal: np.ndarray, history, duality: float,
            free_terminal_norm: float) -> HumResult:
    """The :class:`HumResult` of a solve, its terminal norms read off the
    controlled trajectory; ``history`` is (iterations, residuals, converged,
    monotone)."""
    iters, residuals, converged, monotone = history
    term_y, term_z = controlled.terminal_norms()
    return HumResult(
        control=control, trajectory=controlled, epsilon=config.epsilon,
        terminal_y=term_y, terminal_z=term_z, control_cost=control_cost(control),
        adjoint_terminal=p_terminal,
        cg_iterations=iters, cg_residuals=tuple(residuals),
        cg_converged=converged, residual_monotone=monotone,
        duality_residual=duality, free_terminal_norm=free_terminal_norm,
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
    return _duality_defect(control, state, dual.u[-1], dual.u[0], dual.y[:-1])


def _duality_defect(control: ControlField, state: Trajectory, dual_terminal: np.ndarray,
                    dual_initial: np.ndarray, dual_y: np.ndarray) -> float:
    """:func:`duality_residual` of a dual given by its stacked states at
    nodes M and 0 and its y-rows at nodes 0..M-1."""
    grid, n = control.grid, control.grid.n_cells
    h_sp = grid.spacing
    chi = grid.omega_indicator
    terminal = h_sp * (float(np.dot(state.y[-1], dual_terminal[:n]))
                       + float(np.dot(state.z[-1], dual_terminal[n:])))
    initial = h_sp * (float(np.dot(state.y[0], dual_initial[:n]))
                      + float(np.dot(state.z[0], dual_initial[n:])))
    pairing = (control.tgrid.dt * h_sp
               * float(np.sum(chi[None, :] * control.values * dual_y)))
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
    steps with the factorizations of ``ops``, whose coefficients must be
    constant, and solves with its one Gramian, with one Cholesky factor of
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
