"""Penalized-control solver tests.

Structural identities (Gramian symmetry, the cost identity, the terminal
relation u(T) = eps * pT + r) hold to round-off / solver tolerance by
construction, so they are asserted at tight thresholds on random data.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dpptrf, dpptrs

from shadowctl import hum, pde
from shadowctl.hum import (HumConfig, _conjugate_gradient, duality_residual,
                           epsilon_sweep, gramian_apply, hum_solve)
from shadowctl.mesh import Grid1D, TimeGrid, _laplacian_stencil, norm_l2
from shadowctl.nonlinear import arctan_family, make_pair, sigmoid_family
from shadowctl.pde import (ControlField, ShadowStepOperators, StepOperators,
                           constant_coefficients, control_cost, solve_adjoint,
                           solve_forward_linear)
from shadowctl.semilinear import linearized_coefficients, origin_coefficients


@pytest.fixture(scope="module")
def small_problem():
    grid = Grid1D(n_cells=20, omega_a=0.3, omega_b=0.7)
    tgrid = TimeGrid(horizon=0.5, n_steps=40)
    coeffs = constant_coefficients(grid, tgrid, 0.0, 0.0, 1.0, 0.0)
    x = grid.cell_centers
    y0 = 0.1 * np.cos(np.pi * x)
    z0 = np.full(20, 0.1)
    return grid, tgrid, coeffs, y0, z0


class TestGramian:
    def test_symmetry_on_random_probes(self, small_problem):
        grid, tgrid, coeffs, _, _ = small_problem
        rng = np.random.default_rng(0)
        for _ in range(10):
            a, b = rng.standard_normal((2, 40))
            la = gramian_apply(StepOperators(1.0, coeffs), a)
            lb = gramian_apply(StepOperators(1.0, coeffs), b)
            lhs, rhs = np.dot(la, b), np.dot(a, lb)
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1.0)

    def test_positive_semidefinite(self, small_problem):
        grid, tgrid, coeffs, _, _ = small_problem
        rng = np.random.default_rng(1)
        for _ in range(10):
            a = rng.standard_normal(40)
            quad = np.dot(gramian_apply(StepOperators(1.0, coeffs), a), a)
            assert quad >= -1e-12

    def test_quadratic_form_equals_observation_cost(self, small_problem):
        # h * <Lambda a, a> = ||observed dual component||^2 on the window
        grid, tgrid, coeffs, _, _ = small_problem
        rng = np.random.default_rng(2)
        a = rng.standard_normal(40)
        quad = grid.spacing * float(np.dot(gramian_apply(StepOperators(1.0, coeffs), a), a))
        dual = solve_adjoint(StepOperators(1.0, coeffs), a)
        observed = ControlField(grid, tgrid, dual.y[:-1])
        assert quad == pytest.approx(control_cost(observed) ** 2,
                                     rel=1e-10)

    def test_rejects_bad_shape(self, small_problem):
        grid, tgrid, coeffs, _, _ = small_problem
        with pytest.raises(ValueError, match="shape"):
            gramian_apply(StepOperators(1.0, coeffs), np.zeros(41))


def _longdouble_gramian(ops):
    """Lambda of constant-coefficient ``ops`` summed in long double: the
    adjoint step B = (step matrix)^-T by Gauss-Jordan elimination, and the
    window rows of B^k observed for k = 1..M."""
    ld = np.longdouble
    grid, coeffs = ops.grid, ops.coeffs
    n, dt = grid.n_cells, ld(ops.tgrid.dt)
    main, off = _laplacian_stencil(grid)
    lap = np.diag(main.astype(ld)) + np.diag(off.astype(ld), 1) + np.diag(off.astype(ld), -1)
    eye = np.eye(n, dtype=ld)
    a11, a12, a21, a22 = (ld(getattr(coeffs, f)[0, 0]) for f in ("a11", "a12", "a21", "a22"))
    step = np.block([[eye - dt * lap - dt * a11 * eye, -dt * a12 * eye],
                     [-dt * a21 * eye, eye - dt * ld(ops.sigma) * lap - dt * a22 * eye]])
    aug = np.hstack([step.T, np.eye(2 * n, dtype=ld)])
    for j in range(2 * n):
        pivot = j + int(np.argmax(np.abs(aug[j:, j])))
        aug[[j, pivot]] = aug[[pivot, j]]
        aug[j] /= aug[j, j]
        others = np.arange(2 * n) != j
        aug[others] -= np.outer(aug[others, j], aug[j])
    b = aug[:, 2 * n:]
    chi = grid.omega_indicator
    window = np.flatnonzero(chi > 0.0)
    weight = np.sqrt(dt * chi[window].astype(ld))[:, None]
    gram = np.zeros((2 * n, 2 * n), dtype=ld)
    power = b
    for _ in range(ops.tgrid.n_steps):
        observed = weight * power[window]
        gram += observed.T @ observed
        power = b @ power
    return gram


def _longdouble_solve(a, b):
    """a^-1 b by Gaussian elimination with partial pivoting, in the dtype of
    ``a`` and ``b``."""
    a, b = a.copy(), b.copy()
    size = b.size
    for j in range(size):
        pivot = j + int(np.argmax(np.abs(a[j:, j])))
        a[[j, pivot]], b[[j, pivot]] = a[[pivot, j]], b[[pivot, j]]
        factors = a[j + 1:, j] / a[j, j]
        a[j + 1:, j:] -= np.outer(factors, a[j, j:])
        b[j + 1:] -= factors * b[j]
    x = np.zeros_like(b)
    for j in reversed(range(size)):
        x[j] = (b[j] - a[j, j + 1:] @ x[j + 1:]) / a[j, j]
    return x


class TestGramianFactor:
    @staticmethod
    def _check_gramian(grid, tgrid, coeffs, sigma):
        # Q G Q^T v against the matrix-free Lambda v, Q = diag(C, C)
        ops = StepOperators(sigma, coeffs)
        g, basis, _ = hum._factor_and_basis(ops)
        assert g.shape == (2 * grid.n_cells,) * 2
        assert np.array_equal(g, g.T)
        rng = np.random.default_rng(4)
        for v in rng.standard_normal((5, 2 * grid.n_cells)):
            ref = gramian_apply(ops, v)
            v_hat = (v.reshape(2, -1) @ basis).ravel()
            got = ((g @ v_hat).reshape(2, -1) @ basis.T).ravel()
            assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)
        return g

    def test_constant_coefficients(self, small_problem):
        grid, tgrid, coeffs, _, _ = small_problem
        self._check_gramian(grid, tgrid, coeffs, 1.0)

    @pytest.mark.parametrize("varying", ["time", "space"])
    def test_field_that_is_not_constant_is_refused(self, varying):
        # only a constant field has a cosine-basis factor; any other field
        # is solved matrix-free, preconditioned by a constant one
        grid = Grid1D(n_cells=14, omega_a=0.2, omega_b=0.6)
        tgrid = TimeGrid(horizon=0.2, n_steps=12)
        rng = np.random.default_rng(8)
        shape = (13, 1) if varying == "time" else (14,)
        coeffs = pde.CoefficientField(grid, tgrid, *(
            np.broadcast_to(rng.uniform(-2.0, 2.0, shape), (13, 14)) for _ in range(4)))
        assert coeffs.time_invariant == (varying == "space")
        assert not coeffs.constant
        with pytest.raises(ValueError, match="constant"):
            hum._factor_and_basis(StepOperators(3.0, coeffs))

    def test_short_wide_stack(self):
        # 2 steps x 8 window cells: a 40 x 40 Gramian of rank 16
        grid = Grid1D(n_cells=20, omega_a=0.3, omega_b=0.7)
        tgrid = TimeGrid(horizon=0.05, n_steps=2)
        coeffs = constant_coefficients(grid, tgrid, 0.0, 0.0, 1.0, 0.0)
        assert np.count_nonzero(grid.omega_indicator) == 8
        g = self._check_gramian(grid, tgrid, coeffs, 1.0)
        assert np.linalg.matrix_rank(g) == 16

    @pytest.mark.parametrize("n_steps", [1, 2, 3, 7, 8, 13])
    @pytest.mark.parametrize("omega", [(0.25, 0.6), (0.5, 0.53)])
    def test_doubling_at_every_bit_pattern(self, n_steps, omega):
        # powers of two, all-ones and mixed bit patterns of M, which the
        # doubling of the powers B^k cuts short at M; the second window is
        # one cut cell, so D has rank one
        grid = Grid1D(n_cells=12, omega_a=omega[0], omega_b=omega[1])
        tgrid = TimeGrid(horizon=0.2, n_steps=n_steps)
        coeffs = constant_coefficients(grid, tgrid, 0.3, 1.0, 1.0, -0.2)
        assert coeffs.time_invariant
        self._check_gramian(grid, tgrid, coeffs, 5.0)

    # sigma stays moderate: at sigma * dt / h^2 of several hundred the step
    # solves of the gramian_apply reference lose digits of their own, and the
    # cosine-basis Gramian then misses 1e-13 as well.  Derandomized, so the bound
    # is checked on the same examples every run.
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n_steps=st.integers(1, 40),
           omega_a=st.floats(0.05, 0.6), width=st.floats(0.05, 0.3),
           a=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
           sigma=st.floats(0.5, 20.0))
    def test_doubled_factor_squares_to_the_gramian(self, n_steps, omega_a,
                                                   width, a, sigma):
        grid = Grid1D(n_cells=10, omega_a=omega_a, omega_b=omega_a + width)
        tgrid = TimeGrid(horizon=0.2, n_steps=n_steps)
        self._check_gramian(grid, tgrid, constant_coefficients(grid, tgrid, *a),
                            sigma)

    # (n_cells, n_steps, sigma, a11, a12, a21, a22); the last three have
    # a12 * a21 < 0 with complex mode pairs, the last at sigma dt / h^2 = 1800
    @pytest.mark.parametrize("n, n_steps, sigma, a", [
        (8, 8, 1.0, (0.0, 0.0, 1.0, 0.0)),
        (10, 13, 5.0, (0.3, 1.5, -1.2, -0.4)),
        (20, 16, 100.0, (0.5, -1.9, 1.9, 0.5)),
        (12, 16, 1000.0, (1.0, 2.0, -2.0, 0.5)),
    ])
    def test_cosine_factor_matches_a_longdouble_gramian(self, n, n_steps, sigma, a):
        grid = Grid1D(n_cells=n, omega_a=0.25, omega_b=0.6)
        tgrid = TimeGrid(horizon=0.2, n_steps=n_steps)
        ops = StepOperators(sigma, constant_coefficients(grid, tgrid, *a))
        if a[1] * a[2] < 0.0:
            # the mode-0 step block [[1 - dt a11, -dt a12], [-dt a21, 1 - dt a22]]
            assert (a[0] - a[3])**2 + 4.0 * a[1] * a[2] < 0.0
        gram = _longdouble_gramian(ops)
        g_hat, basis, _ = hum._factor_and_basis(ops)
        assert np.array_equal(g_hat, g_hat.T)
        rng = np.random.default_rng(9)
        for v in rng.standard_normal((5, 2 * n)):
            ref = gram @ v.astype(np.longdouble)
            v_hat = (v.reshape(2, -1) @ basis).ravel()
            got = ((g_hat @ v_hat).reshape(2, -1) @ basis.T).ravel()
            err = np.linalg.norm(got.astype(np.longdouble) - ref)
            assert err <= 1e-14 * np.linalg.norm(ref)

    def test_constant_factor_makes_no_step_solve(self, monkeypatch):
        grid = Grid1D(n_cells=12, omega_a=0.3, omega_b=0.7)
        tgrid = TimeGrid(horizon=0.2, n_steps=11)
        calls = []
        band_lu = pde._band_lu

        def counted(*args):
            calls.append(args)
            return band_lu(*args)

        monkeypatch.setattr(pde, "_band_lu", counted)
        ops = StepOperators(2.0, constant_coefficients(grid, tgrid, 0.2, 0.5, 1.0, -0.3))
        assert ops.coeffs.constant
        hum._factor_and_basis(ops)
        assert calls == []


class TestHumSolve:
    def test_zero_data_yields_zero_control(self, small_problem):
        grid, tgrid, coeffs, _, _ = small_problem
        res = hum_solve(StepOperators(1.0, coeffs), np.zeros(20), np.zeros(20))
        assert res.cg_converged
        assert np.all(res.control.values == 0.0)
        assert res.control_cost == 0.0
        assert res.terminal_total == 0.0

    def test_zero_data_skips_the_factor(self, small_problem, monkeypatch):
        grid, tgrid, coeffs, _, _ = small_problem

        def refuse(*args):
            raise AssertionError("factor built for a solve with no iteration")

        monkeypatch.setattr(hum, "_factor_and_basis", refuse)
        res = hum_solve(StepOperators(1.0, coeffs), np.zeros(20), np.zeros(20))
        assert res.cg_iterations == 0 and res.cg_converged

    @pytest.mark.parametrize("role", ["gramian_apply", "ops", "reference"])
    def test_reduced_system_is_refused(self, small_problem, role, monkeypatch):
        # the reduced system has no dual march: refused before any step
        grid, tgrid, coeffs, y0, z0 = small_problem
        reduced = ShadowStepOperators(coeffs)
        steps = []
        for cls in (StepOperators, ShadowStepOperators):
            monkeypatch.setattr(cls, "solve", lambda *args: steps.append(args))
        with pytest.raises(ValueError, match="reduced system"):
            if role == "gramian_apply":
                gramian_apply(reduced, np.ones(21))
            elif role == "ops":
                hum_solve(reduced, y0, [0.1])
            else:
                hum_solve(StepOperators(1.0, coeffs), y0, z0, reference=reduced)
        assert steps == []

    def test_reported_norms_are_those_of_the_last_state(self, small_problem):
        grid, tgrid, coeffs, y0, z0 = small_problem
        res = hum_solve(StepOperators(1.0, coeffs), y0, z0, HumConfig(epsilon=1e-3))
        u_T = res.trajectory.u[-1]
        assert (res.terminal_y, res.terminal_z) == (norm_l2(grid, u_T[:20]),
                                                    norm_l2(grid, u_T[20:]))

    @pytest.mark.parametrize("eps", [1e-2, 1e-4])
    def test_terminal_identity(self, small_problem, eps):
        # controlled terminal state = eps * pT + Krylov residual
        grid, tgrid, coeffs, y0, z0 = small_problem
        cfg = HumConfig(epsilon=eps, cg_tol=1e-10)
        res = hum_solve(StepOperators(1.0, coeffs), y0, z0, cfg)
        assert res.cg_converged
        traj = solve_forward_linear(StepOperators(1.0, coeffs), res.control, y0, z0)
        # the returned trajectory is the controlled run, bit for bit
        assert np.array_equal(res.trajectory.y, traj.y)
        assert np.array_equal(res.trajectory.z, traj.z)
        uT = np.concatenate([traj.y[-1], traj.z[-1]])
        # h-weighted, the unit of free_terminal_norm
        defect = np.sqrt(grid.spacing) * np.linalg.norm(uT - eps * res.adjoint_terminal)
        assert defect <= 10.0 * cfg.cg_tol * res.free_terminal_norm

    def test_free_terminal_norm_is_in_the_terminal_unit(self, small_problem):
        # the free run's h-weighted terminal norm, so a control that does
        # nothing cannot report a smaller terminal norm than the free one
        grid, tgrid, coeffs, y0, z0 = small_problem
        ops = StepOperators(1.0, coeffs)
        res = hum_solve(ops, y0, z0)
        free = solve_forward_linear(ops, None, y0, z0)
        assert res.free_terminal_norm == float(np.hypot(*free.terminal_norms()))
        idle = solve_forward_linear(ops, ControlField(grid, tgrid, np.zeros((40, 20))),
                                    y0, z0)
        assert not float(np.hypot(*idle.terminal_norms())) < res.free_terminal_norm
        assert res.terminal_total < res.free_terminal_norm

    def test_terminal_norm_decreases_with_penalty(self, small_problem):
        grid, tgrid, coeffs, y0, z0 = small_problem
        terms = []
        for eps in (1e-2, 1e-4, 1e-6):
            res = hum_solve(StepOperators(1.0, coeffs), y0, z0,
                            HumConfig(epsilon=eps, cg_tol=1e-11))
            assert res.cg_converged
            terms.append(res.terminal_total)
        assert terms[0] > terms[1] > terms[2]

    def test_residual_history_monotone(self, small_problem):
        grid, tgrid, coeffs, y0, z0 = small_problem
        for eps in (1e-2, 1e-6):
            res = hum_solve(StepOperators(1.0, coeffs), y0, z0,
                            HumConfig(epsilon=eps, cg_tol=1e-10))
            assert res.residual_monotone
            hist = np.array(res.cg_residuals)
            assert np.all(np.diff(hist) <= 1e-12 * hist[0])

    def test_control_supported_on_window(self, small_problem):
        grid, tgrid, coeffs, y0, z0 = small_problem
        res = hum_solve(StepOperators(1.0, coeffs), y0, z0)
        outside = grid.omega_indicator == 0.0
        assert np.any(outside)
        assert np.all(res.control.values[:, outside] == 0.0)

    def test_deterministic(self, small_problem):
        grid, tgrid, coeffs, y0, z0 = small_problem
        a = hum_solve(StepOperators(1.0, coeffs), y0, z0)
        b = hum_solve(StepOperators(1.0, coeffs), y0, z0)
        assert np.array_equal(a.control.values, b.control.values)
        assert a.cg_residuals == b.cg_residuals
        assert a.terminal_total == b.terminal_total

    def test_duality_residual_recorded_and_tiny(self, small_problem):
        grid, tgrid, coeffs, y0, z0 = small_problem
        res = hum_solve(StepOperators(1.0, coeffs), y0, z0)
        assert res.duality_residual is not None
        assert res.duality_residual <= 1e-10

    def test_vanishing_penalty_still_converges(self, small_problem):
        grid, tgrid, coeffs, y0, z0 = small_problem
        res = hum_solve(StepOperators(1.0, coeffs), y0, z0,
                        HumConfig(epsilon=1e-12, cg_tol=1e-10))
        assert res.cg_converged
        assert res.residual_monotone
        data_norm = float(np.linalg.norm(np.concatenate([y0, z0])))
        assert res.terminal_total <= 1e-5 * data_norm

    def test_cost_converges_under_h_refinement(self):
        # penalty tied to the mesh, eps = h^4, and dt = 0.3 h (Boyer, ESAIM
        # Proc. 41, 2013): the cost stays bounded and converges at first
        # order in h, which dt = O(h) limits, and the terminal state over
        # sqrt(eps) does not grow
        costs, ratios = [], []
        for n in (16, 32, 64, 128):
            grid = Grid1D(n_cells=n, omega_a=0.3, omega_b=0.7)
            tgrid = TimeGrid(horizon=0.3, n_steps=n)
            coeffs = constant_coefficients(grid, tgrid, 0.5, 0.3, 0.4, -0.2)
            x = grid.cell_centers
            eps = grid.spacing**4
            res = hum_solve(StepOperators(2.0, coeffs), np.cos(np.pi * x),
                            0.5 * np.cos(2 * np.pi * x) + 0.2,
                            HumConfig(epsilon=eps))
            assert res.cg_converged
            costs.append(res.control_cost)
            ratios.append(res.terminal_total / np.sqrt(eps))
        diffs = np.abs(np.diff(costs))
        assert np.all(diffs[1:] < 0.7 * diffs[:-1])
        assert max(costs[1:]) <= 1.01 * min(costs[1:])
        assert np.all(np.diff(ratios) <= 0.0)

    @pytest.mark.parametrize("above", [False, True])
    def test_size_limit_picks_the_gramian_operator(self, above):
        # just below or just above the limit the solve must equal, bit for
        # bit, the solver the size rule names run directly: the direct solve
        # with the packed Cholesky factor of G + eps I, or conjugate residual
        # on the matrix-free Gramian
        n = hum._FACTOR_MAX_DIM // 2 + int(above)
        grid = Grid1D(n_cells=n, omega_a=0.3, omega_b=0.7)
        tgrid = TimeGrid(horizon=0.05, n_steps=6)
        coeffs = constant_coefficients(grid, tgrid, 0.0, 0.0, 1.0, 0.0)
        x = grid.cell_centers
        y0, z0 = 0.1 * np.cos(np.pi * x), np.full(n, 0.1)
        cfg = HumConfig(epsilon=1e-6)
        res = hum_solve(StepOperators(1.0, coeffs), y0, z0, cfg)
        ops = StepOperators(1.0, coeffs)
        free = solve_forward_linear(ops, None, y0, z0)
        b = np.concatenate([free.y[-1], free.z[-1]])
        if above:
            def apply_op(v):
                return gramian_apply(ops, v) + 1e-6 * v
            p_terminal, iters, *_ = _conjugate_gradient(apply_op, b, cfg.cg_tol,
                                                        cfg.cg_max_iters)
        else:
            # constant coefficients: the factor and the solve are in the
            # cosine basis Q = diag(C, C), where the right side is Q^T b
            # and one step of refinement, its residual taken through the
            # observation that G is the Gramian of
            g, basis, observation = hum._factor_and_basis(ops)
            shifted = g + cfg.epsilon * np.eye(2 * n)
            u, info = dpptrf(2 * n, shifted[np.tril_indices(2 * n)])
            assert info == 0
            b_hat = (b.reshape(2, -1) @ basis).ravel()
            p_hat, info2 = dpptrs(2 * n, u, b_hat)
            correction, info3 = dpptrs(2 * n, u, b_hat - cfg.epsilon * p_hat
                                       - hum._observed_gramian(observation, p_hat))
            assert info == info2 == info3 == 0
            p_hat += correction
            p_terminal, iters = (p_hat.reshape(2, -1) @ basis.T).ravel(), 0
        assert res.cg_converged
        assert res.cg_iterations == iters
        assert np.array_equal(res.adjoint_terminal, p_terminal)

    def test_factor_and_matrix_free_paths_agree(self, small_problem, monkeypatch):
        grid, tgrid, coeffs, y0, z0 = small_problem
        cfg = HumConfig(epsilon=1e-6, cg_tol=1e-11)
        with_factor = hum_solve(StepOperators(1.0, coeffs), y0, z0, cfg)
        monkeypatch.setattr(hum, "_FACTOR_MAX_DIM", 2 * grid.n_cells - 1)
        matrix_free = hum_solve(StepOperators(1.0, coeffs), y0, z0, cfg)
        assert with_factor.cg_converged and matrix_free.cg_converged
        assert with_factor.control_cost == pytest.approx(matrix_free.control_cost,
                                                         rel=1e-8)
        assert np.allclose(with_factor.adjoint_terminal, matrix_free.adjoint_terminal,
                           rtol=0.0, atol=1e-7 * np.abs(matrix_free.adjoint_terminal).max())


def _default_problem(sigma):
    """The package defaults (n = 100, M = 200) with a constant field."""
    grid = Grid1D(n_cells=100, omega_a=0.3, omega_b=0.7)
    tgrid = TimeGrid(horizon=0.5, n_steps=200)
    x = grid.cell_centers
    ops = StepOperators(sigma, constant_coefficients(grid, tgrid, 0.0, 0.0, 1.0, 0.0))
    return ops, 0.1 * np.cos(np.pi * x), np.full(100, 0.1)


class TestDirectSolve:
    @pytest.mark.parametrize("sigma", [1.0, 1000.0])
    @pytest.mark.parametrize("eps", [1e-6, 1e-8, 1e-10, 1e-12])
    def test_normal_equations_hold_to_round_off(self, sigma, eps):
        # the Cholesky factor solves (G + eps I) p = b to round-off at every
        # penalty, where conjugate residual needs 90 to 1300 iterations
        ops, y0, z0 = _default_problem(sigma)
        res = hum_solve(ops, y0, z0, HumConfig(epsilon=eps, cg_tol=1e-12))
        assert res.cg_iterations == 0 and res.cg_converged and res.residual_monotone
        norm_b, residual = res.cg_residuals
        assert residual <= 1e-13 * norm_b
        # the reported residual is that of the solve in the cosine basis
        g, factor, basis, observation = hum._penalized_factor(ops, eps)
        b_hat = (solve_forward_linear(ops, None, y0, z0).u[-1].reshape(2, -1)
                 @ basis).ravel()
        p_hat = hum._penalized_solve(factor, b_hat)
        p_hat += hum._penalized_solve(
            factor, b_hat - eps * p_hat - hum._observed_gramian(observation, p_hat))
        assert np.array_equal((p_hat.reshape(2, -1) @ basis.T).ravel(),
                              res.adjoint_terminal)

        def apply_op(v):
            return g @ v + eps * v

        assert np.linalg.norm(b_hat) == norm_b
        assert np.linalg.norm(apply_op(p_hat) - b_hat) == residual
        p_cr, iters, _, converged, _ = _conjugate_gradient(apply_op, b_hat, 1e-12, 5000)
        assert converged and iters > 50
        # both solutions within their residuals of one another, which in p
        # itself measured 1e-10 to 1e-7 relative
        assert np.linalg.norm(apply_op(p_cr - p_hat)) <= 2e-12 * norm_b
        assert np.linalg.norm(p_cr - p_hat) <= 1e-6 * np.linalg.norm(p_hat)

    def test_penalty_fold_is_a_cholesky_factor(self, small_problem):
        grid, tgrid, coeffs, _, _ = small_problem
        ops = StepOperators(1.0, coeffs)
        g, packed, _, _ = hum._penalized_factor(ops, 1e-4)
        # the upper triangle packed by columns
        u = np.zeros((40, 40))
        u.T[np.tril_indices(40)] = packed
        gram = g + 1e-4 * np.eye(40)
        assert np.linalg.norm(u.T @ u - gram) <= 1e-14 * np.linalg.norm(gram)
        # one Gramian per ops, one factor per penalty, each built once
        assert hum._penalized_factor(ops, 1e-4)[1] is packed
        assert hum._penalized_factor(ops, 1e-6)[0] is g

    def test_observation_applies_the_gramian(self, small_problem):
        # the refinement's residual goes through the observation (E, W)
        # that G is the Gramian of
        grid, tgrid, coeffs, _, _ = small_problem
        g, _, observation = hum._factor_and_basis(StepOperators(1.0, coeffs))
        for v in np.random.default_rng(6).standard_normal((5, 40)):
            ref = g @ v
            got = hum._observed_gramian(observation, v)
            assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref)

    # ||p - p_ld|| / ||p_ld|| that the deleted square-root route (dtpqrt
    # doubling, sqrt(eps) I folded in, two dtrtrs solves) measured on these
    # cases, and Cholesky of G + eps I without the refinement step; the
    # refined solve measured within 3% of the first row's numbers
    #   (n, sigma)     eps: 1e-6     1e-8     1e-10    1e-12
    #   (8, 1)   square root 4.5e-15  2.3e-14  6.0e-13  1.1e-11
    #            Cholesky    3.0e-14  1.9e-12  1.1e-11  1.4e-11
    #   (20, 100)            3.2e-14  3.6e-13  4.2e-12  4.0e-10
    #                        3.1e-14  1.8e-12  4.3e-11  4.3e-09
    #   (12, 1000)           5.9e-14  3.8e-13  7.1e-12  2.9e-10
    #                        7.8e-14  1.5e-12  1.7e-10  2.1e-09
    #   (24, 1)              3.5e-14  3.1e-13  2.9e-12  5.1e-11
    #                        6.6e-14  9.2e-13  1.2e-11  7.5e-10
    # The bound is 10x the square-root route's; the middle two cases have
    # a12 * a21 < 0.
    @pytest.mark.parametrize("case, bounds", [
        ((8, 8, 1.0, (0.0, 0.0, 1.0, 0.0)), (4.5e-14, 2.3e-13, 6.0e-12, 1.1e-10)),
        ((20, 16, 100.0, (0.5, -1.9, 1.9, 0.5)), (3.2e-13, 3.6e-12, 4.2e-11, 4.0e-9)),
        ((12, 16, 1000.0, (1.0, 2.0, -2.0, 0.5)), (5.9e-13, 3.8e-12, 7.1e-11, 2.9e-9)),
        ((24, 24, 1.0, (0.0, 0.0, 1.0, 0.0)), (3.5e-13, 3.1e-12, 2.9e-11, 5.1e-10)),
    ], ids=["n8-sigma1", "n20-sigma100", "n12-sigma1000", "n24-sigma1"])
    def test_matches_a_longdouble_solve(self, case, bounds):
        n, n_steps, sigma, a = case
        grid = Grid1D(n_cells=n, omega_a=0.25, omega_b=0.6)
        tgrid = TimeGrid(horizon=0.2, n_steps=n_steps)
        ops = StepOperators(sigma, constant_coefficients(grid, tgrid, *a))
        gram = _longdouble_gramian(ops)
        x = grid.cell_centers
        y0, z0 = np.cos(np.pi * x), 0.5 * np.cos(2 * np.pi * x) + 0.2
        b = solve_forward_linear(ops, None, y0, z0).u[-1].astype(np.longdouble)
        for eps, bound in zip((1e-6, 1e-8, 1e-10, 1e-12), bounds):
            p = hum_solve(ops, y0, z0, HumConfig(epsilon=eps)).adjoint_terminal
            p_ld = _longdouble_solve(gram + np.longdouble(eps) * np.eye(2 * n), b)
            err = np.linalg.norm(p.astype(np.longdouble) - p_ld) / np.linalg.norm(p_ld)
            assert err <= bound, (eps, float(err))

    def test_penalty_below_the_round_off_floor_is_refused(self):
        # 2 steps x 8 window cells: G has rank 16 of 40, so G + eps I is
        # indefinite in floating point once eps is below about u max|G|;
        # the square-root route returned an unconverged solve there
        grid = Grid1D(n_cells=20, omega_a=0.3, omega_b=0.7)
        tgrid = TimeGrid(horizon=0.05, n_steps=2)
        ops = StepOperators(1.0, constant_coefficients(grid, tgrid, 0.0, 0.0, 1.0, 0.0))
        x = grid.cell_centers
        with pytest.raises(ValueError, match=r"epsilon = 1e-300 is below the "
                                             r"round-off floor of the Gramian, about"):
            hum_solve(ops, np.cos(np.pi * x), np.full(20, 0.1), HumConfig(epsilon=1e-300))


def _varying_problem():
    """A semilinear pass's field: the sigmoid/arctan pair linearized along a
    decaying reference of amplitude 2, time-varying; its origin field is
    the constant reference of the fixed point."""
    grid = Grid1D(n_cells=24, omega_a=0.3, omega_b=0.7)
    tgrid = TimeGrid(horizon=0.4, n_steps=40)
    pair = make_pair(sigmoid_family(2.0), arctan_family(1.0))
    x, decay = grid.cell_centers, 1.0 - tgrid.nodes[:, None] / 0.4
    ybar = 2.0 * decay * np.cos(np.pi * x)
    zbar = 2.0 * decay * np.ones_like(x)
    coeffs = linearized_coefficients(grid, tgrid, pair, ybar, zbar)
    assert not coeffs.time_invariant
    origin = StepOperators(10.0, origin_coefficients(grid, tgrid, pair))
    return (StepOperators(10.0, coeffs), origin,
            0.1 * np.cos(np.pi * x), np.full(24, 0.1))


class TestPreconditionedSolve:
    def test_matches_a_dense_solve_in_few_iterations(self):
        ops, origin, y0, z0 = _varying_problem()
        cfg = HumConfig(epsilon=1e-8)
        gram = np.column_stack([gramian_apply(ops, e) for e in np.eye(48)])
        shifted = gram + cfg.epsilon * np.eye(48)
        b = solve_forward_linear(ops, None, y0, z0).u[-1]
        p_dense = np.linalg.solve(shifted, b)
        assert np.linalg.norm(shifted @ p_dense - b) <= 1e-3 * cfg.cg_tol * np.linalg.norm(b)
        iterations = {}
        for name, reference in (("origin", origin), ("mean", None)):
            res = hum_solve(ops, y0, z0, cfg, reference=reference)
            assert res.cg_converged
            assert (np.linalg.norm(shifted @ res.adjoint_terminal - b)
                    <= cfg.cg_tol * np.linalg.norm(b))
            iterations[name] = res.cg_iterations
        _, unpreconditioned, *_ = _conjugate_gradient(
            lambda v: shifted @ v, b, cfg.cg_tol, cfg.cg_max_iters)
        # measured 6, 10 and 59
        assert iterations["origin"] <= 10
        assert iterations["origin"] < iterations["mean"] < unpreconditioned

    def test_preconditioned_norm_is_monotone(self):
        # the residual 2-norm rises on the first step, the minimized
        # sqrt(r . M^-1 r) never does
        ops, origin, y0, z0 = _varying_problem()
        res = hum_solve(ops, y0, z0, HumConfig(epsilon=1e-8), reference=origin)
        assert max(res.cg_residuals) > res.cg_residuals[0]
        assert res.residual_monotone

    def test_builds_only_the_reference_factor(self, monkeypatch):
        ops, origin, y0, z0 = _varying_problem()
        built = []
        factor = hum._factor_and_basis

        def counting(step_ops):
            built.append(step_ops)
            return factor(step_ops)

        monkeypatch.setattr(hum, "_factor_and_basis", counting)
        for eps in (1e-6, 1e-8):
            hum_solve(ops, y0, z0, HumConfig(epsilon=eps), reference=origin)
            hum_solve(origin, y0, z0, HumConfig(epsilon=eps))
        assert built == [origin]

    @pytest.mark.parametrize("bad", ["varying", "grid"])
    def test_rejects_a_bad_reference(self, bad):
        ops, origin, y0, z0 = _varying_problem()
        if bad == "varying":
            reference = ops
        else:
            other = Grid1D(n_cells=24, omega_a=0.2, omega_b=0.7)
            reference = StepOperators(10.0, constant_coefficients(
                other, ops.tgrid, 0.0, 0.0, 1.0, 0.0))
        with pytest.raises(ValueError, match="constant" if bad == "varying" else "grid"):
            hum_solve(ops, y0, z0, reference=reference)

    @pytest.mark.parametrize("path", ["constant", "zero-data"])
    def test_reference_grid_is_checked_on_every_path(self, path):
        # neither the direct solve of a constant field nor zero data reach
        # the preconditioner
        ops, origin, y0, z0 = _varying_problem()
        if path == "constant":
            ops = origin
        else:
            y0, z0 = np.zeros(24), np.zeros(24)
        other = Grid1D(n_cells=24, omega_a=0.2, omega_b=0.7)
        reference = StepOperators(10.0, constant_coefficients(
            other, ops.tgrid, 0.0, 0.0, 1.0, 0.0))
        with pytest.raises(ValueError, match="grid"):
            hum_solve(ops, y0, z0, reference=reference)

    def test_varying_field_above_the_limit_is_unpreconditioned(self, monkeypatch):
        ops, _, y0, z0 = _varying_problem()
        cfg = HumConfig(epsilon=1e-8)

        def refuse(*args):
            raise AssertionError("a Gramian factor built above the size limit")

        monkeypatch.setattr(hum, "_FACTOR_MAX_DIM", ops.size - 1)
        monkeypatch.setattr(hum, "_factor_and_basis", refuse)
        res = hum_solve(ops, y0, z0, cfg)
        assert res.cg_converged and res.cg_iterations > 0
        gram = np.column_stack([gramian_apply(ops, e) for e in np.eye(48)])
        shifted = gram + cfg.epsilon * np.eye(48)
        b = solve_forward_linear(ops, None, y0, z0).u[-1]
        assert (np.linalg.norm(shifted @ res.adjoint_terminal - b)
                <= cfg.cg_tol * np.linalg.norm(b))
        p, iters, residuals, converged, monotone = _conjugate_gradient(
            lambda v: gramian_apply(ops, v) + cfg.epsilon * v, b, cfg.cg_tol,
            cfg.cg_max_iters)
        assert np.array_equal(res.adjoint_terminal, p)
        assert ((res.cg_iterations, res.cg_residuals, res.cg_converged,
                 res.residual_monotone) == (iters, tuple(residuals), converged, monotone))


class TestDualityResidual:
    def test_mismatched_dual_system_is_flagged(self, small_problem):
        # dual marched with the coupling blocks swapped: the pairing identity
        # must fail by a visible margin
        grid, tgrid, _, y0, z0 = small_problem
        good = constant_coefficients(grid, tgrid, 0.2, 0.8, -0.3, 0.1)
        swapped = constant_coefficients(grid, tgrid, 0.2, -0.3, 0.8, 0.1)
        rng = np.random.default_rng(3)
        control = ControlField(grid, tgrid, rng.standard_normal((40, 20)))
        state = solve_forward_linear(StepOperators(1.0, good), control, y0, z0)
        bad_dual = solve_adjoint(StepOperators(1.0, swapped),
                                 rng.standard_normal(40))
        assert duality_residual(control, state, bad_dual) > 1e-6

    @pytest.mark.parametrize("mismatch", ["horizon", "window"])
    @pytest.mark.parametrize("odd", ["control", "state", "dual"])
    def test_operands_on_another_grid_are_rejected(self, small_problem, odd, mismatch):
        grid, tgrid, _, y0, z0 = small_problem

        def operands(grid, tgrid):
            ops = StepOperators(1.0, constant_coefficients(grid, tgrid, 0.0, 0.0, 1.0, 0.0))
            control = ControlField(grid, tgrid, np.ones((40, 20)))
            return {"control": control,
                    "state": solve_forward_linear(ops, control, y0, z0),
                    "dual": solve_adjoint(ops, np.concatenate([y0, z0]))}

        args = operands(grid, tgrid)
        if mismatch == "horizon":
            other = operands(grid, TimeGrid(horizon=1.0, n_steps=40))
        else:
            other = operands(Grid1D(n_cells=20, omega_a=0.2, omega_b=0.7), tgrid)
        args[odd] = other[odd]
        with pytest.raises(ValueError, match="different grid"):
            duality_residual(**args)


class TestEpsilonSweep:
    def test_report_structure(self, small_problem):
        grid, tgrid, coeffs, y0, z0 = small_problem
        rep = epsilon_sweep(StepOperators(1.0, coeffs), y0, z0,
                            (1e-1, 1e-2, 1e-3, 1e-4))
        assert len(rep.rows) == 4
        assert [r.epsilon for r in rep.rows] == [1e-1, 1e-2, 1e-3, 1e-4]
        for row in rep.rows:
            assert row.terminal_over_sqrt_eps == pytest.approx(
                row.terminal_total / np.sqrt(row.epsilon))
        assert rep.cost_spread_last3 >= 0.0

    def test_rows_equal_single_solves(self, small_problem):
        # each row is hum_solve at that penalty with the default settings
        grid, tgrid, coeffs, y0, z0 = small_problem
        rep = epsilon_sweep(StepOperators(1.0, coeffs), y0, z0, (1e-2, 1e-4))
        for row in rep.rows:
            res = hum_solve(StepOperators(1.0, coeffs), y0, z0,
                            HumConfig(epsilon=row.epsilon))
            assert ((row.control_cost, row.terminal_y, row.terminal_z,
                     row.terminal_total, row.cg_iterations)
                    == (res.control_cost, res.terminal_y, res.terminal_z,
                        res.terminal_total, res.cg_iterations))

    def test_penalties_share_one_step_factorization(self, small_problem, monkeypatch):
        grid, tgrid, coeffs, y0, z0 = small_problem
        calls = []
        band_lu = pde._band_lu

        def counted(*args):
            calls.append(args)
            return band_lu(*args)

        monkeypatch.setattr(pde, "_band_lu", counted)
        epsilon_sweep(StepOperators(1.0, coeffs), y0, z0, (1e-2, 1e-3, 1e-4))
        assert len(calls) == 1

    def test_penalties_share_one_gramian_factor(self, small_problem, monkeypatch):
        grid, tgrid, coeffs, y0, z0 = small_problem
        calls = []
        factor = hum._factor_and_basis

        def counted(*args):
            calls.append(args)
            return factor(*args)

        monkeypatch.setattr(hum, "_factor_and_basis", counted)
        rep = epsilon_sweep(StepOperators(1.0, coeffs), y0, z0,
                            (1e-2, 1e-4, 1e-6, 1e-8))
        assert len(calls) == 1
        assert all(row.cg_iterations == 0 for row in rep.rows)

    def test_rejects_non_decreasing_schedule(self, small_problem):
        grid, tgrid, coeffs, y0, z0 = small_problem
        with pytest.raises(ValueError, match="decreasing"):
            epsilon_sweep(StepOperators(1.0, coeffs), y0, z0, (1e-3, 1e-2))
        with pytest.raises(ValueError, match="decreasing"):
            epsilon_sweep(StepOperators(1.0, coeffs), y0, z0, (1e-3,))


class TestHumConfig:
    @pytest.mark.parametrize("kwargs", [
        {"epsilon": 0.0},
        {"epsilon": -1e-6},
        {"cg_tol": 0.0},
        {"cg_tol": 0.5},
        {"cg_max_iters": 0},
        {"epsilon": np.inf},
        {"epsilon": np.nan},
        {"cg_tol": np.nan},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            HumConfig(**kwargs)
