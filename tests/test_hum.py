"""Penalized-control solver tests.

Structural identities (Gramian symmetry, the cost identity, the terminal
relation u(T) = eps * pT + r) hold to round-off / solver tolerance by
construction, so they are asserted at tight thresholds on random data.
"""

import numpy as np
import pytest

from shadowctl import hum, pde
from shadowctl.hum import (HumConfig, _conjugate_gradient, duality_residual,
                           epsilon_sweep, gramian_apply, gramian_factor,
                           hum_solve)
from shadowctl.mesh import Grid1D, TimeGrid, norm_l2
from shadowctl.nonlinear import arctan_family, make_pair, sigmoid_family
from shadowctl.pde import (ControlField, StepOperators, constant_coefficients,
                           control_cost, solve_adjoint, solve_forward_linear)
from shadowctl.semilinear import linearized_coefficients


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


class TestGramianFactor:
    @staticmethod
    def _check_square_root(grid, tgrid, coeffs, sigma):
        ops = StepOperators(sigma, coeffs)
        r = gramian_factor(ops)
        assert r.shape == (2 * grid.n_cells,) * 2
        assert np.array_equal(r, np.triu(r))
        rng = np.random.default_rng(4)
        for v in rng.standard_normal((5, 2 * grid.n_cells)):
            ref = gramian_apply(ops, v)
            err = np.linalg.norm(r.T @ (r @ v) - ref)
            assert err <= 1e-13 * np.linalg.norm(ref)
        return r

    def test_constant_coefficients(self, small_problem):
        grid, tgrid, coeffs, _, _ = small_problem
        self._check_square_root(grid, tgrid, coeffs, 1.0)

    def test_time_varying_coefficients(self):
        grid = Grid1D(n_cells=16, omega_a=0.2, omega_b=0.55)
        tgrid = TimeGrid(horizon=0.3, n_steps=30)
        rng = np.random.default_rng(5)
        pair = make_pair(sigmoid_family(2.0), arctan_family(1.0))
        ybar, zbar = 2.0 * rng.standard_normal((2, 31, 16))
        coeffs = linearized_coefficients(grid, tgrid, pair, ybar, zbar)
        assert not coeffs.time_invariant
        self._check_square_root(grid, tgrid, coeffs, 3.0)

    def test_short_wide_stack(self):
        # 2 steps x 8 window cells = 16 rows for a 40 x 40 factor
        grid = Grid1D(n_cells=20, omega_a=0.3, omega_b=0.7)
        tgrid = TimeGrid(horizon=0.05, n_steps=2)
        coeffs = constant_coefficients(grid, tgrid, 0.0, 0.0, 1.0, 0.0)
        assert np.count_nonzero(grid.omega_indicator) == 8
        r = self._check_square_root(grid, tgrid, coeffs, 1.0)
        assert np.linalg.matrix_rank(r) == 16


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

        monkeypatch.setattr(hum, "gramian_factor", refuse)
        res = hum_solve(StepOperators(1.0, coeffs), np.zeros(20), np.zeros(20))
        assert res.cg_iterations == 0 and res.cg_converged

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
        # bit, conjugate residual run directly on the operator the size rule
        # names: the square-root factor, or the matrix-free Gramian
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
        else:
            r = gramian_factor(ops)

            def apply_op(v):
                return r.T @ (r @ v) + 1e-6 * v
        p_terminal, iters, *_ = _conjugate_gradient(apply_op, b, cfg.cg_tol,
                                                    cfg.cg_max_iters)
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
        # each row is hum_solve at that penalty with the base settings kept;
        # the iteration cap binds at the smaller penalty
        grid, tgrid, coeffs, y0, z0 = small_problem
        base = HumConfig(cg_tol=1e-6, cg_max_iters=5)
        rep = epsilon_sweep(StepOperators(1.0, coeffs), y0, z0, (1e-2, 1e-4),
                            base)
        for row in rep.rows:
            res = hum_solve(StepOperators(1.0, coeffs), y0, z0,
                            HumConfig(epsilon=row.epsilon, cg_tol=1e-6,
                                      cg_max_iters=5))
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
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            HumConfig(**kwargs)
