"""Penalized-control solver tests.

Structural identities (Gramian symmetry, the cost identity, the terminal
relation u(T) = eps * pT + r) hold to round-off / solver tolerance by
construction, so they are asserted at tight thresholds on random data.
"""

import numpy as np
import pytest

from shadowctl.hum import (HumConfig, duality_residual, epsilon_sweep,
                           gramian_apply, hum_solve)
from shadowctl.mesh import Grid1D, TimeGrid
from shadowctl.pde import (ControlField, constant_coefficients, control_cost,
                           solve_adjoint, solve_forward_linear)


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
            la = gramian_apply(grid, tgrid, 1.0, coeffs, a)
            lb = gramian_apply(grid, tgrid, 1.0, coeffs, b)
            lhs, rhs = np.dot(la, b), np.dot(a, lb)
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1.0)

    def test_positive_semidefinite(self, small_problem):
        grid, tgrid, coeffs, _, _ = small_problem
        rng = np.random.default_rng(1)
        for _ in range(10):
            a = rng.standard_normal(40)
            quad = np.dot(gramian_apply(grid, tgrid, 1.0, coeffs, a), a)
            assert quad >= -1e-12

    def test_quadratic_form_equals_observation_cost(self, small_problem):
        # h * <Lambda a, a> = ||observed dual component||^2 on the window
        grid, tgrid, coeffs, _, _ = small_problem
        rng = np.random.default_rng(2)
        a = rng.standard_normal(40)
        quad = grid.spacing * float(np.dot(gramian_apply(grid, tgrid, 1.0, coeffs, a), a))
        dual = solve_adjoint(grid, tgrid, 1.0, coeffs, a[:20], a[20:])
        observed = ControlField(grid, tgrid, dual.y[:-1])
        assert quad == pytest.approx(control_cost(grid, tgrid, observed) ** 2,
                                     rel=1e-10)

    def test_rejects_bad_shape(self, small_problem):
        grid, tgrid, coeffs, _, _ = small_problem
        with pytest.raises(ValueError, match="shape"):
            gramian_apply(grid, tgrid, 1.0, coeffs, np.zeros(41))


class TestHumSolve:
    def test_zero_data_yields_zero_control(self, small_problem):
        grid, tgrid, coeffs, _, _ = small_problem
        res = hum_solve(grid, tgrid, 1.0, coeffs, np.zeros(20), np.zeros(20))
        assert res.cg_converged
        assert np.all(res.control.values == 0.0)
        assert res.control_cost == 0.0
        assert res.terminal_total == 0.0

    @pytest.mark.parametrize("eps", [1e-2, 1e-4])
    def test_terminal_identity(self, small_problem, eps):
        # controlled terminal state = eps * pT + Krylov residual
        grid, tgrid, coeffs, y0, z0 = small_problem
        cfg = HumConfig(epsilon=eps, cg_tol=1e-10)
        res = hum_solve(grid, tgrid, 1.0, coeffs, y0, z0, cfg)
        assert res.cg_converged
        traj = solve_forward_linear(grid, tgrid, 1.0, coeffs, res.control, y0, z0)
        # the returned trajectory is the controlled run, bit for bit
        assert np.array_equal(res.trajectory.y, traj.y)
        assert np.array_equal(res.trajectory.z, traj.z)
        uT = np.concatenate([traj.y[-1], traj.z[-1]])
        defect = np.linalg.norm(uT - eps * res.adjoint_terminal)
        assert defect <= 10.0 * cfg.cg_tol * res.free_terminal_norm

    def test_terminal_norm_decreases_with_penalty(self, small_problem):
        grid, tgrid, coeffs, y0, z0 = small_problem
        terms = []
        for eps in (1e-2, 1e-4, 1e-6):
            res = hum_solve(grid, tgrid, 1.0, coeffs, y0, z0,
                            HumConfig(epsilon=eps, cg_tol=1e-11))
            assert res.cg_converged
            terms.append(res.terminal_total)
        assert terms[0] > terms[1] > terms[2]

    def test_residual_history_monotone(self, small_problem):
        grid, tgrid, coeffs, y0, z0 = small_problem
        for eps in (1e-2, 1e-6):
            res = hum_solve(grid, tgrid, 1.0, coeffs, y0, z0,
                            HumConfig(epsilon=eps, cg_tol=1e-10))
            assert res.residual_monotone
            hist = np.array(res.cg_residuals)
            assert np.all(np.diff(hist) <= 1e-12 * hist[0])

    def test_control_supported_on_window(self, small_problem):
        grid, tgrid, coeffs, y0, z0 = small_problem
        res = hum_solve(grid, tgrid, 1.0, coeffs, y0, z0)
        outside = grid.omega_indicator == 0.0
        assert np.any(outside)
        assert np.all(res.control.values[:, outside] == 0.0)

    def test_deterministic(self, small_problem):
        grid, tgrid, coeffs, y0, z0 = small_problem
        a = hum_solve(grid, tgrid, 1.0, coeffs, y0, z0)
        b = hum_solve(grid, tgrid, 1.0, coeffs, y0, z0)
        assert np.array_equal(a.control.values, b.control.values)
        assert a.cg_residuals == b.cg_residuals
        assert a.terminal_total == b.terminal_total

    def test_duality_residual_recorded_and_tiny(self, small_problem):
        grid, tgrid, coeffs, y0, z0 = small_problem
        res = hum_solve(grid, tgrid, 1.0, coeffs, y0, z0)
        assert res.duality_residual is not None
        assert res.duality_residual <= 1e-10

    def test_vanishing_penalty_still_converges(self, small_problem):
        grid, tgrid, coeffs, y0, z0 = small_problem
        res = hum_solve(grid, tgrid, 1.0, coeffs, y0, z0,
                        HumConfig(epsilon=1e-12, cg_tol=1e-10))
        assert res.cg_converged
        assert res.residual_monotone
        data_norm = float(np.linalg.norm(np.concatenate([y0, z0])))
        assert res.terminal_total <= 1e-5 * data_norm


class TestDualityResidual:
    def test_mismatched_dual_system_is_flagged(self, small_problem):
        # dual marched with the coupling blocks swapped: the pairing identity
        # must fail by a visible margin
        grid, tgrid, _, y0, z0 = small_problem
        good = constant_coefficients(grid, tgrid, 0.2, 0.8, -0.3, 0.1)
        swapped = constant_coefficients(grid, tgrid, 0.2, -0.3, 0.8, 0.1)
        rng = np.random.default_rng(3)
        control = ControlField(grid, tgrid, rng.standard_normal((40, 20)))
        state = solve_forward_linear(grid, tgrid, 1.0, good, control, y0, z0)
        bad_dual = solve_adjoint(grid, tgrid, 1.0, swapped,
                                 *rng.standard_normal((2, 20)))
        assert duality_residual(grid, tgrid, control, state, bad_dual) > 1e-6


class TestEpsilonSweep:
    def test_report_structure(self, small_problem):
        grid, tgrid, coeffs, y0, z0 = small_problem
        rep = epsilon_sweep(grid, tgrid, 1.0, coeffs, y0, z0,
                            (1e-1, 1e-2, 1e-3, 1e-4))
        assert len(rep.rows) == 4
        assert [r.epsilon for r in rep.rows] == [1e-1, 1e-2, 1e-3, 1e-4]
        for row in rep.rows:
            assert row.terminal_over_sqrt_eps == pytest.approx(
                row.terminal_total / np.sqrt(row.epsilon))
        assert rep.cost_spread_last3 >= 0.0

    def test_rejects_non_decreasing_schedule(self, small_problem):
        grid, tgrid, coeffs, y0, z0 = small_problem
        with pytest.raises(ValueError, match="decreasing"):
            epsilon_sweep(grid, tgrid, 1.0, coeffs, y0, z0, (1e-3, 1e-2))
        with pytest.raises(ValueError, match="decreasing"):
            epsilon_sweep(grid, tgrid, 1.0, coeffs, y0, z0, (1e-3,))


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
