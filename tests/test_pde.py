"""Solver tests against closed-form and dense-algebra oracles.

The single-step tests rebuild the implicit step matrix densely and compare;
the marching tests use separable heat-flow solutions, discrete duality
identities (exact to round-off), and dt-refinement slopes.
"""

import dataclasses
import warnings

import numpy as np
import pytest

from shadowctl.mesh import Grid1D, TimeGrid, _laplacian_stencil, mean_value, norm_l2
from shadowctl.nonlinear import (arctan_family, linear_form, linear_pair,
                                 make_pair, sigmoid_family)
from shadowctl.pde import (CoefficientField, ControlField, ShadowStepOperators,
                           StepOperators, Trajectory, constant_coefficients,
                           control_cost, energy_functional, semigroup_checks,
                           solve_adjoint, solve_forward_linear,
                           solve_forward_semilinear, zero_coefficients)


def _dense_laplacian(grid):
    # the stencil the solvers write into band storage, as a dense matrix
    main, off = _laplacian_stencil(grid)
    return np.diag(main) + np.diag(off, 1) + np.diag(off, -1)


def _reduced_march(grid, tgrid, pair, control, y0, xi0, **kwargs):
    # the semilinear march of the shadow limit: its reaction-free step is the
    # heat solve of y and the identity for xi
    ops = ShadowStepOperators(zero_coefficients(grid, tgrid))
    return solve_forward_semilinear(ops, pair, control, y0, xi0, **kwargs)


def _gauss_seidel_shadow(grid, tgrid, pair, control, y0, xi0, inner_tol):
    # reference reduced march: each implicit step iterates Gauss-Seidel
    # fashion, the new y from the heat solve, then xi from the mean of g at
    # that y, until the sup-norm update is within inner_tol * max(1, sup|v|)
    n, dt = grid.n_cells, tgrid.dt
    heat = np.eye(n) - dt * _dense_laplacian(grid)
    chi = grid.omega_indicator
    u = np.empty((tgrid.n_steps + 1, n + 1))
    u[0] = np.append(y0, xi0)
    for m in range(tgrid.n_steps):
        src = chi * control.values[m]
        v = u[m]
        for _ in range(50):
            vy = np.linalg.solve(heat, u[m, :n] + dt * (pair.f.value(v[:n], v[n]) + src))
            g_mean = mean_value(grid, pair.g.value(vy, np.full(n, v[n])))
            v_new = np.append(vy, u[m, n] + dt * g_mean)
            delta = np.max(np.abs(v_new - v))
            v = v_new
            if delta <= inner_tol * max(1.0, np.max(np.abs(v))):
                break
        else:
            raise AssertionError(f"reference step {m} did not converge")
        u[m + 1] = v
    return u[:, :n], u[:, n]


def _dense_step_matrix(grid, tgrid, sigma, coeffs, m):
    n = grid.n_cells
    dt = tgrid.dt
    lap = _dense_laplacian(grid)
    big = np.zeros((2 * n, 2 * n))
    big[:n, :n] = np.eye(n) - dt * lap - dt * np.diag(coeffs.a11[m])
    big[:n, n:] = -dt * np.diag(coeffs.a12[m])
    big[n:, :n] = -dt * np.diag(coeffs.a21[m])
    big[n:, n:] = np.eye(n) - dt * sigma * lap - dt * np.diag(coeffs.a22[m])
    return big


def _dense_shadow_matrix(grid, tgrid, coeffs, m):
    # the heat block of y bordered by the a12 column and the mean row of g
    n = grid.n_cells
    dt, h = tgrid.dt, grid.spacing
    lap = _dense_laplacian(grid)
    big = np.zeros((n + 1, n + 1))
    big[:n, :n] = np.eye(n) - dt * lap - dt * np.diag(coeffs.a11[m])
    big[:n, n] = -dt * coeffs.a12[m]
    big[n, :n] = -dt * h * coeffs.a21[m]
    big[n, n] = 1.0 - dt * h * np.sum(coeffs.a22[m])
    return big


def _random_coefficients(grid, tgrid, rng, scale=0.5):
    shape = (tgrid.n_steps + 1, grid.n_cells)
    return CoefficientField(grid, tgrid,
                            *(rng.uniform(-scale, scale, shape) for _ in range(4)))


# (n_cells, sigma, coefficients, step)
STEP_CASES = [
    pytest.param(8, 2.0, "constant", 0, id="small"),
    pytest.param(64, 3.0, "varying", 17, id="varying-n64"),
    pytest.param(40, 1e3, "varying", 3, id="stiff-sigma"),
]


def _step_case(n, coefficients, seed):
    grid = Grid1D(n_cells=n, omega_a=0.25, omega_b=0.75)
    tgrid = TimeGrid(horizon=0.1, n_steps=20)
    rng = np.random.default_rng(seed)
    if coefficients == "constant":
        coeffs = constant_coefficients(grid, tgrid, 0.3, -0.2, 0.5, 0.1)
    else:
        coeffs = _random_coefficients(grid, tgrid, rng)
    return grid, tgrid, coeffs, rng


def _step(ops, state, m, trans=0):
    # one step of ops on a stacked state, from node m to node m + 1 or with
    # trans=1 the dual step back: permuted into the solve order, solved in
    # place there, and permuted back
    rows = np.array(state, dtype=float)[None, ops.order]
    ops.solve(rows[0], m, trans)
    ops.restack(rows)
    return rows[0]


class TestSingleStep:
    @pytest.mark.parametrize("n, sigma, coefficients, m", STEP_CASES)
    def test_forward_matches_dense_solve(self, n, sigma, coefficients, m):
        grid, tgrid, coeffs, rng = _step_case(n, coefficients, 3)
        ops = StepOperators(sigma, coeffs)
        big = _dense_step_matrix(grid, tgrid, sigma, coeffs, m)
        u = rng.standard_normal(2 * n)
        got = _step(ops, u, m)
        want = np.linalg.solve(big, u)
        assert got.shape == u.shape
        assert np.max(np.abs(got - want)) < 1e-12 * max(1.0, np.max(np.abs(want)))

    @pytest.mark.parametrize("n, sigma, coefficients, m", STEP_CASES)
    def test_adjoint_is_exact_transpose(self, n, sigma, coefficients, m):
        # step m of solve_adjoint, from node m + 1 as marched, against the
        # dense transposed solve
        grid, tgrid, coeffs, rng = _step_case(n, coefficients, 4)
        ops = StepOperators(sigma, coeffs)
        big = _dense_step_matrix(grid, tgrid, sigma, coeffs, m)
        dual = solve_adjoint(ops, rng.standard_normal(2 * n))
        got = dual.u[m]
        want = np.linalg.solve(big.T, dual.u[m + 1])
        assert np.max(np.abs(got - want)) < 1e-12 * max(1.0, np.max(np.abs(want)))

    @pytest.mark.parametrize("coefficients", ["constant", "varying"],
                             ids=["constant-free", "varying-free"])
    def test_adjoint_march_is_the_step_loop(self, coefficients):
        # solve_adjoint's whole-march kernel gives the loop of single dual
        # steps bit for bit; 71 rows, so the march array is permuted back in
        # more than one block
        grid = Grid1D(n_cells=16, omega_a=0.25, omega_b=0.75)
        tgrid = TimeGrid(horizon=0.3, n_steps=70)
        rng = np.random.default_rng(9)
        coeffs = (constant_coefficients(grid, tgrid, 0.3, -0.2, 0.5, 0.1)
                  if coefficients == "constant" else _random_coefficients(grid, tgrid, rng))
        ops = StepOperators(3.0, coeffs)
        p_T = rng.standard_normal(32)
        dual = solve_adjoint(ops, p_T)
        want = np.empty((71, 32))
        want[70] = p_T
        for m in range(69, -1, -1):
            want[m] = _step(ops, want[m + 1], m, trans=1)
        assert dual.u.flags.c_contiguous
        assert np.array_equal(dual.u, want)
        assert not np.array_equal(dual.u[0], dual.u[-1])

    def test_single_step_duality(self):
        # <A^-1 u, p5> = <u, A^-T p5> for step 4 of solve_adjoint, p5 -> p4
        grid = Grid1D(n_cells=12, omega_a=0.3, omega_b=0.7)
        tgrid = TimeGrid(horizon=0.2, n_steps=10)
        rng = np.random.default_rng(5)
        coeffs = _random_coefficients(grid, tgrid, rng)
        ops = StepOperators(7.0, coeffs)
        u = rng.standard_normal(24)
        dual = solve_adjoint(ops, rng.standard_normal(24))
        lhs = np.dot(_step(ops, u, 4), dual.u[5])
        rhs = np.dot(u, dual.u[4])
        assert abs(lhs - rhs) < 1e-12 * max(abs(lhs), 1.0)

    @pytest.mark.parametrize("controlled", [False, True], ids=["free", "controlled"])
    @pytest.mark.parametrize("coefficients", ["constant", "varying"])
    @pytest.mark.parametrize("reduced", [False, True], ids=["full", "shadow"])
    def test_march_is_the_step_loop(self, reduced, coefficients, controlled):
        # the march gives the loop of single stacked-order steps bit for bit;
        # 71 rows, so the march array is permuted back in more than one block
        grid = Grid1D(n_cells=16, omega_a=0.25, omega_b=0.75)
        tgrid = TimeGrid(horizon=0.3, n_steps=70)
        rng = np.random.default_rng(8)
        coeffs = (constant_coefficients(grid, tgrid, 0.3, -0.2, 0.5, 0.1)
                  if coefficients == "constant" else _random_coefficients(grid, tgrid, rng))
        ops = ShadowStepOperators(coeffs) if reduced else StepOperators(3.0, coeffs)
        y0 = rng.standard_normal(16)
        z0 = rng.standard_normal(ops.size - 16)
        control = (ControlField(grid, tgrid, rng.standard_normal((70, 16)))
                   if controlled else None)
        traj = solve_forward_linear(ops, control, y0, z0)
        want = np.empty((71, ops.size))
        want[0] = np.concatenate([y0, z0])
        for m in range(70):
            rhs = want[m].copy()
            if control is not None:
                rhs[:16] += tgrid.dt * (grid.omega_indicator * control.values[m])
            want[m + 1] = _step(ops, rhs, m)
        assert traj.u.flags.c_contiguous
        assert np.array_equal(traj.u, want)
        assert not np.array_equal(traj.u[-1], traj.u[0])

    def test_trajectories_carry_the_system_of_ops(self):
        # sigma_grad_z reads the trajectory's sigma, so it must be the stepped one
        grid = Grid1D(n_cells=12)
        tgrid = TimeGrid(horizon=0.2, n_steps=10)
        ops = StepOperators(10.0, zero_coefficients(grid, tgrid))
        u = np.cos(np.pi * grid.cell_centers)
        for traj in (solve_forward_linear(ops, None, u, u),
                     solve_adjoint(ops, np.concatenate([u, u]))):
            assert (traj.grid, traj.tgrid, traj.sigma) == (grid, tgrid, 10.0)

    def test_components_are_views_of_the_stacked_states(self):
        grid = Grid1D(n_cells=12)
        tgrid = TimeGrid(horizon=0.2, n_steps=10)
        ops = StepOperators(10.0, zero_coefficients(grid, tgrid))
        u = np.cos(np.pi * grid.cell_centers)
        traj = solve_forward_linear(ops, None, u, 2.0 * u)
        assert traj.u.shape == (11, 24)
        assert np.shares_memory(traj.y, traj.u) and np.shares_memory(traj.z, traj.u)
        assert np.array_equal(traj.u[0], np.concatenate([u, 2.0 * u]))
        assert np.array_equal(traj.y, traj.u[:, :12])
        assert np.array_equal(traj.z, traj.u[:, 12:])

    def test_rejects_large_coefficient_times_dt(self):
        grid = Grid1D(n_cells=8)
        tgrid = TimeGrid(horizon=1.0, n_steps=2)   # dt = 0.5
        coeffs = constant_coefficients(grid, tgrid, 1.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="0.5"):
            StepOperators(1.0, coeffs)

    @pytest.mark.parametrize("sourced", [False, True], ids=["free", "sourced"])
    @pytest.mark.parametrize("n, coefficients, m", [
        pytest.param(8, "constant", 0, id="small"),
        pytest.param(64, "varying", 17, id="varying-n64"),
        pytest.param(40, "varying", 3, id="varying-n40"),
    ])
    def test_shadow_step_matches_dense_solve(self, n, coefficients, m, sourced):
        grid, tgrid, coeffs, rng = _step_case(n, coefficients, 6)
        ops = ShadowStepOperators(coeffs)
        assert (ops.grid, ops.tgrid, ops.size) == (grid, tgrid, n + 1)
        assert ops.sigma == np.inf
        rhs = rng.standard_normal(n + 1)
        if sourced:
            rhs[:n] += tgrid.dt * rng.standard_normal(n)
        got = _step(ops, rhs, m)
        want = np.linalg.solve(_dense_shadow_matrix(grid, tgrid, coeffs, m), rhs)
        assert got.shape == (n + 1,)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_shadow_step_rejects_large_coefficient_times_dt(self):
        grid = Grid1D(n_cells=8)
        tgrid = TimeGrid(horizon=1.0, n_steps=2)   # dt = 0.5
        coeffs = constant_coefficients(grid, tgrid, 0.0, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="0.5") as full:
            StepOperators(1.0, coeffs)
        with pytest.raises(ValueError, match="0.5") as reduced:
            ShadowStepOperators(coeffs)
        assert str(reduced.value) == str(full.value)

    def test_rejects_nonpositive_sigma(self):
        # sigma = inf would march NaN; its limit is the reduced system
        grid = Grid1D(n_cells=8)
        tgrid = TimeGrid(horizon=0.1, n_steps=10)
        for sigma in (0.0, np.inf):
            with pytest.raises(ValueError, match="sigma must be positive and "
                                                 "finite.*ShadowStepOperators"):
                StepOperators(sigma, zero_coefficients(grid, tgrid))


class TestHeatFlow:
    def test_cosine_decay_rate(self):
        # y_t = y_xx with y0 = cos(pi x): y(T) = exp(-pi^2 T) cos(pi x)
        grid = Grid1D(n_cells=400, omega_a=0.3, omega_b=0.7)
        tgrid = TimeGrid(horizon=0.1, n_steps=4000)
        coeffs = zero_coefficients(grid, tgrid)
        y0 = np.cos(np.pi * grid.cell_centers)
        traj = solve_forward_linear(StepOperators(1.0, coeffs), None, y0, np.zeros(400))
        want = np.exp(-np.pi**2 * 0.1)
        got = norm_l2(grid, traj.y[-1]) / norm_l2(grid, y0)
        assert got == pytest.approx(want, rel=1e-2)

    def test_constant_data_is_equilibrium(self):
        grid = Grid1D(n_cells=50)
        tgrid = TimeGrid(horizon=0.5, n_steps=100)
        coeffs = zero_coefficients(grid, tgrid)
        c = np.full(50, 0.37)
        traj = solve_forward_linear(StepOperators(10.0, coeffs), None, c, c)
        assert np.max(np.abs(traj.y - 0.37)) < 1e-12
        assert np.max(np.abs(traj.z - 0.37)) < 1e-12

    def test_zero_data_stays_zero(self):
        grid = Grid1D(n_cells=30)
        tgrid = TimeGrid(horizon=0.3, n_steps=60)
        coeffs = constant_coefficients(grid, tgrid, 0.1, 0.2, 0.3, 0.4)
        traj = solve_forward_linear(StepOperators(5.0, coeffs), None,
                                    np.zeros(30), np.zeros(30))
        assert np.all(traj.y == 0.0)
        assert np.all(traj.z == 0.0)

    def test_mean_conservation_without_reactions(self):
        grid = Grid1D(n_cells=80)
        tgrid = TimeGrid(horizon=0.5, n_steps=200)
        coeffs = zero_coefficients(grid, tgrid)
        rng = np.random.default_rng(6)
        y0 = rng.uniform(-1, 1, 80)
        z0 = rng.uniform(-1, 1, 80)
        traj = solve_forward_linear(StepOperators(50.0, coeffs), None, y0, z0)
        assert abs(mean_value(grid, traj.y[-1]) - mean_value(grid, y0)) < 1e-12
        assert abs(mean_value(grid, traj.z[-1]) - mean_value(grid, z0)) < 1e-12

    def test_symmetric_system_keeps_components_equal(self):
        # identical equations + identical data => y(t) = z(t) for all t
        grid = Grid1D(n_cells=60)
        tgrid = TimeGrid(horizon=0.4, n_steps=80)
        coeffs = constant_coefficients(grid, tgrid, 0.4, 0.2, 0.2, 0.4)
        u0 = np.cos(2 * np.pi * grid.cell_centers) + 0.3
        traj = solve_forward_linear(StepOperators(1.0, coeffs), None, u0, u0)
        assert np.max(np.abs(traj.y - traj.z)) < 1e-12

    def test_large_sigma_mixes_fast_component(self):
        grid = Grid1D(n_cells=100)
        tgrid = TimeGrid(horizon=0.5, n_steps=100)
        coeffs = constant_coefficients(grid, tgrid, 0.0, 1.0, 1.0, 0.0)
        y0 = 0.5 * np.cos(np.pi * grid.cell_centers)
        z0 = 0.5 * np.cos(np.pi * grid.cell_centers)
        traj = solve_forward_linear(StepOperators(1e4, coeffs), None, y0, z0)
        assert np.all(np.isfinite(traj.z))
        zt = traj.z[-1]
        assert np.max(np.abs(zt - mean_value(grid, zt))) < 1e-3

    def test_first_order_accuracy_in_dt(self):
        grid = Grid1D(n_cells=40)
        horizon = 0.25
        coeffs_of = {}

        def terminal(n_steps):
            tgrid = TimeGrid(horizon=horizon, n_steps=n_steps)
            coeffs = constant_coefficients(grid, tgrid, 0.5, 0.3, 0.4, -0.2)
            x = grid.cell_centers
            y0 = np.cos(np.pi * x)
            z0 = np.exp(-50.0 * (x - 0.5) ** 2)
            traj = solve_forward_linear(StepOperators(2.0, coeffs), None, y0, z0)
            return np.concatenate([traj.y[-1], traj.z[-1]])

        ref = terminal(3200)
        steps = np.array([50, 100, 200])
        errs = [float(np.max(np.abs(terminal(m) - ref))) for m in steps]
        slope = np.polyfit(np.log(horizon / steps), np.log(errs), 1)[0]
        assert 0.8 <= slope <= 1.2


    def test_second_order_accuracy_in_h(self):
        # cos(pi x) at the cell centers is an exact eigenvector of the
        # discrete Neumann Laplacian, eigenvalue -(4/h^2) sin^2(pi h/2)
        # against -pi^2 for the continuous one.  The reference takes the
        # same implicit Euler steps on the mode with the exact eigenvalue,
        # so the time error cancels and only the spatial error is left.
        sigma, horizon, n_steps = 2.0, 0.2, 40
        a = np.array([[0.5, 0.3], [0.4, -0.2]])
        amp0 = np.array([1.0, 0.5])
        dt = horizon / n_steps
        step = np.eye(2) + dt * (np.pi**2 * np.diag([1.0, sigma]) - a)
        amp = np.linalg.matrix_power(np.linalg.inv(step), n_steps) @ amp0

        def error(n):
            grid = Grid1D(n_cells=n)
            tgrid = TimeGrid(horizon=horizon, n_steps=n_steps)
            coeffs = constant_coefficients(grid, tgrid, *a.ravel())
            mode = np.cos(np.pi * grid.cell_centers)
            traj = solve_forward_linear(StepOperators(sigma, coeffs), None,
                                        amp0[0] * mode, amp0[1] * mode)
            return np.hypot(norm_l2(grid, traj.y[-1] - amp[0] * mode),
                            norm_l2(grid, traj.z[-1] - amp[1] * mode))

        ns = np.array([8, 16, 32, 64])
        errs = [error(n) for n in ns]
        slope = np.polyfit(np.log(1.0 / ns), np.log(errs), 1)[0]
        assert 1.9 <= slope <= 2.1

class TestDuality:
    def test_free_flow_pairing_is_conserved(self):
        grid = Grid1D(n_cells=40)
        tgrid = TimeGrid(horizon=0.3, n_steps=70)
        rng = np.random.default_rng(7)
        coeffs = _random_coefficients(grid, tgrid, rng)
        u0 = rng.standard_normal(40)
        v0 = rng.standard_normal(40)
        pT = rng.standard_normal(40)
        qT = rng.standard_normal(40)
        fwd = solve_forward_linear(StepOperators(5.0, coeffs), None, u0, v0)
        adj = solve_adjoint(StepOperators(5.0, coeffs), np.concatenate([pT, qT]))
        lhs = np.dot(fwd.y[-1], pT) + np.dot(fwd.z[-1], qT)
        rhs = np.dot(u0, adj.y[0]) + np.dot(v0, adj.z[0])
        assert abs(lhs - rhs) < 1e-12 * max(abs(lhs), 1.0)

    def test_controlled_pairing_identity(self):
        # <u^M, p^M> - <u^0, p^0> = dt * sum_m <chi h^m, phi^m>
        grid = Grid1D(n_cells=40, omega_a=0.3, omega_b=0.7)
        tgrid = TimeGrid(horizon=0.3, n_steps=70)
        rng = np.random.default_rng(8)
        coeffs = _random_coefficients(grid, tgrid, rng)
        u0, v0, pT, qT = rng.standard_normal((4, 40))
        control = ControlField(grid, tgrid, rng.standard_normal((70, 40)))
        fwd = solve_forward_linear(StepOperators(5.0, coeffs), control, u0, v0)
        adj = solve_adjoint(StepOperators(5.0, coeffs), np.concatenate([pT, qT]))
        chi = grid.omega_indicator
        lhs = (np.dot(fwd.y[-1], pT) + np.dot(fwd.z[-1], qT)
               - np.dot(u0, adj.y[0]) - np.dot(v0, adj.z[0]))
        rhs = tgrid.dt * float(np.sum((chi * control.values) * adj.y[:-1]))
        assert abs(lhs - rhs) < 1e-12 * max(abs(lhs), 1.0)


def _stacked_semilinear(ops, pair, control, y0, z0, inner_tol=1e-10):
    # reference semilinear march on stacked states: every fixed-point
    # iterate concatenates the reaction and takes one stacked-order step
    n, dt = ops.grid.n_cells, ops.tgrid.dt
    chi = ops.grid.omega_indicator
    u = np.empty((ops.tgrid.n_steps + 1, ops.size))
    u[0] = np.concatenate([y0, z0])
    for m in range(ops.tgrid.n_steps):
        v = u[m]
        for _ in range(50):
            vy, vz = v[:n], np.broadcast_to(v[n:], (n,))
            reaction = np.concatenate([pair.f.value(vy, vz) + chi * control.values[m],
                                       ops.restrict(pair.g.value(vy, vz))])
            v_new = _step(ops, u[m] + dt * reaction, m)
            delta = np.max(np.abs(v_new - v))
            v = v_new
            if delta <= inner_tol * max(1.0, np.max(np.abs(v))):
                break
        else:
            raise AssertionError(f"reference step {m} did not converge")
        u[m + 1] = v
    return u


class TestSemilinear:
    @pytest.mark.parametrize("reduced", [False, True], ids=["full", "shadow"])
    def test_march_is_the_stacked_step_loop(self, reduced):
        # the march in the solve order gives the stacked-order loop bit for
        # bit; 71 rows, so the march array is permuted back in two blocks
        grid = Grid1D(n_cells=16, omega_a=0.25, omega_b=0.75)
        tgrid = TimeGrid(horizon=0.3, n_steps=70)
        rng = np.random.default_rng(13)
        pair = make_pair(sigmoid_family(2.0), arctan_family(1.0))
        coeffs = zero_coefficients(grid, tgrid)
        ops = ShadowStepOperators(coeffs) if reduced else StepOperators(3.0, coeffs)
        control = ControlField(grid, tgrid, rng.standard_normal((70, 16)))
        y0 = 0.5 * np.cos(np.pi * grid.cell_centers)
        z0 = rng.uniform(-0.5, 0.5, ops.size - 16)
        traj = solve_forward_semilinear(ops, pair, control, y0, z0)
        want = _stacked_semilinear(ops, pair, control, y0, z0)
        assert traj.u.flags.c_contiguous
        assert np.array_equal(traj.u, want)
        assert not np.array_equal(traj.u[-1], traj.u[0])

    def test_matches_linear_solver_on_linear_pair(self):
        grid = Grid1D(n_cells=60)
        tgrid = TimeGrid(horizon=0.4, n_steps=80)
        a, b, c, d = 0.4, -0.3, 0.6, 0.2
        pair = linear_pair(a, b, c, d)
        coeffs = constant_coefficients(grid, tgrid, a, b, c, d)
        x = grid.cell_centers
        y0 = np.cos(np.pi * x)
        z0 = 0.5 * np.exp(-50.0 * (x - 0.5) ** 2)
        lin = solve_forward_linear(StepOperators(3.0, coeffs), None, y0, z0)
        sem = solve_forward_semilinear(StepOperators(3.0, zero_coefficients(grid, tgrid)),
                                       pair, None, y0, z0, inner_tol=1e-13)
        assert np.max(np.abs(lin.y - sem.y)) < 1e-8
        assert np.max(np.abs(lin.z - sem.z)) < 1e-8

    @pytest.mark.filterwarnings("ignore:zero y-coupling")
    def test_zero_reaction_steps_like_the_linear_marcher(self):
        # the semilinear march steps with the reaction-free StepOperators
        grid = Grid1D(n_cells=30, omega_a=0.2, omega_b=0.6)
        tgrid = TimeGrid(horizon=0.3, n_steps=40)
        rng = np.random.default_rng(11)
        control = ControlField(grid, tgrid, rng.standard_normal((40, 30)))
        y0, z0 = rng.standard_normal((2, 30))
        pair = make_pair(linear_form(0.0, 0.0), linear_form(0.0, 0.0))
        for sigma in (1.0, 250.0):
            ops = StepOperators(sigma, zero_coefficients(grid, tgrid))
            sem = solve_forward_semilinear(ops, pair, control, y0, z0)
            lin = solve_forward_linear(ops, control, y0, z0)
            assert np.array_equal(sem.y, lin.y) and np.array_equal(sem.z, lin.z)

    @pytest.mark.filterwarnings("ignore:zero y-coupling")
    def test_control_enters_y_equation(self):
        grid = Grid1D(n_cells=40, omega_a=0.3, omega_b=0.7)
        tgrid = TimeGrid(horizon=0.2, n_steps=40)
        pair = linear_pair(0.0, 0.0, 0.0, 0.0)
        control = ControlField(grid, tgrid, np.ones((40, 40)))
        traj = solve_forward_semilinear(StepOperators(1.0, zero_coefficients(grid, tgrid)),
                                        pair, control, np.zeros(40), np.zeros(40))
        assert np.max(traj.y[-1]) > 0.01
        # z is forced only through the (zero) coupling
        assert np.max(np.abs(traj.z)) == 0.0

    def test_rejects_coarse_steps_against_lipschitz_bound(self):
        grid = Grid1D(n_cells=20)
        tgrid = TimeGrid(horizon=1.0, n_steps=2)
        pair = linear_pair(0.0, 0.0, 3.0, 0.0)   # bound 3, dt = 0.5
        with pytest.raises(ValueError, match="Lipschitz"):
            solve_forward_semilinear(StepOperators(1.0, zero_coefficients(grid, tgrid)),
                                     pair, None, np.zeros(20), np.zeros(20))


class TestShadow:
    @pytest.mark.filterwarnings("ignore:zero y-coupling")
    def test_scalar_mode_follows_its_ode(self):
        # f = 0, g = -xi, y0 = 0: xi(t) = xi0 exp(-t) up to O(dt)
        grid = Grid1D(n_cells=20)
        tgrid = TimeGrid(horizon=0.5, n_steps=1000)
        pair = make_pair(linear_form(0.0, 0.0), linear_form(0.0, -1.0))
        red = _reduced_march(grid, tgrid, pair, None, np.zeros(20), [2.0])
        want = 2.0 * np.exp(-0.5)
        assert red.u[-1, -1] == pytest.approx(want, rel=1e-3)
        assert np.max(np.abs(red.y)) == 0.0

    def test_mean_field_drives_scalar_mode(self):
        # f = 0, g = y: xi(T) = xi0 + int mean(y) dt with y frozen heat flow
        grid = Grid1D(n_cells=50)
        tgrid = TimeGrid(horizon=0.4, n_steps=400)
        pair = make_pair(linear_form(0.0, 0.0), linear_form(1.0, 0.0))
        y0 = np.full(50, 0.25)   # constant stays put, mean(y) = 0.25
        red = _reduced_march(grid, tgrid, pair, None, y0, [1.0])
        assert red.u[-1, -1] == pytest.approx(1.0 + 0.25 * 0.4, rel=1e-6)

    def test_linear_march_agrees_with_fixed_point(self):
        # the per-step fixed point converges to the bordered implicit step
        grid = Grid1D(n_cells=40, omega_a=0.3, omega_b=0.7)
        tgrid = TimeGrid(horizon=0.5, n_steps=100)
        a = (0.3, -0.4, 0.8, 0.2)
        rng = np.random.default_rng(12)
        control = ControlField(grid, tgrid, rng.standard_normal((100, 40)))
        y0 = np.cos(np.pi * grid.cell_centers)
        fixed = _reduced_march(grid, tgrid, linear_pair(*a), control, y0, [0.3],
                               inner_tol=1e-13)
        ops = ShadowStepOperators(constant_coefficients(grid, tgrid, *a))
        direct = solve_forward_linear(ops, control, y0, [0.3])
        assert direct.u.shape == (101, 41) and direct.sigma == np.inf
        assert np.max(np.abs(direct.y - fixed.y)) <= 1e-11
        assert np.max(np.abs(direct.z[:, 0] - fixed.u[:, -1])) <= 1e-11
        assert np.max(np.abs(fixed.u[:, -1])) > 0.1   # the comparison is not of zeros
        # xi stands for the constant field z = xi, whose L2(0, 1) norm is |xi|
        assert direct.terminal_norms() == pytest.approx(
            (norm_l2(grid, fixed.y[-1]), abs(fixed.u[-1, -1])), rel=1e-12)

    def test_semilinear_march_matches_gauss_seidel_reference(self):
        # the Jacobi iteration of the one marcher and the Gauss-Seidel one
        # below (new y, then xi from it) share their fixed point
        grid = Grid1D(n_cells=32, omega_a=0.3, omega_b=0.7)
        tgrid = TimeGrid(horizon=0.4, n_steps=80)
        pair = make_pair(sigmoid_family(2.0), arctan_family(1.0))
        control = ControlField(grid, tgrid,
                               np.random.default_rng(5).standard_normal((80, 32)))
        y0 = 0.1 * np.cos(np.pi * grid.cell_centers)
        got = _reduced_march(grid, tgrid, pair, control, y0, [0.1], inner_tol=1e-13)
        y_ref, xi_ref = _gauss_seidel_shadow(grid, tgrid, pair, control, y0, 0.1,
                                             inner_tol=1e-13)
        assert np.max(np.abs(got.y - y_ref)) <= 1e-11
        assert np.max(np.abs(got.u[:, -1] - xi_ref)) <= 1e-11
        assert np.ptp(xi_ref) > 1e-3   # xi moves, so the comparison is not trivial

    @pytest.mark.parametrize("xi0", [0.3, [0.3, 0.3], [np.nan], [np.inf]],
                             ids=["scalar", "two", "nan", "inf"])
    def test_linear_march_rejects_bad_xi0(self, xi0):
        grid = Grid1D(n_cells=10)
        tgrid = TimeGrid(horizon=0.1, n_steps=5)
        ops = ShadowStepOperators(constant_coefficients(grid, tgrid, 0.1, 0.2, 0.3, 0.4))
        with pytest.raises(ValueError, match="z0"):
            solve_forward_linear(ops, None, np.zeros(10), xi0)

    def test_rejects_coarse_steps(self):
        from shadowctl.nonlinear import arctan_family
        grid = Grid1D(n_cells=20)
        tgrid = TimeGrid(horizon=1.0, n_steps=2)
        pair = make_pair(linear_form(0.0, 0.0), arctan_family(3.0))
        with pytest.raises(ValueError, match="Lipschitz"):
            _reduced_march(grid, tgrid, pair, None, np.zeros(20), [0.0])


class TestControlField:
    def test_support_confined_to_window(self):
        grid = Grid1D(n_cells=10, omega_a=0.3, omega_b=0.7)
        tgrid = TimeGrid(horizon=0.1, n_steps=3)
        control = ControlField(grid, tgrid, np.ones((3, 10)))
        outside = grid.omega_indicator == 0.0
        assert np.all(control.values[:, outside] == 0.0)
        assert np.all(control.values[:, ~outside] == 1.0)

    def test_rejects_bad_shape(self):
        grid = Grid1D(n_cells=10)
        tgrid = TimeGrid(horizon=0.1, n_steps=3)
        with pytest.raises(ValueError, match="shape"):
            ControlField(grid, tgrid, np.ones((4, 10)))

    def test_rejects_nonfinite(self):
        grid = Grid1D(n_cells=10)
        tgrid = TimeGrid(horizon=0.1, n_steps=3)
        vals = np.ones((3, 10))
        vals[1, 5] = np.nan
        with pytest.raises(ValueError, match="finite"):
            ControlField(grid, tgrid, vals)

    def test_cost_of_unit_control(self):
        # full-window unit control: cost = sqrt(T * |omega|)
        grid = Grid1D(n_cells=8, omega_a=0.25, omega_b=0.75)
        tgrid = TimeGrid(horizon=0.5, n_steps=20)
        control = ControlField(grid, tgrid, np.ones((20, 8)))
        assert control_cost(control) == pytest.approx(
            np.sqrt(0.5 * 0.5), rel=1e-14)

    def test_solver_rejects_mismatched_control(self):
        grid = Grid1D(n_cells=10)
        other = Grid1D(n_cells=12)
        tgrid = TimeGrid(horizon=0.1, n_steps=3)
        control = ControlField(other, tgrid, np.ones((3, 12)))
        with pytest.raises(ValueError, match="different grid"):
            solve_forward_linear(StepOperators(1.0, zero_coefficients(grid, tgrid)),
                                 control, np.zeros(10), np.zeros(10))


    @pytest.mark.parametrize("mismatch", ["horizon", "window"])
    @pytest.mark.parametrize("marcher", ["semilinear", "shadow"])
    def test_nonlinear_marchers_reject_mismatched_control(self, marcher, mismatch):
        # the values have the right shape, so only the grid check catches it
        grid = Grid1D(n_cells=10)
        tgrid = TimeGrid(horizon=0.1, n_steps=3)
        if mismatch == "horizon":
            control = ControlField(grid, TimeGrid(horizon=0.2, n_steps=3),
                                   np.ones((3, 10)))
        else:
            control = ControlField(Grid1D(n_cells=10, omega_a=0.2), tgrid,
                                   np.ones((3, 10)))
        pair = linear_pair(0.1, 0.2, 0.3, 0.4)
        with pytest.raises(ValueError, match="different grid"):
            if marcher == "semilinear":
                solve_forward_semilinear(StepOperators(1.0, zero_coefficients(grid, tgrid)),
                                         pair, control, np.zeros(10), np.zeros(10))
            else:
                _reduced_march(grid, tgrid, pair, control, np.zeros(10), [0.0])

class TestEnergy:
    def test_cosine_energy_oracle(self):
        # frozen-in-time cosine: ||y||^2 = T*(1/2 + pi^2/2), weighted gradient
        # term = sigma * T * pi^2 / 2
        grid = Grid1D(n_cells=100)
        tgrid = TimeGrid(horizon=1.0, n_steps=10)
        prof = np.cos(np.pi * grid.cell_centers)
        y = np.tile(prof, (11, 1))
        traj = Trajectory(grid, tgrid, 3.0, np.hstack([y, y]))
        rep = energy_functional(traj)
        assert rep.norm_y_l2h1 == pytest.approx(np.sqrt(0.5 + np.pi**2 / 2), rel=1e-3)
        assert rep.sigma_grad_z == pytest.approx(3.0 * np.pi**2 / 2, rel=1e-3)
        assert rep.terminal_y == pytest.approx(np.sqrt(0.5), rel=1e-12)

    def test_constant_field_has_no_gradient_energy(self):
        grid = Grid1D(n_cells=40)
        tgrid = TimeGrid(horizon=2.0, n_steps=8)
        y = np.full((9, 40), 1.5)
        rep = energy_functional(Trajectory(grid, tgrid, 7.0, np.hstack([y, y])))
        assert rep.sigma_grad_z == 0.0
        assert rep.norm_y_l2h1 == pytest.approx(1.5 * np.sqrt(2.0), rel=1e-12)

    def test_shadow_trajectory_reports_its_constant_field(self):
        # xi stands for the constant field z = xi: same report as the full
        # trajectory holding it, and no inf * 0 for the gradient term
        grid = Grid1D(n_cells=10)
        tgrid = TimeGrid(horizon=0.1, n_steps=5)
        ops = ShadowStepOperators(constant_coefficients(grid, tgrid, 0.1, 0.2, 0.3, 0.4))
        reduced = solve_forward_linear(ops, None, np.cos(np.pi * grid.cell_centers), [0.3])
        full = Trajectory(grid, tgrid, 2.0, np.hstack(
            [reduced.y, reduced.z]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = dataclasses.asdict(energy_functional(reduced))
        want = dataclasses.asdict(energy_functional(full))
        assert got["sigma_grad_z"] == 0.0
        for name, value in want.items():
            assert got[name] == value, name


class TestSemigroupChecks:
    def test_unit_rate_report(self):
        grid = Grid1D(n_cells=200)
        tgrid = TimeGrid(horizon=0.5, n_steps=250)
        rep = semigroup_checks(grid, tgrid, 1.0)
        assert rep.constant_error <= 1e-12
        assert rep.exponent_rel_error <= 0.02
        assert rep.max_mean_drift <= 1e-12
        assert rep.expected_exponent == pytest.approx(-np.pi**2)

    def test_scaled_horizon_tracks_fast_rate(self):
        # shrink the horizon with sigma so sigma*pi^2*dt stays equal
        grid = Grid1D(n_cells=200)
        tgrid = TimeGrid(horizon=0.005, n_steps=250)
        rep = semigroup_checks(grid, tgrid, 100.0)
        assert rep.constant_error <= 1e-12
        assert rep.exponent_rel_error <= 0.02
        assert rep.sigma_dt_product == pytest.approx(100.0 * np.pi**2 * 2e-5)

    def test_rejects_nonpositive_sigma(self):
        # an infinite or NaN rate would march NaN into the report
        grid = Grid1D(n_cells=50)
        tgrid = TimeGrid(horizon=0.1, n_steps=10)
        for sigma in (-1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="sigma"):
                semigroup_checks(grid, tgrid, sigma)


_BAD_MARCH_ARGUMENTS = [
    pytest.param(marcher, {name: value}, id=f"{marcher}-{name}={value}")
    for marcher in ("semilinear", "shadow")
    for name, value in (("max_inner", 0), ("inner_tol", -1.0),
                        ("inner_tol", np.nan), ("inner_tol", np.inf))
] + [pytest.param("shadow", {"xi0": value}, id=f"shadow-xi0={label}")
     for label, value in (("nan", [np.nan]), ("inf", [np.inf]), ("vector", np.zeros(2)))]


class TestValidation:
    @pytest.mark.parametrize("marcher, bad", _BAD_MARCH_ARGUMENTS)
    def test_nonlinear_marchers_reject_bad_arguments(self, marcher, bad):
        # rejected before marching, not by a stalled or crashed inner solve
        grid = Grid1D(n_cells=10)
        tgrid = TimeGrid(horizon=0.1, n_steps=5)
        pair = linear_pair(0.1, 0.2, 0.3, 0.4)
        (name, value), = bad.items()
        # xi0 is the z0 of the reduced march, one entry long: a one-entry
        # xi0 reaches the finiteness check, a longer one the shape check
        if name == "xi0":
            name = "z0 contains non-finite" if np.size(value) == 1 else "z0 must have shape"
        with pytest.raises(ValueError, match=name):
            if marcher == "semilinear":
                solve_forward_semilinear(StepOperators(1.0, zero_coefficients(grid, tgrid)),
                                         pair, None, np.zeros(10), np.zeros(10), **bad)
            else:
                kwargs = {"xi0": [0.0], **bad}
                xi0 = kwargs.pop("xi0")
                _reduced_march(grid, tgrid, pair, None, np.zeros(10), xi0, **kwargs)

    def test_reduced_system_has_no_dual_march(self, monkeypatch):
        # refused before any step, and its step never runs forward where
        # the transpose is asked for
        grid = Grid1D(n_cells=10)
        tgrid = TimeGrid(horizon=0.1, n_steps=5)
        ops = ShadowStepOperators(constant_coefficients(grid, tgrid, 0.1, 0.2, 0.3, 0.4))
        steps = []
        solve = ops.solve
        monkeypatch.setattr(ops, "solve", lambda *args: steps.append(args))
        with pytest.raises(ValueError, match="reduced system"):
            solve_adjoint(ops, np.ones(11))
        assert steps == []
        with pytest.raises(ValueError, match="reduced system"):
            solve(np.ones(11), 0, trans=1)

    @pytest.mark.parametrize("reduced", [False, True], ids=["full", "shadow"])
    def test_stalled_inner_solve_names_its_step(self, reduced):
        grid = Grid1D(n_cells=10)
        tgrid = TimeGrid(horizon=0.1, n_steps=5)
        coeffs = zero_coefficients(grid, tgrid)
        ops = ShadowStepOperators(coeffs) if reduced else StepOperators(1.0, coeffs)
        pair = make_pair(sigmoid_family(2.0), arctan_family(1.0))
        with pytest.raises(RuntimeError, match="stalled at step 0.*after 1 iterations"):
            solve_forward_semilinear(ops, pair, None, np.ones(10),
                                     np.ones(ops.size - 10), max_inner=1)

    def test_semilinear_march_rejects_linearized_steps(self):
        # the reaction acts on top of the steps, so they must be reaction-free
        grid = Grid1D(n_cells=10)
        tgrid = TimeGrid(horizon=0.1, n_steps=5)
        ops = StepOperators(1.0, constant_coefficients(grid, tgrid, 0.0, 0.0, 1.0, 0.0))
        with pytest.raises(ValueError, match="reaction-free"):
            solve_forward_semilinear(ops, linear_pair(0.0, 0.0, 1.0, 0.0), None,
                                     np.zeros(10), np.zeros(10))

    @pytest.mark.parametrize("defect", ["shape", "non-finite"],
                             ids=["shape-p_T", "non-finite-p_T"])
    def test_adjoint_rejects_bad_states(self, defect):
        grid = Grid1D(n_cells=10)
        tgrid = TimeGrid(horizon=0.1, n_steps=5)
        ops = StepOperators(1.0, zero_coefficients(grid, tgrid))
        p_T = np.ones(20)
        if defect == "shape":
            p_T = p_T[:10]
        else:
            p_T[3] = np.nan
        with pytest.raises(ValueError, match=f"p_T .*{defect}"):
            solve_adjoint(ops, p_T)

    @pytest.mark.parametrize("shape", [(3, 32), (20, 32), (21, 31), (21, 18), (21,)])
    def test_trajectory_rejects_bad_march_array(self, shape):
        # 21 rows and 32 (full) or 17 (reduced) columns are the valid shapes
        grid = Grid1D(n_cells=16)
        tgrid = TimeGrid(horizon=0.2, n_steps=20)
        for width in (32, 17):
            Trajectory(grid, tgrid, 1.0, np.zeros((21, width)))
        with pytest.raises(ValueError, match="march array"):
            Trajectory(grid, tgrid, 1.0, np.zeros(shape))

    def test_bad_initial_shape(self):
        grid = Grid1D(n_cells=10)
        tgrid = TimeGrid(horizon=0.1, n_steps=5)
        with pytest.raises(ValueError, match="y0"):
            solve_forward_linear(StepOperators(1.0, zero_coefficients(grid, tgrid)),
                                 None, np.zeros(11), np.zeros(10))

    def test_nonfinite_initial_rejected(self):
        grid = Grid1D(n_cells=10)
        tgrid = TimeGrid(horizon=0.1, n_steps=5)
        z0 = np.zeros(10)
        z0[3] = np.inf
        with pytest.raises(ValueError, match="z0"):
            solve_forward_linear(StepOperators(1.0, zero_coefficients(grid, tgrid)),
                                 None, np.zeros(10), z0)

    def test_coefficient_shape_enforced(self):
        grid = Grid1D(n_cells=10)
        tgrid = TimeGrid(horizon=0.1, n_steps=5)
        good = np.zeros((6, 10))
        with pytest.raises(ValueError, match="a12"):
            CoefficientField(grid, tgrid, good, np.zeros((5, 10)), good, good)
