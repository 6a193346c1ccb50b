"""Gap, sweep, and scaling-measurement tests.

The two-mode problem (pure cosine fluctuation on top of a constant) has a
closed-form gap, which pins the full-vs-reduced comparison to an analytic
number; everything else is checked through structural cases and slopes.
"""

import numpy as np
import pytest

from shadowctl.experiments import (fit_decay_rate, measure_m1,
                                   measure_m1_scaling, measure_m2_scaling,
                                   shadow_gap, sigma_sweep)
from shadowctl import mesh
from shadowctl.hum import HumConfig, hum_solve
from shadowctl.mesh import Grid1D, TimeGrid, mean_value
from shadowctl.nonlinear import (arctan_family, linear_form, make_pair,
                                 sigmoid_family)
from shadowctl.pde import (ShadowStepOperators, StepOperators, Trajectory,
                           solve_forward_semilinear, zero_coefficients)
from shadowctl.semilinear import FixedPointConfig, origin_coefficients


@pytest.fixture()
def pair():
    return make_pair(sigmoid_family(2.0), arctan_family(1.0))


@pytest.fixture(scope="module")
def small_setup():
    grid = Grid1D(n_cells=30, omega_a=0.3, omega_b=0.7)
    tgrid = TimeGrid(horizon=0.5, n_steps=40)
    x = grid.cell_centers
    return grid, tgrid, 0.1 * np.cos(np.pi * x), np.full(30, 0.1)


class TestFitDecayRate:
    def test_exact_power_law(self):
        xs = np.array([1.0, 10.0, 100.0, 1000.0])
        assert fit_decay_rate(xs, 5.0 / xs) == pytest.approx(-1.0, abs=1e-12)

    def test_constant_sequence(self):
        xs = np.array([1.0, 2.0, 4.0])
        assert fit_decay_rate(xs, np.full(3, 0.7)) == pytest.approx(0.0, abs=1e-12)

    def test_noisy_half_power(self):
        rng = np.random.default_rng(0)
        xs = np.logspace(0, 3, 8)
        ys = xs**-0.5 * (1.0 + 0.02 * rng.standard_normal(8))
        assert -0.55 <= fit_decay_rate(xs, ys) <= -0.45

    @pytest.mark.parametrize("xs,ys", [
        ([1.0], [1.0]),
        ([1.0, 2.0], [1.0, 0.0]),
        ([1.0, -2.0], [1.0, 1.0]),
        ([1.0, 2.0, 3.0], [1.0, 1.0]),
        ([1.0, 2.0], [np.inf, 1.0]),
    ])
    def test_rejects_degenerate_input(self, xs, ys):
        with pytest.raises(ValueError):
            fit_decay_rate(xs, ys)


class TestShadowGap:
    def _pairing(self, n=16, msteps=10):
        grid = Grid1D(n_cells=n)
        tgrid = TimeGrid(horizon=1.0, n_steps=msteps)
        shape = (msteps + 1, n)
        return grid, tgrid, shape

    def test_identical_fields_have_zero_gap(self):
        grid, tgrid, shape = self._pairing()
        z = np.full(shape, 0.4)
        traj = Trajectory(grid, tgrid, 1.0, np.hstack([np.zeros(shape), z]))
        red = Trajectory(grid, tgrid, np.inf,
                         np.hstack([np.zeros(shape), np.full((shape[0], 1), 0.4)]))
        assert shadow_gap(traj, red, 0.1) == 0.0

    def test_constant_offset_gap(self):
        grid, tgrid, shape = self._pairing()
        traj = Trajectory(grid, tgrid, 1.0,
                          np.hstack([np.zeros(shape), np.full(shape, 0.9)]))
        red = Trajectory(grid, tgrid, np.inf,
                         np.hstack([np.zeros(shape), np.full((shape[0], 1), 0.6)]))
        assert shadow_gap(traj, red, 0.0) == pytest.approx(0.3, rel=1e-12)

    def test_early_disagreement_ignored_past_t0(self):
        grid, tgrid, shape = self._pairing(msteps=10)
        z = np.zeros(shape)
        z[0] = 100.0   # initial-layer transient only
        traj = Trajectory(grid, tgrid, 1.0, np.hstack([np.zeros(shape), z]))
        red = Trajectory(grid, tgrid, np.inf,
                         np.hstack([np.zeros(shape), np.zeros((shape[0], 1))]))
        assert shadow_gap(traj, red, 0.05) == 0.0
        assert shadow_gap(traj, red, 0.0) == pytest.approx(100.0)

    def test_rejects_mismatched_grids(self):
        grid, tgrid, shape = self._pairing()
        other = Grid1D(n_cells=shape[1] + 1)
        traj = Trajectory(grid, tgrid, 1.0, np.zeros((shape[0], 2 * shape[1])))
        red = Trajectory(other, tgrid, np.inf,
                         np.hstack([np.zeros((shape[0], shape[1] + 1)),
                                    np.zeros((shape[0], 1))]))
        with pytest.raises(ValueError, match="different grids"):
            shadow_gap(traj, red, 0.1)

    def test_rejects_bad_t0(self):
        grid, tgrid, shape = self._pairing()
        traj = Trajectory(grid, tgrid, 1.0, np.zeros((shape[0], 2 * shape[1])))
        red = Trajectory(grid, tgrid, np.inf,
                         np.hstack([np.zeros(shape), np.zeros((shape[0], 1))]))
        with pytest.raises(ValueError, match="t0"):
            shadow_gap(traj, red, 1.0)

    def test_two_mode_closed_form(self):
        # y = 0 and z0 = xi0 + a cos(pi x) with g = c y + d z: the gap is the
        # decaying fluctuation amplitude |a| e^{(d - sigma pi^2) t0} / sqrt(2)
        grid = Grid1D(n_cells=64, omega_a=0.3, omega_b=0.7)
        tgrid = TimeGrid(horizon=0.5, n_steps=5000)
        c, d, sigma, xi0, a = 0.3, 0.25, 4.0, 1.0, 0.4
        two_mode = make_pair(linear_form(0.0, 0.0), linear_form(c, d))
        x = grid.cell_centers
        z0 = xi0 + a * np.cos(np.pi * x)
        y0 = np.zeros(64)
        traj = solve_forward_semilinear(StepOperators(sigma, zero_coefficients(grid, tgrid)),
                                        two_mode, None, y0, z0)
        red = solve_forward_semilinear(
            ShadowStepOperators(zero_coefficients(grid, tgrid)), two_mode, None,
            y0, [mean_value(grid, z0)])
        got = shadow_gap(traj, red, 0.05)
        want = a * np.exp((d - sigma * np.pi**2) * 0.05) / np.sqrt(2.0)
        assert got == pytest.approx(want, rel=2e-2)


class TestM1:
    def test_constant_data_has_no_layer(self):
        grid = Grid1D(n_cells=60)
        tgrid = TimeGrid(horizon=0.5, n_steps=50)
        rec = measure_m1(grid, tgrid, 4.0, np.full(60, 0.3))
        assert rec.m1_initial <= 1e-12
        assert rec.sup_sqrt_t_m1 <= 1e-12

    def test_exactly_zero_data(self):
        grid = Grid1D(n_cells=60)
        tgrid = TimeGrid(horizon=0.5, n_steps=50)
        rec = measure_m1(grid, tgrid, 4.0, np.zeros(60))
        assert rec.sup_sqrt_t_m1 == 0.0
        assert rec.fitted_exponent == 0.0

    def test_cosine_decay_exponent(self):
        grid = Grid1D(n_cells=200)
        tgrid = TimeGrid(horizon=0.5, n_steps=400)
        z0 = 0.1 * np.cos(np.pi * grid.cell_centers)
        rec = measure_m1(grid, tgrid, 1.0, z0)
        assert rec.expected_exponent == pytest.approx(-np.pi**2)
        assert rec.fitted_exponent == pytest.approx(-np.pi**2, rel=0.05)

    def test_scaling_slope_is_minus_half(self):
        # horizons shrink with sigma, so the sup scales exactly like 1/sqrt(sigma)
        grid = Grid1D(n_cells=60)
        z0 = 0.1 * np.cos(np.pi * grid.cell_centers)
        rep = measure_m1_scaling(grid, (1.0, 4.0, 16.0), z0, n_steps=300)
        assert rep.slope == pytest.approx(-0.5, abs=0.075)
        assert len(rep.values) == 3

    @pytest.mark.parametrize("sigma", [0.0, -1.0, np.inf, np.nan])
    def test_rejects_bad_rate(self, sigma):
        # sigma <= 0 would march no or backward diffusion, inf and nan NaN
        grid = Grid1D(n_cells=10)
        tgrid = TimeGrid(horizon=0.1, n_steps=5)
        with pytest.raises(ValueError, match="positive and finite"):
            measure_m1(grid, tgrid, sigma, np.ones(10))


class TestM2:
    def test_scaling_slope(self, pair):
        grid = Grid1D(n_cells=60)
        y0 = 0.1 * np.cos(np.pi * grid.cell_centers)
        z0 = np.full(60, 0.1)
        rep = measure_m2_scaling(grid, (1.0, 10.0, 100.0), pair, y0, z0,
                                 n_steps=200)
        assert -1.3 <= rep.slope <= -0.6
        assert rep.values[0] > rep.values[-1]

    def test_response_matches_a_dense_forced_march(self, pair):
        # v^{m+1} = (I - dt sigma L)^-1 (v^m + dt P g(y^{m+1}, z^{m+1})) from
        # v^0 = 0, along the free semilinear trajectory; z0 has a mean-free
        # part, so the free heat flow of z0 is not constant
        grid = Grid1D(n_cells=16)
        x = grid.cell_centers
        y0 = 0.1 * np.cos(np.pi * x)
        z0 = 0.1 + 0.05 * np.cos(np.pi * x)
        sigmas = (1.0, 10.0)
        rep = measure_m2_scaling(grid, sigmas, pair, y0, z0, n_steps=40)
        main, off = mesh._laplacian_stencil(grid)
        lap = np.diag(main) + np.diag(off, 1) + np.diag(off, -1)
        for sigma, got in zip(sigmas, rep.values):
            tgrid = TimeGrid(horizon=5.0 / sigma, n_steps=40)
            dt = tgrid.dt
            traj = solve_forward_semilinear(
                StepOperators(sigma, zero_coefficients(grid, tgrid)), pair, None, y0, z0)
            step = np.eye(16) - dt * sigma * lap
            v, want = np.zeros(16), 0.0
            for m in range(40):
                g = np.asarray(pair.g.value(traj.y[m + 1], traj.z[m + 1]))
                v = np.linalg.solve(step, v + dt * (g - mean_value(grid, g)))
                want = max(want, mesh.norm_l2(grid, v))
            assert got == pytest.approx(want, rel=1e-7)

    @pytest.mark.filterwarnings("ignore:zero y-coupling")
    def test_zero_reaction_is_rejected_as_degenerate(self):
        grid = Grid1D(n_cells=40)
        dead = make_pair(sigmoid_family(2.0), linear_form(0.0, 0.0))
        y0 = 0.1 * np.cos(np.pi * grid.cell_centers)
        with pytest.raises(ValueError, match="positive"):
            measure_m2_scaling(grid, (1.0, 4.0), dead, y0, np.full(40, 0.1))


class TestSigmaSweep:
    def test_linear_mode_rows(self, small_setup, pair):
        grid, tgrid, y0, z0 = small_setup
        rep = sigma_sweep(grid, tgrid, (1.0, 4.0), pair, y0, z0, mode="linear")
        assert rep.mode == "linear"
        assert len(rep.rows) == 2
        assert all(r.converged for r in rep.rows)
        assert all(r.outer_iterations == 0 for r in rep.rows)
        assert rep.gap_strictly_decreasing
        assert len(rep.control_deltas) == 1

    def test_linear_mode_builds_the_cosine_basis_once(self, small_setup, pair):
        # each row factors its own Gramian, but the basis depends only on
        # the cell count, so the four rows share one build
        grid, tgrid, y0, z0 = small_setup
        mesh._cosine_basis.cache_clear()
        sigma_sweep(grid, tgrid, (1.0, 4.0, 16.0, 64.0), pair, y0, z0, mode="linear")
        assert mesh._cosine_basis.cache_info()[:2] == (3, 1)   # hits, misses

    def test_semilinear_mode_gap_decays(self, small_setup, pair):
        grid, tgrid, y0, z0 = small_setup
        rep = sigma_sweep(grid, tgrid, (1.0, 4.0, 16.0), pair, y0, z0,
                          mode="semilinear")
        assert rep.gap_strictly_decreasing
        assert rep.gap_slope < -0.4
        assert all(r.converged for r in rep.rows)
        assert all(r.outer_iterations >= 1 for r in rep.rows)
        assert all(r.shadow_gap > 0.0 for r in rep.rows)

    def test_linear_mode_solves_with_the_fixed_point_hum_config(self, pair):
        # the one HumConfig of the control path is fp_config.hum, here far
        # from the default penalty, in linear mode as in semilinear mode
        grid = Grid1D(n_cells=16)
        tgrid = TimeGrid(horizon=0.2, n_steps=20)
        y0, z0 = 0.1 * np.cos(np.pi * grid.cell_centers), np.full(16, 0.1)
        hum_config = HumConfig(epsilon=1e-10)
        rep = sigma_sweep(grid, tgrid, (1.0, 4.0), pair, y0, z0, mode="linear",
                          fp_config=FixedPointConfig(hum=hum_config))
        coeffs = origin_coefficients(grid, tgrid, pair)
        for row in rep.rows:
            want = hum_solve(StepOperators(row.sigma, coeffs), y0, z0, hum_config)
            assert row.control_cost == want.control_cost

    def test_deterministic_and_job_invariant(self, small_setup, pair):
        grid, tgrid, y0, z0 = small_setup
        a = sigma_sweep(grid, tgrid, (1.0, 4.0), pair, y0, z0, mode="linear")
        b = sigma_sweep(grid, tgrid, (1.0, 4.0), pair, y0, z0, mode="linear")
        assert a.rows == b.rows

    @pytest.mark.parametrize("kwargs,match", [
        ({"sigmas": (4.0, 1.0)}, "increasing"),
        ({"sigmas": (2.0,)}, "increasing"),
        ({"sigmas": (0.5, 2.0)}, "at least 1"),
        ({"mode": "quadratic"}, "mode"),
        ({"t0_fraction": 1.5}, "t0_fraction"),
    ])
    def test_rejects_bad_arguments(self, small_setup, pair, kwargs, match):
        grid, tgrid, y0, z0 = small_setup
        call = dict(sigmas=(1.0, 4.0), mode="linear", t0_fraction=0.1)
        call.update(kwargs)
        with pytest.raises(ValueError, match=match):
            sigma_sweep(grid, tgrid, call["sigmas"], pair, y0, z0,
                        mode=call["mode"], t0_fraction=call["t0_fraction"])
