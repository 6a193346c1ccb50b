"""Fixed-point control loop and ray-averaged linearization tests."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowctl import hum, semilinear
from shadowctl.hum import HumConfig
from shadowctl.mesh import Grid1D, TimeGrid
from shadowctl.nonlinear import (arctan_family, linear_form, make_pair,
                                 sigmoid_family)
from shadowctl.pde import (StepOperators, constant_coefficients,
                           solve_forward_semilinear, zero_coefficients)
from shadowctl.semilinear import (FixedPointConfig, coupling_floor_check,
                                  fixed_point_control, linearized_coefficients)


@pytest.fixture()
def pair():
    return make_pair(sigmoid_family(2.0), arctan_family(1.0))


# far below the default tolerances: the fixed point that a default run's
# control cost is checked against
_TIGHT = FixedPointConfig(outer_tol=1e-10, hum=HumConfig(epsilon=1e-8, cg_tol=1e-12,
                                                         cg_max_iters=2000))


def _coarse_run(pair, amplitude, sigma, z_amplitude, config):
    grid = Grid1D(n_cells=16)
    tgrid = TimeGrid(horizon=0.4, n_steps=20)
    y0 = amplitude * np.cos(np.pi * grid.cell_centers)
    z0 = np.full(16, z_amplitude)
    return (fixed_point_control(grid, tgrid, sigma, pair, y0, z0, config),
            grid, tgrid, y0, z0)


def _assert_honest_rerun(res, pair, grid, tgrid, sigma, y0, z0):
    redo = solve_forward_semilinear(StepOperators(sigma, zero_coefficients(grid, tgrid)),
                                    pair, res.control, y0, z0)
    assert np.array_equal(res.trajectory.y, redo.y)
    assert np.array_equal(res.trajectory.z, redo.z)
    ny, nz = redo.terminal_norms()
    assert res.terminal_y == ny and res.terminal_z == nz


def _readme_run(pair, config):
    """fixed_point_control on the README example config."""
    grid = Grid1D(n_cells=64)
    tgrid = TimeGrid(horizon=0.4, n_steps=80)
    y0 = 0.1 * np.cos(np.pi * grid.cell_centers)
    z0 = np.full(64, 0.1)
    return fixed_point_control(grid, tgrid, 10.0, pair, y0, z0, config)


def _random_reference(grid, tgrid, seed=0, amplitude=2.0):
    rng = np.random.default_rng(seed)
    shape = (tgrid.n_steps + 1, grid.n_cells)
    return (rng.uniform(-amplitude, amplitude, shape),
            rng.uniform(-amplitude, amplitude, shape))


def _separate_averages(pair, ybar, zbar, n_quad):
    """The four ray averages with every partial evaluated on its own, as
    linearized_coefficients took them before it shared repeated callables,
    on the same rule, so that sharing alone could move a bit."""
    partials = (pair.f.d_dy, pair.f.d_dz, pair.g.d_dy, pair.g.d_dz)
    sums = [np.zeros(ybar.shape) for _ in partials]
    for delta, w in zip(*semilinear._ray_quadrature(n_quad)):
        yd, zd = delta * ybar, delta * zbar
        for acc, d in zip(sums, partials):
            acc += w * np.asarray(d(yd, zd))
    return sums


def _counted(fn, calls):
    """``fn`` wrapped to append one entry to ``calls`` per evaluation."""
    def wrapped(y, z):
        calls.append(None)
        return fn(y, z)
    return wrapped


class TestLinearizedCoefficients:
    def test_ray_average_reproduces_the_nonlinearity(self, pair):
        # a11*ybar + a12*zbar = f(ybar, zbar) up to quadrature error
        grid = Grid1D(n_cells=25)
        tgrid = TimeGrid(horizon=0.3, n_steps=20)
        ybar, zbar = _random_reference(grid, tgrid)
        c = linearized_coefficients(grid, tgrid, pair, ybar, zbar, n_quad=32)
        f_defect = np.max(np.abs(c.a11 * ybar + c.a12 * zbar
                                 - pair.f.value(ybar, zbar)))
        g_defect = np.max(np.abs(c.a21 * ybar + c.a22 * zbar
                                 - pair.g.value(ybar, zbar)))
        assert f_defect <= 1e-8
        assert g_defect <= 1e-8

    def test_quadrature_refinement_is_monotone(self, pair):
        grid = Grid1D(n_cells=25)
        tgrid = TimeGrid(horizon=0.3, n_steps=20)
        ybar, zbar = _random_reference(grid, tgrid, seed=1)
        defects = []
        for nq in (8, 16, 32):
            c = linearized_coefficients(grid, tgrid, pair, ybar, zbar, nq)
            defects.append(float(np.max(np.abs(
                c.a11 * ybar + c.a12 * zbar - pair.f.value(ybar, zbar)))))
        assert defects[0] > defects[1] > defects[2]

    def test_linear_pair_recovers_constants(self):
        grid = Grid1D(n_cells=10)
        tgrid = TimeGrid(horizon=0.2, n_steps=5)
        lp = make_pair(linear_form(0.7, -0.4), linear_form(1.3, 0.2))
        ybar, zbar = _random_reference(grid, tgrid, seed=2)
        c = linearized_coefficients(grid, tgrid, lp, ybar, zbar, n_quad=8)
        assert np.max(np.abs(c.a11 - 0.7)) < 1e-14
        assert np.max(np.abs(c.a12 + 0.4)) < 1e-14
        assert np.max(np.abs(c.a21 - 1.3)) < 1e-14
        assert np.max(np.abs(c.a22 - 0.2)) < 1e-14

    def test_coefficients_respect_partial_bounds(self, pair):
        # the averaged sigmoid partials inherit the [0, 1] range
        grid = Grid1D(n_cells=15)
        tgrid = TimeGrid(horizon=0.2, n_steps=10)
        ybar, zbar = _random_reference(grid, tgrid, seed=3, amplitude=5.0)
        c = linearized_coefficients(grid, tgrid, pair, ybar, zbar)
        assert np.all(c.a11 >= 0.0) and np.all(c.a11 <= 1.0 + 1e-12)
        assert np.all(c.a21 > 0.0)   # arctan y-partial is strictly positive

    def test_shared_partial_is_averaged_once(self, pair):
        # both families pass one slope callable as d_dy and d_dz
        assert pair.f.d_dy is pair.f.d_dz and pair.g.d_dy is pair.g.d_dz
        grid = Grid1D(n_cells=12)
        tgrid = TimeGrid(horizon=0.2, n_steps=9)
        ybar, zbar = _random_reference(grid, tgrid, seed=4)
        f_calls, g_calls = [], []
        f_slope = _counted(pair.f.d_dy, f_calls)
        g_slope = _counted(pair.g.d_dy, g_calls)
        counted = dataclasses.replace(
            pair, f=dataclasses.replace(pair.f, d_dy=f_slope, d_dz=f_slope),
            g=dataclasses.replace(pair.g, d_dy=g_slope, d_dz=g_slope))
        c = linearized_coefficients(grid, tgrid, counted, ybar, zbar, n_quad=32)
        assert len(f_calls) == 32 and len(g_calls) == 32
        want = _separate_averages(pair, ybar, zbar, 32)
        for name, ref in zip(("a11", "a12", "a21", "a22"), want):
            assert np.array_equal(getattr(c, name), ref)

    def test_distinct_partials_are_averaged_separately(self):
        grid = Grid1D(n_cells=10)
        tgrid = TimeGrid(horizon=0.2, n_steps=5)
        lp = make_pair(linear_form(0.7, -0.4), linear_form(1.3, 0.2))
        calls = [[] for _ in range(4)]
        f, g = lp.f, lp.g
        counted = dataclasses.replace(
            lp,
            f=dataclasses.replace(f, d_dy=_counted(f.d_dy, calls[0]),
                                  d_dz=_counted(f.d_dz, calls[1])),
            g=dataclasses.replace(g, d_dy=_counted(g.d_dy, calls[2]),
                                  d_dz=_counted(g.d_dz, calls[3])))
        ybar, zbar = _random_reference(grid, tgrid, seed=5)
        c = linearized_coefficients(grid, tgrid, counted, ybar, zbar, n_quad=8)
        assert [len(k) for k in calls] == [8, 8, 8, 8]
        want = _separate_averages(lp, ybar, zbar, 8)
        for name, ref in zip(("a11", "a12", "a21", "a22"), want):
            assert np.array_equal(getattr(c, name), ref)
        assert np.max(np.abs(c.a12 + 0.4)) < 1e-14

    def test_quadrature_is_computed_once_per_node_count(self, pair, monkeypatch):
        grid = Grid1D(n_cells=10)
        tgrid = TimeGrid(horizon=0.2, n_steps=5)
        ybar, zbar = _random_reference(grid, tgrid, seed=7)
        calls = []
        gauss_legendre = semilinear._gauss_legendre

        def counted(n):
            calls.append(n)
            return gauss_legendre(n)

        semilinear._ray_quadrature.cache_clear()
        monkeypatch.setattr(semilinear, "_gauss_legendre", counted)
        first, again = (linearized_coefficients(grid, tgrid, pair, ybar, zbar, n_quad=9)
                        for _ in range(2))
        assert calls == [9]
        deltas, weights = semilinear._ray_quadrature(9)
        assert not deltas.flags.writeable and not weights.flags.writeable
        want = _separate_averages(pair, ybar, zbar, 9)
        for name, ref in zip(("a11", "a12", "a21", "a22"), want):
            assert np.array_equal(getattr(first, name), ref)
            assert np.array_equal(getattr(again, name), ref)

    @pytest.mark.parametrize("n", [4, 9, 32])
    def test_rule_is_gauss_legendre(self, n):
        # leggauss is the reference; the package builds the rule without it
        want_nodes, want_weights = np.polynomial.legendre.leggauss(n)
        nodes, weights = semilinear._gauss_legendre(n)
        assert np.max(np.abs(nodes - want_nodes)) <= 1e-15
        assert np.max(np.abs(weights - want_weights) / want_weights) <= 1e-12
        # exact for every polynomial of degree below 2n: the even monomials
        k = np.arange(n)
        moments = weights @ nodes[:, None] ** (2 * k)
        assert np.max(np.abs(moments * (2 * k + 1) / 2.0 - 1.0)) <= 1e-13
        deltas, ray_weights = semilinear._ray_quadrature(n)
        assert np.array_equal(deltas, 0.5 * (nodes + 1.0))
        assert np.array_equal(ray_weights, 0.5 * weights)

    def test_slots_sharing_a_partial_do_not_alias(self, pair):
        grid = Grid1D(n_cells=10)
        tgrid = TimeGrid(horizon=0.2, n_steps=5)
        ybar, zbar = _random_reference(grid, tgrid, seed=6)
        c = linearized_coefficients(grid, tgrid, pair, ybar, zbar, n_quad=8)
        slots = [c.a11, c.a12, c.a21, c.a22]
        assert not any(np.shares_memory(a, b)
                       for a, b in itertools.combinations(slots, 2))
        a12 = c.a12.copy()
        c.a11[...] = 5.0
        assert np.array_equal(c.a12, a12)

    def test_rejects_bad_reference_shape(self, pair):
        grid = Grid1D(n_cells=10)
        tgrid = TimeGrid(horizon=0.2, n_steps=5)
        with pytest.raises(ValueError, match="shape"):
            linearized_coefficients(grid, tgrid, pair,
                                    np.zeros((5, 10)), np.zeros((6, 10)))

    def test_rejects_tiny_quadrature(self, pair):
        grid = Grid1D(n_cells=10)
        tgrid = TimeGrid(horizon=0.2, n_steps=5)
        shape = (6, 10)
        with pytest.raises(ValueError, match="n_quad"):
            linearized_coefficients(grid, tgrid, pair, np.zeros(shape),
                                    np.zeros(shape), n_quad=2)


class TestCouplingFloor:
    def test_positive_floor_certified(self):
        grid = Grid1D(n_cells=10, omega_a=0.3, omega_b=0.7)
        tgrid = TimeGrid(horizon=0.1, n_steps=4)
        c = constant_coefficients(grid, tgrid, 0.0, 0.0, 0.8, 0.0)
        assert coupling_floor_check(c) == pytest.approx(0.8)

    def test_negative_sign_convention(self):
        grid = Grid1D(n_cells=10)
        tgrid = TimeGrid(horizon=0.1, n_steps=4)
        c = constant_coefficients(grid, tgrid, 0.0, 0.0, -0.5, 0.0)
        assert coupling_floor_check(c, sign=-1.0) == pytest.approx(0.5)

    def test_sign_change_inside_window_fails(self):
        grid = Grid1D(n_cells=10, omega_a=0.3, omega_b=0.7)
        tgrid = TimeGrid(horizon=0.1, n_steps=4)
        a21 = np.tile(np.linspace(-1.0, 1.0, 10), (5, 1))
        zeros = np.zeros((5, 10))
        from shadowctl.pde import CoefficientField
        c = CoefficientField(grid, tgrid, zeros, zeros, a21, zeros)
        assert coupling_floor_check(c) < 0.0


class TestFixedPointControl:
    def test_linear_reactions_converge_in_one_pass(self):
        # the linearization of a linear pair is stationary immediately
        grid = Grid1D(n_cells=30)
        tgrid = TimeGrid(horizon=0.5, n_steps=50)
        lp = make_pair(linear_form(0.3, 0.2), linear_form(1.0, 0.1))
        x = grid.cell_centers
        res = fixed_point_control(grid, tgrid, 1.0, lp,
                                  0.1 * np.cos(np.pi * x), np.full(30, 0.1))
        assert res.converged
        assert res.outer_iterations == 1
        assert not res.oscillation_flagged

    def test_zero_data_is_a_fixed_point(self, pair):
        grid = Grid1D(n_cells=20)
        tgrid = TimeGrid(horizon=0.4, n_steps=40)
        res = fixed_point_control(grid, tgrid, 1.0, pair,
                                  np.zeros(20), np.zeros(20))
        assert res.converged
        assert np.all(res.control.values == 0.0)
        assert res.terminal_total == 0.0

    def test_small_data_control(self, pair):
        grid = Grid1D(n_cells=30)
        tgrid = TimeGrid(horizon=0.5, n_steps=60)
        x = grid.cell_centers
        y0 = 0.05 * np.cos(np.pi * x)
        z0 = np.full(30, 0.05)
        cfg = FixedPointConfig(hum=HumConfig(epsilon=1e-8, cg_tol=1e-10))
        res = fixed_point_control(grid, tgrid, 1.0, pair, y0, z0, cfg)
        assert res.converged
        assert res.outer_iterations <= 10
        data_norm = float(np.hypot(np.linalg.norm(y0), np.linalg.norm(z0)))
        assert res.terminal_total <= 1e-2 * data_norm
        assert res.hum_last is not None
        assert res.cg_iterations_total >= res.outer_iterations

    def test_reported_trajectory_is_the_honest_rerun(self, pair):
        grid = Grid1D(n_cells=20)
        tgrid = TimeGrid(horizon=0.3, n_steps=30)
        x = grid.cell_centers
        y0 = 0.05 * np.cos(np.pi * x)
        z0 = np.full(20, 0.05)
        res = fixed_point_control(grid, tgrid, 1.0, pair, y0, z0)
        _assert_honest_rerun(res, pair, grid, tgrid, 1.0, y0, z0)

    def test_rising_update_takes_a_plain_step(self, pair):
        # updates 1.0, 0.45, 0.25, 1.7, ...: the rise at the fourth pass
        # rejects the mixed step, and 12 passes do not reach outer_tol
        cfg = FixedPointConfig(max_outer=12, hum=HumConfig(epsilon=1e-8))
        res, grid, tgrid, y0, z0 = _coarse_run(pair, 0.6, 1.0, 0.6, cfg)
        assert res.update_history[3] > res.update_history[2]
        assert res.oscillation_flagged
        assert not res.converged
        assert res.outer_iterations == 12
        _assert_honest_rerun(res, pair, grid, tgrid, 1.0, y0, z0)

    def test_readme_config_converges_in_five_passes(self, pair):
        # the README example; unmixed fixed-point steps take 7 passes
        res = _readme_run(pair, FixedPointConfig(hum=HumConfig(epsilon=1e-8)))
        tight = _readme_run(pair, _TIGHT)
        assert res.converged and tight.converged
        assert res.outer_iterations == 5
        cost, ref = res.hum_last.control_cost, tight.hum_last.control_cost
        assert abs(cost - ref) <= 1e-6 * ref

    def test_zero_start_doubles_the_first_factor_and_marches_once(
            self, pair, monkeypatch):
        # the zero reference linearizes to the constant origin coefficients,
        # whose doubled factor is the only one a run builds: the later passes
        # are preconditioned with it; the honest re-run of the final control
        # is the one semilinear march
        builds, marches = [], []
        factor = hum._factor_and_basis
        march = semilinear.solve_forward_semilinear

        def counting_factor(ops):
            builds.append(ops.coeffs.constant)
            return factor(ops)

        def counting_march(*args, **kwargs):
            marches.append(None)
            return march(*args, **kwargs)

        monkeypatch.setattr(hum, "_factor_and_basis", counting_factor)
        monkeypatch.setattr(semilinear, "solve_forward_semilinear", counting_march)
        res = _readme_run(pair, FixedPointConfig(hum=HumConfig(epsilon=1e-8)))
        assert builds == [True]
        assert len(marches) == 1
        assert res.update_history[0] == 1.0

    # Derandomized, so the bound is checked on the same examples every run.
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(amplitude=st.floats(0.0, 0.15), sigma=st.sampled_from([1.0, 10.0, 1000.0]))
    def test_converged_means_near_the_fixed_point(self, amplitude, sigma):
        pair = make_pair(sigmoid_family(2.0), arctan_family(1.0))
        res = _coarse_run(pair, amplitude, sigma, 0.8 * amplitude,
                          FixedPointConfig(hum=HumConfig(epsilon=1e-8)))[0]
        tight = _coarse_run(pair, amplitude, sigma, 0.8 * amplitude, _TIGHT)[0]
        assert res.converged and tight.converged
        cost, ref = res.hum_last.control_cost, tight.hum_last.control_cost
        assert abs(cost - ref) <= 1e-6 * ref

    def test_update_history_recorded(self, pair):
        grid = Grid1D(n_cells=20)
        tgrid = TimeGrid(horizon=0.3, n_steps=30)
        x = grid.cell_centers
        res = fixed_point_control(grid, tgrid, 1.0, pair,
                                  0.05 * np.cos(np.pi * x), np.full(20, 0.05))
        assert len(res.update_history) == res.outer_iterations
        assert res.update_history[-1] < 1e-6 or res.converged

    def test_deterministic(self, pair):
        grid = Grid1D(n_cells=20)
        tgrid = TimeGrid(horizon=0.3, n_steps=30)
        x = grid.cell_centers
        y0 = 0.05 * np.cos(np.pi * x)
        z0 = np.full(20, 0.05)
        a = fixed_point_control(grid, tgrid, 1.0, pair, y0, z0)
        b = fixed_point_control(grid, tgrid, 1.0, pair, y0, z0)
        assert np.array_equal(a.control.values, b.control.values)
        assert a.update_history == b.update_history


class TestFixedPointConfig:
    @pytest.mark.parametrize("kwargs", [
        {"outer_tol": 0.0},
        {"max_outer": 0},
        {"outer_tol": float("nan")},
        {"max_outer": -3},
        {"quadrature_nodes": 3},
        {"outer_tol": float("inf")},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            FixedPointConfig(**kwargs)


class _RecordedDots(np.ndarray):
    """An array whose products record the shapes of their operands."""

    shapes = []

    def __matmul__(self, other):
        _RecordedDots.shapes.append((self.shape, other.shape))
        return np.asarray(self) @ np.asarray(other)


class TestSerialDot:
    @pytest.mark.parametrize("shape", [
        (81, 128),  # the README march array: 10,368 entries, two chunks
        (64, 128),  # exactly one chunk
        (3, 5),
        (3, 8193),  # 24,579 entries: four chunks, the last of 3
    ])
    def test_chunked_dot_equals_the_dot(self, shape, monkeypatch):
        rng = np.random.default_rng(shape[1])
        a, b = rng.standard_normal((2, *shape))
        monkeypatch.setattr(_RecordedDots, "shapes", [])
        got = semilinear._serial_dot(a.view(_RecordedDots), b)
        # every partial sum of a k-term dot product errs by at most k u |a|.|b|
        bound = a.size * np.finfo(float).eps * float(np.sum(np.abs(a * b)))
        assert type(got) is float
        assert abs(got - float(np.sum(a.astype(np.longdouble) * b))) <= bound
        chunks = _RecordedDots.shapes
        assert [shape_a for shape_a, _ in chunks] == [shape_b for _, shape_b in chunks]
        assert sum(size for (size,), _ in chunks) == a.size
        assert all(size <= semilinear._SERIAL_DOT for (size,), _ in chunks)
        assert semilinear._SERIAL_DOT <= 10_000
