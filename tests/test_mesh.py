import numpy as np
import pytest

from shadowctl.mesh import (Grid1D, TimeGrid, _cosine_basis, _laplacian_stencil,
                            fit_slope, inner_product, mean_value, norm_l2)


def _dense_laplacian(grid):
    # the stencil the solvers write into band storage, as a dense matrix
    main, off = _laplacian_stencil(grid)
    return np.diag(main) + np.diag(off, 1) + np.diag(off, -1)


def test_grid_basic_layout():
    grid = Grid1D(n_cells=4, omega_a=0.25, omega_b=0.75)
    assert grid.spacing == 0.25
    assert np.allclose(grid.cell_centers, [0.125, 0.375, 0.625, 0.875])
    assert np.array_equal(grid.omega_indicator, [0.0, 1.0, 1.0, 0.0])


def test_grid_indicator_aligned():
    grid = Grid1D(n_cells=10, omega_a=0.3, omega_b=0.7)
    expected = np.zeros(10)
    expected[3:7] = 1.0
    assert np.array_equal(grid.omega_indicator, expected)


def test_grid_indicator_cut_cell():
    # cell 2 spans (0.2, 0.3); omega starts at 0.25 -> half covered
    grid = Grid1D(n_cells=10, omega_a=0.25, omega_b=0.7)
    ind = grid.omega_indicator
    assert ind[2] == pytest.approx(0.5, abs=1e-15)
    assert np.array_equal(ind[3:7], np.ones(4))
    assert ind[0] == ind[1] == 0.0
    assert np.all(ind[7:] == 0.0)


@pytest.mark.parametrize("n_cells,omega", [
    (3, (0.3, 0.7)),       # too few cells
    (10, (0.7, 0.3)),      # reversed window
    (10, (0.0, 0.5)),      # touches the boundary
    (10, (0.5, 1.0)),
    (100, (0.5, 0.5000000000000001)),   # window covers no cell
    (40, (0.3, 0.30000000001)),         # 4e-10 of a cell
    (40, (0.325 - 1e-8, 0.325 + 1e-8)), # 8e-7 of a cell, across a cell edge
])
def test_grid_rejects_bad_arguments(n_cells, omega):
    with pytest.raises(ValueError):
        Grid1D(n_cells=n_cells, omega_a=omega[0], omega_b=omega[1])


def test_grid_accepts_a_window_just_above_the_minimum_mass():
    grid = Grid1D(n_cells=40, omega_a=0.3, omega_b=0.3 + 5e-8)   # 2e-6 of a cell
    assert np.sum(grid.omega_indicator) == pytest.approx(2e-6, rel=1e-6)


def test_grid_spacing_times_cells_is_one():
    for n in (4, 7, 100, 333):
        grid = Grid1D(n_cells=n)
        assert grid.spacing * grid.n_cells == pytest.approx(1.0, rel=1e-15)


def test_time_grid():
    tg = TimeGrid(horizon=0.5, n_steps=200)
    assert tg.dt == pytest.approx(0.0025)
    assert len(tg.nodes) == 201
    assert tg.nodes[0] == 0.0
    assert tg.nodes[-1] == pytest.approx(0.5)
    assert np.allclose(np.diff(tg.nodes), tg.dt)
    with pytest.raises(ValueError):
        TimeGrid(horizon=0.0, n_steps=10)
    with pytest.raises(ValueError, match="finite"):
        TimeGrid(horizon=np.inf, n_steps=10)
    with pytest.raises(ValueError):
        TimeGrid(horizon=1.0, n_steps=0)


class TestNeumannLaplacian:
    def test_constant_in_kernel(self):
        grid = Grid1D(n_cells=50)
        lap = _dense_laplacian(grid)
        c = 3.7 * np.ones(50)
        # rows summed product by product: a BLAS matvec may fuse multiply
        # and add, and round 2500 * 3.7 differently in each term
        assert np.max(np.abs(np.sum(lap * c, axis=1))) == 0.0

    def test_row_sums_exactly_zero(self):
        lap = _dense_laplacian(Grid1D(n_cells=33))
        sums = lap.sum(axis=1)
        assert np.max(np.abs(sums)) == 0.0

    def test_symmetric(self):
        dense = _dense_laplacian(Grid1D(n_cells=21))
        assert np.max(np.abs(dense - dense.T)) == 0.0

    def test_negative_semidefinite(self):
        dense = _dense_laplacian(Grid1D(n_cells=40))
        eigs = np.linalg.eigvalsh(dense)
        assert eigs.max() <= 1e-12 * abs(eigs.min())

    def test_smallest_nonzero_eigenvalue_near_pi_squared(self):
        # analytic spectrum of -L: (2/h^2)(1 - cos(k pi / n)) -> (k pi)^2
        grid = Grid1D(n_cells=200)
        dense = -_dense_laplacian(grid)
        eigs = np.sort(np.linalg.eigvalsh(dense))
        assert abs(eigs[0]) <= 1e-9
        assert eigs[1] == pytest.approx(np.pi**2, rel=5e-3)

    def test_green_identity_exact(self):
        grid = Grid1D(n_cells=37)
        lap = _dense_laplacian(grid)
        rng = np.random.default_rng(7)
        for _ in range(5):
            u = rng.standard_normal(37)
            v = rng.standard_normal(37)
            lhs = inner_product(grid, lap @ u, v)
            rhs = inner_product(grid, u, lap @ v)
            scale = max(abs(lhs), abs(rhs), 1.0)
            assert abs(lhs - rhs) <= 1e-13 * scale

    def test_mean_of_laplacian_vanishes(self):
        grid = Grid1D(n_cells=64)
        lap = _dense_laplacian(grid)
        rng = np.random.default_rng(3)
        u = rng.standard_normal(64)
        assert abs(mean_value(grid, lap @ u)) <= 1e-12 * norm_l2(grid, lap @ u)

    @pytest.mark.parametrize("n", [4, 5, 64])
    def test_cosine_basis_diagonalizes_the_stencil(self, n):
        # C^T C = I and C^T L C = -diag(mu) with the closed-form mu, to
        # round-off on the scale of the largest eigenvalue 4 / h^2
        grid = Grid1D(n_cells=n)
        c, mu = _cosine_basis(n)
        assert not c.flags.writeable and not mu.flags.writeable
        lap = _dense_laplacian(grid)
        k = np.arange(n)
        assert mu[0] == 0.0
        assert np.allclose(mu, 4 * n**2 * np.sin(np.pi * k / (2 * n))**2,
                           rtol=1e-14, atol=0.0)
        assert np.max(np.abs(c.T @ c - np.eye(n))) <= 4 * n * 2.2e-16
        assert np.max(np.abs(c.T @ lap @ c + np.diag(mu))) <= 4 * n * 2.2e-16 * 4 * n**2

    def test_cli_import_does_not_load_scipy_sparse(self, fresh_python):
        # the solvers take the stencil in band storage and nothing in the
        # package needs scipy.sparse, so the commands do not pay for its import
        out = fresh_python(
            "import shadowctl.cli, sys; print('scipy.sparse' in sys.modules)")
        assert out.strip() == "False"


class TestQuadrature:
    def test_inner_product_of_ones(self):
        grid = Grid1D(n_cells=123)
        ones = np.ones(123)
        assert inner_product(grid, ones, ones) == pytest.approx(1.0, rel=1e-14)

    def test_cosine_against_ones_cancels(self):
        grid = Grid1D(n_cells=200)
        u = np.cos(np.pi * grid.cell_centers)
        assert abs(inner_product(grid, u, np.ones(200))) <= 1e-12

    def test_cosine_squared_is_half(self):
        grid = Grid1D(n_cells=200)
        u = np.cos(np.pi * grid.cell_centers)
        # midpoint quadrature of cos^2 is exact up to round-off here: the
        # oscillatory part sums to zero on a uniform lattice
        assert inner_product(grid, u, u) == pytest.approx(0.5, abs=1e-12)

    def test_mean_value_constant(self):
        grid = Grid1D(n_cells=17)
        assert mean_value(grid, np.full(17, -2.5)) == pytest.approx(-2.5, rel=1e-14)

    def test_mean_value_cosine(self):
        grid = Grid1D(n_cells=200)
        assert abs(mean_value(grid, np.cos(np.pi * grid.cell_centers))) <= 1e-12

    def test_mean_value_linear(self):
        grid = Grid1D(n_cells=200)
        assert mean_value(grid, grid.cell_centers) == pytest.approx(0.5, abs=1e-12)

    def test_shape_mismatch_rejected(self):
        grid = Grid1D(n_cells=10)
        with pytest.raises(ValueError):
            inner_product(grid, np.ones(10), np.ones(9))


class TestFitSlope:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_polyfit(self, seed):
        # np.polyfit is the reference; the package fits without it
        rng = np.random.default_rng(seed)
        x = rng.uniform(-3.0, 7.0, 50)
        y = rng.uniform(-2.0, 2.0) * x + rng.standard_normal(50)
        assert abs(fit_slope(x, y) - np.polyfit(x, y, 1)[0]) <= 1e-12

    def test_exact_on_a_power_law(self):
        x = np.log(np.logspace(0.0, 3.0, 7))
        assert fit_slope(x, np.log(4.0) - 0.5 * x) == pytest.approx(-0.5, abs=1e-15)
