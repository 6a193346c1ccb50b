"""End-to-end acceptance gate for the controllability toolkit.

Ten criteria, one per test, covering the discrete duality identities, the
Gramian structure, the penalized-control identity and its uniform-in-penalty
behaviour, uniform-in-sigma control costs, the semilinear fixed-point scheme,
the shadow-limit convergence rate, the fast-flow scaling measurements, the
weight/constant bookkeeping, and the linearization quadrature.  Each test
prints exactly one ``[ACn] PASS/FAIL`` line with the measured numbers before
asserting, so a plain ``pytest -s tests/test_acceptance.py`` reads as a
checklist.  Run with ``-p no:randomly`` semantics in mind: every test seeds
its own generator and is order-independent.
"""

import numpy as np
import pytest

from shadowctl.experiments import (
    measure_m1_scaling,
    measure_m2_scaling,
    sigma_sweep,
)
from shadowctl.hum import (
    HumConfig,
    duality_residual,
    epsilon_sweep,
    gramian_apply,
    hum_solve,
)
from shadowctl.mesh import Grid1D, TimeGrid, norm_l2
from shadowctl.nonlinear import arctan_family, make_pair, sigmoid_family
from shadowctl.pde import (
    CoefficientField,
    ControlField,
    StepOperators,
    constant_coefficients,
    control_cost,
    semigroup_checks,
    solve_adjoint,
    solve_forward_linear,
)
from shadowctl.semilinear import (
    FixedPointConfig,
    fixed_point_control,
    linearized_coefficients,
)
from shadowctl.theory import (
    build_weights,
    observability_constant,
    weight_inequality_checks,
)


def _report(tag, ok, detail):
    print(f"[{tag}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def _standard_problem(n=50, m=100):
    grid = Grid1D(n_cells=n, omega_a=0.3, omega_b=0.7)
    tgrid = TimeGrid(horizon=0.5, n_steps=m)
    x = grid.cell_centers
    y0 = 0.1 * np.cos(np.pi * x)
    z0 = np.full(n, 0.1)
    return grid, tgrid, y0, z0


def test_ac01_duality_identity_on_random_problems():
    """Forward/adjoint pairing exact on 20 random linear problems; a dual
    marched against the wrong coupling is flagged by a visible margin."""
    grid, tgrid, _, _ = _standard_problem()
    rng = np.random.default_rng(101)
    shape = (tgrid.n_steps + 1, grid.n_cells)
    worst = 0.0
    for k in range(20):
        sigma = 1.0 if k % 2 == 0 else 100.0
        coeffs = CoefficientField(grid, tgrid,
                                  *(rng.uniform(-0.5, 0.5, shape)
                                    for _ in range(4)))
        control = ControlField(grid, tgrid,
                               rng.standard_normal((tgrid.n_steps, grid.n_cells)))
        y0, z0 = rng.standard_normal((2, grid.n_cells))
        state = solve_forward_linear(StepOperators(sigma, coeffs), control, y0, z0)
        dual = solve_adjoint(StepOperators(sigma, coeffs),
                             *rng.standard_normal((2, grid.n_cells)))
        worst = max(worst, duality_residual(control, state, dual))

    # fault injection: swap the coupling blocks in the dual march only
    good = constant_coefficients(grid, tgrid, 0.2, 0.8, -0.3, 0.1)
    swapped = constant_coefficients(grid, tgrid, 0.2, -0.3, 0.8, 0.1)
    control = ControlField(grid, tgrid,
                           rng.standard_normal((tgrid.n_steps, grid.n_cells)))
    y0, z0 = rng.standard_normal((2, grid.n_cells))
    state = solve_forward_linear(StepOperators(1.0, good), control, y0, z0)
    bad_dual = solve_adjoint(StepOperators(1.0, swapped),
                             *rng.standard_normal((2, grid.n_cells)))
    fault = duality_residual(control, state, bad_dual)

    ok = worst <= 1e-10 and fault > 1e-6
    _report("AC1", ok,
            f"worst residual {worst:.2e} <= 1e-10 over 20 problems, "
            f"fault-injected dual flagged at {fault:.2e} > 1e-6")
    assert worst <= 1e-10
    assert fault > 1e-6


def test_ac02_gramian_symmetry_and_cost_identity():
    """Lambda is symmetric and PSD on random probes and its quadratic form
    equals the windowed observation cost squared."""
    grid, tgrid, _, _ = _standard_problem()
    coeffs = constant_coefficients(grid, tgrid, 0.0, 0.0, 1.0, 0.0)
    rng = np.random.default_rng(202)
    n2 = 2 * grid.n_cells
    sym_worst, neg_worst, id_worst = 0.0, 0.0, 0.0
    for _ in range(10):
        a, b = rng.standard_normal((2, n2))
        la = gramian_apply(StepOperators(1.0, coeffs), a)
        lb = gramian_apply(StepOperators(1.0, coeffs), b)
        lhs, rhs = float(np.dot(la, b)), float(np.dot(a, lb))
        sym_worst = max(sym_worst,
                        abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0))
        quad = float(np.dot(la, a))
        neg_worst = max(neg_worst, -quad / max(abs(quad), 1.0))
        dual = solve_adjoint(StepOperators(1.0, coeffs),
                             a[:grid.n_cells], a[grid.n_cells:])
        observed = ControlField(grid, tgrid, dual.y[:-1])
        cost_sq = control_cost(observed) ** 2
        id_worst = max(id_worst,
                       abs(grid.spacing * quad - cost_sq) / cost_sq)

    ok = sym_worst <= 1e-10 and neg_worst <= 1e-10 and id_worst <= 1e-10
    _report("AC2", ok,
            f"symmetry defect {sym_worst:.2e}, worst negative Ritz "
            f"{neg_worst:.2e}, cost-identity defect {id_worst:.2e}, "
            f"all <= 1e-10 on 10 probes")
    assert sym_worst <= 1e-10
    assert neg_worst <= 1e-10
    assert id_worst <= 1e-10


def test_ac03_penalized_terminal_identity():
    """u_eps(T) = eps * pT holds up to the normal-equation solver tolerance."""
    grid, tgrid, y0, z0 = _standard_problem()
    coeffs = constant_coefficients(grid, tgrid, 0.0, 0.0, 1.0, 0.0)
    cg_tol = 1e-9
    data_norm = float(np.sqrt(np.dot(y0, y0) + np.dot(z0, z0)))
    bound = 10.0 * cg_tol * data_norm
    defects = {}
    for eps in (1e-4, 1e-6):
        res = hum_solve(StepOperators(1.0, coeffs), y0, z0,
                        HumConfig(epsilon=eps, cg_tol=cg_tol))
        assert res.cg_converged
        traj = solve_forward_linear(StepOperators(1.0, coeffs),
                                    res.control, y0, z0)
        u_t = np.concatenate([traj.y[-1], traj.z[-1]])
        defects[eps] = float(np.linalg.norm(u_t - eps * res.adjoint_terminal))

    ok = all(d <= bound for d in defects.values())
    _report("AC3", ok,
            "terminal identity defect "
            + ", ".join(f"{d:.2e} (eps={e:.0e})" for e, d in defects.items())
            + f" <= 10*cg_tol*||data|| = {bound:.2e}")
    for d in defects.values():
        assert d <= bound


def test_ac04_cost_stabilizes_as_penalty_vanishes():
    """Control cost varies < 10% over the last three penalty decades and
    terminal/sqrt(eps) does not grow through them."""
    grid = Grid1D(n_cells=100, omega_a=0.3, omega_b=0.7)
    tgrid = TimeGrid(horizon=0.5, n_steps=200)
    coeffs = constant_coefficients(grid, tgrid, 1.0, 1.0, 1.0, 1.0)
    x = grid.cell_centers
    y0 = 0.1 * np.cos(np.pi * x)
    z0 = np.full(grid.n_cells, 0.1)
    rep = epsilon_sweep(StepOperators(1.0, coeffs), y0, z0,
                        (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6),
                        HumConfig(cg_tol=1e-9))
    spread = rep.cost_spread_last3
    growing = rep.ratio_strictly_increasing_last3

    ok = spread < 0.10 and not growing
    _report("AC4", ok,
            f"cost spread over final three decades {spread:.4f} < 0.10, "
            f"terminal/sqrt(eps) strictly increasing: {growing}")
    assert spread < 0.10
    assert not growing


def test_ac05_cost_uniform_in_sigma():
    """Frozen-coefficient control cost stays within 1.5x across three decades
    of sigma and the scaled gradient energy never exceeds twice its sigma=1
    value."""
    grid = Grid1D(n_cells=100, omega_a=0.3, omega_b=0.7)
    tgrid = TimeGrid(horizon=0.5, n_steps=400)
    x = grid.cell_centers
    y0 = 0.1 * np.cos(np.pi * x)
    z0 = np.full(grid.n_cells, 0.1)
    pair = make_pair(sigmoid_family(2.0), arctan_family(1.0))
    rep = sigma_sweep(grid, tgrid, (1.0, 10.0, 100.0, 1000.0), pair,
                      y0, z0, mode="linear")
    assert all(row.converged for row in rep.rows)
    costs = [row.control_cost for row in rep.rows]
    grads = [row.sigma_grad_z for row in rep.rows]
    cost_ratio = max(costs) / min(costs)
    grad_ratio = max(grads) / grads[0]

    ok = cost_ratio <= 1.5 and grad_ratio <= 2.0
    _report("AC5", ok,
            f"cost max/min {cost_ratio:.4f} <= 1.5, "
            f"sigma-scaled gradient energy ratio {grad_ratio:.4f} <= 2.0 "
            f"over sigma in (1, 10, 100, 1000)")
    assert cost_ratio <= 1.5
    assert grad_ratio <= 2.0


def test_ac06_semilinear_fixed_point_controls_small_data():
    """The linearize-control-relinearize loop converges within 30 outer
    iterations and the honest semilinear terminal is three orders below the
    data."""
    grid, tgrid, _, _ = _standard_problem()
    x = grid.cell_centers
    y0 = 0.1 * np.cos(np.pi * x)
    z0 = 0.1 * np.cos(np.pi * x)
    pair = make_pair(sigmoid_family(2.0), arctan_family(1.0))
    res = fixed_point_control(grid, tgrid, 1.0, pair, y0, z0,
                              FixedPointConfig(hum=HumConfig(epsilon=1e-8,
                                                             cg_tol=1e-10)))
    data_norm = float(np.hypot(norm_l2(grid, y0), norm_l2(grid, z0)))

    ok = (res.converged and res.outer_iterations <= 30
          and res.terminal_total <= 1e-3 * data_norm)
    _report("AC6", ok,
            f"converged={res.converged} in {res.outer_iterations} outer "
            f"iterations, semilinear terminal {res.terminal_total:.2e} <= "
            f"1e-3 * ||data|| = {1e-3 * data_norm:.2e}")
    assert res.converged
    assert res.outer_iterations <= 30
    assert res.terminal_total <= 1e-3 * data_norm


def test_ac07_shadow_gap_shrinks_with_sigma():
    """The controlled fast component approaches the reduced scalar model as
    sigma grows, at roughly first-order rate, and the reduced terminal tracks
    the nulling target."""
    grid, tgrid, _, _ = _standard_problem()
    x = grid.cell_centers
    y0 = 0.1 * np.cos(np.pi * x)
    z0 = np.full(grid.n_cells, 0.1)
    pair = make_pair(sigmoid_family(2.0), arctan_family(1.0))
    rep = sigma_sweep(grid, tgrid, (1.0, 10.0, 100.0, 1000.0), pair,
                      y0, z0, mode="semilinear")
    assert all(row.converged for row in rep.rows)
    data_norm = float(np.hypot(norm_l2(grid, y0), norm_l2(grid, z0)))
    last = rep.rows[-1]
    xi_bound = max(1e-3 * data_norm, 2.0 * last.shadow_gap)

    ok = (rep.gap_strictly_decreasing
          and -1.3 <= rep.gap_slope <= -0.4
          and abs(last.xi_terminal) <= xi_bound)
    _report("AC7", ok,
            f"gap strictly decreasing={rep.gap_strictly_decreasing}, "
            f"log-log slope {rep.gap_slope:.3f} in [-1.3, -0.4], "
            f"|xi(T)| {abs(last.xi_terminal):.2e} <= {xi_bound:.2e} "
            f"at sigma=1000")
    assert rep.gap_strictly_decreasing
    assert -1.3 <= rep.gap_slope <= -0.4
    assert abs(last.xi_terminal) <= xi_bound


def test_ac08_fast_flow_structure_and_scaling():
    """Constants are exact equilibria, the first-mode decay exponent is
    recovered within 2%, the initial-layer measurement scales like
    sigma^(-1/2), and the mean-free response accumulates at a faster rate."""
    grid = Grid1D(n_cells=100, omega_a=0.3, omega_b=0.7)
    checks = [semigroup_checks(grid, TimeGrid(horizon=0.5, n_steps=250), 1.0),
              semigroup_checks(grid, TimeGrid(horizon=0.005, n_steps=250),
                               100.0)]
    const_worst = max(c.constant_error for c in checks)
    exp_worst = max(c.exponent_rel_error for c in checks)

    x = grid.cell_centers
    z0 = np.full(grid.n_cells, 0.1) + 0.05 * np.cos(np.pi * x)
    m1 = measure_m1_scaling(grid, (1.0, 4.0, 16.0, 64.0), z0)
    pair = make_pair(sigmoid_family(2.0), arctan_family(1.0))
    y0 = 0.1 * np.cos(np.pi * x)
    m2 = measure_m2_scaling(grid, (1.0, 10.0, 100.0), pair, y0,
                            np.full(grid.n_cells, 0.1))

    ok = (const_worst <= 1e-12 and exp_worst <= 0.02
          and abs(m1.slope + 0.5) <= 0.15 * 0.5
          and -1.3 <= m2.slope <= -0.7)
    _report("AC8", ok,
            f"constant preservation {const_worst:.1e} <= 1e-12, decay "
            f"exponent off by {exp_worst:.2%} <= 2%, layer slope "
            f"{m1.slope:.4f} within 15% of -1/2, response slope "
            f"{m2.slope:.4f} in [-1.3, -0.7]")
    assert const_worst <= 1e-12
    assert exp_worst <= 0.02
    assert abs(m1.slope + 0.5) <= 0.15 * 0.5
    assert -1.3 <= m2.slope <= -0.7


def test_ac09_constants_and_weight_inequalities():
    """Closed-form constants are reproduced exactly, grow with each
    coefficient norm, and the sampled weight inequalities hold at the
    auto-selected lambda while a deliberately tiny lambda is flagged."""
    base = observability_constant(1.0)
    loaded = observability_constant(2.0, (1.0, 1.0, 1.0, 1.0))
    exact = (base.K == 2.0 and base.K_energy == 2.0
             and loaded.K == 10.5 and loaded.K_energy == 15.0)

    monotone = True
    for slot in range(4):
        norms = [0.0] * 4
        norms[slot] = 1.0
        bumped = observability_constant(1.0, tuple(norms))
        monotone = monotone and bumped.K > base.K and bumped.K_energy > base.K_energy

    good = weight_inequality_checks(build_weights(1.0))
    bad = weight_inequality_checks(build_weights(1.0, lam=0.01))
    # the sandwich bound touches with equality at its tightest lattice point,
    # so its margin is exactly zero; the other three hold strictly
    violations = (good.envelope_violation, good.eighth_power_violation,
                  good.lower_bound_violation)

    ok = (exact and monotone and good.all_ok
          and all(v < 0.0 for v in violations)
          and good.sandwich_violation <= 0.0
          and not bad.envelope_ok and bad.envelope_violation > 0.0)
    _report("AC9", ok,
            f"K/K_energy exact ({base.K}, {base.K_energy}, {loaded.K}, "
            f"{loaded.K_energy}), monotone in every norm={monotone}, default "
            f"lambda={good.lam:g} all_ok={good.all_ok}, lambda=0.01 flagged "
            f"with violation {bad.envelope_violation:.2e} > 0")
    assert exact
    assert monotone
    assert good.all_ok and all(v < 0.0 for v in violations)
    assert good.sandwich_violation <= 0.0
    assert not bad.envelope_ok and bad.envelope_violation > 0.0


def test_ac10_linearization_taylor_identity():
    """Ray-averaged coefficients reproduce the nonlinearity on random bounded
    references to 1e-8 at 32 nodes, improving monotonically under
    refinement."""
    grid = Grid1D(n_cells=25)
    tgrid = TimeGrid(horizon=0.3, n_steps=20)
    pair = make_pair(sigmoid_family(2.0), arctan_family(1.0))
    rng = np.random.default_rng(1010)
    shape = (tgrid.n_steps + 1, grid.n_cells)
    ybar, zbar = (rng.uniform(-2.0, 2.0, shape) for _ in range(2))

    defects = []
    for nq in (8, 16, 32):
        c = linearized_coefficients(grid, tgrid, pair, ybar, zbar, nq)
        f_defect = np.max(np.abs(c.a11 * ybar + c.a12 * zbar
                                 - pair.f.value(ybar, zbar)))
        g_defect = np.max(np.abs(c.a21 * ybar + c.a22 * zbar
                                 - pair.g.value(ybar, zbar)))
        defects.append(float(max(f_defect, g_defect)))

    ok = defects[-1] <= 1e-8 and defects[0] > defects[1] > defects[2]
    _report("AC10", ok,
            f"Taylor defect {defects[-1]:.2e} <= 1e-8 at 32 nodes, "
            f"monotone refinement {defects[0]:.1e} > {defects[1]:.1e} > "
            f"{defects[2]:.1e}")
    assert defects[-1] <= 1e-8
    assert defects[0] > defects[1] > defects[2]
