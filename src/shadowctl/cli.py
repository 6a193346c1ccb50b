"""Command-line entry point.

Usage::

    shadowctl <command> --config <path> [--out <dir>] [--seed <u64>] [--jobs 1]

Commands: ``hum`` (linearized nulling control), ``semilinear`` (fixed-point
control), ``shadow`` (full-vs-reduced comparison at one diffusion ratio),
``sweep`` (per-sigma study), ``weights`` (singular weight and constant
report), ``check-hypotheses`` (structure checks on the configured reaction
pair), ``selftest`` (fast invariant suite).

Exit status: 0 on success, 1 on solver or check failure, 2 on configuration
errors and on artifacts that cannot be written.  Sweep rows run one after
another; ``--jobs`` is kept for compatibility and accepts only 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from functools import cache
from pathlib import Path

import numpy as np

from . import io as sio
from .config import (ConfigError, RunConfig, build_fixed_point_config,
                     build_grid, build_hum_config, build_initial_data,
                     build_pair, build_tgrid, load_config, serialize_config)
from .experiments import _gap_series, _sweep_row, control_and_reduce, sigma_sweep
from .hum import duality_residual, gramian_apply, hum_solve
from .mesh import Grid1D, TimeGrid
from .nonlinear import arctan_family, check_hypotheses, make_pair, sigmoid_family
from .pde import (CoefficientField, ControlField, StepOperators,
                  semigroup_checks, solve_adjoint, solve_forward_linear)
from .semilinear import (fixed_point_control, linearized_coefficients,
                         origin_coefficients)
from .theory import build_weights, observability_constant, weight_inequality_checks

__all__ = ["main"]


def _norm_history(traj) -> np.ndarray:
    h = traj.grid.spacing
    return np.sqrt(h * (np.sum(traj.y ** 2, axis=1) + np.sum(traj.z ** 2, axis=1)))


def _dump_trajectory(out: Path, cfg: RunConfig, traj, control) -> None:
    if "csv" in cfg.output_formats:
        sio.write_trajectory_csv(out / "trajectory.csv", traj)
        if control is not None:
            sio.write_control_csv(out / "control.csv", control)
    if "binary" in cfg.output_formats:
        sio.write_fields_binary(out / "trajectory.bin", sio.trajectory_fields(traj))
        if control is not None:
            sio.write_fields_binary(out / "control.bin", sio.control_fields(control))


def _problem(cfg: RunConfig):
    """(grid, tgrid, pair, y0, z0) of the configured problem."""
    grid, tgrid, pair = build_grid(cfg), build_tgrid(cfg), build_pair(cfg)
    return (grid, tgrid, pair, *build_initial_data(cfg, grid))


def _cmd_hum(cfg: RunConfig, out: Path, seed: int) -> int:
    """solve one penalized nulling problem with frozen coefficients"""
    grid, tgrid, pair, y0, z0 = _problem(cfg)
    ops = StepOperators(cfg.problem_sigma, origin_coefficients(grid, tgrid, pair))
    result = hum_solve(ops, y0, z0, build_hum_config(cfg))
    traj = result.trajectory
    report = {
        "epsilon": result.epsilon,
        "control_cost": result.control_cost,
        "terminal_norm_y": result.terminal_y,
        "terminal_norm_z": result.terminal_z,
        "terminal_norm_total": result.terminal_total,
        "free_terminal_norm": result.free_terminal_norm,
        "cg_iterations": result.cg_iterations,
        "cg_converged": result.cg_converged,
        "residual_monotone": result.residual_monotone,
        "duality_residual": result.duality_residual,
        "command": "hum",
        "sigma": cfg.problem_sigma,
    }
    sio.write_json_report(out / "report.json", report)
    _dump_trajectory(out, cfg, traj, result.control)
    sio.write_series_dat(out / "state_norm.dat", tgrid.nodes,
                         _norm_history(traj), header="t state_norm")
    print(f"hum: cost={result.control_cost:.6g} "
          f"terminal={result.terminal_total:.6g} "
          f"cg_iterations={result.cg_iterations}")
    return 0 if result.cg_converged else 1


def _cmd_semilinear(cfg: RunConfig, out: Path, seed: int) -> int:
    """run the fixed-point control scheme on the semilinear system"""
    grid, tgrid, pair, y0, z0 = _problem(cfg)
    result = fixed_point_control(grid, tgrid, cfg.problem_sigma, pair, y0, z0,
                                 build_fixed_point_config(cfg))
    report = {
        "command": "semilinear",
        "sigma": cfg.problem_sigma,
        "converged": result.converged,
        "outer_iterations": result.outer_iterations,
        "update_history": list(result.update_history),
        "coupling_floor": list(result.coupling_floor),
        "oscillation_flagged": result.oscillation_flagged,
        "control_cost": result.hum_last.control_cost,
        "terminal_norm_y": result.terminal_y,
        "terminal_norm_z": result.terminal_z,
        "terminal_norm_total": result.terminal_total,
        "cg_iterations_total": result.cg_iterations_total,
    }
    sio.write_json_report(out / "report.json", report)
    _dump_trajectory(out, cfg, result.trajectory, result.control)
    sio.write_series_dat(out / "state_norm.dat", tgrid.nodes,
                         _norm_history(result.trajectory),
                         header="t state_norm")
    sio.write_series_dat(out / "updates.dat",
                         np.arange(1, len(result.update_history) + 1),
                         np.asarray(result.update_history),
                         header="iteration relative_update")
    print(f"semilinear: converged={result.converged} "
          f"outer={result.outer_iterations} "
          f"terminal={result.terminal_total:.6g}")
    return 0 if result.converged else 1


def _cmd_shadow(cfg: RunConfig, out: Path, seed: int) -> int:
    """compare the controlled fast component with its reduced model"""
    grid, tgrid, pair, y0, z0 = _problem(cfg)
    run = control_and_reduce(grid, tgrid, cfg.problem_sigma, cfg.problem_mode, pair,
                             y0, z0, build_fixed_point_config(cfg))
    t0 = cfg.experiment_t0_fraction * tgrid.horizon
    row = _sweep_row(run, cfg.problem_sigma, t0)
    report = {
        "command": "shadow",
        "sigma": row.sigma,
        "mode": cfg.problem_mode,
        "t0": t0,
        "shadow_gap": row.shadow_gap,
        "xi_terminal": row.xi_terminal,
        "terminal_norm_y": row.terminal_norm_y,
        "terminal_norm_z": row.terminal_norm_z,
        "converged": row.converged,
    }
    sio.write_json_report(out / "report.json", report)
    _dump_trajectory(out, cfg, run.trajectory, run.control)
    sio.write_series_dat(out / "gap.dat", tgrid.nodes,
                         _gap_series(run.trajectory, run.xi), header="t gap")
    print(f"shadow: sigma={row.sigma:g} gap={row.shadow_gap:.6g} "
          f"xi(T)={row.xi_terminal:.6g}")
    return 0 if row.converged else 1


def _cmd_sweep(cfg: RunConfig, out: Path, seed: int) -> int:
    """recompute the control across the configured sigma list"""
    grid, tgrid, pair, y0, z0 = _problem(cfg)
    report = sigma_sweep(grid, tgrid, cfg.problem_sigma_list, pair, y0, z0,
                         mode=cfg.problem_mode,
                         t0_fraction=cfg.experiment_t0_fraction,
                         fp_config=build_fixed_point_config(cfg))
    rows = [dataclasses.asdict(r) for r in report.rows]
    payload = {
        "command": "sweep",
        "mode": report.mode,
        "t0": report.t0,
        "gap_slope": report.gap_slope,
        "gap_strictly_decreasing": report.gap_strictly_decreasing,
        "cost_ratio": report.cost_ratio,
        "grad_bound_ratio": report.grad_bound_ratio,
        "control_deltas": list(report.control_deltas),
        "rows": rows,
    }
    sio.write_json_report(out / "sweep.json", payload)
    sio.write_rows_csv(out / "sweep_rows.csv", rows)
    sigmas = np.array([r.sigma for r in report.rows])
    sio.write_series_dat(out / "cost_vs_sigma.dat", sigmas,
                         np.array([r.control_cost for r in report.rows]),
                         header="sigma control_cost")
    sio.write_series_dat(out / "gap_vs_sigma.dat", sigmas,
                         np.array([r.shadow_gap for r in report.rows]),
                         header="sigma shadow_gap")
    ok = all(r.converged for r in report.rows)
    print(f"sweep: {len(rows)} rows, gap_slope={report.gap_slope:.3f}, "
          f"cost_ratio={report.cost_ratio:.3f}")
    return 0 if ok else 1


def _cmd_weights(cfg: RunConfig, out: Path, seed: int) -> int:
    """build weights and constants for the configured horizon and check them"""
    horizon = cfg.time_horizon
    w = build_weights(horizon)
    consts = observability_constant(horizon)
    checks = weight_inequality_checks(w)
    report = {
        "command": "weights",
        "horizon": horizon,
        "lambda": w.lam,
        "s": w.s,
        "eta_max": w.eta_max,
        "m0": w.m0,
        "M0": w.big_m0,
        "m0_tilde": w.m0_tilde,
        "M0_tilde": w.big_m0_tilde,
        "K": consts.K,
        "K_energy": consts.K_energy,
        "checks": {
            "envelope_ok": checks.envelope_ok,
            "lambda_threshold": checks.lambda_threshold,
            "eighth_power_ok": checks.eighth_power_ok,
            "eighth_power_violation": checks.eighth_power_violation,
            "lower_bound_ok": checks.lower_bound_ok,
            "lower_bound_violation": checks.lower_bound_violation,
            "preconditions_ok": checks.preconditions_ok,
            "sandwich_ok": checks.sandwich_ok,
            "all_ok": checks.all_ok,
        },
    }
    text_path = sio.write_json_report(out / "weights.json", report)
    print(text_path.read_text(), end="")
    return 0 if checks.all_ok else 1


def _cmd_check_hypotheses(cfg: RunConfig, out: Path, seed: int) -> int:
    """sample the structural hypotheses of the configured nonlinearities"""
    pair = build_pair(cfg)
    report = check_hypotheses(pair, seed=seed)
    payload = {"command": "check-hypotheses", **report.to_dict()}
    sio.write_json_report(out / "hypotheses.json", payload)
    status = "ok" if report.ok else "VIOLATIONS: " + "; ".join(report.violations)
    print(f"check-hypotheses: {status}")
    return 0 if report.ok else 1


def _selftest_cases() -> list[tuple[str, bool, str]]:
    rng = np.random.default_rng(0)
    rows: list[tuple[str, bool, str]] = []

    grid = Grid1D(n_cells=24)
    tgrid = TimeGrid(horizon=0.4, n_steps=40)
    n, M = grid.n_cells, tgrid.n_steps
    fields = 0.8 * rng.standard_normal((4, M + 1, n))
    ops = StepOperators(3.0, CoefficientField(grid, tgrid, *fields))
    control = ControlField(grid, tgrid, rng.standard_normal((M, n)))
    y0, z0 = rng.standard_normal(n), rng.standard_normal(n)
    state = solve_forward_linear(ops, control, y0, z0)
    pT = rng.standard_normal(ops.size)
    dual = solve_adjoint(ops, pT)
    res = duality_residual(control, state, dual)
    rows.append(("duality-identity", res <= 1e-10, f"residual {res:.2e}"))

    a = rng.standard_normal(ops.size)
    b = rng.standard_normal(ops.size)
    la = gramian_apply(ops, a)
    lb = gramian_apply(ops, b)
    h = grid.spacing
    sym = abs(h * (la @ b) - h * (lb @ a)) / max(abs(h * (la @ b)), 1e-30)
    quad = h * (la @ a)
    rows.append(("gramian-structure",
                 sym <= 1e-10 and quad >= -1e-12,
                 f"symmetry {sym:.2e}, quad {quad:.3e}"))

    pair = make_pair(sigmoid_family(2.0), arctan_family(1.0))
    ybar = 2.0 * rng.standard_normal((M + 1, n))
    zbar = 2.0 * rng.standard_normal((M + 1, n))
    cf = linearized_coefficients(grid, tgrid, pair, ybar, zbar, n_quad=32)
    recon = cf.a11 * ybar + cf.a12 * zbar
    exact = pair.f.value(ybar, zbar)
    err = float(np.max(np.abs(recon - exact)))
    rows.append(("taylor-identity", err <= 1e-8, f"sup error {err:.2e}"))

    sgrid = Grid1D(n_cells=200)
    stgrid = TimeGrid(horizon=0.5, n_steps=250)
    rep = semigroup_checks(sgrid, stgrid, 1.0)
    ok = (rep.constant_error <= 1e-12
          and rep.exponent_rel_error <= 0.02)
    rows.append(("semigroup-laws", ok,
                 f"const {rep.constant_error:.1e}, "
                 f"exponent err {100 * rep.exponent_rel_error:.2f}%"))
    return rows


def _cmd_selftest(cfg: RunConfig, out: Path, seed: int) -> int:
    """run the built-in smoke checks and report pass/fail"""
    rows = _selftest_cases()
    width = max(len(name) for name, _, _ in rows)
    print("selftest results")
    for name, ok, detail in rows:
        print(f"  {name:<{width}}  {'PASS' if ok else 'FAIL'}  {detail}")
    failed = [name for name, ok, _ in rows if not ok]
    if failed:
        print(f"selftest: {len(failed)} failure(s): {', '.join(failed)}")
        return 1
    print("selftest: all checks passed")
    return 0


_COMMANDS = {
    "hum": _cmd_hum,
    "semilinear": _cmd_semilinear,
    "shadow": _cmd_shadow,
    "sweep": _cmd_sweep,
    "weights": _cmd_weights,
    "check-hypotheses": _cmd_check_hypotheses,
    "selftest": _cmd_selftest,
}


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built at the first :func:`main` call and reused
    by later ones: building it took 1.2-1.7 ms a command."""
    parser = argparse.ArgumentParser(
        prog="shadowctl",
        description="Nulling controls and reduced-limit studies for coupled "
                    "reaction-diffusion systems.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--config", type=str, default=None,
                       help="path to a key=value config file (defaults apply "
                            "when omitted)")
        p.add_argument("--out", type=str, default=None,
                       help="output directory (overrides output.directory)")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for randomized checks")
        p.add_argument("--jobs", type=int, default=1,
                       help="accepted for compatibility; only 1 is allowed")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else RunConfig()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"config error: cannot read {args.config}: {exc}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("config error: --seed must be nonnegative", file=sys.stderr)
        return 2
    if args.jobs != 1:
        print(f"config error: --jobs accepts only 1, got {args.jobs}",
              file=sys.stderr)
        return 2
    out = Path(args.out) if args.out else Path(cfg.output_directory)
    try:
        out.mkdir(parents=True, exist_ok=True)
        (out / "config_effective.txt").write_text(serialize_config(cfg))
        return _COMMANDS[args.command](cfg, out, args.seed)
    except (ValueError, RuntimeError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # the output directory or an artifact inside it cannot be written
        print(f"config error: cannot write {exc.filename or out}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
