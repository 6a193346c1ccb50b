"""End-to-end command-line tests on a small configuration.

Every command runs through ``main`` in-process so exit codes and artifacts
can be checked without spawning subprocesses.
"""

import argparse
import json
import re
from pathlib import Path

import numpy as np
import pytest

from shadowctl import cli, pde
from shadowctl.cli import _norm_history, main
from shadowctl.io import read_fields_binary
from shadowctl.mesh import Grid1D, TimeGrid
from shadowctl.pde import (ShadowStepOperators, Trajectory, constant_coefficients,
                           solve_forward_linear)

SMALL_CFG = """\
grid.n_cells = 32
time.horizon = 0.4
time.n_steps = 50
problem.sigma = 2
problem.sigma_list = 1, 4
hum.epsilon = 1e-6
hum.cg_tol = 1e-9
fixed_point.max_outer = 20
output.formats = json, csv, binary
"""


# the README's desk-scale semilinear example config
README_SEMILINEAR_CFG = re.search(
    r"^```ini\n(# desk-scale semilinear run\n.*?)^```",
    (Path(__file__).resolve().parents[1] / "README.md").read_text(),
    re.M | re.S).group(1)


@pytest.fixture()
def cfg_file(tmp_path):
    p = tmp_path / "small.cfg"
    p.write_text(SMALL_CFG)
    return p


def run(cfg_file, out_dir, command, *extra):
    return main([command, "--config", str(cfg_file), "--out", str(out_dir),
                 *extra])


class TestCommands:
    def test_hum_writes_artifacts(self, cfg_file, tmp_path):
        out = tmp_path / "hum"
        assert run(cfg_file, out, "hum") == 0
        report = json.loads((out / "report.json").read_text())
        assert report["cg_converged"] is True
        assert report["terminal_norm_total"] < report["free_terminal_norm"]
        assert (out / "trajectory.csv").exists()
        assert (out / "control.csv").exists()
        assert (out / "state_norm.dat").exists()
        assert (out / "config_effective.txt").exists()
        fields = read_fields_binary(out / "trajectory.bin")
        assert fields["y"].shape == (51, 32)
        h = read_fields_binary(out / "control.bin")["h"]
        assert h.shape == (50, 32)
        assert np.all(np.isfinite(h))

    def test_semilinear_converges(self, cfg_file, tmp_path):
        out = tmp_path / "sem"
        assert run(cfg_file, out, "semilinear") == 0
        report = json.loads((out / "report.json").read_text())
        assert report["converged"] is True
        assert report["outer_iterations"] >= 1
        assert (out / "updates.dat").exists()

    def test_semilinear_reports_each_pass_coupling_floor(self, tmp_path, capsys):
        cfg = tmp_path / "readme.cfg"
        cfg.write_text(README_SEMILINEAR_CFG)
        out = tmp_path / "sem"
        assert run(cfg, out, "semilinear") == 0
        report = json.loads((out / "report.json").read_text())
        floors = report["coupling_floor"]
        assert len(floors) == report["outer_iterations"] == 5
        assert all(floor > 0.0 for floor in floors)
        # the first pass is linearized at the origin, where arctan' is 1
        assert floors[0] == 1.0
        # stdout keeps its one summary line
        assert capsys.readouterr().out == (
            f"semilinear: converged=True outer=5 "
            f"terminal={report['terminal_norm_total']:.6g}\n")

    def test_shadow_gap_series(self, cfg_file, tmp_path):
        out = tmp_path / "shadow"
        assert run(cfg_file, out, "shadow") == 0
        lines = (out / "gap.dat").read_text().splitlines()
        assert lines[0].startswith("#")
        assert len(lines) == 1 + 51
        report = json.loads((out / "report.json").read_text())
        assert report["shadow_gap"] >= 0.0

    def test_linear_shadow_marches_once(self, cfg_file, tmp_path, mode_marches):
        # xi is the controlled z's mean mode, so the gap series is the norm
        # of the fluctuation z - mean z and the reduced model needs no march
        out = tmp_path / "shadow"
        assert run(cfg_file, out, "shadow") == 0
        assert mode_marches == ["StepOperators"]
        z = read_fields_binary(out / "trajectory.bin")["z"]
        fluctuation = z - np.mean(z, axis=1, keepdims=True)
        gap = np.loadtxt(out / "gap.dat")[:, 1]
        want = np.sqrt(np.sum(fluctuation**2, axis=1) / 32)
        assert np.max(np.abs(gap - want)) <= 1e-12 * np.max(want)

    def test_semilinear_unconverged_inner_solve_exits_1(self, tmp_path):
        # three CG iterations cannot converge, so neither can the outer loop
        cfg = tmp_path / "capped.cfg"
        cfg.write_text(SMALL_CFG + "hum.cg_max_iters = 3\n")
        out = tmp_path / "sem"
        assert run(cfg, out, "semilinear") == 1
        assert json.loads((out / "report.json").read_text())["converged"] is False

    @pytest.mark.parametrize("mode", ["linear", "semilinear"])
    def test_shadow_matches_sweep_row(self, tmp_path, mode):
        cfg = tmp_path / "mode.cfg"
        cfg.write_text(SMALL_CFG.replace("problem.sigma = 2", "problem.sigma = 4")
                       + f"problem.mode = {mode}\n")
        assert run(cfg, tmp_path / "shadow", "shadow") == 0
        assert run(cfg, tmp_path / "sweep", "sweep") == 0
        shadow = json.loads((tmp_path / "shadow" / "report.json").read_text())
        row = json.loads((tmp_path / "sweep" / "sweep.json").read_text())["rows"][1]
        assert row["sigma"] == shadow["sigma"] == 4.0
        assert row["shadow_gap"] == shadow["shadow_gap"]
        assert row["xi_terminal"] == shadow["xi_terminal"]

    def test_sweep_artifacts(self, cfg_file, tmp_path):
        out = tmp_path / "sweep"
        assert run(cfg_file, out, "sweep") == 0
        payload = json.loads((out / "sweep.json").read_text())
        assert [row["sigma"] for row in payload["rows"]] == [1.0, 4.0]
        rows_csv = (out / "sweep_rows.csv").read_text().splitlines()
        assert len(rows_csv) == 3   # header + one row per sigma
        assert (out / "cost_vs_sigma.dat").exists()
        assert (out / "gap_vs_sigma.dat").exists()

    @pytest.mark.parametrize("command", ["hum", "sweep", "shadow"])
    def test_linear_mode_factors_no_step_band(self, cfg_file, tmp_path, monkeypatch,
                                              command):
        # constant fields are marched per cosine mode, the reduced one too
        calls = []
        band_lu = pde._band_lu

        def counted(*args):
            calls.append(None)
            return band_lu(*args)

        monkeypatch.setattr(pde, "_band_lu", counted)
        assert run(cfg_file, tmp_path / command, command) == 0
        assert calls == []

    def test_hum_at_huge_sigma_reaches_the_shadow_limit(self, tmp_path):
        # the banded free march once returned a non-finite state at 1e300,
        # and the command exited 1 with "p_T contains non-finite values"
        costs = {}
        for sigma in ("1e12", "1e300"):
            cfg = tmp_path / f"sigma{sigma}.cfg"
            cfg.write_text(SMALL_CFG.replace("problem.sigma = 2", f"problem.sigma = {sigma}"))
            out = tmp_path / sigma
            assert run(cfg, out, "hum") == 0
            report = json.loads((out / "report.json").read_text())
            assert report["cg_converged"] and report["duality_residual"] <= 1e-13
            costs[sigma] = report["control_cost"]
        assert costs["1e300"] == pytest.approx(costs["1e12"], rel=1e-9)

    def test_weights_report(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "weights"
        assert run(cfg_file, out, "weights") == 0
        report = json.loads((out / "weights.json").read_text())
        assert report["checks"]["all_ok"] is True
        assert report["lambda"] >= report["checks"]["lambda_threshold"]
        printed = capsys.readouterr().out
        assert "all_ok" in printed
        # the package defaults, horizon 0.5
        assert main(["weights", "--out", str(tmp_path / "default")]) == 0
        report = json.loads((tmp_path / "default" / "weights.json").read_text())
        assert ((report["lambda"], report["s"], report["eta_max"], report["K"],
                 report["K_energy"]) == (16.0, 0.75, 0.0625, 3.0, 1.5))

    def test_check_hypotheses(self, cfg_file, tmp_path):
        out = tmp_path / "hyp"
        assert run(cfg_file, out, "check-hypotheses") == 0
        report = json.loads((out / "hypotheses.json").read_text())
        assert report["ok"] is True
        assert report["h1_ok"] and report["h2_ok"] and report["h3_ok"]
        # the configured pair is the default sigmoid/arctan one
        assert ((report["deriv_tol"], report["a21_floor"], report["a21_sign"],
                 report["n_samples"], report["box_halfwidth"])
                == (1e-6, 1.0, 1.0, 2000, 10.0))

    def test_selftest_passes(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "self"
        assert run(cfg_file, out, "selftest") == 0
        printed = capsys.readouterr().out
        assert "PASS" in printed
        assert "FAIL" not in printed


class TestDefaultsAndErrors:
    def test_runs_without_config_file(self, tmp_path):
        # defaults apply; selftest needs no config at all
        assert main(["selftest", "--out", str(tmp_path / "o")]) == 0

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("grid.cells = 10\n")
        code = main(["hum", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "unknown key" in capsys.readouterr().err

    def test_invalid_value_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("problem.sigma = 0.1\n")
        code = main(["hum", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "problem.sigma" in capsys.readouterr().err

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        code = main(["hum", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "cannot read" in capsys.readouterr().err

    def test_non_utf8_config_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe\n")
        code = main(["weights", "--config", str(bad),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {bad}: not UTF-8")
        assert err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_config_with_byte_order_mark_runs(self, tmp_path):
        cfg = tmp_path / "bom.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfgrid.n_cells = 8\n")
        out = tmp_path / "o"
        assert main(["weights", "--config", str(cfg), "--out", str(out)]) == 0
        assert "grid.n_cells = 8\n" in (out / "config_effective.txt").read_text()

    def test_out_naming_a_file_exits_2(self, cfg_file, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        assert run(cfg_file, taken, "hum") == 2
        assert "config error" in capsys.readouterr().err
        assert taken.read_text() == "not a directory\n"

    def test_unwritable_artifact_exits_2(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "o"
        (out / "report.json").mkdir(parents=True)
        assert run(cfg_file, out, "hum") == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot write ")
        assert str(out / "report.json") in err
        assert err.count("\n") == 1

    def test_negligible_control_window_exits_2(self, tmp_path, capsys):
        # 4e-10 of a cell: a solve on it reports convergence yet leaves the
        # terminal state where the free flow takes it
        cfg = tmp_path / "sliver.cfg"
        cfg.write_text("grid.n_cells = 40\ntime.n_steps = 40\n"
                       "grid.omega_a = 0.3\ngrid.omega_b = 0.30000000001\n")
        out = tmp_path / "o"
        assert run(cfg, out, "hum") == 2
        assert "below the minimum" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_penalty_below_the_round_off_floor_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "floor.cfg"
        cfg.write_text("grid.n_cells = 20\ntime.horizon = 0.05\ntime.n_steps = 2\n"
                       "hum.epsilon = 1e-300\n")
        assert run(cfg, tmp_path / "hum", "hum") == 1
        err = capsys.readouterr().err
        assert err.startswith("solver error: epsilon = 1e-300 is below the round-off floor")

    def test_parser_is_built_once_per_process(self, cfg_file, tmp_path, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(parser, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        cli._build_parser.cache_clear()
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        assert run(cfg_file, tmp_path / "a", "weights") == 0
        assert run(cfg_file, tmp_path / "b", "check-hypotheses") == 0
        # one top-level parser and one per command, all from the first call
        assert built.count("shadowctl") == 1
        assert len(built) == 1 + len(cli._COMMANDS)

    def test_help_is_the_freshly_built_parsers(self, capsys):
        fresh = cli._build_parser.__wrapped__().format_help()
        for _ in range(2):
            with pytest.raises(SystemExit) as exited:
                main(["--help"])
            assert exited.value.code == 0
            assert capsys.readouterr().out == fresh

    def test_negative_seed_exits_2(self, cfg_file, tmp_path):
        assert run(cfg_file, tmp_path / "o", "hum", "--seed", "-1") == 2

    @pytest.mark.parametrize("jobs", ["0", "2"])
    def test_bad_jobs_exits_2(self, cfg_file, tmp_path, jobs):
        assert run(cfg_file, tmp_path / "o", "sweep", "--jobs", jobs) == 2


class TestDeterminism:
    def test_hum_outputs_bit_identical(self, cfg_file, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(cfg_file, out_a, "hum") == 0
        assert run(cfg_file, out_b, "hum") == 0
        assert ((out_a / "report.json").read_bytes()
                == (out_b / "report.json").read_bytes())
        assert ((out_a / "trajectory.bin").read_bytes()
                == (out_b / "trajectory.bin").read_bytes())


def test_norm_history_reads_xi_as_constant_field():
    # y0 = 1 and xi0 = 1 stand for the fields y = z = 1, of norm sqrt(2)
    grid = Grid1D(n_cells=10)
    tgrid = TimeGrid(horizon=0.1, n_steps=5)
    ops = ShadowStepOperators(constant_coefficients(grid, tgrid, 0.1, 0.2, 0.3, 0.4))
    reduced = solve_forward_linear(ops, None, np.ones(10), [1.0])
    full = Trajectory(grid, tgrid, np.inf, np.hstack(
        [reduced.y, np.repeat(reduced.u[:, -1:], 10, axis=1)]))
    history = _norm_history(reduced)
    assert history[0] == pytest.approx(np.sqrt(2.0), rel=1e-14)
    assert np.array_equal(history, _norm_history(full))
