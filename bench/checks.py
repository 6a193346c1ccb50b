"""Output checks for one benchmark command.

A command passes when it exits 0, every convergence flag it reports is true,
the duality residual (where reported) is at round-off, the controlled
terminal norm is below 1% of the initial-data norm, the sweep diagnostics
stay within the bounds of acceptance checks AC05 and AC07, the artifacts have
their expected shape, and the control cost matches the value recorded on the
seed commit for the seed's config.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from workloads import Workload, config_index, initial_norm

REFERENCE_PATH = Path(__file__).with_name("reference.json")

DUALITY_RESIDUAL_MAX = 1e-10
TERMINAL_SHARE_MAX = 1e-2
GAP_SLOPE_RANGE = (-1.3, -0.4)
COST_RATIO_MAX = 1.5


@dataclass
class Outcome:
    """What one command produced, and every check it failed."""

    failures: list[str] = field(default_factory=list)
    terminal_norm: float = math.nan
    cg_iterations: int = 0
    outer_iterations: int = 0
    sweep_rows: int = 0
    control_costs: list[float] = field(default_factory=list)

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def _count_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


def _check_csv(out: Outcome, path: Path, header: str, rows: int) -> None:
    if not path.is_file():
        out.failures.append(f"{path.name} missing")
        return
    with open(path) as fh:
        first = fh.readline().strip()
    out.require(first == header, f"{path.name}: header {first!r} != {header!r}")
    lines = _count_lines(path)
    out.require(lines == rows + 1,
                f"{path.name}: {lines - 1} data rows, expected {rows}")


def check_command(workload: Workload, seed: int, out_dir: Path, rc,
                  reference: dict | None) -> Outcome:
    """Check the artifacts one command left in ``out_dir``.

    ``reference`` is the content of reference.json; only
    record_reference.py passes None, to skip the control-cost comparison.
    """
    out = Outcome()
    out.require(rc == 0, f"exit code {rc}")
    report_name = "sweep.json" if workload.command == "sweep" else "report.json"
    try:
        report = json.loads((out_dir / report_name).read_text())
    except (OSError, ValueError) as exc:
        out.failures.append(f"{report_name} unreadable: {exc}")
        return out

    try:
        _check_report(out, workload, seed, out_dir, report, reference)
    except (KeyError, TypeError, ValueError) as exc:
        out.failures.append(f"{report_name} malformed: {exc!r}")
    return out


def _check_report(out: Outcome, workload: Workload, seed: int, out_dir: Path,
                  report: dict, reference: dict | None) -> None:
    n, m = workload.n_cells, workload.n_steps
    if workload.command == "sweep":
        rows = report["rows"]
        out.sweep_rows = len(rows)
        out.require(len(rows) == 4, f"{len(rows)} sweep rows, expected 4")
        out.require(all(r["converged"] is True for r in rows),
                    "a sweep row did not converge")
        out.terminal_norm = max(math.hypot(r["terminal_norm_y"], r["terminal_norm_z"])
                                for r in rows)
        out.cg_iterations = sum(r["cg_iterations"] for r in rows)
        out.outer_iterations = sum(r["outer_iterations"] for r in rows)
        out.control_costs = [r["control_cost"] for r in rows]
        lo, hi = GAP_SLOPE_RANGE
        out.require(lo <= report["gap_slope"] <= hi,
                    f"gap_slope {report['gap_slope']} outside [{lo}, {hi}]")
        out.require(report["cost_ratio"] <= COST_RATIO_MAX,
                    f"cost_ratio {report['cost_ratio']} above {COST_RATIO_MAX}")
        out.require(_count_lines(out_dir / "sweep_rows.csv") == len(rows) + 1,
                    "sweep_rows.csv row count")
    else:
        flag = "cg_converged" if workload.command == "hum" else "converged"
        out.require(report.get(flag) is True, f"{flag} is {report.get(flag)!r}")
        out.terminal_norm = report["terminal_norm_total"]
        out.cg_iterations = report.get("cg_iterations",
                                       report.get("cg_iterations_total", 0))
        out.outer_iterations = report.get("outer_iterations", 0)
        out.control_costs = [report["control_cost"]]
        _check_csv(out, out_dir / "trajectory.csv", "t,x,y,z", (m + 1) * n)
        _check_csv(out, out_dir / "control.csv", "t,x,h", m * n)

    residual = report.get("duality_residual")
    if residual is not None:
        out.require(residual <= DUALITY_RESIDUAL_MAX,
                    f"duality_residual {residual} above {DUALITY_RESIDUAL_MAX}")
    limit = TERMINAL_SHARE_MAX * initial_norm(workload, seed)
    out.require(out.terminal_norm <= limit,
                f"terminal_norm {out.terminal_norm} above {limit}")

    if reference is None:
        return
    index = config_index(seed)
    expected = reference["control_cost"].get(workload.name, {}).get(str(index))
    if expected is None:
        out.failures.append(f"no reference control cost for config {index}")
        return
    tol = reference["rel_tol"]
    ok = len(expected) == len(out.control_costs) and all(
        abs(got - want) <= tol * abs(want)
        for got, want in zip(out.control_costs, expected))
    out.require(ok, f"control_cost {out.control_costs} differs from the "
                    f"reference {expected} by more than {tol:g} relative")
