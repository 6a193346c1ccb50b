"""Self-test of the benchmark's tracer and per-layer metrics.

    python3 bench/selftest.py

First checks the tracer on a synthetic call tree with known sleep times.
Then, for each workload, makes two traced runs of ``run.py --trace 1`` and
requires that every count repeats exactly, since the program is
deterministic, that no saved span is shorter than its children, and that the
root span matches the wall time the worker measured around the same command.
Exits 1 on the first failed check.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

from tracing import Tracer, load_spans
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
EXACT_UNITS = ("count", "B", "1")
# The worker's clock brackets the root wrapper, which adds microseconds.
ROOT_WALL_TOL_S = 1e-3


def check(ok: bool, message: str) -> None:
    print(("ok    " if ok else "FAIL  ") + message)
    if not ok:
        sys.exit(1)


def synthetic() -> None:
    tracer = Tracer()
    traced = {}

    def leaf():
        time.sleep(0.002)

    def mid():
        traced["leaf"]()
        traced["leaf"]()
        time.sleep(0.001)

    traced["leaf"] = tracer.wrap(leaf, "leaf")
    traced["mid"] = tracer.wrap(mid, "mid")
    tracer.wrap(lambda: [traced["mid"]() for _ in range(3)], "root")()
    layers = tracer.layers()
    check({k: v.count for k, v in layers.items()} == {"leaf": 6, "mid": 3, "root": 1},
          "synthetic tree: span counts 6 leaf, 3 mid, 1 root")
    leaf, mid = layers["leaf"], layers["mid"]
    check(leaf.self_s == leaf.total_s >= 6 * 0.002,
          f"synthetic tree: leaf time {leaf.total_s:.4f} s covers its 6 x 2 ms sleeps")
    check(mid.self_s >= 3 * 0.001 and abs(mid.total_s - mid.self_s - leaf.total_s) < 1e-9,
          f"synthetic tree: mid self time {mid.self_s:.4f} s covers its 3 x 1 ms "
          "sleeps and excludes its children")


def traced_run(workload: str) -> tuple[dict, dict, Path]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    check(proc.returncode == 0, f"{workload}: traced run exits 0"
          + ("" if proc.returncode == 0 else "\n" + proc.stderr[-2000:]))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(result["correct"], f"{workload}: every command passes its checks")
    out = ROOT / ".bench_out" / workload / "seed0-trace1"
    return result["metrics"], json.loads((out / "result.json").read_text()), out


def spans_match_wall(workload: str, out: Path, wall: float) -> None:
    parent, dur, self_s = load_spans(out / "spans.npz")
    roots = dur[parent < 0]
    check(roots.size == 1, f"{workload}: one root span ({roots.size})")
    check(float(self_s.min()) >= -1e-9, f"{workload}: no span is shorter than "
          f"its children (min self {self_s.min():.3g} s)")
    check(0.0 <= wall - roots[0] <= ROOT_WALL_TOL_S,
          f"{workload}: root span {roots[0]:.4f} s matches the worker's wall "
          f"{wall:.4f} s within {ROOT_WALL_TOL_S:g} s")


def main() -> None:
    synthetic()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in WORKLOADS:
        first, _, _ = traced_run(workload)
        second, detail, out = traced_run(workload)
        check(set(first) == set(units), f"{workload}: every declared per-layer "
              "metric is reported")
        check(not detail["untraced_layers"], f"{workload}: every traced name exists")
        exact = [m for m, u in units.items() if u in EXACT_UNITS]
        differ = [m for m in exact if first[m]["value"] != second[m]["value"]]
        check(not differ, f"{workload}: {len(exact)} counts repeat exactly"
              + (f"; differ: {differ}" if differ else ""))
        # spans.npz holds the first traced command of the run
        spans_match_wall(workload, out, detail["traced_walls"][0])
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
