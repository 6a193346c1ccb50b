"""Run one shadowctl benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads are listed in bench/workloads.py and described in bench/README.md.
The run is a closed loop with one client: one command at a time through
``shadowctl.cli.main`` in one warm process, ``--jobs 1``.

With ``--trace 0`` it reports the end-to-end metrics: the median wall time of
a warm command, the fresh-process set-up time, the worker's peak resident
memory and the controlled terminal norm.  With ``--trace 1`` it alternates
traced and untraced commands and reports the per-layer metrics.  Every
command's outputs are checked.  The last line of standard output is one JSON
object; the generated config, the raw samples and (when traced) the spans
are kept under ``.bench_out/`` in the checkout.
"""

import argparse
import compileall
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, amplitudes, config_index, config_text

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TIME_LIMIT_S = 170.0
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def isolated_env(tmp: Path) -> dict:
    """The environment of every child: no SHADOWCTL_JOBS, BLAS capped at nproc."""
    env = dict(os.environ)
    env.pop("SHADOWCTL_JOBS", None)
    cores = str(len(os.sched_getaffinity(0)))
    env.update({var: cores for var in BLAS_THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(tmp)
    return env


def run_child(args: list[str], env: dict, deadline: float) -> str:
    """Run a worker to completion and return its last stdout line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached before the worker started")
    # Its own session, so that on a timeout the worker's set-up children are
    # killed with it.
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), *args],
                            env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"worker {args[0]} exceeded the time limit") from None
    if proc.returncode != 0 or not stdout.strip():
        raise BenchError(f"worker {args[0]} exited {proc.returncode}:\n"
                         f"{stderr[-4000:]}")
    return stdout.strip().splitlines()[-1]


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its rank.

    With fewer than 20 samples that percentile lies below the median, so the
    median is reported instead.
    """
    s = sorted(samples)
    n = len(s)
    if n < 20:
        return statistics.median(s), 50.0
    return s[n - 11], 100.0 * (n - 10) / n


def declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def bench(workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    deadline = time.monotonic() + TIME_LIMIT_S
    if not (ROOT / "src" / "shadowctl" / "cli.py").is_file():
        raise BenchError(f"no shadowctl sources under {ROOT / 'src'}")
    declared = declared_metrics()
    if not compileall.compile_dir(str(ROOT / "src"), quiet=1):
        raise BenchError("src/ does not byte-compile")

    workload = WORKLOADS[workload_name]
    results = ROOT / ".bench_out" / workload.name / f"seed{seed}-trace{int(trace)}"
    shutil.rmtree(results, ignore_errors=True)
    results.mkdir(parents=True)
    config = results / "config.txt"
    config.write_text(config_text(workload, seed))
    env = isolated_env(results)

    summary = json.loads(run_child(
        ["measure", workload.name, str(seed), str(config), repr(seconds),
         str(int(trace)), str(results)], env, deadline))
    if summary["terminal_norm"] is None:
        raise BenchError("every command failed: " + "; ".join(summary["failures"]))

    walls, setup = summary["walls"], summary["setup_samples"]
    wall_tail, tail_rank = tail(walls)
    attempted, failed = summary["attempted"], summary["failed"]
    amp_y, amp_z = amplitudes(seed)
    print(f"{workload.name} seed {seed}: amplitude_y {amp_y!r}, amplitude_z "
          f"{amp_z!r}; {attempted} commands, one warm process, --jobs 1; "
          f"control cost checked against reference config {config_index(seed)}")
    for failure in summary["failures"]:
        print(f"  FAILED: {failure}")

    if trace:
        metrics = summary["per_layer"]
        units = declared["per_layer"]
        for name, unit in units.items():
            print(f"  {name:<38} {metrics.get(name, math.nan):>14.6g} {unit}")
        if summary["untraced_layers"]:
            print("  not traced (names missing): "
                  + ", ".join(summary["untraced_layers"]))
        print(f"  from {len(summary['traced_walls'])} traced and "
              f"{len(walls)} untraced commands; spans in {results / 'spans.npz'}")
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": summary["peak_rss_mb"],
            "terminal_norm": summary["terminal_norm"],
        }
        units = declared["end_to_end"]
        rows = [
            ("wall_s", metrics["wall_s"], "s",
             f"median of {len(walls)} warm commands"),
            ("wall_s_tail", wall_tail, "s",
             f"p{tail_rank:.0f} of {len(walls)} warm commands"),
            ("setup_s", metrics["setup_s"], "s",
             f"median of {len(setup)} fresh processes"),
            ("peak_rss_mb", metrics["peak_rss_mb"], "MiB",
             f"one process, {attempted} commands"),
            ("terminal_norm", metrics["terminal_norm"], "L2",
             "median over passing commands"),
            ("fail_rate", failed / attempted, "1", f"{failed} of {attempted}"),
        ]
        for name, value, unit, note in rows:
            print(f"  {name:<14} {value:>14.6g} {unit:<4} {note}")

    missing = [m for m in units if m not in metrics]
    if missing:
        raise BenchError(f"metrics declared in BENCHMARK.json not measured: {missing}")
    out = {m: {"value": float(metrics[m]), "unit": units[m]} for m in units}
    if not all(math.isfinite(v["value"]) for v in out.values()):
        raise BenchError(f"non-finite metric in {out}")
    (results / "result.json").write_text(json.dumps({
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "trace": trace, "config": config.read_text(),
        "reference_config": config_index(seed),
        "wall_s_tail": wall_tail, "wall_s_tail_percentile": tail_rank,
        **summary}, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        return bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
