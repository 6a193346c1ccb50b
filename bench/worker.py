"""Benchmark worker: one fresh process per measurement, started by run.py.

    worker.py setup CONFIG
        Print the seconds this process takes to import the ``shadowctl``
        entry point and load CONFIG.
    worker.py measure WORKLOAD SEED CONFIG SECONDS TRACE RESULT_DIR
        Run one warm-up command on a tiny grid, then for at most SECONDS
        (and at least one round) time commands, each after a fresh ``setup``
        process, or with TRACE 1 alternate traced and untraced commands.
        Check every command's outputs and print one JSON summary line.

Each command is ``shadowctl.cli.main`` on CONFIG with ``--jobs 1``, writing
into a fresh directory under RESULT_DIR that is removed once its outputs are
checked and measured.  run.py sets the environment: no SHADOWCTL_JOBS, BLAS
threads capped at the core count, and ``src`` on PYTHONPATH.
"""

import sys
import time

SETUP_MIN = 5


def setup(config: str) -> None:
    t0 = time.perf_counter()
    from shadowctl.cli import main  # noqa: F401 - the import is what is timed
    from shadowctl.config import load_config
    load_config(config)
    print(repr(time.perf_counter() - t0))


def _per_layer(layers, tracer, outcome, n_steps: int, io_bytes: int,
               io_files: int) -> dict:
    from tracing import ROOT

    def count(*names):
        return sum(layers[n].count for n in names if n in layers)

    def total(*names):
        return sum(layers[n].total_s for n in names if n in layers)

    def self_time(name):
        return layers[name].self_s if name in layers else 0.0

    # Each linear march makes one step solve per time step; their time is the
    # marchers' self time (StepOperators and splu are child spans).
    steps = n_steps * count("pde.solve_forward_linear", "pde.solve_adjoint")
    step_s = self_time("pde.solve_forward_linear") + self_time("pde.solve_adjoint")
    applies = count("hum.gramian_apply")
    outer = outcome.outer_iterations
    rows = outcome.sweep_rows
    return {
        "config.load_s": total("config.load_config"),
        "pde.step_operators_built": count("pde.StepOperators"),
        "pde.factorizations": count("pde.splu"),
        "pde.factorize_s": total("pde.splu"),
        "pde.step_s": step_s,
        "pde.step_solves": steps,
        "pde.us_per_step_solve": 1e6 * step_s / steps if steps else 0.0,
        "pde.forward_linear_calls": count("pde.solve_forward_linear"),
        "pde.adjoint_calls": count("pde.solve_adjoint"),
        "pde.semilinear_march_s": total("pde.solve_forward_semilinear"),
        "pde.shadow_march_s": total("pde.solve_shadow"),
        "nonlinear.reaction_evals": tracer.reaction_evals,
        "hum.solves": count("hum.hum_solve"),
        "hum.solve_s": total("hum.hum_solve"),
        "hum.self_s": self_time("hum.hum_solve"),
        "hum.gramian_applies": applies,
        "hum.gramian_apply_s": total("hum.gramian_apply"),
        "hum.cg_iterations": outcome.cg_iterations,
        "hum.useful_apply_ratio": outcome.cg_iterations / applies if applies else 0.0,
        "semilinear.outer_iterations": outer,
        "semilinear.linearize_s": total("semilinear.linearized_coefficients"),
        "semilinear.self_s": self_time("semilinear.fixed_point_control"),
        "semilinear.step_operators_per_outer":
            count("pde.StepOperators") / outer if outer else 0.0,
        "experiments.sweep_rows": rows,
        "experiments.row_s": total("experiments.sigma_sweep") / rows if rows else 0.0,
        "io.write_s": sum(v.total_s for k, v in layers.items() if k.startswith("io.")),
        "io.bytes_written": io_bytes,
        "io.files_written": io_files,
        "cli.self_s": self_time(ROOT),
    }


def measure(workload_name: str, seed: int, config: str, seconds: float,
            trace: bool, result_dir: str) -> None:
    import contextlib
    import gc
    import io
    import json
    import resource
    import shutil
    import statistics
    import subprocess
    import tempfile
    import traceback
    from pathlib import Path

    from checks import Outcome, check_command, load_reference
    from shadowctl.cli import main
    from tracing import ROOT, Tracer
    from workloads import WORKLOADS, warmup_config_text

    workload = WORKLOADS[workload_name]
    reference = load_reference()
    results = Path(result_dir)
    tracer = Tracer() if trace else None
    attempted, failures = 0, []
    walls, traced_walls, terminal_norms, layer_runs = [], [], [], []
    setup_samples = []

    def run(traced: bool) -> float:
        nonlocal attempted
        out_dir = Path(tempfile.mkdtemp(prefix="run-", dir=results))
        argv = [workload.command, "--config", config, "--out", str(out_dir),
                "--jobs", "1"]
        rc = None
        gc.collect()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                if traced:
                    tracer.reset()
                    with tracer.installed():
                        root = tracer.wrap(main, ROOT)
                        t0 = time.perf_counter()
                        rc = root(argv)
                        wall = time.perf_counter() - t0
                else:
                    t0 = time.perf_counter()
                    rc = main(argv)
                    wall = time.perf_counter() - t0
        except Exception:  # a crashing command is a failed run, not a crash
            traceback.print_exc()
            wall = time.perf_counter() - t0
        attempted += 1
        try:
            outcome = check_command(workload, seed, out_dir, rc, reference)
        except Exception as exc:  # an unexpected artifact is a failed check
            outcome = Outcome(failures=[f"check crashed: {exc!r}"])
        files = [p for p in out_dir.rglob("*") if p.is_file()]
        io_bytes = sum(p.stat().st_size for p in files)
        shutil.rmtree(out_dir)
        if outcome.failures:
            failures.append("; ".join(outcome.failures))
        else:
            terminal_norms.append(outcome.terminal_norm)
        if traced:
            if not layer_runs:
                tracer.save(results / "spans.npz")
            layer_runs.append(_per_layer(tracer.layers(), tracer, outcome,
                                         workload.n_steps, io_bytes, len(files)))
        return wall

    def setup_sample() -> float:
        proc = subprocess.run([sys.executable, __file__, "setup", config],
                              capture_output=True, text=True, timeout=60, check=True)
        return float(proc.stdout.strip().splitlines()[-1])

    # Warm-up on a tiny grid: finishes lazy imports and first calls without
    # spending a full command.  Its outputs are not the workload's, so they
    # are neither timed nor checked.
    warm = results / "warmup"
    warm.mkdir()
    (warm / "config.txt").write_text(warmup_config_text(workload, seed))
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            main([workload.command, "--config", str(warm / "config.txt"),
                  "--out", str(warm), "--jobs", "1"])
    except Exception:  # the checked commands below will show what is wrong
        traceback.print_exc()
    shutil.rmtree(warm)
    # Set-up samples are interleaved with the commands so that both see the
    # same mix of machine load.  No round starts that would end past
    # `seconds`, judging by the last round.
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        if trace:
            traced_walls.append(run(traced=True))
        else:
            setup_samples.append(setup_sample())
        walls.append(run(traced=False))
        now = time.perf_counter()
        if now + (now - t0) - start > seconds:
            break
    while not trace and len(setup_samples) < SETUP_MIN:
        setup_samples.append(setup_sample())

    summary = {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:5],
        "walls": walls,
        "setup_samples": setup_samples,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "terminal_norm": statistics.median(terminal_norms) if terminal_norms else None,
    }
    if trace:
        per_layer = {k: statistics.median(r[k] for r in layer_runs)
                     for k in layer_runs[0]}
        per_layer["trace.overhead_s"] = (statistics.median(traced_walls)
                                         - statistics.median(walls))
        summary.update(traced_walls=traced_walls, per_layer=per_layer,
                       untraced_layers=tracer.missing)
    print(json.dumps(summary))


if __name__ == "__main__":
    if sys.argv[1:2] == ["setup"] and len(sys.argv) == 3:
        setup(sys.argv[2])
    elif sys.argv[1:2] == ["measure"] and len(sys.argv) == 8:
        _, _, name, seed, cfg, secs, tr, out = sys.argv
        measure(name, int(seed), cfg, float(secs), tr == "1", out)
    else:
        sys.exit(__doc__)
