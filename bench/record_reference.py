"""Record the reference control costs that checks.py compares against.

    PYTHONPATH=src python3 bench/record_reference.py

Runs every workload once on each of its N_CONFIGS configs with the
checked-out code and rewrites bench/reference.json.  The committed file was
recorded on the seed commit of the benchmark; re-recording it on later code
would turn the control-cost check into a check of that code against itself.
"""

import contextlib
import io
import json
import re
import shutil
import sys
from pathlib import Path

from checks import REFERENCE_PATH, check_command
from shadowctl.cli import main
from workloads import N_CONFIGS, WORKLOADS, config_text

REL_TOL = 1e-6
SCRATCH = Path(__file__).resolve().parent.parent / ".bench_out" / "reference"


def record() -> dict:
    costs = {}
    for workload in WORKLOADS.values():
        costs[workload.name] = {}
        for seed in range(N_CONFIGS):
            shutil.rmtree(SCRATCH, ignore_errors=True)
            SCRATCH.mkdir(parents=True)
            config = SCRATCH / "config.txt"
            config.write_text(config_text(workload, seed))
            with contextlib.redirect_stdout(io.StringIO()):
                rc = main([workload.command, "--config", str(config),
                           "--out", str(SCRATCH / "out"), "--jobs", "1"])
            outcome = check_command(workload, seed, SCRATCH / "out", rc, None)
            if outcome.failures:
                sys.exit(f"{workload.name} seed {seed}: {outcome.failures}")
            costs[workload.name][str(seed)] = outcome.control_costs
            print(workload.name, seed, outcome.control_costs,
                  f"cg {outcome.cg_iterations} outer {outcome.outer_iterations}",
                  flush=True)
    shutil.rmtree(SCRATCH, ignore_errors=True)
    return {"rel_tol": REL_TOL, "control_cost": costs}


def dumps(reference: dict) -> str:
    """JSON with each seed's list of costs on one line."""
    text = json.dumps(reference, indent=1)
    return re.sub(r"\[\s+([^\[\]]*?)\s+\]",
                  lambda m: "[" + " ".join(m.group(1).split()) + "]", text) + "\n"


if __name__ == "__main__":
    REFERENCE_PATH.write_text(dumps(record()))
