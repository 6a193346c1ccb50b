"""The three benchmark workloads and the configs generated from a seed.

Each workload is one ``shadowctl`` command on one config; why each was
chosen is recorded in README.md and BENCHMARK.json.  The seed only picks the
two initial-data amplitudes, so every seed exercises the same layers with
nearly the same work (CG iteration counts move by a few percent).  Seeds map
onto N_CONFIGS amplitude pairs, each with a control cost recorded in
reference.json; seeds 0, N_CONFIGS, 2 * N_CONFIGS, ... give the documented
configs (both amplitudes exactly 0.1).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

N_CONFIGS = 32
AMPLITUDE = 0.1
# Half-width of the amplitude range, as a share of AMPLITUDE.  Kept narrow so
# that terminal_norm, which scales with the data, spreads little across seeds.
AMPLITUDE_SPREAD = 0.005


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    n_cells: int
    n_steps: int
    config: str  # fixed config lines; the amplitudes are appended per seed


WORKLOADS = {w.name: w for w in (
    Workload(
        name="hum-eps1e-8",
        command="hum",
        n_cells=100, n_steps=200,
        config="hum.epsilon = 1e-8\n"
               "output.formats = json,csv\n"),
    Workload(
        name="semilinear-readme",
        command="semilinear",
        n_cells=64, n_steps=80,
        config="grid.n_cells = 64\n"
               "time.horizon = 0.4\n"
               "time.n_steps = 80\n"
               "problem.mode = semilinear\n"
               "problem.sigma = 10\n"
               "problem.f_family = sigmoid\n"
               "problem.f_k = 2\n"
               "problem.g_family = arctan\n"
               "problem.g_k = 1\n"
               "data.profile_y = cosine\n"
               "hum.epsilon = 1e-8\n"
               "output.formats = json,csv\n"),
    Workload(
        name="sweep-linear",
        command="sweep",
        n_cells=100, n_steps=200,
        config=""),
)}


def config_index(seed: int) -> int:
    """Which of the N_CONFIGS amplitude pairs a seed selects."""
    return seed % N_CONFIGS


def amplitudes(seed: int) -> tuple[float, float]:
    """(amplitude_y, amplitude_z) for a workload seed."""
    index = config_index(seed)
    if index == 0:
        return AMPLITUDE, AMPLITUDE
    rng = random.Random(index)
    return tuple(round(AMPLITUDE * (1.0 + rng.uniform(-AMPLITUDE_SPREAD,
                                                       AMPLITUDE_SPREAD)), 6)
                 for _ in range(2))


def config_text(workload: Workload, seed: int) -> str:
    amp_y, amp_z = amplitudes(seed)
    return (f"# benchmark workload {workload.name}, seed {seed} "
            f"(config {config_index(seed)})\n"
            + workload.config
            + f"data.amplitude_y = {amp_y!r}\n"
            + f"data.amplitude_z = {amp_z!r}\n")


def warmup_config_text(workload: Workload, seed: int) -> str:
    """The workload's config on an 8-cell, 8-step grid: the same command and
    code paths, done in well under a second."""
    lines = [ln for ln in config_text(workload, seed).splitlines(keepends=True)
             if not ln.startswith(("grid.n_cells", "time.n_steps"))]
    return "".join(lines) + "grid.n_cells = 8\ntime.n_steps = 8\n"


def initial_norm(workload: Workload, seed: int) -> float:
    """L2 norm of (y0, z0): a cosine profile in y and a constant in z.

    Computed here from the cell-centre formula rather than by the package, so
    the terminal-norm check does not trust the code it checks.
    """
    amp_y, amp_z = amplitudes(seed)
    n = workload.n_cells
    h = 1.0 / n
    sq = sum((amp_y * math.cos(math.pi * (i + 0.5) * h)) ** 2 + amp_z ** 2
             for i in range(n))
    return math.sqrt(h * sq)
