"""Flat key=value run configuration with strict validation.

The on-disk format is one ``section.option = value`` assignment per line,
``#`` starting a comment; every key is validated against the schema below
and every option has a default, so an empty file is a complete
configuration.  Serialization always writes every effective key with floats
at 17 significant digits, so configs round-trip exactly and diff cleanly.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .hum import HumConfig
from .mesh import Grid1D, TimeGrid
from .nonlinear import (Nonlinearity, NonlinearityPair, arctan_family,
                        linear_form, make_pair, sigmoid_family)
from .semilinear import FixedPointConfig

__all__ = [
    "ConfigError", "RunConfig", "parse_config", "load_config",
    "serialize_config", "build_grid", "build_tgrid", "build_pair",
    "build_initial_data", "build_hum_config", "build_fixed_point_config",
]


class ConfigError(ValueError):
    """Raised for unknown keys, malformed values, or failed validation."""


@dataclass(frozen=True)
class RunConfig:
    grid_n_cells: int = 100
    grid_omega_a: float = 0.3
    grid_omega_b: float = 0.7
    time_horizon: float = 0.5
    time_n_steps: int = 200
    problem_mode: str = "linear"
    problem_sigma: float = 1.0
    problem_sigma_list: tuple[float, ...] = (1.0, 10.0, 100.0, 1000.0)
    problem_f_family: str = "sigmoid"
    problem_f_k: float = 2.0
    problem_g_family: str = "arctan"
    problem_g_k: float = 1.0
    problem_coeff_a: float = 0.0
    problem_coeff_b: float = 0.0
    problem_coeff_c: float = 1.0
    problem_coeff_d: float = 0.0
    data_profile_y: str = "cosine"
    data_amplitude_y: float = 0.1
    data_profile_z: str = "constant"
    data_amplitude_z: float = 0.1
    hum_epsilon: float = 1e-6
    hum_cg_tol: float = 1e-9
    hum_cg_max_iters: int = 500
    fixed_point_outer_tol: float = 1e-6
    fixed_point_max_outer: int = 30
    experiment_t0_fraction: float = 0.1
    output_directory: str = "out"
    output_formats: tuple[str, ...] = ("json", "csv")


# every field is named section_option and read from the key section.option
_SECTIONS = ("grid", "time", "problem", "data", "hum", "fixed_point",
             "experiment", "output")
_FIELD_TO_KEY = {f.name: next(f"{sec}.{f.name[len(sec) + 1:]}" for sec in _SECTIONS
                              if f.name.startswith(sec + "_"))
                 for f in fields(RunConfig)}
_KEY_TO_FIELD = {k: v for v, k in _FIELD_TO_KEY.items()}

_CHOICES = {
    "problem_mode": ("linear", "semilinear"),
    "problem_f_family": ("sigmoid", "linear"),
    "problem_g_family": ("arctan", "linear"),
    "data_profile_y": ("cosine", "bump", "constant"),
    "data_profile_z": ("cosine", "bump", "constant"),
}
_FORMAT_CHOICES = ("json", "csv", "binary")


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None


def _parse_float(key: str, raw: str) -> float:
    try:
        v = float(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from None
    if not np.isfinite(v):
        raise ConfigError(f"{key}: value must be finite, got {raw!r}")
    return v


def _parse_value(field_name: str, default, key: str, raw: str):
    if isinstance(default, int):
        return _parse_int(key, raw)
    if isinstance(default, float):
        return _parse_float(key, raw)
    if isinstance(default, tuple):
        items = [s.strip() for s in raw.split(",") if s.strip()]
        if not items:
            raise ConfigError(f"{key}: expected a comma-separated list, got {raw!r}")
        if field_name == "output_formats":
            return tuple(items)
        return tuple(_parse_float(key, s) for s in items)
    return raw


def parse_config(text: str) -> RunConfig:
    """Parse the flat key=value format; unknown or repeated keys are errors."""
    values: dict[str, object] = {}
    seen: set[str] = set()
    base = RunConfig()
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {rawline!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _KEY_TO_FIELD:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        if raw == "":
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        fname = _KEY_TO_FIELD[key]
        values[fname] = _parse_value(fname, getattr(base, fname), key, raw)
    cfg = RunConfig(**values)
    validate_config(cfg)
    return cfg


def load_config(path: str | Path) -> RunConfig:
    try:
        # utf-8-sig drops the byte-order mark some editors write
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte "
                          f"{exc.start})") from None
    return parse_config(text)


def validate_config(cfg: RunConfig) -> None:
    def fail(field_name: str, msg: str):
        raise ConfigError(f"{_FIELD_TO_KEY[field_name]}: {msg}")

    if cfg.grid_n_cells < 4:
        fail("grid_n_cells", f"must be at least 4, got {cfg.grid_n_cells}")
    try:
        build_grid(cfg)
    except ValueError as exc:  # the control window; n_cells passed above
        fail("grid_omega_a", str(exc))
    if not cfg.time_horizon > 0.0:
        fail("time_horizon", f"must be positive, got {cfg.time_horizon}")
    if cfg.time_n_steps < 1:
        fail("time_n_steps", f"must be at least 1, got {cfg.time_n_steps}")
    for fname, choices in _CHOICES.items():
        if getattr(cfg, fname) not in choices:
            fail(fname, f"must be one of {choices}, got {getattr(cfg, fname)!r}")
    if cfg.problem_sigma < 1.0:
        fail("problem_sigma", f"must be at least 1, got {cfg.problem_sigma}")
    sl = cfg.problem_sigma_list
    if len(sl) < 2 or any(b <= a for a, b in zip(sl, sl[1:])) or sl[0] < 1.0:
        fail("problem_sigma_list",
             f"must be strictly increasing values >= 1, got {sl}")
    if cfg.problem_f_family == "sigmoid" and not cfg.problem_f_k > 0.0:
        fail("problem_f_k", f"must be positive, got {cfg.problem_f_k}")
    if cfg.problem_g_family == "arctan" and not cfg.problem_g_k > 0.0:
        fail("problem_g_k", f"must be positive, got {cfg.problem_g_k}")
    if not cfg.hum_epsilon > 0.0:
        fail("hum_epsilon", f"must be positive, got {cfg.hum_epsilon}")
    if not (0.0 < cfg.hum_cg_tol <= 1e-2):
        fail("hum_cg_tol", f"must lie in (0, 1e-2], got {cfg.hum_cg_tol}")
    if cfg.hum_cg_max_iters < 1:
        fail("hum_cg_max_iters", f"must be at least 1, got {cfg.hum_cg_max_iters}")
    if not cfg.fixed_point_outer_tol > 0.0:
        fail("fixed_point_outer_tol",
             f"must be positive, got {cfg.fixed_point_outer_tol}")
    if cfg.fixed_point_max_outer < 1:
        fail("fixed_point_max_outer",
             f"must be at least 1, got {cfg.fixed_point_max_outer}")
    if not (0.0 < cfg.experiment_t0_fraction < 1.0):
        fail("experiment_t0_fraction",
             f"must lie in (0, 1), got {cfg.experiment_t0_fraction}")
    if not cfg.output_directory:
        fail("output_directory", "must be non-empty")
    bad = [f for f in cfg.output_formats if f not in _FORMAT_CHOICES]
    if bad or not cfg.output_formats:
        fail("output_formats", f"entries must be among {_FORMAT_CHOICES}, got "
             f"{cfg.output_formats}")


def _format_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, tuple):
        return ",".join(v if isinstance(v, str) else f"{float(v):.17g}" for v in value)
    return str(value)


def serialize_config(cfg: RunConfig) -> str:
    """Write every effective key (defaults included) in canonical order."""
    lines = [f"{_FIELD_TO_KEY[f.name]} = {_format_value(getattr(cfg, f.name))}"
             for f in fields(RunConfig)]
    return "\n".join(lines) + "\n"


def build_grid(cfg: RunConfig) -> Grid1D:
    return Grid1D(n_cells=cfg.grid_n_cells,
                  omega_a=cfg.grid_omega_a, omega_b=cfg.grid_omega_b)


def build_tgrid(cfg: RunConfig) -> TimeGrid:
    return TimeGrid(horizon=cfg.time_horizon, n_steps=cfg.time_n_steps)


def build_pair(cfg: RunConfig) -> NonlinearityPair:
    if cfg.problem_f_family == "sigmoid":
        f: Nonlinearity = sigmoid_family(cfg.problem_f_k)
    else:
        f = linear_form(cfg.problem_coeff_a, cfg.problem_coeff_b)
    if cfg.problem_g_family == "arctan":
        g: Nonlinearity = arctan_family(cfg.problem_g_k)
    else:
        g = linear_form(cfg.problem_coeff_c, cfg.problem_coeff_d)
    return make_pair(f, g)


def _profile(name: str, amplitude: float, grid: Grid1D) -> np.ndarray:
    x = grid.cell_centers
    if name == "cosine":
        return amplitude * np.cos(np.pi * x)
    if name == "bump":
        return amplitude * np.exp(-50.0 * (x - 0.5) ** 2)
    return np.full(grid.n_cells, amplitude)


def build_initial_data(cfg: RunConfig, grid: Grid1D) -> tuple[np.ndarray, np.ndarray]:
    y0 = _profile(cfg.data_profile_y, cfg.data_amplitude_y, grid)
    z0 = _profile(cfg.data_profile_z, cfg.data_amplitude_z, grid)
    return y0, z0


def build_hum_config(cfg: RunConfig) -> HumConfig:
    return HumConfig(epsilon=cfg.hum_epsilon, cg_tol=cfg.hum_cg_tol,
                     cg_max_iters=cfg.hum_cg_max_iters)


def build_fixed_point_config(cfg: RunConfig) -> FixedPointConfig:
    return FixedPointConfig(outer_tol=cfg.fixed_point_outer_tol,
                            max_outer=cfg.fixed_point_max_outer,
                            hum=build_hum_config(cfg))
