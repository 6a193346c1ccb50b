"""Nulling controls and reduced-limit studies for coupled reaction-diffusion
systems with one slow and one fast-diffusing component.

The package builds penalized minimal-norm controls supported on an interior
window, verifies the discrete duality and Gramian structure they rest on,
iterates a fixed-point scheme for semilinear reactions, evaluates the
singular-weight machinery behind the observability constants, and runs
diffusion-ratio sweeps comparing the full two-component system against its
scalar-mode reduction.
"""

from .config import (ConfigError, RunConfig, build_fixed_point_config,
                     build_grid, build_hum_config, build_initial_data,
                     build_pair, build_tgrid, load_config, parse_config,
                     serialize_config)
from .experiments import (ControlRun, M1Record, ScalingReport, SweepReport,
                          SweepRow, control_and_reduce, fit_decay_rate,
                          measure_m1, measure_m1_scaling, measure_m2_scaling,
                          shadow_gap, sigma_sweep)
from .hum import (EpsilonRow, EpsilonSweepReport, HumConfig, HumResult,
                  duality_residual, epsilon_sweep, gramian_apply, hum_solve)
from .mesh import Grid1D, TimeGrid, inner_product, mean_value, norm_l2
from .nonlinear import (HypothesisReport, Nonlinearity, NonlinearityPair,
                        arctan_family, check_hypotheses, linear_form,
                        linear_pair, make_pair, sigmoid_family)
from .pde import (CoefficientField, ControlField, EnergyReport,
                  SemigroupReport, ShadowStepOperators, StepOperators,
                  Trajectory, constant_coefficients, control_cost,
                  energy_functional, semigroup_checks, solve_adjoint,
                  solve_forward_linear, solve_forward_semilinear,
                  zero_coefficients)
from .semilinear import (CouplingReport, FixedPointConfig, FixedPointResult,
                         coupling_floor_check, fixed_point_control,
                         linearized_coefficients, origin_coefficients)
from .theory import (CarlemanWeights, Eta0, ObservabilityConstants,
                     WeightCheckReport, build_weights, eta0_1d,
                     observability_constant, weight_inequality_checks)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # mesh
    "Grid1D", "TimeGrid", "inner_product", "norm_l2", "mean_value",
    # nonlinear
    "Nonlinearity", "NonlinearityPair", "HypothesisReport", "sigmoid_family",
    "arctan_family", "linear_form", "make_pair", "linear_pair",
    "check_hypotheses",
    # pde
    "CoefficientField", "ControlField", "Trajectory", "StepOperators",
    "ShadowStepOperators", "constant_coefficients", "zero_coefficients",
    "control_cost", "solve_forward_linear", "solve_adjoint",
    "solve_forward_semilinear", "EnergyReport",
    "energy_functional", "SemigroupReport", "semigroup_checks",
    # hum
    "HumConfig", "HumResult", "gramian_apply", "hum_solve",
    "duality_residual", "EpsilonRow", "EpsilonSweepReport", "epsilon_sweep",
    # semilinear
    "FixedPointConfig", "FixedPointResult", "origin_coefficients",
    "linearized_coefficients", "CouplingReport", "coupling_floor_check",
    "fixed_point_control",
    # theory
    "Eta0", "eta0_1d", "CarlemanWeights", "build_weights",
    "ObservabilityConstants", "observability_constant", "WeightCheckReport",
    "weight_inequality_checks",
    # experiments
    "ControlRun", "control_and_reduce", "SweepRow", "SweepReport",
    "sigma_sweep", "shadow_gap", "fit_decay_rate",
    "M1Record", "ScalingReport", "measure_m1", "measure_m1_scaling",
    "measure_m2_scaling",
    # config
    "RunConfig", "ConfigError", "parse_config", "load_config",
    "serialize_config", "build_grid", "build_tgrid", "build_pair",
    "build_initial_data", "build_hum_config", "build_fixed_point_config",
]
