"""Adaptive spectral approximation toolkit.

Orthogonal bases with scaling and translation on bounded and unbounded
domains, frequency/exterior smoothness indicators, order (p), scaling (r)
and grid-translation adaptivity controllers, a Krylov-free matrix
exponential, function-tracking and ODE-system drivers, and a
Hermite-Galerkin propagator for the 1-D time-dependent Schrodinger
equation, plus the reproduction experiments behind the `adaptspec` CLI.
"""

from .adapt import (
    AdaptiveState,
    ControllerConfig,
    StepRecord,
    coarsen,
    initial_state,
    move_step,
    orchestrate_step,
    p_adapt_step,
    p_adapt_step_2d,
    refine,
    resample,
    resample_2d,
    rescale,
    scale_step,
    translate,
)
from .basis import (
    BasisDescriptor,
    Expansion2D,
    Family,
    MAX_ORDER,
    QuadratureRule,
    SpectralExpansion,
    differentiate,
    evaluate_all,
    node_values,
    node_values_2d,
    nodes_weights,
    norms,
    to_coefficients,
    to_coefficients_2d,
    to_values,
    to_values_2d,
)
from .experiments import ExperimentConfig, TimeSeriesRecord, example_config
from .expm import ExpmConfig, expm_action
from .indicators import (
    IndicatorConfig,
    exterior_error_indicator,
    frequency_indicator,
    frequency_indicator_axis,
    relative_error,
    relative_error_2d,
)
from .schrodinger import (
    SchrodingerProblem,
    adapt_schrodinger_run,
    gaussian_packet,
    potential_apply,
    propagate_step,
    stiffness_apply,
    stiffness_matrix,
)
from .solvers import (
    EvolutionProblem,
    advection_rhs,
    rk3_step,
    solve_collocation,
    track_function,
    track_function_2d,
)

__all__ = [
    "AdaptiveState",
    "BasisDescriptor",
    "ControllerConfig",
    "EvolutionProblem",
    "Expansion2D",
    "ExperimentConfig",
    "ExpmConfig",
    "Family",
    "IndicatorConfig",
    "MAX_ORDER",
    "QuadratureRule",
    "SchrodingerProblem",
    "SpectralExpansion",
    "StepRecord",
    "TimeSeriesRecord",
    "adapt_schrodinger_run",
    "advection_rhs",
    "coarsen",
    "differentiate",
    "evaluate_all",
    "example_config",
    "expm_action",
    "exterior_error_indicator",
    "frequency_indicator",
    "frequency_indicator_axis",
    "gaussian_packet",
    "initial_state",
    "move_step",
    "node_values",
    "node_values_2d",
    "nodes_weights",
    "norms",
    "orchestrate_step",
    "p_adapt_step",
    "p_adapt_step_2d",
    "potential_apply",
    "propagate_step",
    "refine",
    "relative_error",
    "relative_error_2d",
    "resample",
    "resample_2d",
    "rescale",
    "rk3_step",
    "scale_step",
    "solve_collocation",
    "stiffness_apply",
    "stiffness_matrix",
    "to_coefficients",
    "to_coefficients_2d",
    "to_values",
    "to_values_2d",
    "track_function",
    "track_function_2d",
    "translate",
]

__version__ = "0.1.0"
