"""Adaptive spectral approximation toolkit.

Orthogonal bases with scaling and translation on bounded and unbounded
domains, frequency/exterior smoothness indicators, order (p), scaling (r)
and grid-translation adaptivity controllers, a Krylov-free matrix
exponential, function-tracking and ODE-system drivers, and a
Hermite-Galerkin propagator for the 1-D time-dependent Schrodinger
equation, plus the reproduction experiments behind the `adaptspec` CLI.
"""

from . import adapt, basis, experiments, expm, indicators, schrodinger, solvers
from .adapt import *
from .basis import *
from .experiments import ExperimentConfig, example_config
from .expm import *
from .indicators import (
    exterior_error_indicator,
    frequency_indicator,
    frequency_indicator_axis,
    relative_error,
    relative_error_2d,
)
from .schrodinger import *
from .solvers import *

# every layer name imported above: all of five layers, a subset of two
__all__ = sorted(
    name
    for layer in (adapt, basis, experiments, expm, indicators, schrodinger, solvers)
    for name in layer.__all__
    if name in globals()
)

__version__ = "0.1.0"
