"""Deterministic simulator for federated meta-learning over a wireless network."""

from .errors import (
    ConfigurationError,
    InfeasibleAllocationError,
    InvalidInputError,
    NumericalError,
)
from .harness import ExperimentConfig, RoundMetrics, run, sweep
from .metacore import LogisticModel, LossModel, MetaHyper, QuadraticModel
from .selection import aggregate, select_top_k, shifted_scores
from .tasks import Population, PopulationSpec, generate_population
from .ural import Sp1Solution, Sp2Solution, ives, solve_sp1
from .wireless import (
    Allocation,
    ComputeProfile,
    EnvironmentSpec,
    NetworkConfig,
    RadioProfile,
    round_totals,
    sample_environment,
)

__version__ = "0.1.0"

__all__ = [
    "Allocation",
    "ComputeProfile",
    "ConfigurationError",
    "EnvironmentSpec",
    "ExperimentConfig",
    "InfeasibleAllocationError",
    "InvalidInputError",
    "LogisticModel",
    "LossModel",
    "MetaHyper",
    "NetworkConfig",
    "NumericalError",
    "Population",
    "PopulationSpec",
    "QuadraticModel",
    "RadioProfile",
    "RoundMetrics",
    "Sp1Solution",
    "Sp2Solution",
    "aggregate",
    "generate_population",
    "ives",
    "round_totals",
    "run",
    "sample_environment",
    "select_top_k",
    "shifted_scores",
    "solve_sp1",
    "sweep",
]
