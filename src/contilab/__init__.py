"""contilab: seeded simulation and closed-form analysis of capacity-limited
learning agents in drifting environments, with a reproducible experiment
harness."""

__version__ = "0.1.0"

from .core import StepRecord, TrajectorySummary, run_trajectory
from .errors import ConfigurationError, ContilabError, DegenerateMdpError, NumericError
from .rng import RngStream
from .sweep import ExperimentConfig, SeriesRow, SweepRow, SweepTable, monte_carlo_sweep, run_trials

__all__ = [
    "ConfigurationError",
    "ContilabError",
    "DegenerateMdpError",
    "ExperimentConfig",
    "NumericError",
    "RngStream",
    "SeriesRow",
    "StepRecord",
    "SweepRow",
    "SweepTable",
    "TrajectorySummary",
    "monte_carlo_sweep",
    "run_trajectory",
    "run_trials",
]
