"""Sparsity-aware LMS adaptive filters and a reproducible Monte-Carlo harness.

The library implements four stochastic-gradient update rules (plain LMS,
leaky LMS, and their shrinkage-constrained counterparts) plus everything
needed to reproduce a sparse-system-identification study: seeded signal
generators, a trial/cell runner whose batched engine reproduces every run
bit for bit, a config-document parser and CSV/SVG emitters.  The
``sparselms`` command (:mod:`sparselms.cli`) is not imported by the package.
"""

from .errors import (
    ConfigError,
    DimensionMismatchError,
    DivergenceError,
    ParameterError,
)
from .filter_core import (
    AlgorithmConfig,
    FilterState,
    LeakSign,
    Variant,
    pnorm_like,
    pnorm_like_gradient_term,
    step,
)
from .signal_gen import (
    RngStream,
    gen_ar1_input,
    gen_cell_realizations,
    gen_gaussian_noise,
    gen_sparse_system,
    regressor_at,
)
from .config import ExperimentConfig, default_schedule, parse_config
from .experiment import (
    MsdCurve,
    SteadyStateSummary,
    msd,
    run_experiment,
    run_trial,
    steady_state,
)
from .emit import emit_csv, emit_plot

__version__ = "0.1.0"

__all__ = [
    "AlgorithmConfig",
    "ConfigError",
    "DimensionMismatchError",
    "DivergenceError",
    "ExperimentConfig",
    "FilterState",
    "LeakSign",
    "MsdCurve",
    "ParameterError",
    "RngStream",
    "SteadyStateSummary",
    "Variant",
    "default_schedule",
    "emit_csv",
    "emit_plot",
    "gen_ar1_input",
    "gen_cell_realizations",
    "gen_gaussian_noise",
    "gen_sparse_system",
    "msd",
    "parse_config",
    "pnorm_like",
    "pnorm_like_gradient_term",
    "regressor_at",
    "run_experiment",
    "run_trial",
    "steady_state",
    "step",
]
