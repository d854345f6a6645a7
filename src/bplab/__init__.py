"""Numerical laboratory for dispersive shallow-water systems over bathymetry.

Periodic pseudospectral discretizations of a shallow-water / Boussinesq-
Peregrine model family, the elliptic operators their velocity equations
invert, energy diagnostics, and a small scenario driver for reproducible
experiments. Grid functions are plain numpy arrays throughout; a model
state is one stacked array U = (zeta or q, V) of shape (1 + d,
*grid.shape), held with its grid by ModelState. The usual entry
points:

    from bplab import Grid, ModelParams, ModelState, StepperConfig, run
    bplab run --config configs/dispersion.yaml        (installed CLI)
"""

from .bathymetry import (
    PROFILES,
    Bathymetry,
    build_bathymetry,
    q_positivity_factor,
    q_to_zeta_arr,
    zeta_to_q_arr,
)
from .diagnostics import (
    DiagnosticsRecord,
    ShockFit,
    build_records,
    burgers_shock_time,
    detect_gradient_blowup,
    energy_EN,
    energy_bp,
    energy_theorem_E,
    estimate_order,
    exact_dispersion,
    measure_dispersion,
)
from .errors import (
    BplabError,
    ConfigError,
    DegenerateFitError,
    DryStateError,
    InsufficientSamplesError,
    LogDomainError,
    NonpositiveDepthError,
    NoShockError,
    SolverDivergenceError,
)
from .models import (
    MODELS,
    ModelParams,
    ModelState,
    RHSBundle,
    build_handles,
    make_rhs,
    max_linear_frequency,
)
from .operators import KINDS, OperatorHandle, build_handle
from .scenarios import (
    SCENARIOS,
    ExperimentConfig,
    ScenarioResult,
    load_config,
    run_scenario,
)
from .spectral import Grid
from .timeloop import CFL_LIMIT, TERMINATIONS, Batch, StepperConfig, Trajectory, run

__version__ = "0.1.0"

__all__ = [
    "Batch",
    "Bathymetry",
    "BplabError",
    "CFL_LIMIT",
    "ConfigError",
    "DegenerateFitError",
    "DiagnosticsRecord",
    "DryStateError",
    "ExperimentConfig",
    "Grid",
    "InsufficientSamplesError",
    "KINDS",
    "LogDomainError",
    "MODELS",
    "ModelParams",
    "ModelState",
    "NoShockError",
    "NonpositiveDepthError",
    "OperatorHandle",
    "PROFILES",
    "RHSBundle",
    "SCENARIOS",
    "ScenarioResult",
    "ShockFit",
    "SolverDivergenceError",
    "StepperConfig",
    "TERMINATIONS",
    "Trajectory",
    "build_bathymetry",
    "build_handle",
    "build_handles",
    "build_records",
    "burgers_shock_time",
    "detect_gradient_blowup",
    "energy_EN",
    "energy_bp",
    "energy_theorem_E",
    "estimate_order",
    "exact_dispersion",
    "load_config",
    "make_rhs",
    "max_linear_frequency",
    "measure_dispersion",
    "q_positivity_factor",
    "q_to_zeta_arr",
    "run",
    "run_scenario",
    "zeta_to_q_arr",
    "__version__",
]
