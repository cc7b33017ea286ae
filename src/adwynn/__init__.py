"""Sequential adaptive D-optimal design with least-squares verification."""

from .adaptive import (
    ReplaySource,
    Scenario,
    SimulatedSource,
    Trajectory,
    WynnConfig,
    build_initial_design,
    run,
    simulate_trajectory,
    wynn_step,
)
from .design import (
    Design,
    d_efficiency,
    info_matrix,
    pd_inverse_logdet,
    rank_one_update,
    solve_locally_d_optimal,
)
from .estimator import DataBatch, LSFit, fit_ls, sse, sse_gradient
from .model import (
    Box,
    FiniteSet,
    ModelBundle,
    ModelSpec,
    ParameterSpace,
    builtin_bundle,
    check_si_numeric,
    check_span,
)
from .noise import (
    Heteroscedastic,
    IIDGaussian,
    IIDScaledT,
    NonAH,
    make_error_spec,
    make_rng,
    mix_seed,
)

__version__ = "0.1.0"
