"""Self-adjusting multirate time integration built on the TR-BDF2 method.

The package provides: the one-step TR-BDF2 solver with embedded error
estimation and dense output, an adaptive single-rate driver, the
self-adjusting multirate driver that refines only the components whose local
error demands it, a linear stability analyzer for the resulting scheme, four
benchmark problems, and a command-line front end that reproduces the
accuracy/efficiency experiments at desk scale.
"""

from .controller import (
    ControllerConfig,
    ToleranceSpec,
    accept_global,
    next_step_size,
    normalized_errors,
    select_active,
)
from .dense_linalg import (
    LuFactorization,
    lu_factor,
    lu_solve,
    matrix_norm,
    spectral_radius,
)
from .integrator import (
    IntegrationTrace,
    MacroRecord,
    MicroRecord,
    MultirateConfig,
    Trajectory,
    integrate,
    integrate_single_rate,
    macro_step,
)
from .interpolants import HermiteData, hermite_cubic, linear_interp, quadratic_lagrange
from .ode_problem import (
    ActivePartition,
    EvalCounter,
    OdeProblem,
    eval_subsystem_rhs,
    subsystem_jacobian,
)
from .stability import (
    AmplificationReport,
    RationalMatrixMethod,
    StabilitySetup,
    interpolation_matrix,
    model_system,
    multirate_amplification,
    norm_sweep,
    single_rate_amplification,
)
from .trbdf2 import (
    GAMMA,
    NewtonConfig,
    StepResult,
    TrBdf2Coefficients,
    raw_error_estimate,
    stability_function,
    step,
)

__version__ = "0.1.0"

__all__ = [
    "ActivePartition", "AmplificationReport", "ControllerConfig", "EvalCounter",
    "GAMMA", "HermiteData", "IntegrationTrace", "LuFactorization", "MacroRecord",
    "MicroRecord", "MultirateConfig", "NewtonConfig", "OdeProblem",
    "RationalMatrixMethod", "StabilitySetup", "StepResult", "ToleranceSpec",
    "Trajectory", "TrBdf2Coefficients", "accept_global", "eval_subsystem_rhs",
    "hermite_cubic", "integrate", "integrate_single_rate", "interpolation_matrix",
    "linear_interp", "lu_factor", "lu_solve", "macro_step", "matrix_norm",
    "model_system", "multirate_amplification", "next_step_size", "norm_sweep",
    "normalized_errors", "quadratic_lagrange", "raw_error_estimate",
    "select_active", "single_rate_amplification", "spectral_radius",
    "stability_function", "step", "subsystem_jacobian",
]
