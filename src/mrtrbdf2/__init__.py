"""Self-adjusting multirate time integration built on the TR-BDF2 method.

The package provides: the one-step TR-BDF2 solver with embedded error
estimation and dense output, an adaptive single-rate driver, the
self-adjusting multirate driver that refines only the components whose local
error demands it, a linear stability analyzer for the resulting scheme, four
benchmark problems, and a command-line front end that reproduces the
accuracy/efficiency experiments at desk scale.

The top level exports the driver API; everything else is imported from its
submodule (``mrtrbdf2.trbdf2``, ``mrtrbdf2.stability``, ...).
"""

from .controller import ControllerConfig, ToleranceSpec
from .integrator import MultirateConfig, integrate, integrate_single_rate
from .ode_problem import OdeProblem
from .trbdf2 import NewtonConfig

__version__ = "0.1.0"

__all__ = [
    "ControllerConfig", "MultirateConfig", "NewtonConfig", "OdeProblem", "ToleranceSpec",
    "__version__", "integrate", "integrate_single_rate",
]
