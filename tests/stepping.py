"""A lone TR-BDF2 step, prepared at its start the way the integrator's attempt
loop prepares one, for tests that use a single step as their oracle."""

import numpy as np

from mrtrbdf2.ode_problem import ActivePartition, eval_subsystem_rhs, subsystem_jacobian
from mrtrbdf2.trbdf2 import newton_matrix, step


def lone_step(problem, t, u, h, part=None, frozen=None, *, z_in=None, lu=None, counter=None,
              **kwargs):
    """``trbdf2.step`` from (t, u) with z_n = h·f(t, u) unless ``z_in`` is
    given, and with I − d·h·J factored for J at (t, u) unless ``lu`` is given.
    A finite-difference J takes that f(t, u) as its base value; every
    evaluation is charged to ``counter``."""
    u = np.asarray(u, dtype=float)
    sub = ActivePartition.full(problem.m) if part is None else part
    context = None if sub.is_full else frozen(t)
    f_n = None
    if z_in is None:
        f_n = eval_subsystem_rhs(problem, t, u, context, sub, counter)
        z_in = h * f_n
    if lu is None:
        jac = subsystem_jacobian(problem, t, u, context, sub, counter, f0=f_n)
        lu = newton_matrix(jac, h, problem.bandwidth)
    return step(problem, t, u, h, part=part, frozen=frozen, z_in=z_in, lu=lu, counter=counter,
                **kwargs)
