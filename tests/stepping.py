"""Single steps, prepared the way the integrator prepares them, for tests that
use one step as their oracle: a lone TR-BDF2 step, and one macro step of the
multirate driver with its refinement."""

import math
from types import SimpleNamespace

import numpy as np

from mrtrbdf2.integrator import _Chain, _march
from mrtrbdf2.ode_problem import (ActivePartition, EvalCounter, eval_subsystem_rhs,
                                  subsystem_jacobian)
from mrtrbdf2.trbdf2 import NewtonConfig, newton_matrix, step


def lone_step(problem, t, u, h, part=None, frozen=None, *, z_in=None, lu=None, cfg=None,
              counter=None, **kwargs):
    """``trbdf2.step`` from (t, u) on ``part`` (the full system when None) with
    z_n = h·f(t, u) unless ``z_in`` is given, and with I − d·h·J factored for
    J at (t, u) unless ``lu`` is given.  A finite-difference J takes that
    f(t, u) as its base value; every evaluation is charged to ``counter`` (a
    fresh one when None), and Newton runs on ``cfg`` (the default
    :class:`NewtonConfig` when None)."""
    u = np.asarray(u, dtype=float)
    part = ActivePartition.full(problem.m) if part is None else part
    counter = EvalCounter() if counter is None else counter
    f_n = None
    if z_in is None:
        f_n = eval_subsystem_rhs(problem, t, u, frozen, part, counter)
        z_in = h * f_n
    if lu is None:
        jac = subsystem_jacobian(problem, t, u, frozen, part, counter, f0=f_n)
        lu = newton_matrix(jac, h, problem.bandwidth)
    return step(problem, t, u, h, part=part, frozen=frozen, z_in=z_in, lu=lu,
                cfg=NewtonConfig() if cfg is None else cfg, counter=counter, **kwargs)


def macro_step(problem, t, u, h, cfg, counter=None, jacobian=None):
    """The first accepted macro step of the multirate driver from (t, u),
    attempted first at h as given, with no FSAL hand-off or predictor, on the
    carried ``jacobian`` if one is given.  Its target is unreachable, so no
    landing cuts h.  Without a ``counter``, ``cfg.max_steps`` budgets this
    call alone.  Returns the step's ``record``, its refined ``state``, the
    ``jacobian`` it carries on (None when dropped) and the tentative step's
    contraction ``rate``."""
    chain = _Chain(h=h, jacobian=jacobian)
    counter = EvalCounter() if counter is None else counter
    record, _, state = next(_march(problem, t, np.asarray(u, dtype=float), [math.inf], chain,
                                   cfg.controller.delta, cfg, counter,
                                   ActivePartition.full(problem.m)))
    return SimpleNamespace(record=record, state=state, jacobian=chain.jacobian, rate=chain.rate)
