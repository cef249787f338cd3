"""One step of the TR-BDF2 method.

The method is a composite one-step scheme: a trapezoidal stage to t + γh
followed by a BDF2-type stage to t + h, with γ = 2 − √2 so that both implicit
stages share the matrix (I − d·h·J), d = γ/2.  Each stage is solved with
Newton iterations on the scaled stage derivative z = h·f rather than on the
state itself, which keeps stiff components accurate.  The embedded third-order
weight row provides a raw local error estimate, which is passed through
(I − d·h·J)⁻¹, reusing the stages' factorization, to stay bounded for stiff
components.

:func:`step` solves its stages on a factorization of that matrix that the
caller passes in.  The caller builds it with
:func:`~.ode_problem.subsystem_jacobian` and :func:`newton_matrix`, and so
decides which J a step uses: the integrator carries J across steps and
refactors it with the current h, as in Hosea & Shampine's ode23tb.  The
integrator also always passes the first stage derivative z_n, from the
previous step or from :func:`~.ode_problem.eval_subsystem_rhs` at the step
start.  Called alone, :func:`step` evaluates z_n and J at the step start and
factors J itself.
Given the caller's tolerances, Newton stops as soon as its contraction rate
predicts a stage error well below them (Hairer & Wanner, *Solving ODEs II*,
§IV.8); see :data:`NEWTON_KAPPA`.

A step is taken on an active subsystem whose latent components are read from
a callable of the stage time (see :mod:`.ode_problem`); the full system is
the case where every component is active.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .controller import ToleranceSpec
from .dense_linalg import LuFactorization, lu_factor, lu_solve
from .errors import DimensionMismatch, NewtonDivergence, PoleEncountered
from .ode_problem import (
    ActivePartition,
    EvalCounter,
    OdeProblem,
    eval_subsystem_rhs,
    subsystem_jacobian,
)

GAMMA = 2.0 - math.sqrt(2.0)
D_STAGE = GAMMA / 2.0
W_STAGE = math.sqrt(2.0) / 4.0

# Newton stops once θ/(1−θ)·‖d·Δz‖_w ≤ NEWTON_KAPPA, where θ is the ratio of
# the last two increments and w the weights 1/(τ_r|u|+τ_a): the predicted
# distance of the stage state from the exact stage solution, in units of the
# error tolerance.  κ is a target for that prediction, not a bound on the
# actual distance: θ is estimated from two increments, and on the stiff cubic
# chain of the tests, at h = 0.05 with J scaled ×3 and ×4, the BDF2 stage
# ended 1.14κ and 1.13κ away (within κ at h ≤ 0.02).
NEWTON_KAPPA = 0.01

# Main weights b and embedded third-order weights b* over (z_n, z_γ, z_{n+1}).
WEIGHTS = (W_STAGE, W_STAGE, D_STAGE)
EMBEDDED_WEIGHTS = ((1.0 - W_STAGE) / 3.0, (3.0 * W_STAGE + 1.0) / 3.0, D_STAGE / 3.0)
_ERROR_WEIGHTS = tuple(bs - b for bs, b in zip(EMBEDDED_WEIGHTS, WEIGHTS))


@dataclass
class NewtonConfig:
    """Newton iteration controls for the two implicit stages.

    A stage stops when the max norm of its z-increment is at most
    ``tolerance``, or earlier by the contraction-rate test on the caller's
    tolerances (:data:`NEWTON_KAPPA`).  Both stages iterate on one
    factorization of I − d·h·J, which the caller of :func:`step` supplies.
    """

    tolerance: float = 1e-8
    max_iterations: int = 25

    def __post_init__(self) -> None:
        if not (0.0 < self.tolerance < math.inf):
            raise ValueError("Newton tolerance must be finite and positive")
        if self.max_iterations < 1:
            raise ValueError("Newton iteration cap must be >= 1")


@dataclass(frozen=True)
class StepResult:
    """Everything one TR-BDF2 step produces.

    States and stage derivatives live on the stepped (active) components;
    z values are scaled by the step size (z = h·f).  ``eps_mod`` is the
    modified error estimate (I − d·h·J)⁻¹ ε_raw; the raw estimate ε_raw is
    ``raw_error_estimate(z_n, z_gamma, z_next)``.
    """

    u_gamma: np.ndarray
    u_next: np.ndarray
    z_n: np.ndarray
    z_gamma: np.ndarray
    z_next: np.ndarray
    eps_mod: np.ndarray
    newton_iterations: Tuple[int, int]


def stability_function(z: complex) -> complex:
    """Scalar stability function R(z) of the method.

    R(z) = ([1+(1−γ)²] z + 2(2−γ)) / (z²(1−γ)γ + z(γ²−2) + 2(2−γ)).
    R(0) = 1 and R(z) → 0 as z → −∞ (L-stability).
    """
    g = GAMMA
    num = (1.0 + (1.0 - g) ** 2) * z + 2.0 * (2.0 - g)
    den = z * z * (1.0 - g) * g + z * (g * g - 2.0) + 2.0 * (2.0 - g)
    if abs(den) <= 1e-14 * max(abs(z) ** 2, 1.0):
        raise PoleEncountered(f"stability function evaluated at a pole: z={z}")
    return num / den


def raw_error_estimate(z_n: np.ndarray, z_gamma: np.ndarray, z_next: np.ndarray) -> np.ndarray:
    """Embedded-method error estimate Σ (bᵢ* − bᵢ) zᵢ over the three stages."""
    if not (z_n.shape == z_gamma.shape == z_next.shape):
        raise DimensionMismatch("stage vectors must share one shape")
    e_n, e_gamma, e_next = _ERROR_WEIGHTS
    return e_n * z_n + e_gamma * z_gamma + e_next * z_next


def newton_matrix(jac: np.ndarray, h: float, band: Optional[Tuple[int, int]]) -> LuFactorization:
    """Factor I − d·h·J, the matrix both stages of a step of size h iterate
    on; ``jac`` is in band storage when ``band`` is given."""
    if band is None:
        return lu_factor(np.eye(jac.shape[0]) - (D_STAGE * h) * jac)
    a = (-D_STAGE * h) * jac
    a[band[1]] += 1.0  # the main diagonal sits in row ku of band storage
    return lu_factor(a, band=band)


def _newton_stage(
    f_sub,
    lu: LuFactorization,
    t_stage: float,
    base: np.ndarray,
    z0: np.ndarray,
    h: float,
    cfg: NewtonConfig,
    weights: Optional[np.ndarray],
    counter: Optional[EvalCounter],
) -> Tuple[np.ndarray, int]:
    """Solve z = h f(t_stage, base + d·z) by modified Newton with the given LU.

    Stops when ‖Δz‖∞ ≤ ``cfg.tolerance`` or, given tolerance ``weights`` w,
    once θ/(1−θ)·‖d·Δz‖_w ≤ NEWTON_KAPPA with θ = ‖Δz_k‖_w/‖Δz_{k−1}‖_w < 1.
    That test bounds a predicted distance from the exact stage solution, so
    κ is a target: with a Jacobian several times too stiff the stage can end
    slightly beyond it (1.14κ measured; see :data:`NEWTON_KAPPA`).
    """
    # Each max norm reads the entry at argmax: on the short vectors of micro
    # steps that costs a third of a ufunc reduce, and it is NaN whenever an
    # entry is NaN, as the reduce would be.
    z = z0  # never written in place: each iteration binds a new array
    prev_res = math.inf
    prev_wnorm = 0.0
    growth = 0
    for it in range(1, cfg.max_iterations + 1):
        if counter is not None:
            counter.newton_iterations += 1
        r = h * f_sub(t_stage, base + D_STAGE * z) - z
        a = np.abs(r)
        rnorm = float(a[a.argmax()]) if a.size else 0.0
        if not math.isfinite(rnorm):
            raise NewtonDivergence(f"non-finite Newton residual at t={t_stage}")
        if rnorm > prev_res:
            growth += 1
            if growth >= 2:
                raise NewtonDivergence(
                    f"Newton residual grew twice in a row at t={t_stage} (residual {rnorm:.3e})"
                )
        else:
            growth = 0
        prev_res = rnorm
        delta = lu_solve(lu, r)
        z = z + delta
        a = np.abs(delta)
        dnorm = float(a[a.argmax()]) if a.size else 0.0
        if dnorm <= cfg.tolerance:
            return z, it
        if weights is not None:
            a *= weights  # |Δz|·w is |Δz·w| to the bit, as w > 0
            wnorm = float(a[a.argmax()])
            if it > 1:
                theta = wnorm / prev_wnorm
                if theta < 1.0 and theta / (1.0 - theta) * D_STAGE * wnorm <= NEWTON_KAPPA:
                    return z, it
            prev_wnorm = wnorm
    raise NewtonDivergence(f"Newton did not converge in {cfg.max_iterations} iterations at t={t_stage}")


def step(
    problem: OdeProblem,
    t: float,
    u: np.ndarray,
    h: float,
    part: Optional[ActivePartition] = None,
    frozen: Optional[Callable[[float], np.ndarray]] = None,
    z_in: Optional[np.ndarray] = None,
    cfg: Optional[NewtonConfig] = None,
    counter: Optional[EvalCounter] = None,
    lu: Optional[LuFactorization] = None,
    tolerances: Optional[ToleranceSpec] = None,
) -> StepResult:
    """Advance the (sub)system one TR-BDF2 step of size h from (t, u).

    ``u`` holds the active components when ``part`` names a proper subsystem;
    ``frozen`` then maps a stage time to the length-m context carrying the
    latent values (so latent components reconstructed by interpolation are
    sampled at each stage time instead of being held fixed across the step,
    which would degrade the step to first order).  Every rhs call and a fresh
    Jacobian write the active state into that context in place; its latent
    entries are only read.  ``frozen=None`` is the full system, evaluated on
    the state itself.  ``z_in`` is an already-scaled first-stage derivative
    h·f(t, u), which the integrator always passes (the FSAL hand-off from a
    previous step, or h times f at the step start); only a step called alone
    evaluates it here.

    Both implicit stages and the error estimate share ``lu``, the
    factorization of (I − d·h·J) for this h that :func:`newton_matrix`
    builds.  The step never evaluates J when ``lu`` is given; without it, J
    is evaluated at the step start (:func:`~.ode_problem.subsystem_jacobian`)
    and factored here; a finite-difference J then takes the f evaluated for
    z_n as its base value.
    With ``tolerances`` Newton also stops by its contraction rate, weighted
    by 1/(τ_r|u|+τ_a).  Raises :class:`NewtonDivergence` when an iteration
    stalls, or :class:`NonFiniteOutput` or :class:`SingularMatrix`; the
    caller is expected to retry with a fresh Jacobian or a smaller h.
    """
    if cfg is None:
        cfg = NewtonConfig()
    if h <= 0:
        raise ValueError(f"step size must be positive, got {h}")
    u = np.asarray(u, dtype=float)
    if part is None:
        part = ActivePartition.full(problem.m)
    if part.is_full:
        frozen = None
    elif frozen is None:
        raise DimensionMismatch("a proper subsystem step needs the frozen full-state context")
    if u.shape[0] != part.size:
        raise DimensionMismatch(f"state length {u.shape[0]} != active size {part.size}")

    if frozen is None:
        def f_sub(ts: float, x: np.ndarray) -> np.ndarray:
            return eval_subsystem_rhs(problem, ts, x, None, part, counter)
    else:
        def f_sub(ts: float, x: np.ndarray) -> np.ndarray:
            return eval_subsystem_rhs(problem, ts, x, frozen(ts), part, counter)

    f_n = None  # f at the step start, when evaluated here
    if z_in is None:
        f_n = f_sub(t, u)
        z_n = h * f_n
    else:
        z_n = np.asarray(z_in, dtype=float)
    if z_n.shape != u.shape:
        raise DimensionMismatch("z_in has the wrong shape")

    if lu is None:
        jac = subsystem_jacobian(problem, t, u, None if frozen is None else frozen(t), part,
                                 counter, f0=f_n)
        lu = newton_matrix(jac, h, problem.bandwidth)
    elif lu.n != part.size:
        raise DimensionMismatch(f"factorization of order {lu.n} for {part.size} active components")
    weights = None if tolerances is None else 1.0 / tolerances.scale(u)

    # Trapezoidal stage to t + γh, started from the incoming stage derivative.
    base1 = u + D_STAGE * z_n
    z_gamma, it_tr = _newton_stage(f_sub, lu, t + GAMMA * h, base1, z_n, h, cfg, weights, counter)
    u_gamma = base1 + D_STAGE * z_gamma

    # BDF2 stage to t + h, started from the trapezoidal stage derivative.
    base2 = u + W_STAGE * z_n + W_STAGE * z_gamma
    z_next, it_bdf = _newton_stage(f_sub, lu, t + h, base2, z_gamma, h, cfg, weights, counter)
    u_next = base2 + D_STAGE * z_next

    eps_raw = raw_error_estimate(z_n, z_gamma, z_next)
    eps_mod = lu_solve(lu, eps_raw) if eps_raw.size else eps_raw.copy()
    return StepResult(
        u_gamma=u_gamma,
        u_next=u_next,
        z_n=z_n,
        z_gamma=z_gamma,
        z_next=z_next,
        eps_mod=eps_mod,
        newton_iterations=(it_tr, it_bdf),
    )
