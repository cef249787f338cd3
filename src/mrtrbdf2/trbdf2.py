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
caller also passes the first stage derivative z_n, from the previous step or
from :func:`~.ode_problem.eval_subsystem_rhs` at the step start.
Given the caller's tolerances, Newton stops as soon as its contraction rate
predicts a stage error well below them (Hairer & Wanner, *Solving ODEs II*,
§IV.8); see :data:`NEWTON_KAPPA`.

Each stage starts from a predicted z rather than from a stage derivative
already known, as in ode23tb (Hosea & Shampine, 1996).  Given the previous
accepted step on the same components that ends at t, the quadratic through
its two first stage derivatives and z_n, extrapolated to t + γh, starts the
trapezoidal stage, and the quadratic through its z_γ, z_n and the solved z_γ
of this step, extrapolated to t + h, starts the BDF2 stage.  Without one, the
trapezoidal stage starts from z_n and the BDF2 stage from the line through
z_n and z_γ.  The caller also carries the contraction rate of the last
Newton iteration across stages and steps, as RADAU5 carries FACCON (Hairer &
Wanner II, §IV.8): with a good start value, the first increment times that
rate is often below the stop target, so a stage ends after one iteration.

A step is taken on an active subsystem whose latent components are read from
a provider, a callable of the stage time (see :mod:`.ode_problem`); the full
system is the case where every component is active.
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
    # not called here: the attempt loop evaluates J through this binding,
    # which perfbench's tracer wraps
    subsystem_jacobian,  # noqa: F401
)

GAMMA = 2.0 - math.sqrt(2.0)
D_STAGE = GAMMA / 2.0
W_STAGE = math.sqrt(2.0) / 4.0

# Newton stops once θ/(1−θ)·‖d·Δz‖_w ≤ NEWTON_KAPPA, where θ is the ratio of
# the last two increments and w the weights 1/(τ_r|u|+τ_a): the predicted
# distance of the stage state from the exact stage solution, in units of the
# error tolerance.  At a stage's first iteration θ/(1−θ) is the rate carried
# in from the iterations before, damped towards 1 by the power 0.8 at each
# stage start (RADAU5's FACCON).  κ is a target for that prediction, not a
# bound on the actual distance: θ is estimated from two increments, and on
# the stiff cubic chain of the tests, at h = 0.05 with J scaled ×3 and ×4, the
# BDF2 stage ended 1.14κ and 1.13κ away (within κ at h ≤ 0.02).
NEWTON_KAPPA = 0.01
# A previous step predicts this one's stage values only while h_prev/h lies
# strictly inside these bounds; outside them the extrapolation weights grow
# without bound (or h_prev/h is not finite after a landing near the smallest
# subnormal), and the stages start as they would without a previous step.
PREDICTOR_SPACING = (1e-3, 1e3)

# Main weights b and embedded third-order weights b* over (z_n, z_γ, z_{n+1}).
WEIGHTS = (W_STAGE, W_STAGE, D_STAGE)
EMBEDDED_WEIGHTS = ((1.0 - W_STAGE) / 3.0, (3.0 * W_STAGE + 1.0) / 3.0, D_STAGE / 3.0)
_ERROR_WEIGHTS = tuple(bs - b for bs, b in zip(EMBEDDED_WEIGHTS, WEIGHTS))
_EPS = float(np.finfo(float).eps)


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
    ``raw_error_estimate(z_n, z_gamma, z_next)``.  ``rate`` is Newton's
    contraction factor θ/(1−θ) as the BDF2 stage left it, for the next step
    on the same Jacobian to carry (see :func:`step`).
    """

    u_gamma: np.ndarray
    u_next: np.ndarray
    z_n: np.ndarray
    z_gamma: np.ndarray
    z_next: np.ndarray
    eps_mod: np.ndarray
    newton_iterations: Tuple[int, int]
    rate: float


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


def _lagrange_weights(nodes: Tuple[float, float, float], x: float) -> Tuple[float, float, float]:
    """Weights at x of the quadratic through values at the three ``nodes``."""
    a, b, c = nodes
    return ((x - b) * (x - c) / ((a - b) * (a - c)),
            (x - a) * (x - c) / ((b - a) * (b - c)),
            (x - a) * (x - b) / ((c - a) * (c - b)))


def _newton_stage(
    f_sub,
    lu: LuFactorization,
    t_stage: float,
    base: np.ndarray,
    z0: np.ndarray,
    h: float,
    cfg: NewtonConfig,
    weights: Optional[np.ndarray],
    counter: EvalCounter,
    rate: float,
) -> Tuple[np.ndarray, int, float]:
    """Solve z = h f(t_stage, base + d·z) by modified Newton with the given LU,
    starting from the predicted ``z0``.

    Stops when ‖Δz‖∞ ≤ ``cfg.tolerance`` or, given tolerance ``weights`` w,
    once rate·‖d·Δz‖_w ≤ NEWTON_KAPPA.  From the second iteration on, rate is
    θ/(1−θ) with θ = ‖Δz_k‖_w/‖Δz_{k−1}‖_w < 1 (RADAU5's FACCON; Hairer &
    Wanner II, §IV.8); at the first, it is the carried ``rate`` raised to the
    power 0.8, which moves a stale rate towards 1.  That test bounds a
    predicted distance from the exact stage solution, so κ is a target: with
    a Jacobian several times too stiff the stage can end slightly beyond it
    (1.14κ measured; see :data:`NEWTON_KAPPA`).  Returns z, the iteration
    count and the rate to carry on.
    """
    # Each max norm reads the entry at argmax: on the short vectors of micro
    # steps that costs a third of a ufunc reduce, and it is NaN whenever an
    # entry is NaN, as the reduce would be.
    z = z0  # never written in place: each iteration binds a new array
    rate = max(rate, _EPS) ** 0.8
    prev_res = math.inf
    prev_wnorm = 0.0
    growth = 0
    for it in range(1, cfg.max_iterations + 1):
        counter.newton_iterations += 1
        r = h * f_sub(t_stage, base + D_STAGE * z) - z
        a = np.abs(r)
        rnorm = float(a[a.argmax()])
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
        dnorm = float(a[a.argmax()])
        if dnorm <= cfg.tolerance:
            return z, it, rate
        if weights is not None:
            a *= weights  # |Δz|·w is |Δz·w| to the bit, as w > 0
            wnorm = float(a[a.argmax()])
            if it > 1:
                theta = wnorm / prev_wnorm
                rate = theta / (1.0 - theta) if theta < 1.0 else math.inf
            if rate * D_STAGE * wnorm <= NEWTON_KAPPA:
                return z, it, rate
            prev_wnorm = wnorm
    raise NewtonDivergence(f"Newton did not converge in {cfg.max_iterations} iterations at t={t_stage}")


def step(
    problem: OdeProblem,
    t: float,
    u: np.ndarray,
    h: float,
    part: ActivePartition,
    frozen: Optional[Callable[[float], np.ndarray]] = None,
    *,
    z_in: np.ndarray,
    lu: LuFactorization,
    cfg: NewtonConfig,
    counter: EvalCounter,
    tolerances: Optional[ToleranceSpec] = None,
    prev: Optional[Tuple[float, np.ndarray, np.ndarray]] = None,
    rate: float = 1.0,
) -> StepResult:
    """Advance the (sub)system one TR-BDF2 step of size h from (t, u).

    ``u`` holds the components ``part`` names.  On a proper subsystem
    ``frozen`` maps a stage time to the length-m context carrying the latent
    values (so latent components reconstructed by interpolation are sampled
    at each stage time instead of being held fixed across the step, which
    would degrade the step to first order), and goes unchanged to
    :func:`~.ode_problem.eval_subsystem_rhs`.  On the full partition it is
    never called, and may be None.
    ``z_in`` is the already-scaled first-stage derivative h·f(t, u): the FSAL
    hand-off from a previous step, or h times f at the step start.

    Both implicit stages and the error estimate share ``lu``, the
    factorization of (I − d·h·J) for this h that :func:`newton_matrix`
    builds from a J the caller evaluated
    (:func:`~.ode_problem.subsystem_jacobian`); the step evaluates no J and
    factors nothing.
    With ``tolerances`` Newton also stops by its contraction rate, weighted
    by 1/(τ_r|u|+τ_a), and at a stage's first iteration by the carried
    ``rate`` (:func:`_newton_stage`); the result's ``rate`` is the one to
    carry to the next step.  ``prev`` is the previous accepted step on the
    same components that ends at t, as (h_prev, its z_n, its z_γ); it
    predicts the start values of both stages by quadratic extrapolation
    while h_prev/h lies inside :data:`PREDICTOR_SPACING`.  Raises
    :class:`NewtonDivergence` when an iteration stalls, or
    :class:`NonFiniteOutput` or :class:`SingularMatrix`; the caller is
    expected to retry with a fresh Jacobian or a smaller h.
    """
    if h <= 0:
        raise ValueError(f"step size must be positive, got {h}")
    u = np.asarray(u, dtype=float)
    if frozen is None and not part.is_full:
        raise DimensionMismatch("a proper subsystem step needs the frozen full-state context")
    if u.shape[0] != part.size:
        raise DimensionMismatch(f"state length {u.shape[0]} != active size {part.size}")

    def f_sub(ts: float, x: np.ndarray) -> np.ndarray:
        return eval_subsystem_rhs(problem, ts, x, frozen, part, counter)

    z_n = np.asarray(z_in, dtype=float)
    if z_n.shape != u.shape:
        raise DimensionMismatch("z_in has the wrong shape")
    if lu.n != part.size:
        raise DimensionMismatch(f"factorization of order {lu.n} for {part.size} active components")
    weights = None if tolerances is None else 1.0 / tolerances.scale(u)

    if prev is not None:
        # the previous step's z are h_prev·f, so their weights carry h/h_prev
        rho = prev[0] / h  # h_prev/h
        if not PREDICTOR_SPACING[0] < rho < PREDICTOR_SPACING[1]:
            prev = None

    # Trapezoidal stage to t + γh.  The quadratic through f at t − h_prev,
    # t − h_prev + γh_prev and t, in units of h_prev, predicts its z.
    z0 = z_n
    if prev is not None:
        _, zp_n, zp_gamma = prev
        wa, wb, wc = _lagrange_weights((-1.0, GAMMA - 1.0, 0.0), GAMMA / rho)
        z0 = (wa / rho) * zp_n + (wb / rho) * zp_gamma + wc * z_n
    base1 = u + D_STAGE * z_n
    z_gamma, it_tr, rate = _newton_stage(f_sub, lu, t + GAMMA * h, base1, z0, h, cfg, weights,
                                         counter, rate)
    u_gamma = base1 + D_STAGE * z_gamma

    # BDF2 stage to t + h.  The quadratic through f at t − h_prev + γh_prev,
    # t and t + γh, in units of h, predicts its z; without a previous step,
    # the line through z_n and z_γ.
    if prev is None:
        z0 = (1.0 - 1.0 / GAMMA) * z_n + (1.0 / GAMMA) * z_gamma
    else:
        wa, wb, wc = _lagrange_weights(((GAMMA - 1.0) * rho, 0.0, GAMMA), 1.0)
        z0 = (wa / rho) * zp_gamma + wb * z_n + wc * z_gamma
    base2 = u + W_STAGE * z_n + W_STAGE * z_gamma
    z_next, it_bdf, rate = _newton_stage(f_sub, lu, t + h, base2, z0, h, cfg, weights,
                                         counter, rate)
    u_next = base2 + D_STAGE * z_next

    eps_raw = raw_error_estimate(z_n, z_gamma, z_next)
    eps_mod = lu_solve(lu, eps_raw)
    return StepResult(
        u_gamma=u_gamma,
        u_next=u_next,
        z_n=z_n,
        z_gamma=z_gamma,
        z_next=z_next,
        eps_mod=eps_mod,
        newton_iterations=(it_tr, it_bdf),
        rate=rate,
    )
