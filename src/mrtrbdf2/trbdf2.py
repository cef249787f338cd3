"""One step of the TR-BDF2 method.

The method is a composite one-step scheme: a trapezoidal stage to t + γh
followed by a BDF2-type stage to t + h, with γ = 2 − √2 so that both implicit
stages share the matrix (I − d·h·J), d = γ/2.  Each stage is solved with
Newton iterations on the scaled stage derivative z = h·f rather than on the
state itself, which keeps stiff components accurate.  The embedded third-order
weight row provides a raw local error estimate, which is passed through
(I − d·h·J)⁻¹, reusing the stages' factorization, to stay bounded for stiff
components.

A step is taken on an active subsystem whose latent components are read from
a callable of the stage time (see :mod:`.ode_problem`); the full system is
the case where every component is active.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

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


@dataclass(frozen=True)
class TrBdf2Coefficients:
    """Method constants: γ = 2−√2, d = γ/2, w = √2/4, main and embedded weights."""

    gamma: float = GAMMA
    d: float = D_STAGE
    w: float = W_STAGE
    b: Tuple[float, float, float] = (W_STAGE, W_STAGE, D_STAGE)
    b_star: Tuple[float, float, float] = (
        (1.0 - W_STAGE) / 3.0,
        (3.0 * W_STAGE + 1.0) / 3.0,
        D_STAGE / 3.0,
    )


COEFFS = TrBdf2Coefficients()


@dataclass
class NewtonConfig:
    """Newton iteration controls for the two implicit stages.

    ``tolerance`` is applied to the max norm of the z-increment.  Both stages
    iterate on one factorization of I − d·h·J with J taken at the step start.
    """

    tolerance: float = 1e-8
    max_iterations: int = 25

    def __post_init__(self) -> None:
        if self.tolerance <= 0:
            raise ValueError("Newton tolerance must be positive")
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


def raw_error_estimate(
    z_n: np.ndarray,
    z_gamma: np.ndarray,
    z_next: np.ndarray,
    c: TrBdf2Coefficients = COEFFS,
) -> np.ndarray:
    """Embedded-method error estimate Σ (bᵢ* − bᵢ) zᵢ over the three stages."""
    z_n = np.asarray(z_n, dtype=float)
    z_gamma = np.asarray(z_gamma, dtype=float)
    z_next = np.asarray(z_next, dtype=float)
    if not (z_n.shape == z_gamma.shape == z_next.shape):
        raise DimensionMismatch("stage vectors must share one shape")
    db = [c.b_star[i] - c.b[i] for i in range(3)]
    return db[0] * z_n + db[1] * z_gamma + db[2] * z_next


def _factor_newton_matrix(
    jac: np.ndarray, h: float, band: Optional[Tuple[int, int]]
) -> LuFactorization:
    """Factor I − d·h·J; ``jac`` is in band storage when ``band`` is given."""
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
) -> Tuple[np.ndarray, int]:
    """Solve z = h f(t_stage, base + d·z) by modified Newton with the frozen LU."""
    z = z0.copy()
    prev_res = math.inf
    growth = 0
    for it in range(1, cfg.max_iterations + 1):
        r = h * f_sub(t_stage, base + D_STAGE * z) - z
        rnorm = float(np.max(np.abs(r))) if r.size else 0.0
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
        dnorm = float(np.max(np.abs(delta))) if delta.size else 0.0
        if dnorm <= cfg.tolerance:
            return z, it
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
) -> StepResult:
    """Advance the (sub)system one TR-BDF2 step of size h from (t, u).

    ``u`` holds the active components when ``part`` names a proper subsystem;
    ``frozen`` then maps a stage time to the full-state context carrying the
    latent values (so latent components reconstructed by interpolation are
    sampled at each stage time instead of being held fixed across the step,
    which would degrade the step to first order).  A full step needs no
    ``frozen``.  ``z_in`` is an already-scaled first-stage derivative
    h·f(t, u) (the FSAL hand-off from a previous step); when absent it is
    computed.

    Both implicit stages share one LU factorization of (I − d·h·J), with the
    Jacobian frozen at the step start; it is factored in band storage when
    the problem declares a Jacobian bandwidth.  Raises :class:`NewtonDivergence`
    when an iteration stalls; the caller is expected to reduce h and retry.
    """
    if cfg is None:
        cfg = NewtonConfig()
    if h <= 0:
        raise ValueError(f"step size must be positive, got {h}")
    u = np.asarray(u, dtype=float)
    if part is None:
        part = ActivePartition.full(problem.m)
    if frozen is None:
        if not part.is_full:
            raise DimensionMismatch("a proper subsystem step needs the frozen full-state context")

        def frozen(ts: float) -> np.ndarray:
            return u

    if u.shape[0] != part.size:
        raise DimensionMismatch(f"state length {u.shape[0]} != active size {part.size}")

    def f_sub(ts: float, x: np.ndarray) -> np.ndarray:
        return eval_subsystem_rhs(problem, ts, x, frozen(ts), part, counter)

    z_n = h * f_sub(t, u) if z_in is None else np.asarray(z_in, dtype=float)
    if z_n.shape != u.shape:
        raise DimensionMismatch("z_in has the wrong shape")

    jac = subsystem_jacobian(problem, t, part.scatter(u, frozen(t)), part, counter)
    lu = _factor_newton_matrix(jac, h, problem.bandwidth)

    # Trapezoidal stage to t + γh, started from the incoming stage derivative.
    z_gamma, it_tr = _newton_stage(f_sub, lu, t + GAMMA * h, u + D_STAGE * z_n, z_n, h, cfg)
    u_gamma = u + D_STAGE * z_n + D_STAGE * z_gamma

    # BDF2 stage to t + h, started from the trapezoidal stage derivative.
    base2 = u + W_STAGE * z_n + W_STAGE * z_gamma
    z_next, it_bdf = _newton_stage(f_sub, lu, t + h, base2, z_gamma, h, cfg)
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
