"""Tolerance handling, error normalization, accept/reject logic, active-set
selection and step-size proposals.

The normalized error of component i is η_i = |ε_i| / (τ_r |û_i| + τ_a); a
step passes when max η ≤ 1.  Components within a factor δ of the worst
normalized error are flagged for refinement.  New step sizes follow the
standard order-based criterion h_new = ν·h·min_j ((τ_r|û_j|+τ_a)/ε_j)^{1/(p+1)}
clamped to the configured bounds and growth cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyActiveSet

# Error floor guarding the step-size formula against division blow-up.
EPS_FLOOR = 1e-300

# Convergence order p of TR-BDF2; step proposals scale with ε^(−1/(p+1)).
ORDER = 2


@dataclass(frozen=True)
class ToleranceSpec:
    """Relative and absolute error tolerances, both finite; τ_a > 0 guards
    the division."""

    tau_r: float
    tau_a: float

    def __post_init__(self) -> None:
        if not 0.0 < self.tau_a < math.inf:
            raise ValueError(f"absolute tolerance must be finite and > 0, got {self.tau_a!r}")
        if not 0.0 <= self.tau_r < math.inf:
            raise ValueError(f"relative tolerance must be finite and >= 0, got {self.tau_r!r}")

    def scale(self, u: np.ndarray) -> np.ndarray:
        """Per-component tolerance scale τ_r |u| + τ_a."""
        return self.tau_r * np.abs(u) + self.tau_a


@dataclass(frozen=True)
class ControllerConfig:
    """Step controller knobs.

    ``delta`` is the refinement threshold (δ = 1 disables partitioning and
    the integrator degenerates to adaptive single-rate stepping); ``nu`` is
    the safety factor.
    """

    delta: float = 0.1
    nu: float = 0.9
    h_min: float = 1e-12
    h_max: float = math.inf
    max_growth: float = 5.0
    max_rejections: int = 20

    def __post_init__(self) -> None:
        if not (0.0 < self.delta <= 1.0):
            raise ValueError("delta must lie in (0, 1]")
        if not (0.0 < self.nu < 1.0):
            raise ValueError("nu must lie in (0, 1)")
        if not (0.0 < self.h_min < self.h_max):
            raise ValueError("need 0 < h_min < h_max")
        if self.max_growth <= 1.0:
            raise ValueError("max_growth must exceed 1")
        if self.max_rejections < 1:
            raise ValueError("max_rejections must be >= 1")


def normalized_errors(eps: np.ndarray, u_hat: np.ndarray, tol: ToleranceSpec) -> np.ndarray:
    """η_i = |ε_i| / (τ_r |û_i| + τ_a), componentwise."""
    eps = np.asarray(eps, dtype=float)
    u_hat = np.asarray(u_hat, dtype=float)
    if eps.shape != u_hat.shape:
        raise DimensionMismatch(f"error shape {eps.shape} != state shape {u_hat.shape}")
    return np.abs(eps) / tol.scale(u_hat)


def accept_global(eta: np.ndarray) -> bool:
    """A step passes when every normalized error is at most one."""
    return bool(np.maximum.reduce(eta, initial=0.0) <= 1.0)


def select_active(eta: np.ndarray, delta: float) -> np.ndarray:
    """Mask of the components whose normalized error exceeds δ·max η.

    The comparison is strict, so δ = 1 selects nothing and all-zero errors
    give the empty set.
    """
    eta = np.asarray(eta, dtype=float)
    return eta > delta * np.maximum.reduce(eta, initial=0.0)


def next_step_size(
    h_current: float,
    eps: np.ndarray,
    u_hat: np.ndarray,
    tol: ToleranceSpec,
    cfg: ControllerConfig,
) -> float:
    """Order-p step proposal over the given component set, clamped to bounds.

    h_new = clamp(ν·h·min_j ((τ_r|û_j|+τ_a)/ε_j)^{1/(p+1)},
                  h_min, min(h_max, max_growth·h)).
    """
    eps = np.abs(np.asarray(eps, dtype=float))
    u_hat = np.asarray(u_hat, dtype=float)
    if eps.size == 0:
        raise EmptyActiveSet("step-size proposal needs a nonempty component set")
    if eps.shape != u_hat.shape:
        raise DimensionMismatch(f"error shape {eps.shape} != state shape {u_hat.shape}")
    ratios = tol.scale(u_hat) / np.maximum(eps, EPS_FLOOR)
    factor = cfg.nu * float(np.minimum.reduce(ratios)) ** (1.0 / (ORDER + 1))
    h_new = h_current * factor
    h_new = min(h_new, cfg.h_max, cfg.max_growth * h_current)
    return max(h_new, cfg.h_min)
