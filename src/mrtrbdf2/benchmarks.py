"""Benchmark problems: a stiff inverter chain, a reaction-diffusion front,
linear advection and the Burgers Riemann problem, each packaged as an
:class:`OdeProblem` with a ready-to-run configuration, a reference-solution
provider and (for the PDE problems) the spatial metadata needed for Courant
diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from .controller import ToleranceSpec
from .dense_linalg import from_diagonals
from .errors import MissingSpatialMetadata
from .integrator import IntegrationTrace, MultirateConfig, Trajectory
from .ode_problem import OdeProblem
from .reference import integrate_dop853, integrate_radau


@dataclass
class BenchmarkPreset:
    """A benchmark problem with defaults and reference-solution access."""

    name: str
    problem: OdeProblem
    y0: np.ndarray
    t0: float
    t_end: float
    config: MultirateConfig
    exact_solution: Optional[Callable[[float], np.ndarray]] = None
    reference_kind: str = "explicit"  # or "radau"
    dx: Optional[float] = None
    flux_derivative: Optional[Callable[[np.ndarray], np.ndarray]] = None
    params: dict = field(default_factory=dict)
    _reference_cache: Dict[float, np.ndarray] = field(default_factory=dict, repr=False)

    def reference_states(self, times: Sequence[float]) -> Dict[float, np.ndarray]:
        """Semidiscrete reference states at the requested times (cached).

        The references come from methods independent of TR-BDF2.  Non-stiff
        problems use SciPy's explicit DOP853 at rtol 1e-11, atol 1e-13
        (``reference.integrate_dop853``); the stiff presets use SciPy's Radau
        IIA with the preset's analytic Jacobian (``reference.integrate_radau``).
        """
        missing = [float(t) for t in times if float(t) not in self._reference_cache]
        if missing:
            if self.reference_kind == "explicit":
                got = integrate_dop853(self.problem.rhs, self.t0, self.y0, missing)
            else:
                got = integrate_radau(self.problem.rhs, self.problem.jacobian,
                                      self.t0, self.y0, missing)
            self._reference_cache.update(got)
        return {float(t): self._reference_cache[float(t)] for t in times}


# ---------------------------------------------------------------------------
# Inverter chain
# ---------------------------------------------------------------------------

def inverter_input(t: float) -> float:
    """Input applied to the first inverter: a ramp, a plateau and a ramp down."""
    if 5.0 <= t <= 10.0:
        return t - 5.0
    if 10.0 <= t <= 15.0:
        return 5.0
    if 15.0 <= t <= 17.0:
        return 2.5 * (17.0 - t)
    return 0.0


def inverter_gate(y, z, u_thresh: float):
    """Coupling term g(y, z) = max(y−U_τ, 0)² − max(y−z−U_τ, 0)²."""
    a = np.maximum(y - u_thresh, 0.0)
    b = np.maximum(y - z - u_thresh, 0.0)
    return a * a - b * b


def inverter_chain(
    m: int = 100,
    gamma_stiff: float = 100.0,
    u_op: float = 5.0,
    u_thresh: float = 1.0,
    t_end: float = 20.0,
    tol_abs: float = 1e-5,
    h0: float = 1e-3,
) -> BenchmarkPreset:
    """Chain of m inverters driven by a ramp/plateau input signal.

    Only the absolute tolerance is used since all states live in (0, U_op).
    The desk preset is m=100 over [0, 20]; the full-size configuration is
    m=500 with a horizon long enough for the signal to traverse the chain.
    """
    if m < 1:
        raise ValueError("need at least one inverter")

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        drive = np.empty_like(y)
        drive[0] = inverter_input(t)
        drive[1:] = y[:-1]
        return u_op - y - gamma_stiff * inverter_gate(drive, y, u_thresh)

    def jac(t: float, y: np.ndarray) -> np.ndarray:
        drive = np.empty_like(y)
        drive[0] = inverter_input(t)
        drive[1:] = y[:-1]
        b = np.maximum(drive - y - u_thresh, 0.0)
        a = np.maximum(drive - u_thresh, 0.0)
        dg_dy = 2.0 * a - 2.0 * b
        return from_diagonals(m, {0: -1.0 - gamma_stiff * 2.0 * b, 1: -gamma_stiff * dg_dy[1:]})

    y0 = np.full(m, 5.0)
    y0[1::2] = 6.247e-3  # even positions in 1-based numbering
    cfg = MultirateConfig(ToleranceSpec(0.0, tol_abs), h0=h0)
    # each inverter is driven by its upstream neighbour only
    problem = OdeProblem(m=m, rhs=rhs, jacobian=jac, bandwidth=(min(1, m - 1), 0))
    return BenchmarkPreset(
        name="inverter_chain", problem=problem, y0=y0, t0=0.0, t_end=t_end,
        config=cfg, reference_kind="radau",
        params={"m": m, "gamma": gamma_stiff, "u_op": u_op, "u_thresh": u_thresh,
                "t_end": t_end, "tol_abs": tol_abs},
    )


# ---------------------------------------------------------------------------
# Reaction-diffusion front
# ---------------------------------------------------------------------------

def reaction_diffusion(
    n_cells: int = 100,
    eps_d: float = 0.01,
    gamma_r: float = 100.0,
    length: float = 5.0,
    t_end: float = 3.0,
    tol_abs: float = 1e-5,
    tol_rel: float = 0.0,
    h0: float = 1e-3,
) -> BenchmarkPreset:
    """Diffusion plus the bistable reaction γ y²(1−y) on [0, L] with zero-flux
    ends, discretized by second differences on a uniform cell-centered mesh.
    The initial profile is a sigmoid front that travels rightward."""
    if n_cells < 3:
        raise ValueError("need at least three cells")
    dx = length / n_cells
    x = (np.arange(n_cells) + 0.5) * dx
    lam = 0.5 * math.sqrt(2.0 * gamma_r / eps_d)
    y0 = 1.0 / (1.0 + np.exp(np.clip(lam * (x - 1.0), -700.0, 700.0)))
    diff = eps_d / (dx * dx)

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        lap = np.empty_like(y)
        lap[1:-1] = y[:-2] - 2.0 * y[1:-1] + y[2:]
        lap[0] = y[1] - y[0]          # mirror ghost: y[-1] == y[0]
        lap[-1] = y[-2] - y[-1]
        return diff * lap + gamma_r * y * y * (1.0 - y)

    def jac(t: float, y: np.ndarray) -> np.ndarray:
        main = -2.0 * diff + gamma_r * (2.0 * y - 3.0 * y * y)
        main[[0, -1]] += diff  # the mirror ghosts
        return from_diagonals(y.size, {0: main, 1: diff, -1: diff})

    cfg = MultirateConfig(ToleranceSpec(tol_rel, tol_abs), h0=h0)
    problem = OdeProblem(m=n_cells, rhs=rhs, jacobian=jac, bandwidth=(1, 1))
    return BenchmarkPreset(
        name="reaction_diffusion", problem=problem, y0=y0, t0=0.0, t_end=t_end,
        config=cfg, reference_kind="radau", dx=dx,
        params={"n_cells": n_cells, "eps_d": eps_d, "gamma_r": gamma_r,
                "length": length, "t_end": t_end},
    )


# ---------------------------------------------------------------------------
# Linear advection, first-order upwind, periodic
# ---------------------------------------------------------------------------

# Width of the Gaussian initial pulse, u0 = exp(-(x/width)^2).  Calibrated so
# the upwind scheme's numerical diffusion at 400 cells reproduces the expected
# late-time accuracy-vs-exact magnitudes (a ~3-cell pulse).
ADVECTION_PULSE_WIDTH = 0.29


def linear_advection(
    n_cells: int = 400,
    t_end: float = 3.0,
    pulse_width: float = ADVECTION_PULSE_WIDTH,
    tol_rel: float = 1e-6,
    tol_abs: float = 1e-8,
    h0: float = 1e-2,
) -> BenchmarkPreset:
    """u_t + u_x = 0 on [−20, 20] with periodic ends and a Gaussian pulse,
    discretized with the first-order upwind scheme."""
    if n_cells < 4:
        raise ValueError("need at least four cells")
    lo, hi = -20.0, 20.0
    span = hi - lo
    dx = span / n_cells
    x = lo + (np.arange(n_cells) + 0.5) * dx

    def profile(xs: np.ndarray) -> np.ndarray:
        return np.exp(-((xs / pulse_width) ** 2))

    y0 = profile(x)

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        return -(y - np.roll(y, 1)) / dx

    jmat = from_diagonals(n_cells, {0: -1.0 / dx, 1: 1.0 / dx})
    jmat[0, -1] = 1.0 / dx  # periodic inflow

    def jac(t: float, y: np.ndarray) -> np.ndarray:
        return jmat

    def exact(t: float) -> np.ndarray:
        shifted = np.mod(x - t - lo, span) + lo
        return profile(shifted)

    cfg = MultirateConfig(ToleranceSpec(tol_rel, tol_abs), h0=h0)
    # no bandwidth: the periodic inflow puts an entry in the corner J[0, n-1]
    problem = OdeProblem(m=n_cells, rhs=rhs, jacobian=jac)
    return BenchmarkPreset(
        name="advection", problem=problem, y0=y0, t0=0.0, t_end=t_end,
        config=cfg, exact_solution=exact, reference_kind="explicit", dx=dx,
        flux_derivative=lambda u: np.ones_like(u),
        params={"n_cells": n_cells, "t_end": t_end, "pulse_width": pulse_width},
    )


# ---------------------------------------------------------------------------
# Burgers Riemann problem, Rusanov flux finite volumes
# ---------------------------------------------------------------------------

def burgers_riemann(
    n_cells: int = 400,
    u_left: float = 1.0,
    u_right: float = 0.0,
    t_end: float = 1.0,
    tol_rel: float = 1e-4,
    tol_abs: float = 1e-6,
    h0: float = 1e-2,
) -> BenchmarkPreset:
    """Inviscid Burgers on [−1, 3] with piecewise-constant Riemann data,
    discretized by finite volumes with the Rusanov flux and far-field ghost
    cells.  u_left > u_right gives a shock moving at (u_left+u_right)/2;
    u_left < u_right gives a rarefaction fan."""
    if n_cells < 4:
        raise ValueError("need at least four cells")
    lo, hi = -1.0, 3.0
    dx = (hi - lo) / n_cells
    x = lo + (np.arange(n_cells) + 0.5) * dx
    y0 = np.where(x < 0.0, u_left, u_right)

    def interface_flux(y: np.ndarray) -> np.ndarray:
        # Values extended by constant far-field states; one flux per interface.
        ul = np.concatenate(([u_left], y))
        ur = np.concatenate((y, [u_right]))
        speed = np.maximum(np.abs(ul), np.abs(ur))
        return 0.5 * (0.5 * ul * ul + 0.5 * ur * ur) - 0.5 * speed * (ur - ul)

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        fl = interface_flux(y)
        return -(fl[1:] - fl[:-1]) / dx

    def jac(t: float, y: np.ndarray) -> np.ndarray:
        # Differentiate the Rusanov flux cellwise; at |ul| == |ur| ties the
        # left state is charged, matching the evaluation above.
        ul = np.concatenate(([u_left], y))
        ur = np.concatenate((y, [u_right]))
        au, av = np.abs(ul), np.abs(ur)
        left_max = au >= av
        dspeed_dul = np.where(left_max, np.sign(ul), 0.0)
        dspeed_dur = np.where(left_max, 0.0, np.sign(ur))
        df_dul = 0.5 * ul - 0.5 * dspeed_dul * (ur - ul) + 0.5 * np.maximum(au, av)
        df_dur = 0.5 * ur - 0.5 * dspeed_dur * (ur - ul) - 0.5 * np.maximum(au, av)
        # cell i sees flux i+1 through its left state y_i and flux i through
        # its right state y_i; neighbours enter through the shared interfaces
        return from_diagonals(y.size, {0: -(df_dul[1:] - df_dur[:-1]) / dx,
                                       1: df_dul[1:-1] / dx, -1: -df_dur[1:-1] / dx})

    if u_left > u_right:
        shock_speed = 0.5 * (u_left + u_right)

        def exact(t: float) -> np.ndarray:
            return np.where(x < shock_speed * t, u_left, u_right)
    elif u_left < u_right:
        def exact(t: float) -> np.ndarray:
            if t <= 0.0:
                return np.where(x < 0.0, u_left, u_right)
            return np.clip(x / t, u_left, u_right)
    else:
        def exact(t: float) -> np.ndarray:
            return np.full_like(x, u_left)

    cfg = MultirateConfig(ToleranceSpec(tol_rel, tol_abs), h0=h0)
    problem = OdeProblem(m=n_cells, rhs=rhs, jacobian=jac, bandwidth=(1, 1))
    return BenchmarkPreset(
        name="burgers", problem=problem, y0=y0, t0=0.0, t_end=t_end,
        config=cfg, exact_solution=exact, reference_kind="explicit", dx=dx,
        flux_derivative=lambda u: u,
        params={"n_cells": n_cells, "u_left": u_left, "u_right": u_right, "t_end": t_end},
    )


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CourantSample:
    """Maximum Courant number of one accepted step."""

    kind: str  # "global" or "refined"
    t_start: float
    h: float
    value: float


def courant_numbers(
    traj: Trajectory, trace: IntegrationTrace, preset: BenchmarkPreset
) -> List[CourantSample]:
    """Per-step maximum Courant numbers max|f'(u)|·h/Δx.

    Global (macro) steps measure over all cells at the step start, read from
    the trajectory; refined (micro) steps measure over the active cells only.
    """
    if preset.dx is None or preset.flux_derivative is None:
        raise MissingSpatialMetadata(f"preset {preset.name!r} carries no grid/flux metadata")
    out: List[CourantSample] = []
    for rec, u_start in zip(trace.records, traj.states):
        wave = float(np.max(np.abs(preset.flux_derivative(u_start))))
        out.append(CourantSample("global", rec.t_start, rec.h, wave * rec.h / preset.dx))
        for mic in rec.micro:
            wave = float(np.max(np.abs(preset.flux_derivative(mic.x_start))))
            out.append(CourantSample("refined", mic.t_start, mic.h, wave * mic.h / preset.dx))
    return out
