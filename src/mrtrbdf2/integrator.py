"""Self-adjusting multirate driver built on the TR-BDF2 step.

One macro step works as follows.  A tentative step over the full system is
taken and its per-component normalized errors η are formed from the modified
error estimate.  The macro level accepts the step when max η ≤ 1/δ, i.e. the
componentwise tolerances relaxed by the refinement threshold δ: every
component that ends up beyond its own tolerance (η > 1) is then necessarily
inside the refinement cohort {η > δ·max η} and gets re-integrated, while the
components left untouched all satisfy η ≤ 1 outright.  The flagged components
are advanced across the macro interval with smaller, error-controlled micro
steps; the latent components they couple to are reconstructed by the
configured interpolant on the macro interval.  The cohort is fixed for the
whole macro interval: a flagged component is micro-stepped to the interval
end, so its neighbours in the cohort always see its refined values rather
than the tentative ones.  With δ = 1 nothing is ever flagged, the macro gate
reduces to max η ≤ 1, and the driver is exactly the adaptive single-rate
method, arithmetic path included.

Micro steps always enforce the unscaled tolerance (max η ≤ 1) and are
rejected and retried with the standard controller proposal otherwise.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import trbdf2
from .controller import (
    ControllerConfig,
    ToleranceSpec,
    accept_global,
    next_step_size,
    normalized_errors,
    select_active,
)
from .errors import (
    NewtonDivergence,
    NonFiniteOutput,
    SafetyCapExceeded,
    SingularMatrix,
    StepFloorReached,
)
from .interpolants import HermiteData, hermite_cubic, linear_interp
from .ode_problem import ActivePartition, EvalCounter, OdeProblem
from .trbdf2 import NewtonConfig

INTERPOLANT_KINDS = ("linear", "hermite")

_RETRYABLE = (NewtonDivergence, NonFiniteOutput, SingularMatrix)


@dataclass
class MultirateConfig:
    """Everything one integration run needs: tolerances, controller knobs,
    interpolant choice, initial step and Newton settings."""

    tolerances: ToleranceSpec
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    interpolant: str = "hermite"
    h0: float = 1e-2
    newton: NewtonConfig = field(default_factory=NewtonConfig)
    max_micro_steps: int = 1_000_000

    def __post_init__(self) -> None:
        if self.interpolant not in INTERPOLANT_KINDS:
            raise ValueError(f"interpolant must be one of {INTERPOLANT_KINDS}")
        if not (self.controller.h_min <= self.h0 <= self.controller.h_max):
            raise ValueError("h0 must lie within [h_min, h_max]")
        if self.max_micro_steps < 1:
            raise ValueError("micro-step cap must be >= 1")


@dataclass
class MicroRecord:
    """One accepted micro step: window, active set and solver diagnostics."""

    t_start: float
    h: float
    active: np.ndarray
    eta_max: float
    newton_iterations: Tuple[int, int]
    rejections: int
    x_start: np.ndarray


@dataclass
class MacroRecord:
    """One accepted macro step with its refinement chain."""

    t_start: float
    h: float
    eta_max: float
    rejections: int
    newton_iterations: Tuple[int, int]
    active0: np.ndarray
    micro: List[MicroRecord]
    u_start: np.ndarray

    @property
    def t_end(self) -> float:
        return self.t_start + self.h


@dataclass
class IntegrationTrace:
    """Per-step records plus cumulative counters for one integration run."""

    m: int
    records: List[MacroRecord] = field(default_factory=list)
    scalar_evals: int = 0

    @property
    def accepted_macro(self) -> int:
        return len(self.records)

    @property
    def rejected_macro(self) -> int:
        return sum(r.rejections for r in self.records)

    @property
    def accepted_micro(self) -> int:
        return sum(len(r.micro) for r in self.records)

    @property
    def rejected_micro(self) -> int:
        return sum(mic.rejections for r in self.records for mic in r.micro)

    def workload(self) -> int:
        """Space-time points computed: m per macro step, |active| per micro step."""
        w = self.m * self.accepted_macro
        w += sum(len(mic.active) for r in self.records for mic in r.micro)
        return w

    def summary(self) -> dict:
        return {
            "dimension": self.m,
            "accepted_macro_steps": self.accepted_macro,
            "rejected_macro_steps": self.rejected_macro,
            "accepted_micro_steps": self.accepted_micro,
            "rejected_micro_steps": self.rejected_micro,
            "total_accepted_steps": self.accepted_macro + self.accepted_micro,
            "workload": self.workload(),
            "scalar_function_evaluations": self.scalar_evals,
        }


class Trajectory:
    """Accepted macro times and states, with dense output into each interval.

    Dense output uses the tentative macro stages, so between knots the
    refined components read with tentative-step accuracy; the stored rows at
    the knots themselves always hold the refined values.
    """

    def __init__(self, times: np.ndarray, states: np.ndarray, dense: List[HermiteData]):
        self.times = times
        self.states = states
        self.dense = dense

    @property
    def t_final(self) -> float:
        return float(self.times[-1])

    def state_at(self, t: float) -> np.ndarray:
        """State at time t: an exact stored row when available, dense output otherwise."""
        scale = max(abs(self.times[0]), abs(self.times[-1]), 1.0)
        i = int(np.argmin(np.abs(self.times - t)))
        if abs(float(self.times[i]) - t) <= 1e-9 * scale:
            return self.states[i]
        return self.sample(t)

    def sample(self, t: float) -> np.ndarray:
        """Dense-output evaluation inside the macro interval containing t."""
        if not self.dense:
            raise ValueError("trajectory was recorded without dense output")
        if t <= self.times[0]:
            return self.states[0]
        if t >= self.times[-1]:
            return self.states[-1]
        i = bisect.bisect_right(self.times.tolist(), t) - 1
        i = min(i, len(self.dense) - 1)
        return hermite_cubic(self.dense[i], t - float(self.times[i]))


@dataclass
class MacroOutcome:
    """Result of one accepted macro step."""

    state: np.ndarray
    record: MacroRecord
    fsal: Optional[Tuple[np.ndarray, float]]
    h_proposal: float
    tentative: trbdf2.StepResult


def _floor_guard(h: float, rejections: int, ctrl: ControllerConfig, what: str) -> None:
    if rejections >= ctrl.max_rejections:
        raise StepFloorReached(f"{what} rejected {rejections} times; giving up")
    if h <= ctrl.h_min * (1.0 + 1e-12):
        raise StepFloorReached(f"{what} still failing at the minimum step size {ctrl.h_min}")


def macro_step(
    problem: OdeProblem,
    t: float,
    u: np.ndarray,
    h: float,
    cfg: MultirateConfig,
    fsal: Optional[Tuple[np.ndarray, float]] = None,
    counter: Optional[EvalCounter] = None,
) -> MacroOutcome:
    """One macro interval: tentative full step, partitioning, micro refinement.

    ``fsal`` carries (z, h_prev) with z = h_prev·f(t, u) from the previous
    step; it is rescaled to the attempted step size.  Returns the refined
    state at the accepted end time together with the trace record, the next
    FSAL carrier (None when refinement moved the state off the tentative
    endpoint) and the controller's proposal for the next macro step.
    """
    ctrl = cfg.controller
    tol = cfg.tolerances
    delta = ctrl.delta
    full = ActivePartition.full(problem.m)
    u = np.asarray(u, dtype=float)

    # A caller-truncated step (landing on a sample time) may sit below h_min;
    # the floor only applies to rejection retries.
    h_cur = min(h, ctrl.h_max)
    rejections = 0
    while True:
        z_in = None
        if fsal is not None:
            z_prev, h_prev = fsal
            z_in = z_prev if h_prev == h_cur else z_prev * (h_cur / h_prev)
        try:
            res = trbdf2.step(problem, t, u, h_cur, cfg=cfg.newton, z_in=z_in, counter=counter)
        except _RETRYABLE:
            rejections += 1
            _floor_guard(h_cur, rejections, ctrl, "macro step")
            h_cur = max(h_cur / 2.0, ctrl.h_min)
            continue
        u_hat = res.u_next
        eta = normalized_errors(res.eps_mod, u_hat, tol)
        # Refinement cohort: within δ of the worst normalized error AND
        # beyond its own tolerance (sub-tolerance cohort members keep their
        # tentative values; there is nothing to repair).
        cohort = select_active(eta, delta, full)
        refine_mask = np.zeros(problem.m, dtype=bool)
        refine_mask[cohort.indices[eta[cohort.indices] > 1.0]] = True
        # Macro gate: every component NOT being refined must meet its own
        # tolerance; components beyond it are exactly the ones re-integrated
        # with micro steps, so an isolated error spike triggers refinement
        # rather than a rejection of the whole step.
        if accept_global(eta[~refine_mask]):
            break
        rejections += 1
        _floor_guard(h_cur, rejections, ctrl, "macro step")
        h_cur = next_step_size(h_cur, res.eps_mod[~refine_mask], u_hat[~refine_mask], tol, ctrl)

    eta_max = float(np.max(eta)) if eta.size else 0.0
    h_prop = next_step_size(h_cur, delta * res.eps_mod, u_hat, tol, ctrl)

    active0 = ActivePartition(problem.m, np.nonzero(refine_mask)[0])

    if active0.is_empty:
        record = MacroRecord(
            t_start=t, h=h_cur, eta_max=eta_max, rejections=rejections,
            newton_iterations=res.newton_iterations, active0=active0.indices,
            micro=[], u_start=u.copy(),
        )
        return MacroOutcome(u_hat, record, (res.z_next, h_cur), h_prop, res)

    micro_records, u_final = _refine(problem, t, u, h_cur, res, active0, cfg, counter)
    record = MacroRecord(
        t_start=t, h=h_cur, eta_max=eta_max, rejections=rejections,
        newton_iterations=res.newton_iterations, active0=active0.indices,
        micro=micro_records, u_start=u.copy(),
    )
    # The refined state differs from the tentative endpoint, so the tentative
    # final stage derivative is stale; the next step recomputes it.
    return MacroOutcome(u_final, record, None, h_prop, res)


def _refine(
    problem: OdeProblem,
    t: float,
    u: np.ndarray,
    h_macro: float,
    res: trbdf2.StepResult,
    active: ActivePartition,
    cfg: MultirateConfig,
    counter: Optional[EvalCounter],
) -> Tuple[List[MicroRecord], np.ndarray]:
    """Micro-step the flagged components across [t, t + h_macro].

    The cohort stays fixed for the whole macro window, so every refined
    component keeps seeing the refined values of the others up to the window
    end; only the latent components are read from the tentative step.
    """
    ctrl = cfg.controller
    tol = cfg.tolerances
    u_hat = res.u_next
    t_end = t + h_macro
    hermite = HermiteData.from_step(u, res, h_macro)

    def latent_context(t_target: float) -> np.ndarray:
        # The active entries are overwritten by the subsystem scatter.
        zeta = t_target - t
        if cfg.interpolant == "hermite":
            return hermite_cubic(hermite, zeta)
        return linear_interp(u, u_hat, h_macro, zeta)

    x = u[active.indices].copy()
    # The first micro proposal comes from the tentative macro error.
    eps_src = res.eps_mod[active.indices]
    scale_src = u_hat[active.indices]
    h_src = h_macro
    records: List[MicroRecord] = []
    t_k = t
    time_slack = 1e-10 * h_macro
    while t_k < t_end - time_slack:
        if len(records) >= cfg.max_micro_steps:
            raise SafetyCapExceeded(
                f"more than {cfg.max_micro_steps} micro steps in one macro interval"
            )
        h_mic = next_step_size(h_src, eps_src, scale_src, tol, ctrl)
        mic_rej = 0
        while True:
            remaining = t_end - t_k
            if h_mic >= remaining * (1.0 - 1e-9):
                h_eff, t_tgt = remaining, t_end
            else:
                h_eff, t_tgt = h_mic, t_k + h_mic
            try:
                mres = trbdf2.step(
                    problem, t_k, x, h_eff, part=active, frozen=latent_context,
                    cfg=cfg.newton, counter=counter,
                )
            except _RETRYABLE:
                mic_rej += 1
                _floor_guard(h_eff, mic_rej, ctrl, "micro step")
                h_mic = max(h_eff / 2.0, ctrl.h_min)
                continue
            eta_mic = normalized_errors(mres.eps_mod, mres.u_next, tol)
            if accept_global(eta_mic):
                break
            mic_rej += 1
            _floor_guard(h_eff, mic_rej, ctrl, "micro step")
            h_mic = next_step_size(h_eff, mres.eps_mod, mres.u_next, tol, ctrl)

        records.append(MicroRecord(
            t_start=t_k, h=h_eff, active=active.indices.copy(),
            eta_max=float(np.max(eta_mic)),
            newton_iterations=mres.newton_iterations, rejections=mic_rej,
            x_start=x.copy(),
        ))
        x = mres.u_next
        t_k = t_tgt
        eps_src, scale_src, h_src = mres.eps_mod, x, h_eff

    u_final = u_hat.copy()
    u_final[active.indices] = x
    return records, u_final


def integrate(
    problem: OdeProblem,
    t0: float,
    t_end: float,
    y0: np.ndarray,
    cfg: MultirateConfig,
    t_samples: Sequence[float] = (),
    keep_dense: bool = True,
) -> Tuple[Trajectory, IntegrationTrace]:
    """Integrate y' = f(t, y) from t0 to t_end with the multirate driver.

    Macro steps are chained with FSAL hand-off and the controller's proposal.
    The final step is truncated to land on t_end exactly; any ``t_samples``
    are landed on exactly as well, so callers can read states at those times
    without interpolation error.
    """
    if t_end <= t0:
        raise ValueError("need t_end > t0")
    y0 = np.asarray(y0, dtype=float)
    counter = EvalCounter()
    trace = IntegrationTrace(m=problem.m)
    ctrl = cfg.controller

    landings = sorted({float(s) for s in t_samples if t0 < s < t_end})
    landings.append(float(t_end))
    next_landing = 0

    times = [float(t0)]
    states = [y0.copy()]
    dense: List[HermiteData] = []

    t = float(t0)
    u = y0.copy()
    h_next = min(max(cfg.h0, ctrl.h_min), ctrl.h_max, t_end - t0)
    fsal: Optional[Tuple[np.ndarray, float]] = None
    scale = max(abs(t0), abs(t_end), 1.0)

    while t_end - t > 1e-12 * scale:
        target = landings[next_landing]
        gap = target - t
        h_try = min(h_next, gap)
        out = macro_step(problem, t, u, h_try, cfg, fsal=fsal, counter=counter)
        accepted_h = out.record.h
        if accepted_h == h_try and h_try == gap:
            # Landed on the target exactly (same float arithmetic on purpose).
            t = target
            if next_landing < len(landings) - 1:
                next_landing += 1
        else:
            t = t + accepted_h
            while next_landing < len(landings) - 1 and t >= landings[next_landing]:
                next_landing += 1
        u = out.state
        fsal = out.fsal
        h_next = out.h_proposal
        trace.records.append(out.record)
        times.append(t)
        states.append(u.copy())
        if keep_dense:
            dense.append(HermiteData.from_step(out.record.u_start, out.tentative, accepted_h))

    trace.scalar_evals = counter.scalar_evals
    traj = Trajectory(np.asarray(times), np.asarray(states), dense)
    return traj, trace


def integrate_single_rate(
    problem: OdeProblem,
    t0: float,
    t_end: float,
    y0: np.ndarray,
    cfg: MultirateConfig,
    t_samples: Sequence[float] = (),
    keep_dense: bool = True,
) -> Tuple[Trajectory, IntegrationTrace]:
    """Adaptive single-rate TR-BDF2: the multirate driver with δ forced to 1."""
    sr_cfg = replace(cfg, controller=replace(cfg.controller, delta=1.0))
    return integrate(problem, t0, t_end, y0, sr_cfg, t_samples=t_samples, keep_dense=keep_dense)
