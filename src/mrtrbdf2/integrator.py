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

The Jacobian is carried from step to step: from macro step to macro step,
and from the macro step into its refinement window as the cohort's block,
then across the window's micro steps.  It is dropped after a step with a
slow Newton stage (:attr:`~.trbdf2.StepResult.jacobian_reusable`).  A step
whose Newton iteration fails on a carried Jacobian is retried once at the
same h with a fresh one, which is not a rejection; a failure on a fresh
Jacobian halves h.

The latent context a micro step reads is built once per macro window.  Its
halo is the latent components that the cohort's rows of f depend on through
the declared Jacobian bandwidth (every latent component when none is
declared); only those are reconstructed, into one length-m buffer seeded
from the tentative endpoint, and only when the stage time changes, so the
Newton iterations of one stage reuse one reconstruction.  Rows of f outside
the cohort are computed by the full rhs but never gathered, which keeps every
gathered value bitwise equal to a full-length reconstruction.
"""

from __future__ import annotations

import math
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
from .dense_linalg import block
from .errors import (
    NewtonDivergence,
    NonFiniteOutput,
    SafetyCapExceeded,
    SingularMatrix,
    StepFloorReached,
)
from .interpolants import HermiteData, hermite_cubic, linear_interp
from .ode_problem import ActivePartition, EvalCounter, OdeProblem, latent_halo
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

    @property
    def t_end(self) -> float:
        return self.t_start + self.h


@dataclass
class IntegrationTrace:
    """Per-step records plus cumulative counters for one integration run."""

    m: int
    records: List[MacroRecord] = field(default_factory=list)
    scalar_evals: int = 0
    jacobian_evaluations: int = 0
    newton_iterations: int = 0

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
            "jacobian_evaluations": self.jacobian_evaluations,
            "newton_iterations": self.newton_iterations,
        }


class Trajectory:
    """Accepted macro times and the states there, the refined values included.

    Only these knots are stored; a state at any other time is read by passing
    that time in ``t_samples``, so the integrator lands on it exactly.
    """

    def __init__(self, times: np.ndarray, states: np.ndarray):
        self.times = times
        self.states = states

    @property
    def t_final(self) -> float:
        return float(self.times[-1])

    def state_at(self, t: float) -> np.ndarray:
        """The stored state at time t; raises ``ValueError`` if none is stored."""
        scale = max(abs(self.times[0]), abs(self.times[-1]), 1.0)
        i = int(np.argmin(np.abs(self.times - t)))
        if abs(float(self.times[i]) - t) <= 1e-9 * scale:
            return self.states[i]
        raise ValueError(f"no state stored at t={t}; pass it in t_samples to land on it")


@dataclass
class MacroOutcome:
    """Result of one accepted macro step."""

    state: np.ndarray
    record: MacroRecord
    fsal: Optional[Tuple[np.ndarray, float]]
    h_proposal: float
    jacobian: Optional[np.ndarray]


def _floor_guard(h: float, rejections: int, ctrl: ControllerConfig, what: str) -> None:
    if rejections >= ctrl.max_rejections:
        raise StepFloorReached(f"{what} rejected {rejections} times; giving up")
    if h <= ctrl.h_min * (1.0 + 1e-12):
        raise StepFloorReached(f"{what} still failing at the minimum step size {ctrl.h_min}")


def _try_step(jacobian: Optional[np.ndarray], *args, **kwargs) -> trbdf2.StepResult:
    """``trbdf2.step`` on a carried ``jacobian`` (None for a fresh one).  When
    a step on a carried Jacobian fails it is retried once, at the same h, with
    a fresh Jacobian; only a failure on a fresh Jacobian reaches the caller."""
    if jacobian is not None:
        try:
            return trbdf2.step(*args, jacobian=jacobian, **kwargs)
        except _RETRYABLE:
            pass
    return trbdf2.step(*args, **kwargs)


def macro_step(
    problem: OdeProblem,
    t: float,
    u: np.ndarray,
    h: float,
    cfg: MultirateConfig,
    fsal: Optional[Tuple[np.ndarray, float]] = None,
    counter: Optional[EvalCounter] = None,
    jacobian: Optional[np.ndarray] = None,
) -> MacroOutcome:
    """One macro interval: tentative full step, partitioning, micro refinement.

    ``fsal`` carries (z, h_prev) with z = h_prev·f(t, u) from the previous
    step; it is rescaled to the attempted step size.  ``jacobian`` is the
    full-system Jacobian carried from an earlier step (None evaluates one).
    Returns the refined state at the accepted end time together with the
    trace record, the next FSAL carrier (None when refinement moved the state
    off the tentative endpoint), the controller's proposal for the next macro
    step and the Jacobian to carry to it (None when it is dropped).
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
            res = _try_step(jacobian, problem, t, u, h_cur, cfg=cfg.newton, z_in=z_in,
                            counter=counter, tolerances=tol)
        except _RETRYABLE:
            jacobian = None
            rejections += 1
            _floor_guard(h_cur, rejections, ctrl, "macro step")
            h_cur = max(h_cur / 2.0, ctrl.h_min)
            continue
        jacobian = res.jacobian if res.jacobian_reusable else None
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

    micro_records: List[MicroRecord] = []
    u_final, fsal_next = u_hat, (res.z_next, h_cur)
    if not active0.is_empty:
        micro_records, u_final = _refine(problem, t, u, h_cur, res, active0, cfg, counter)
        # The refined state differs from the tentative endpoint, so the
        # tentative final stage derivative is stale; the next step recomputes it.
        fsal_next = None
    record = MacroRecord(
        t_start=t, h=h_cur, eta_max=eta_max, rejections=rejections,
        newton_iterations=res.newton_iterations, active0=active0.indices,
        micro=micro_records,
    )
    return MacroOutcome(u_final, record, fsal_next, h_prop, jacobian)


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
    end; only the latent components are read from the tentative step.  The
    fixed cohort also fixes the latent halo (:func:`~.ode_problem.latent_halo`),
    so the interpolant data is sliced to the halo once per window and the
    context buffer is refreshed on the halo once per distinct stage time.
    The window starts on the cohort's block of the tentative step's Jacobian
    and carries it across the micro steps.
    """
    ctrl = cfg.controller
    tol = cfg.tolerances
    u_hat = res.u_next
    t_end = t + h_macro

    # The active entries are overwritten by the subsystem scatter; the
    # latent entries outside the halo keep the tentative endpoint, which no
    # gathered row reads.
    halo = latent_halo(problem, active)
    hermite = HermiteData(
        u_n=u[halo], u_gamma=res.u_gamma[halo], u_next=u_hat[halo],
        z_n=res.z_n[halo], z_gamma=res.z_gamma[halo], z_next=res.z_next[halo],
        h=float(h_macro),
    )
    context = u_hat.copy()
    context_time: Optional[float] = None

    def latent_context(t_target: float) -> np.ndarray:
        nonlocal context_time
        if t_target != context_time:
            zeta = t_target - t
            if cfg.interpolant == "hermite":
                context[halo] = hermite_cubic(hermite, zeta)
            else:
                context[halo] = linear_interp(hermite.u_n, hermite.u_next, h_macro, zeta)
            context_time = t_target
        return context

    x = u[active.indices]
    jacobian: Optional[np.ndarray] = block(res.jacobian, active.indices, problem.bandwidth)
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
                mres = _try_step(
                    jacobian, problem, t_k, x, h_eff, part=active, frozen=latent_context,
                    cfg=cfg.newton, counter=counter, tolerances=tol,
                )
            except _RETRYABLE:
                jacobian = None
                mic_rej += 1
                _floor_guard(h_eff, mic_rej, ctrl, "micro step")
                h_mic = max(h_eff / 2.0, ctrl.h_min)
                continue
            jacobian = mres.jacobian if mres.jacobian_reusable else None
            eta_mic = normalized_errors(mres.eps_mod, mres.u_next, tol)
            if accept_global(eta_mic):
                break
            mic_rej += 1
            _floor_guard(h_eff, mic_rej, ctrl, "micro step")
            h_mic = next_step_size(h_eff, mres.eps_mod, mres.u_next, tol, ctrl)

        records.append(MicroRecord(
            t_start=t_k, h=h_eff, active=active.indices,
            eta_max=float(np.max(eta_mic)),
            newton_iterations=mres.newton_iterations, rejections=mic_rej,
            x_start=x,
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
) -> Tuple[Trajectory, IntegrationTrace]:
    """Integrate y' = f(t, y) from t0 to t_end with the multirate driver.

    Macro steps are chained with FSAL hand-off and the controller's proposal.
    The final step is truncated to land on t_end exactly; any ``t_samples``
    are landed on exactly as well, so callers can read states at those times
    without interpolation error.
    """
    if not (math.isfinite(t0) and math.isfinite(t_end) and t0 < t_end):
        raise ValueError(f"need finite t0 < t_end, got t0={t0!r}, t_end={t_end!r}")
    y0 = np.asarray(y0, dtype=float)
    counter = EvalCounter()
    trace = IntegrationTrace(m=problem.m)
    ctrl = cfg.controller

    landings = sorted({float(s) for s in t_samples if t0 < s < t_end})
    landings.append(float(t_end))
    next_landing = 0

    times = [float(t0)]
    states = [y0.copy()]

    t = float(t0)
    u = y0.copy()
    h_next = min(max(cfg.h0, ctrl.h_min), ctrl.h_max, t_end - t0)
    fsal: Optional[Tuple[np.ndarray, float]] = None
    jacobian: Optional[np.ndarray] = None
    scale = max(abs(t0), abs(t_end), 1.0)

    while t_end - t > 1e-12 * scale:
        target = landings[next_landing]
        gap = target - t
        h_try = min(h_next, gap)
        out = macro_step(problem, t, u, h_try, cfg, fsal=fsal, counter=counter,
                         jacobian=jacobian)
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
        jacobian = out.jacobian
        h_next = out.h_proposal
        trace.records.append(out.record)
        times.append(t)
        states.append(u.copy())

    trace.scalar_evals = counter.scalar_evals
    trace.jacobian_evaluations = counter.jacobian_evaluations
    trace.newton_iterations = counter.newton_iterations
    traj = Trajectory(np.asarray(times), np.asarray(states))
    return traj, trace


def integrate_single_rate(
    problem: OdeProblem,
    t0: float,
    t_end: float,
    y0: np.ndarray,
    cfg: MultirateConfig,
    t_samples: Sequence[float] = (),
) -> Tuple[Trajectory, IntegrationTrace]:
    """Adaptive single-rate TR-BDF2: the multirate driver with δ forced to 1."""
    sr_cfg = replace(cfg, controller=replace(cfg.controller, delta=1.0))
    return integrate(problem, t0, t_end, y0, sr_cfg, t_samples=t_samples)
