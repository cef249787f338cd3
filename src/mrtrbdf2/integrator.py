"""Self-adjusting multirate driver built on the TR-BDF2 step.

A macro step takes a tentative step over the full system and forms the
per-component normalized errors η of its modified error estimate.  The
components within δ of the worst error that are also beyond their own
tolerance, {η > δ·max η} ∩ {η > 1}, are flagged; the step passes when every
other component meets its tolerance, so an isolated error spike is repaired
rather than rejected.  The flagged cohort is advanced across the macro
interval with smaller, error-controlled micro steps, and stays fixed for the
whole interval, so its members always see each other's refined values; the
latent components it couples to are reconstructed by the configured
interpolant.  With δ = 1 nothing is flagged and the driver is exactly the
adaptive single-rate method, arithmetic path included.

Macro and micro steps share one attempt loop, :func:`_attempt`: a micro step
is a step on the cohort with δ = 1, so it meets the unscaled tolerance.  It
owns the Newton matrix I − d·h·J: it evaluates J when it holds none, and
factors the matrix for :func:`~.trbdf2.step`, which only solves on it.  J is
carried from macro step to macro step, into a refinement window as the
cohort's block, and across its micro steps; a slow Newton stage drops it
(:data:`REUSE_MAX_ITERATIONS`).  A failure on a carried Jacobian is retried
once at the same h on a fresh one, which is not a rejection; a failure on a
fresh one halves h and keeps it.  Without an FSAL hand-off that rescales to
the new h (h/h_prev overflows after a landing near the smallest subnormal),
the loop evaluates f at the step start once for all attempts.  A J or f not
finite at the step start ends the run, as no smaller h changes it.

Macro and micro steps also land by one rule: a step accepted at the whole gap
to its target (a sample time or t_end for a macro step, the window end for a
micro step) sets t to the target itself, and each loop runs while t is below
its target.  The run's :class:`IntegrationTrace` is its
:class:`~.ode_problem.EvalCounter` as well, so all work is charged to it
directly.

A micro step reads a latent context built once per macro window.  Its halo is
the latent components that the cohort's rows of f depend on through the
declared Jacobian bandwidth (all of them when none is declared); only those
are reconstructed, into one length-m buffer seeded from the tentative
endpoint, and only when the stage time changes; subsystem calls write the
cohort's state into it in place.  Rows of f outside the cohort are computed
but never gathered, which keeps every gathered value bitwise equal to a
full-length reconstruction.
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

# Rejection causes: the failures a smaller step can cure, then the error test.
_CAUSES = {NewtonDivergence: "newton_divergence", NonFiniteOutput: "non_finite_output",
           SingularMatrix: "singular_matrix"}
_RETRYABLE = tuple(_CAUSES)
REJECTION_CAUSES = ("error_test", *_CAUSES.values())
# A Jacobian is carried to the next step only if every stage of the step
# that used it converged within this many Newton iterations.
REUSE_MAX_ITERATIONS = 2


@dataclass
class MultirateConfig:
    """Everything one integration run needs: tolerances, controller knobs,
    interpolant choice, initial step, Newton settings and the budget of step
    attempts (macro and micro, rejected ones included) for the whole run."""

    tolerances: ToleranceSpec
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    interpolant: str = "hermite"
    h0: float = 1e-2
    newton: NewtonConfig = field(default_factory=NewtonConfig)
    max_steps: int = 1_000_000

    def __post_init__(self) -> None:
        if self.interpolant not in INTERPOLANT_KINDS:
            raise ValueError(f"interpolant must be one of {INTERPOLANT_KINDS}")
        if not (self.controller.h_min <= self.h0 <= self.controller.h_max):
            raise ValueError("h0 must lie within [h_min, h_max]")
        if self.max_steps < 1:
            raise ValueError("step budget must be >= 1")


@dataclass
class MicroRecord:
    """One accepted micro step of the window's cohort: window and diagnostics."""

    t_start: float
    h: float
    eta_max: float
    newton_iterations: Tuple[int, int]
    rejections: int
    x_start: np.ndarray


@dataclass
class MacroRecord:
    """One accepted macro step with its refinement cohort and chain."""

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


@dataclass(kw_only=True)
class IntegrationTrace(EvalCounter):
    """Per-step records of one integration run, which is also the run's
    counter: the driver charges its work here directly."""

    m: int
    records: List[MacroRecord] = field(default_factory=list)

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
        return self.m * self.accepted_macro + sum(r.active0.size * len(r.micro)
                                                  for r in self.records)

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
            # each rhs call computes all m components, whatever it is charged
            "rhs_calls": self.rhs_calls,
            "effective_scalar_evals": self.rhs_calls * self.m,
            "jacobian_evaluations": self.jacobian_evaluations,
            "newton_iterations": self.newton_iterations,
            "rejection_causes": {c: self.rejections[c] for c in REJECTION_CAUSES},
            "stale_jacobian_retries": self.stale_jacobian_retries,
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
        """The stored state at time t, or at a stored time within four
        spacings of t (landings are exact, so only the rounding of the
        caller's own t is forgiven); raises ``ValueError`` if none is stored."""
        i = int(np.argmin(np.abs(self.times - t)))
        knot = float(self.times[i])
        if abs(knot - t) <= 4.0 * np.spacing(abs(knot)):
            return self.states[i]
        raise ValueError(f"no state stored at t={t}; pass it in t_samples to land on it")


@dataclass
class MacroOutcome:
    """Result of one accepted macro step."""

    state: np.ndarray
    record: MacroRecord
    fsal: Optional[Tuple[np.ndarray, float]]
    h_proposal: float
    jacobian: Optional[np.ndarray]  # to carry to the next macro step


def _attempt(problem: OdeProblem, t: float, x: np.ndarray, h: float, span: float, delta: float,
             jacobian: Optional[np.ndarray], cfg: MultirateConfig, counter: EvalCounter,
             fsal: Optional[Tuple[np.ndarray, float]] = None,
             part: Optional[ActivePartition] = None, frozen=None) -> tuple:
    """Retry one step from (t, x) until it passes, for macro and micro steps alike.

    An h within 1e-9 of ``span`` becomes ``span``, so the step lands exactly.
    It passes when every component outside the refinement set
    {η > δ·max η} ∩ {η > 1} meets its tolerance; δ = 1 flags nothing.
    ``fsal`` is a macro step's (z, h_prev) hand-off, ``part``/``frozen`` a
    micro step's cohort and latent context; without a usable one, f(t, x)
    becomes the hand-off (f, 1.0).  J is the carried ``jacobian``
    until a failure or a slow stage drops it; then J at (t, x) is evaluated
    once and serves all later attempts, also after a failure on it, which
    halves h with no retry.  Each attempt factors I − d·h·J for the step.
    Every attempt is charged to the run's budget ``cfg.max_steps`` on
    ``counter``, and rejections are counted there by cause.  Returns (step, h,
    η, refinement mask or None when δ = 1, rejections, the step's J, that J
    if it is carried on or else None, proposal from δ·ε, or None for a micro
    step that lands on ``span``).
    """
    ctrl, tol = cfg.controller, cfg.tolerances
    fresh = False  # whether ``jacobian`` was evaluated at (t, x)
    rejections = 0
    while True:
        if counter.step_attempts >= cfg.max_steps:
            raise SafetyCapExceeded(f"step budget of {cfg.max_steps} attempts spent at t={t}")
        counter.step_attempts += 1
        if h >= span * (1.0 - 1e-9):
            h = span
        ratio = math.inf if fsal is None else h / fsal[1]
        if not math.isfinite(ratio):  # none, or overflows after a landing near 5e-324
            # f(t, x) serves every attempt; a non-finite one raises here, whatever h
            fsal, ratio = (trbdf2.rhs_at(problem, t, x, part, frozen, counter), 1.0), h
        z_in = fsal[0] * ratio
        if jacobian is None:  # a non-finite J at (t, x) raises here, whatever h
            jacobian = trbdf2.jacobian_at(problem, t, x, part, frozen, counter)
            fresh = True
        try:
            lu = trbdf2.newton_matrix(jacobian, h, problem.bandwidth)
            res = trbdf2.step(problem, t, x, h, part=part, frozen=frozen, z_in=z_in,
                              cfg=cfg.newton, counter=counter, lu=lu, tolerances=tol)
        except _RETRYABLE as exc:
            if not fresh:
                jacobian = None
                counter.stale_jacobian_retries += 1
                continue
            cause = _CAUSES[type(exc)]
        else:
            carry = jacobian if max(res.newton_iterations) <= REUSE_MAX_ITERATIONS else None
            eta = normalized_errors(res.eps_mod, res.u_next, tol)
            refine = None
            if delta < 1.0:  # sub-tolerance members of the cohort have nothing to repair
                refine = select_active(eta, delta) & (eta > 1.0)
            if accept_global(eta if refine is None else eta[~refine]):
                h_next = None  # a micro step landing on its window end has no next step
                if part is None or h < span:
                    eps = res.eps_mod if refine is None else delta * res.eps_mod
                    h_next = next_step_size(h, eps, res.u_next, tol, ctrl)
                return res, h, eta, refine, rejections, jacobian, carry, h_next
            if not fresh:
                jacobian = carry
            cause = "error_test"
        rejections += 1
        counter.rejections[cause] += 1
        if rejections >= ctrl.max_rejections or h <= ctrl.h_min * (1.0 + 1e-12):
            raise StepFloorReached(f"step at t={t} rejected {rejections} times, last at h={h}")
        if cause != "error_test":
            h = max(h / 2.0, ctrl.h_min)
        elif refine is None:
            h = next_step_size(h, res.eps_mod, res.u_next, tol, ctrl)
        else:
            h = next_step_size(h, res.eps_mod[~refine], res.u_next[~refine], tol, ctrl)


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
    step and the Jacobian to carry to it (None when it is dropped).  Without a
    ``counter``, ``cfg.max_steps`` budgets this call alone.
    """
    u = np.asarray(u, dtype=float)
    if counter is None:
        counter = EvalCounter()
    # A caller-truncated step (landing on a sample time) may sit below h_min;
    # the floor only applies to rejection retries.
    h = min(h, cfg.controller.h_max)
    res, h, eta, refine, rejections, jacobian, carry, h_prop = _attempt(
        problem, t, u, h, h, cfg.controller.delta, jacobian, cfg, counter, fsal=fsal)
    active0 = np.empty(0, dtype=np.intp) if refine is None else np.flatnonzero(refine)

    micro_records: List[MicroRecord] = []
    u_final, fsal_next = res.u_next, (res.z_next, h)
    if active0.size:
        cohort = ActivePartition(problem.m, active0)
        micro_records, u_final = _refine(problem, t, u, h, res, jacobian, cohort, cfg, counter)
        # The refined state differs from the tentative endpoint, so the
        # tentative final stage derivative is stale; the next step recomputes it.
        fsal_next = None
    record = MacroRecord(
        t_start=t, h=h, eta_max=float(np.maximum.reduce(eta)), rejections=rejections,
        newton_iterations=res.newton_iterations, active0=active0, micro=micro_records,
    )
    return MacroOutcome(u_final, record, fsal_next, h_prop, carry)


def _refine(
    problem: OdeProblem,
    t: float,
    u: np.ndarray,
    h_macro: float,
    res: trbdf2.StepResult,
    jacobian: np.ndarray,
    active: ActivePartition,
    cfg: MultirateConfig,
    counter: EvalCounter,
) -> Tuple[List[MicroRecord], np.ndarray]:
    """Micro-step the flagged components across [t, t + h_macro].

    The cohort stays fixed for the whole macro window, so every refined
    component keeps seeing the refined values of the others up to the window
    end; only the latent components are read from the tentative step.  The
    fixed cohort also fixes the latent halo (:func:`~.ode_problem.latent_halo`),
    so the interpolant data is sliced to the halo once per window and the
    context buffer is refreshed on the halo once per distinct stage time.
    Each micro step is :func:`_attempt` on the cohort with δ = 1, landing on
    the window end.  The window starts on the cohort's block of ``jacobian``,
    the one the tentative step used, and carries it across the micro steps.
    """
    u_hat = res.u_next
    t_end = t + h_macro

    # Subsystem calls write the cohort's entries in place, and nothing else
    # reads them; the latent entries outside the halo keep the tentative
    # endpoint, which no gathered row reads.
    halo = latent_halo(problem, active)
    hermite = HermiteData(
        u_n=u[halo], u_gamma=res.u_gamma[halo], u_next=u_hat[halo],
        z_n=res.z_n[halo], z_gamma=res.z_gamma[halo], z_next=res.z_next[halo],
        h=float(h_macro),
    )
    context = u_hat.copy()
    context_time: Optional[float] = None
    # The stage times are absolute, so an offset from t carries the rounding
    # of t + h_macro: at large |t| it may pass h_macro by a fraction of a
    # spacing of t_end, far more than the interpolants' relative slack.  That
    # much is the window end; a larger excess still raises there.
    zeta_max = h_macro + 4.0 * float(np.spacing(abs(t_end)))

    def latent_context(t_target: float) -> np.ndarray:
        nonlocal context_time
        if t_target != context_time:
            zeta = t_target - t
            if h_macro < zeta <= zeta_max:
                zeta = h_macro
            if cfg.interpolant == "hermite":
                context[halo] = hermite_cubic(hermite, zeta)
            else:
                context[halo] = linear_interp(hermite.u_n, hermite.u_next, h_macro, zeta)
            context_time = t_target
        return context

    x = u[active.indices]
    jacobian = block(jacobian, active.indices, problem.bandwidth)
    # The first micro proposal comes from the tentative macro error.
    h_mic = next_step_size(h_macro, res.eps_mod[active.indices], u_hat[active.indices],
                           cfg.tolerances, cfg.controller)
    records: List[MicroRecord] = []
    t_k = t
    while t_k < t_end:
        span = t_end - t_k
        mres, h_eff, eta, _, rejections, _, jacobian, h_mic = _attempt(
            problem, t_k, x, h_mic, span, 1.0, jacobian, cfg, counter,
            part=active, frozen=latent_context)
        records.append(MicroRecord(
            t_start=t_k, h=h_eff, eta_max=float(np.maximum.reduce(eta)),
            newton_iterations=mres.newton_iterations, rejections=rejections, x_start=x,
        ))
        x = mres.u_next
        t_k = t_end if h_eff == span else t_k + h_eff

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
    The ``t_samples`` inside (t0, t_end) and t_end itself are landings, taken
    in order: each step is min(proposal, gap to the landing), and one accepted
    at the whole gap sets t to the landing itself, so callers read states at
    those times without interpolation error, at any |t|.  The returned trace
    is the run's counter: every evaluation and attempt is charged to it.
    """
    if not (math.isfinite(t0) and math.isfinite(t_end) and t0 < t_end):
        raise ValueError(f"need finite t0 < t_end, got t0={t0!r}, t_end={t_end!r}")
    y0 = np.asarray(y0, dtype=float)
    trace = IntegrationTrace(m=problem.m)
    ctrl = cfg.controller

    landings = sorted({float(s) for s in t_samples if t0 < s < t_end})
    landings.append(float(t_end))

    times = [float(t0)]
    states = [y0.copy()]

    t = float(t0)
    u = y0.copy()
    h_next = min(max(cfg.h0, ctrl.h_min), ctrl.h_max, t_end - t0)
    fsal: Optional[Tuple[np.ndarray, float]] = None
    jacobian: Optional[np.ndarray] = None

    for target in landings:
        while t < target:
            gap = target - t
            out = macro_step(problem, t, u, min(h_next, gap), cfg, fsal=fsal, counter=trace,
                             jacobian=jacobian)
            t = target if out.record.h == gap else t + out.record.h
            u = out.state
            fsal = out.fsal
            jacobian = out.jacobian
            h_next = out.h_proposal
            trace.records.append(out.record)
            times.append(t)
            states.append(u.copy())

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
