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

Macro and micro steps share one stepping loop, :func:`_march`: a micro step
is a step on the cohort with δ = 1, so it meets the unscaled tolerance.  It
lands on each target (a sample time or t_end for a macro step, the window end
for a micro step) by one rule: a step accepted at the whole gap sets t to the
target itself, and the loop runs while t is below it.  Before each micro
step, a proposal short of the window end is evened out over the rest of the
window (:data:`EVEN_SPLIT_SLACK`); retries and macro steps take h as it
comes.  What a step hands to the next is one :class:`_Chain`.  Each step is retried by :func:`_attempt`,
which owns the Newton matrix I − d·h·J: it evaluates J when it holds none,
and factors the matrix for :func:`~.trbdf2.step`, which only solves on it.
J is carried from macro step to macro step, into a refinement window as the
cohort's block, and across its micro steps; a slow Newton stage drops it
(:data:`REUSE_MAX_ITERATIONS`).  A failure on a carried Jacobian is retried
once at the same h on a fresh one, which is not a rejection; a failure on a
fresh one halves h and keeps it.  Each accepted step hands its z_next on as
the next step's first stage (FSAL, first same as last); a window's first
micro step takes the cohort's rows of the tentative step's z_n, as the
latent context at the window start is the start state itself.  Only the
macro step after a refined window, which changed its start state, holds no
FSAL value (and no stage predictor).  Without an FSAL hand-off that rescales
to the new h (h/h_prev overflows after a landing near the smallest
subnormal), the loop evaluates f at the step start once for all attempts.
A J or f not finite at the step start ends the run, as no smaller h changes
it.  A finite-difference J at the step start takes that f as its base value,
or evaluates its own.  The
run's :class:`IntegrationTrace` is its :class:`~.ode_problem.EvalCounter` as
well, so all work is charged to it directly.

A micro step reads a latent context built once per macro window.  Its halo is
the latent components that the cohort's rows of f depend on through the
declared Jacobian bandwidth (all of them when none is declared); only those
are reconstructed, into one length-m buffer seeded from the tentative
endpoint, and only when the stage time changes.  The window's provider of
that buffer reaches the cohort's f and J unchanged, and they write the
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
# Before a micro step, a proposal h shorter than the rest of its window,
# span, becomes span/n with n = max(1, ⌈span/h − s⌉) for this slack s: the
# window ends without a sliver step, and no step grows beyond (1 + s/n)·h.
# Measured on the default presets: s = 0.1 leaves more micro attempts, and at
# s = 0.2 the stretched step of y' = −y (one component, all of it refined)
# misses 1e-5 at t = 1.
EVEN_SPLIT_SLACK = 0.15


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
class _Chain:
    """What an accepted step hands to the next on the same components: the
    proposed h, the Jacobian to carry (None evaluates one), Newton's
    contraction rate, the (h, z_n, z_γ) predicting its stages, and the FSAL
    hand-off (z, h_prev), an h_prev·f at the next step's start (None
    evaluates f there)."""

    h: float
    jacobian: Optional[np.ndarray] = None
    rate: float = 1.0
    prev: Optional[Tuple[float, np.ndarray, np.ndarray]] = None
    fsal: Optional[Tuple[np.ndarray, float]] = None


def _attempt(problem: OdeProblem, t: float, x: np.ndarray, span: float, final: bool,
             delta: float, chain: _Chain, cfg: MultirateConfig, counter: EvalCounter,
             part: ActivePartition, frozen=None) -> tuple:
    """Retry one step from (t, x) at ``chain.h`` until it passes, for macro and
    micro steps alike.

    An h beyond ``span`` becomes ``span``, so the step lands exactly.  It
    passes when every component outside the refinement set
    {η > δ·max η} ∩ {η > 1} meets its tolerance; δ = 1 flags nothing.
    ``part`` is the partition stepped and ``frozen`` a micro step's latent
    context provider, None on a macro step.  Each attempt's z_n is
    ``chain.fsal`` rescaled to its h; without a usable one, f(t, x) becomes
    the hand-off (f, 1.0).  J is ``chain.jacobian`` until a
    failure or a slow stage drops it; then J at (t, x) is evaluated once and
    serves all later attempts, also after a failure on it, which halves h with
    no retry.  A finite-difference J takes that f(t, x) as its base value,
    never a handed-in z.  Each
    attempt factors I − d·h·J and takes ``chain.prev`` (see
    :func:`~.trbdf2.step`) and a contraction rate, carried on from a failed
    error test.  Every attempt is charged to the run's budget
    ``cfg.max_steps`` on ``counter``, which counts rejections by cause.  The
    accepted step hands ``chain`` its proposal from δ·ε (none on landing on
    the ``final`` target), its J if carried on (else None), rate, predictor
    and FSAL hand-off (z_next, h).  Returns (step, h, η, refinement
    mask or None when δ = 1, rejections, the step's J).
    """
    ctrl, tol = cfg.controller, cfg.tolerances
    h, jacobian, rate, fsal = chain.h, chain.jacobian, chain.rate, chain.fsal
    fresh = False  # whether ``jacobian`` was evaluated at (t, x)
    f_start = None  # f(t, x) once evaluated here: a finite-difference J's base value
    rejections = 0
    while True:
        if counter.step_attempts >= cfg.max_steps:
            raise SafetyCapExceeded(f"step budget of {cfg.max_steps} attempts spent at t={t}")
        counter.step_attempts += 1
        h = min(h, span)
        ratio = math.inf if fsal is None else h / fsal[1]
        if not math.isfinite(ratio):  # none, or overflows after a landing near 5e-324
            # f(t, x) serves every attempt; a non-finite one raises here, whatever h.
            # f and J go through trbdf2's bindings, which perfbench's tracer counts
            f_start = trbdf2.eval_subsystem_rhs(problem, t, x, frozen, part, counter)
            fsal, ratio = (f_start, 1.0), h
        z_in = fsal[0] * ratio
        if jacobian is None:  # a non-finite J at (t, x) raises here, whatever h
            jacobian = trbdf2.subsystem_jacobian(problem, t, x, frozen, part, counter,
                                                 f0=f_start)
            fresh = True
        try:
            lu = trbdf2.newton_matrix(jacobian, h, problem.bandwidth)
            res = trbdf2.step(problem, t, x, h, part=part, frozen=frozen, z_in=z_in,
                              cfg=cfg.newton, counter=counter, lu=lu, tolerances=tol,
                              prev=chain.prev, rate=rate)
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
                if h < span or not final:
                    eps = res.eps_mod if refine is None else delta * res.eps_mod
                    chain.h = next_step_size(h, eps, res.u_next, tol, ctrl)
                chain.jacobian, chain.rate = carry, res.rate
                chain.prev = (h, res.z_n, res.z_gamma)
                chain.fsal = (res.z_next, h)
                return res, h, eta, refine, rejections, jacobian
            if not fresh:
                jacobian = carry
            rate = res.rate
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


def _march(problem: OdeProblem, t: float, x: np.ndarray, targets: Sequence[float],
           chain: _Chain, delta: float, cfg: MultirateConfig, counter: EvalCounter,
           part: ActivePartition, frozen=None):
    """Step from (t, x) to each of the increasing ``targets`` in turn with
    :func:`_attempt` on ``part``, handing ``chain`` from step to step.  With no
    latent context provider ``frozen``, each step is a :class:`MacroRecord`
    on the full system, which has the cohort it flags refined by
    :func:`_refine`; with one, a :class:`MicroRecord` on a cohort, whose
    proposal ``chain.h`` is first evened out over the rest of the window
    (:data:`EVEN_SPLIT_SLACK`).  After a refined window the chain keeps its h,
    J and rate but drops its predictor and FSAL value.  Yields each accepted
    step's record, the time it landed on and the state there."""
    for target in targets:
        while t < target:
            span = target - t
            if frozen is not None and chain.h < span and span / chain.h < math.inf:
                chain.h = span / max(1, math.ceil(span / chain.h - EVEN_SPLIT_SLACK))
            res, h, eta, refine, rejections, jacobian = _attempt(
                problem, t, x, span, target == targets[-1], delta, chain, cfg, counter,
                part, frozen)
            eta_max, iters = float(np.maximum.reduce(eta)), res.newton_iterations
            x_next = res.u_next
            if frozen is None:
                active0 = np.empty(0, dtype=np.intp) if refine is None else np.flatnonzero(refine)
                micro: List[MicroRecord] = []
                if active0.size:
                    cohort = ActivePartition(problem.m, active0)
                    micro, x_next = _refine(problem, t, x, h, res, jacobian, cohort, cfg, counter)
                    # The refined state differs from the tentative endpoint, so the
                    # tentative stage derivatives are stale; the next step recomputes f
                    # and starts its stages without a prediction.
                    chain.fsal = chain.prev = None
                record = MacroRecord(t_start=t, h=h, eta_max=eta_max, rejections=rejections,
                                     newton_iterations=iters, active0=active0, micro=micro)
            else:
                record = MicroRecord(t_start=t, h=h, eta_max=eta_max, newton_iterations=iters,
                                     rejections=rejections, x_start=x)
            t = target if h == span else t + h
            x = x_next
            yield record, t, x


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
    The micro steps are :func:`_march` on the cohort with δ = 1, landing on
    the window end.  Their chain starts on the cohort's block of ``jacobian``,
    the one the tentative step used, on the tentative step's contraction rate
    and on the FSAL hand-off (the cohort's rows of its z_n, h_macro): at
    ζ = 0 the latent context is u itself, so those rows are h_macro times the
    cohort's f at the window start.  Each micro step's stages are predicted
    from the micro step before it, and its z_n is that step's z_next.
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

    chain = _Chain(
        # The first micro proposal comes from the tentative macro error.
        h=next_step_size(h_macro, res.eps_mod[active.indices], u_hat[active.indices],
                         cfg.tolerances, cfg.controller),
        jacobian=block(jacobian, active.indices, problem.bandwidth), rate=res.rate,
        fsal=(res.z_n[active.indices], h_macro))
    x = u[active.indices]
    records: List[MicroRecord] = []
    for record, _, x in _march(problem, t, x, [t_end], chain, 1.0, cfg, counter,
                               active, latent_context):
        records.append(record)

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

    Macro steps are chained with FSAL hand-off and the controller's proposal,
    starting from ``cfg.h0``.  The ``t_samples`` inside (t0, t_end) and t_end
    itself are the targets of :func:`_march`, taken in order, so callers read
    states at those times without interpolation error, at any |t|.  The
    returned trace is the run's counter: every evaluation and attempt is
    charged to it.
    """
    if not (math.isfinite(t0) and math.isfinite(t_end) and t0 < t_end):
        raise ValueError(f"need finite t0 < t_end, got t0={t0!r}, t_end={t_end!r}")
    y0 = np.asarray(y0, dtype=float)
    trace = IntegrationTrace(m=problem.m)

    landings = sorted({float(s) for s in t_samples if t0 < s < t_end})
    landings.append(float(t_end))

    times = [float(t0)]
    states = [y0.copy()]
    for record, t, u in _march(problem, times[0], states[0], landings, _Chain(h=cfg.h0),
                               cfg.controller.delta, cfg, trace, ActivePartition.full(problem.m)):
        trace.records.append(record)
        times.append(t)
        states.append(u.copy())

    return Trajectory(np.asarray(times), np.asarray(states)), trace


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
