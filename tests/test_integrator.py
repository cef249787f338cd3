import math
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mrtrbdf2 import integrator, interpolants, trbdf2
from mrtrbdf2.benchmarks import burgers_riemann, inverter_chain, reaction_diffusion
from mrtrbdf2.controller import ControllerConfig, ToleranceSpec
from mrtrbdf2.errors import (
    NewtonDivergence,
    NonFiniteOutput,
    SafetyCapExceeded,
    SingularMatrix,
    StepFloorReached,
    ToolkitError,
)
from mrtrbdf2.integrator import (
    IntegrationTrace,
    MultirateConfig,
    integrate,
    integrate_single_rate,
)
from mrtrbdf2.ode_problem import ActivePartition, EvalCounter, OdeProblem, latent_halo
from stepping import lone_step, macro_step


def linear_problem(a):
    a = np.asarray(a, dtype=float)
    return OdeProblem(m=a.shape[0], rhs=lambda t, y: a @ y, jacobian=lambda t, y: a)


def default_cfg(**kw):
    base = dict(tolerances=ToleranceSpec(1e-6, 1e-8), h0=1e-2)
    base.update(kw)
    return MultirateConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        default_cfg(interpolant="quadratic")
    with pytest.raises(ValueError):
        MultirateConfig(tolerances=ToleranceSpec(0.0, 1e-8), h0=1e-20,
                        controller=ControllerConfig(h_min=1e-6))


def test_zero_rhs_constant_trajectory():
    p = OdeProblem(m=3, rhs=lambda t, y: np.zeros(3), jacobian=lambda t, y: np.zeros((3, 3)))
    y0 = np.array([1.0, -2.0, 0.5])
    traj, trace = integrate(p, 0.0, 5.0, y0, default_cfg())
    assert np.all(traj.states == y0)
    assert trace.rejected_macro == 0
    assert trace.accepted_micro == 0
    assert trace.workload() == 3 * trace.accepted_macro


def test_scalar_decay_accuracy():
    p = linear_problem([[-1.0]])
    cfg = default_cfg(tolerances=ToleranceSpec(1e-6, 1e-8))
    traj, _ = integrate(p, 0.0, 1.0, np.array([1.0]), cfg)
    assert abs(traj.states[-1, 0] - np.exp(-1.0)) <= 1e-5


def test_delta_one_matches_single_rate_bitwise():
    a = np.array([[-1.0, 0.5], [0.0, -1000.0]])
    p = linear_problem(a)
    cfg = default_cfg(tolerances=ToleranceSpec(1e-6, 1e-6), h0=1e-3)
    cfg_d1 = default_cfg(tolerances=ToleranceSpec(1e-6, 1e-6), h0=1e-3,
                         controller=ControllerConfig(delta=1.0))
    y0 = np.array([1.0, 1.0])
    t1, tr1 = integrate(p, 0.0, 0.2, y0, cfg_d1)
    t2, tr2 = integrate_single_rate(p, 0.0, 0.2, y0, cfg)
    assert np.array_equal(t1.times, t2.times)
    assert np.array_equal(t1.states, t2.states)
    assert tr1.accepted_macro == tr2.accepted_macro
    assert tr1.rejected_macro == tr2.rejected_macro
    assert all(len(r.micro) == 0 for r in tr1.records)


def test_macro_step_scalar_delta_one_is_single_rate():
    p = linear_problem([[-2.0]])
    cfg = default_cfg(controller=ControllerConfig(delta=1.0))
    out = macro_step(p, 0.0, np.array([1.0]), 1e-2, cfg)
    assert out.record.active0.size == 0
    tentative = lone_step(p, 0.0, np.array([1.0]), out.record.h, cfg=cfg.newton)
    assert np.array_equal(out.state, tentative.u_next)


def test_macro_step_flags_fast_component():
    p = linear_problem(np.diag([-1.0, -1000.0]))
    cfg = default_cfg(tolerances=ToleranceSpec(1e-6, 1e-6), h0=1e-2)
    out = macro_step(p, 0.0, np.array([1.0, 1.0]), 1e-2, cfg)
    assert out.record.active0.tolist() == [1]


def test_latent_components_keep_tentative_values():
    p = linear_problem(np.diag([-1.0, -1000.0]))
    cfg = default_cfg(tolerances=ToleranceSpec(1e-6, 1e-6), h0=1e-2)
    out = macro_step(p, 0.0, np.array([1.0, 1.0]), 1e-2, cfg)
    tentative = lone_step(p, 0.0, np.array([1.0, 1.0]), out.record.h, cfg=cfg.newton)
    mask = np.zeros(2, dtype=bool)
    mask[out.record.active0] = True
    assert np.array_equal(out.state[~mask], tentative.u_next[~mask])


@contextmanager
def stepped_components():
    """Log (t, h, stepped components, or None for a full step) of every
    ``trbdf2.step`` call that returns, in call order.  A full step is one
    without a latent context provider."""
    steps = []
    original = trbdf2.step

    def logged(*args, **kwargs):
        res = original(*args, **kwargs)
        full = kwargs.get("frozen") is None
        steps.append((args[1], args[3], None if full else kwargs["part"].indices.tolist()))
        return res

    with mock.patch.object(trbdf2, "step", logged):
        yield steps


def test_all_active_refinement_matches_micro_grid_replay():
    # identical dynamics in every component -> the whole state is refined;
    # replaying the recorded micro grid step by step must reproduce the
    # result exactly (no latent variables exist)
    a = np.diag([-40.0, -40.0, -40.0])
    p = linear_problem(a)
    cfg = default_cfg(tolerances=ToleranceSpec(0.0, 1e-10), h0=0.05)
    u0 = np.array([1.0, 1.0, 1.0])
    with stepped_components() as steps:
        out = macro_step(p, 0.0, u0, 0.05, cfg)
    rec = out.record
    assert rec.active0.tolist() == [0, 1, 2]
    assert len(rec.micro) >= 2
    # every micro step was stepped on all three components
    assert_windows_tile_with_a_fixed_cohort(IntegrationTrace(m=3, records=[rec]), steps)
    # each micro step's stages are predicted from the micro step before it,
    # and Newton's contraction rate is carried on from the tentative step's;
    # its z_n is the FSAL hand-off rescaled to its h: the tentative step's
    # first stage h·(A·u0) for the first micro step, then the z_next before it
    x, prev, rate = u0.copy(), None, out.rate
    z, h_prev = rec.h * (a @ u0), rec.h
    part = ActivePartition.full(3)
    for mic in rec.micro:
        res = lone_step(p, mic.t_start, x, mic.h, part=part, z_in=z * (mic.h / h_prev),
                        cfg=cfg.newton, tolerances=cfg.tolerances, prev=prev, rate=rate)
        x, prev, rate = res.u_next, (mic.h, res.z_n, res.z_gamma), res.rate
        z, h_prev = res.z_next, mic.h
    assert np.array_equal(x, out.state)


def logged_steps(monkeypatch, fail_at=(), error=NewtonDivergence):
    """Record (h, whether a Jacobian was carried in) for every step call, where
    carried means that no Jacobian was evaluated since the previous step call;
    the calls numbered in ``fail_at`` (from 1) raise ``error`` instead."""
    calls = []
    evaluated = []
    original_step, original_jacobian = trbdf2.step, trbdf2.subsystem_jacobian

    def subsystem_jacobian(*args, **kwargs):
        evaluated.append(args[1])
        return original_jacobian(*args, **kwargs)

    def logged(*args, **kwargs):
        assert kwargs["lu"].n == args[2].size  # the driver always factors for the step
        calls.append((args[3], not evaluated))
        evaluated.clear()
        if len(calls) in fail_at:
            raise error("injected")
        return original_step(*args, **kwargs)

    monkeypatch.setattr(trbdf2, "subsystem_jacobian", subsystem_jacobian)
    monkeypatch.setattr(trbdf2, "step", logged)
    return calls


def test_stale_jacobian_is_retried_fresh_without_a_rejection(monkeypatch):
    # the zero Jacobian of a non-stiff past misses the -1e4 mode, so Newton
    # diverges on it; the fresh retry at the same h is not a rejection
    p = linear_problem(np.diag([-1.0, -1e4]))
    cfg = default_cfg(tolerances=ToleranceSpec(1e-6, 1e-6))
    u = np.array([1.0, 1.0])
    fresh = macro_step(p, 0.0, u, 1e-2, cfg)
    calls = logged_steps(monkeypatch)
    stale = macro_step(p, 0.0, u, 1e-2, cfg, jacobian=np.zeros((2, 2)))
    assert calls[:2] == [(1e-2, True), (1e-2, False)]
    assert stale.record.rejections == fresh.record.rejections == 0
    assert stale.record.h == fresh.record.h == 1e-2
    assert stale.state.tobytes() == fresh.state.tobytes()


def test_failure_on_a_fresh_jacobian_halves_h(monkeypatch):
    # the analytic Jacobian is wrong at every state (as in
    # test_newton_divergence_raises), so the fresh retry fails too; the
    # attempt at h/2 starts from the same point and keeps that Jacobian
    p = OdeProblem(m=1, rhs=lambda t, y: 1e4 * y * y - y,
                   jacobian=lambda t, y: np.array([[-1.0]]))
    cfg = default_cfg(controller=ControllerConfig(max_rejections=2))
    counter = EvalCounter()
    calls = logged_steps(monkeypatch)
    with pytest.raises(StepFloorReached):
        macro_step(p, 0.0, np.array([5.0]), 1.0, cfg, counter=counter,
                   jacobian=np.array([[-1.0]]))
    assert calls == [(1.0, True), (1.0, False), (0.5, True)]
    assert counter.jacobian_evaluations == 1


def test_no_jacobian_is_evaluated_twice_at_one_point():
    # Newton fails on fresh Jacobians in these runs, and the retries at h/2
    # start from the same (t, y)
    for run in (integrate, integrate_single_rate):
        preset = inverter_chain(m=12, t_end=8.0)
        keys = []
        analytic = preset.problem.jacobian

        def jacobian(t, y):
            keys.append((t, y.tobytes()))
            return analytic(t, y)

        problem = replace(preset.problem, jacobian=jacobian)
        _, trace = run(problem, preset.t0, preset.t_end, preset.y0, preset.config)
        assert trace.rejections["newton_divergence"] > 0
        assert len(keys) == trace.jacobian_evaluations
        assert len(set(keys)) == len(keys)


@pytest.mark.parametrize("run", [integrate, integrate_single_rate])
def test_non_finite_jacobian_at_the_start_point_ends_the_run_at_once(run):
    # J = 0.5/√|y| is infinite at y = 0 whatever h, so no smaller step helps
    evaluations = []

    def jacobian(t, y):
        evaluations.append((t, y.tobytes()))
        with np.errstate(divide="ignore"):
            return np.array([[0.5 / np.sqrt(abs(y[0]))]])

    p = OdeProblem(m=1, rhs=lambda t, y: np.sqrt(np.abs(y)), jacobian=jacobian)
    with pytest.raises(NonFiniteOutput):
        run(p, 0.0, 1.0, np.zeros(1), default_cfg())
    assert evaluations == [(0.0, np.zeros(1).tobytes())]


@pytest.mark.parametrize("run", [integrate, integrate_single_rate])
def test_non_finite_rhs_at_the_start_point_ends_the_run_at_once(run):
    # f = √y has no real value at y = −1 whatever h, though J is finite there
    calls = []

    def rhs(t, y):
        calls.append((t, y.tobytes()))
        return np.sqrt(y) if y[0] >= 0.0 else np.full(1, np.nan)

    p = OdeProblem(m=1, rhs=rhs, jacobian=lambda t, y: np.array([[1.0]]))
    with pytest.raises(NonFiniteOutput):
        run(p, 0.0, 1.0, np.array([-1.0]), default_cfg())
    assert calls == [(0.0, np.array([-1.0]).tobytes())]


def test_f_is_evaluated_once_per_step_start(monkeypatch):
    # Rejected micro attempts retry from the same start.  Only step starts are
    # keyed, as a stale-Jacobian retry repeats its first stage evaluation, and
    # another step's stages are left out: a micro step's last Newton iterate
    # may be the next step's start exactly (a component resting at 5.0).
    def key(t, x, part):
        return None if part is None or part.is_full else part.indices.tobytes(), t, x.tobytes()

    starts, evaluated = Counter(), Counter()
    running = []  # the start of the step call in progress
    original_step, original_rhs = trbdf2.step, trbdf2.eval_subsystem_rhs

    def step(problem, t, u, h, part=None, **kwargs):
        running.append(key(t, u, part))
        starts[running[-1]] += 1
        try:
            return original_step(problem, t, u, h, part=part, **kwargs)
        finally:
            running.pop()

    def eval_subsystem_rhs(problem, t, x, frozen, part, counter=None):
        k = key(t, x, part)
        if not running or running[-1] == k:
            evaluated[k] += 1
        return original_rhs(problem, t, x, frozen, part, counter)

    monkeypatch.setattr(trbdf2, "step", step)
    monkeypatch.setattr(trbdf2, "eval_subsystem_rhs", eval_subsystem_rhs)
    preset = inverter_chain(m=12, t_end=8.0)
    _, trace = integrate(preset.problem, preset.t0, preset.t_end, preset.y0, preset.config)
    assert trace.rejected_micro > 0
    assert any(k[0] is not None and n > 1 for k, n in starts.items())  # micro retries
    assert max(evaluated[k] for k in starts) == 1


@pytest.mark.parametrize("run", [integrate_single_rate, integrate])
def test_finite_difference_jacobian_takes_f_at_the_step_start_as_its_base(run):
    # With no analytic J, the first step's fresh finite-difference J reuses the
    # f(0, y0) that the attempt loop evaluated: one call at (0, y0) for the
    # macro step.  In multirate the cohort's first micro step starts from the
    # cohort's rows of the tentative step's first stage and on its carried J,
    # so it makes no call at (0, y0) of its own.
    a = np.array([[-1.0, 0.5], [0.0, -100.0]])
    y0 = np.array([1.0, 1.0])
    calls = []

    def rhs(t, y):
        calls.append((t, y.tobytes()))
        return a @ y

    _, trace = run(OdeProblem(m=2, rhs=rhs), 0.0, 1.0, y0, default_cfg())
    assert trace.rhs_calls == len(calls)
    assert calls.count((0.0, y0.tobytes())) == 1


def test_micro_steps_start_from_the_first_same_as_last_hand_off(monkeypatch):
    # With an analytic J, f is evaluated outside trbdf2.step only at the
    # start of a macro step that holds no FSAL value: the first one, and each
    # one after a refined window, whose state the window changed.  A micro
    # step starts from the cohort's rows of the tentative step's first stage,
    # or from the z_next of the micro step before it.
    starts = []  # (t, whether the call is on the full system)
    running = []
    original_step, original_rhs = trbdf2.step, trbdf2.eval_subsystem_rhs

    def step(*args, **kwargs):
        running.append(True)
        try:
            return original_step(*args, **kwargs)
        finally:
            running.pop()

    def eval_subsystem_rhs(problem, t, x, frozen, part, counter):
        if not running:
            starts.append((t, frozen is None))
        return original_rhs(problem, t, x, frozen, part, counter)

    monkeypatch.setattr(trbdf2, "step", step)
    monkeypatch.setattr(trbdf2, "eval_subsystem_rhs", eval_subsystem_rhs)
    preset = inverter_chain(m=12)
    assert preset.problem.jacobian is not None
    _, trace = integrate(preset.problem, preset.t0, preset.t_end, preset.y0, preset.config)
    records = trace.records
    assert trace.accepted_micro > 0
    assert all(full for _, full in starts)  # no micro step evaluates f at its start
    assert [t for t, _ in starts] == [records[0].t_start] + [
        rec.t_start for before, rec in zip(records, records[1:]) if before.micro]


@pytest.mark.parametrize("make,slivers_before", [(inverter_chain, 846),
                                                 (burgers_riemann, 241),
                                                 (reaction_diffusion, 170)],
                         ids=["inverter_chain", "burgers_shock", "reaction_diffusion"])
def test_micro_proposals_split_the_rest_of_the_window_evenly(make, slivers_before, monkeypatch):
    # Before each micro step a proposal h_prop shorter than the rest of the
    # window, span, becomes span/⌈span/h_prop − 0.15⌉; a retry is not
    # evened out.  On the default presets this leaves at most a tenth of the
    # windows that ended in a sliver (a last micro step under a quarter of
    # the window's largest) when each proposal was taken as it came.
    proposals = {}  # id of a window's chain -> its latest proposal
    first_attempts = []  # (span, proposal, h of the micro step's first attempt)
    step_hs = []
    original_march, original_attempt = integrator._march, integrator._attempt
    original_step = trbdf2.step

    def march(problem, t, x, targets, chain, delta, cfg, counter, part, frozen=None):
        if frozen is not None:
            proposals[id(chain)] = chain.h
        yield from original_march(problem, t, x, targets, chain, delta, cfg, counter, part,
                                  frozen)

    def attempt(problem, t, x, span, final, delta, chain, cfg, counter, part, frozen=None):
        calls_before = len(step_hs)
        out = original_attempt(problem, t, x, span, final, delta, chain, cfg, counter, part,
                               frozen)
        if frozen is not None:
            first_attempts.append((span, proposals[id(chain)], step_hs[calls_before]))
            proposals[id(chain)] = chain.h
        return out

    def step(*args, **kwargs):
        step_hs.append(args[3])
        return original_step(*args, **kwargs)

    monkeypatch.setattr(integrator, "_march", march)
    monkeypatch.setattr(integrator, "_attempt", attempt)
    monkeypatch.setattr(trbdf2, "step", step)
    preset = make()
    _, trace = integrate(preset.problem, preset.t0, preset.t_end, preset.y0, preset.config)
    assert len(first_attempts) == trace.accepted_micro
    assert any(h_prop < span for span, h_prop, _ in first_attempts)
    for span, h_prop, h in first_attempts:
        assert h == (span / max(1, math.ceil(span / h_prop - 0.15)) if h_prop < span else span)
    slivers = sum(1 for rec in trace.records if len(rec.micro) > 1
                  and rec.micro[-1].h < 0.25 * max(mic.h for mic in rec.micro))
    assert slivers <= slivers_before // 10


@pytest.mark.parametrize("run", [integrate_single_rate, integrate])
def test_rhs_reusing_its_output_buffer_runs_as_one_returning_fresh_arrays(run):
    # the driver keeps f values across calls (the FSAL hand-off, the
    # finite-difference base), so none of them may be the rhs's own buffer
    a = np.array([[-1.0, 0.5], [0.0, -100.0]])
    y0 = np.array([1.0, 1.0])
    buf = np.empty(2)
    reused = OdeProblem(m=2, rhs=lambda t, y: np.matmul(a, y, out=buf))
    fresh = OdeProblem(m=2, rhs=lambda t, y: a @ y)
    traj, trace = run(reused, 0.0, 1.0, y0, default_cfg())
    want_traj, want_trace = run(fresh, 0.0, 1.0, y0, default_cfg())
    assert traj.times.tobytes() == want_traj.times.tobytes()
    assert traj.states.tobytes() == want_traj.states.tobytes()
    assert trace.summary() == want_trace.summary()


def test_jacobian_is_carried_only_after_fast_newton_stages():
    cfg = default_cfg(tolerances=ToleranceSpec(1e-2, 1e-2), controller=ControllerConfig(delta=1.0))
    linear = linear_problem([[-2.0, 1.0], [0.0, -50.0]])
    out = macro_step(linear, 0.0, np.array([1.0, 1.0]), 1e-2, cfg)
    assert max(out.record.newton_iterations) <= integrator.REUSE_MAX_ITERATIONS
    assert np.array_equal(out.jacobian, linear.jacobian(0.0, None))
    # a Jacobian off by a factor 5: Newton contracts only linearly
    rough = OdeProblem(m=1, rhs=lambda t, y: -100.0 * y, jacobian=lambda t, y: np.array([[-20.0]]))
    out = macro_step(rough, 0.0, np.array([1.0]), 5e-3, cfg)
    assert out.record.rejections == 0
    assert max(out.record.newton_iterations) > integrator.REUSE_MAX_ITERATIONS
    assert out.jacobian is None


def rough_decay():
    """y' = −100·y with a Jacobian of −20: Newton converges, but too slowly
    for its Jacobian to be carried to another step."""
    return OdeProblem(m=1, rhs=lambda t, y: -100.0 * y, jacobian=lambda t, y: np.array([[-20.0]]))


def test_error_test_rejection_on_a_fresh_jacobian_evaluates_it_once():
    p = rough_decay()
    cfg = default_cfg(tolerances=ToleranceSpec(1e-4, 1e-4), controller=ControllerConfig(delta=1.0))
    counter = EvalCounter()
    out = macro_step(p, 0.0, np.array([1.0]), 2e-2, cfg, counter=counter)
    assert out.record.rejections == 2
    assert max(out.record.newton_iterations) > integrator.REUSE_MAX_ITERATIONS
    # every attempt starts at (0, 1), so all three share one evaluation
    assert counter.jacobian_evaluations == 1
    assert counter.rejections == {"error_test": 2}
    fresh = lone_step(p, 0.0, np.array([1.0]), out.record.h, cfg=cfg.newton,
                      tolerances=cfg.tolerances)
    assert out.state.tobytes() == fresh.u_next.tobytes()


def test_failure_on_the_kept_jacobian_halves_h_at_once(monkeypatch):
    # a fresh evaluation at the same (t, x) would give the same matrix, so
    # there is no retry at the same h
    cfg = default_cfg(tolerances=ToleranceSpec(1e-4, 1e-4), controller=ControllerConfig(delta=1.0))
    counter = EvalCounter()
    calls = logged_steps(monkeypatch, fail_at={2})
    macro_step(rough_decay(), 0.0, np.array([1.0]), 2e-2, cfg, counter=counter)
    (h1, carried1), (h2, carried2), (h3, carried3) = calls[:3]
    assert (h1, carried1) == (2e-2, False)
    assert h2 < h1 and carried2
    assert (h3, carried3) == (h2 / 2.0, True)
    assert counter.rejections["newton_divergence"] == 1
    assert counter.stale_jacobian_retries == 0


@pytest.mark.parametrize("error, cause", [(NewtonDivergence, "newton_divergence"),
                                          (NonFiniteOutput, "non_finite_output"),
                                          (SingularMatrix, "singular_matrix")])
def test_each_failure_is_counted_by_its_cause(monkeypatch, error, cause):
    # a failure on a carried Jacobian is a stale-Jacobian retry, not a
    # rejection; the same failure on the fresh one halves h and keeps it
    p = linear_problem([[-1.0]])
    cfg = default_cfg(controller=ControllerConfig(delta=1.0))
    counter = EvalCounter()
    calls = logged_steps(monkeypatch, fail_at={1, 2}, error=error)
    out = macro_step(p, 0.0, np.array([1.0]), 1e-2, cfg, counter=counter,
                     jacobian=np.array([[-1.0]]))
    assert calls[:3] == [(1e-2, True), (1e-2, False), (5e-3, True)]
    assert counter.jacobian_evaluations == 1
    assert out.record.rejections == 1
    assert counter.rejections == {cause: 1}
    assert counter.stale_jacobian_retries == 1


def test_rejection_causes_sum_to_the_rejected_steps():
    preset = inverter_chain(m=12, t_end=8.0)
    for run in (integrate, integrate_single_rate):
        _, trace = run(preset.problem, preset.t0, preset.t_end, preset.y0, preset.config)
        summary = trace.summary()
        causes = summary["rejection_causes"]
        assert sorted(causes) == sorted(integrator.REJECTION_CAUSES)
        assert sum(causes.values()) == trace.rejected_macro + trace.rejected_micro
        # this run meets both the error test and Newton divergence
        assert causes["error_test"] > 0 and causes["newton_divergence"] > 0
        assert summary["stale_jacobian_retries"] > 0


@pytest.mark.parametrize("analytic", [True, False], ids=["analytic_jacobian", "fd_jacobian"])
def test_summary_counts_every_rhs_call_at_full_width(analytic):
    preset = inverter_chain(m=12, t_end=8.0)
    calls = []

    def rhs(t, y):
        calls.append(y.size)
        return preset.problem.rhs(t, y)

    jacobian = preset.problem.jacobian if analytic else None
    problem = replace(preset.problem, rhs=rhs, jacobian=jacobian)
    _, trace = integrate(problem, preset.t0, preset.t_end, preset.y0, preset.config)
    summary = trace.summary()
    assert trace.accepted_micro > 0
    assert summary["rhs_calls"] == len(calls)
    assert summary["effective_scalar_evals"] == sum(calls) == 12 * len(calls)
    # micro steps are charged their cohort's width, but compute all m rows
    assert summary["scalar_function_evaluations"] < summary["effective_scalar_evals"]


@pytest.mark.parametrize("make", [lambda: inverter_chain(m=12, t_end=8.0),
                                  lambda: reaction_diffusion(n_cells=16, t_end=0.3)],
                         ids=["inverter_chain", "reaction_diffusion"])
@pytest.mark.parametrize("interpolant", ["hermite", "linear"])
def test_halo_context_matches_full_length_reconstruction_bitwise(make, interpolant, monkeypatch):
    # Micro steps reconstruct only the latent halo; the same macro steps with
    # every latent component reconstructed must give the same bits.
    preset = make()
    cfg = replace(preset.config, interpolant=interpolant)
    traj, trace = integrate(preset.problem, preset.t0, preset.t_end, preset.y0, cfg)
    # cohorts past the chain head, so that a halo exists on the driven side
    refined = [k for k, rec in enumerate(trace.records) if rec.micro and rec.active0[0] > 0][:3]
    assert refined

    def replay():
        return [macro_step(preset.problem, trace.records[k].t_start, traj.states[k],
                           trace.records[k].h, cfg) for k in refined]

    halo = replay()
    m = preset.problem.m
    for out in halo:  # the halo leaves some latent components out
        part = ActivePartition(m, out.record.active0)
        assert latent_halo(preset.problem, part).size < m - part.size
    monkeypatch.setattr(integrator, "latent_halo", lambda p, part: part.complement().indices)
    whole = replay()
    for a, b in zip(halo, whole):
        assert a.record.micro
        assert [(mic.h, mic.newton_iterations) for mic in a.record.micro] == \
            [(mic.h, mic.newton_iterations) for mic in b.record.micro]
        assert a.state.tobytes() == b.state.tobytes()


def test_repeated_runs_in_one_process_are_bitwise_identical():
    # Newton's carried rate and the stage predictors belong to the run, so a
    # run repeated in the same process, after a multirate and a single-rate
    # run, starts from the same state as the first
    preset = inverter_chain(m=12, t_end=8.0)
    runs = [run(preset.problem, preset.t0, preset.t_end, preset.y0, preset.config)
            for _ in range(2) for run in (integrate, integrate_single_rate)]
    assert runs[0][1].accepted_micro > 0
    for (traj_a, trace_a), (traj_b, trace_b) in zip(runs[:2], runs[2:]):
        assert traj_a.times.tobytes() == traj_b.times.tobytes()
        assert traj_a.states.tobytes() == traj_b.states.tobytes()
        assert trace_a.summary() == trace_b.summary()


@pytest.mark.parametrize("t_end", [float("nan"), float("inf"), 0.0, -1.0])
def test_time_span_must_be_finite_and_forward(t_end):
    p = linear_problem([[-1.0]])
    with pytest.raises(ValueError, match="finite t0 < t_end"):
        integrate(p, 0.0, t_end, np.array([1.0]), default_cfg())
    with pytest.raises(ValueError, match="finite t0 < t_end"):
        integrate(p, float("nan"), 1.0, np.array([1.0]), default_cfg())


@st.composite
def banded_runs(draw, cubic):
    """A random banded system y' = A·y − c·y³ with decay rates spread over
    four decades, an initial state, a multirate configuration and an end time."""
    m = draw(st.integers(2, 8))
    band = (draw(st.integers(0, 1)), draw(st.integers(0, 1)))
    rates = draw(st.lists(st.floats(0.0, 4.0), min_size=m, max_size=m))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = np.diag(-(10.0 ** np.asarray(rates)))
    a += np.triu(np.tril(rng.uniform(-2.0, 2.0, (m, m)), band[0]), -band[1]) * (1 - np.eye(m))
    c = draw(cubic)
    problem = OdeProblem(m=m, rhs=lambda t, y: a @ y - c * y ** 3,
                         jacobian=lambda t, y: a - np.diag(3.0 * c * y ** 2), bandwidth=band)
    tol = draw(st.floats(1e-7, 1e-3))
    cfg = default_cfg(tolerances=ToleranceSpec(tol, tol), h0=1e-3,
                      controller=ControllerConfig(delta=draw(st.floats(0.01, 1.0))),
                      interpolant=draw(st.sampled_from(integrator.INTERPOLANT_KINDS)))
    return problem, rng.uniform(0.5, 1.5, m), cfg, 0.05


def assert_windows_tile_with_a_fixed_cohort(trace, steps):
    """Micro steps tile each macro window exactly, each is stepped on the
    window's cohort, and the workload is the count of space-time pairs.

    ``steps`` is the :func:`stepped_components` log of the run: every
    subsystem step that returned, error-test rejections included, must start
    at its micro step's start and advance exactly the cohort ``active0``.
    """
    sub_steps = iter([s for s in steps if s[2] is not None])
    pairs = 0
    for rec in trace.records:
        pairs += trace.m + rec.active0.size * len(rec.micro)
        assert bool(rec.micro) == bool(rec.active0.size)
        t = rec.t_start
        for mic in rec.micro:
            assert mic.t_start == t
            while True:  # the attempts of this micro step, the accepted one last
                t_step, h_step, stepped = next(sub_steps)
                assert t_step == mic.t_start
                assert stepped == rec.active0.tolist()
                if h_step == mic.h:
                    break
            t = mic.t_start + mic.h
        if rec.micro:
            assert rec.micro[-1].h == rec.t_end - rec.micro[-1].t_start
    assert next(sub_steps, None) is None
    assert trace.workload() == pairs


# One macro window refined by several micro steps.
STIFF_PAIR = (linear_problem(np.diag([-1.0, -800.0])), np.ones(2),
              default_cfg(tolerances=ToleranceSpec(1e-6, 1e-6), h0=5e-3), 5e-3)
# On this short inverter chain a cohort re-partitioned after each micro step
# would shrink within some windows.
SHORT_CHAIN = inverter_chain(m=10, t_end=8.0, tol_abs=1e-5)


@settings(max_examples=40, deadline=None)
@example(run=STIFF_PAIR)
@given(run=banded_runs(st.just(0.0)))
def test_micro_windows_cover_interval(run):
    problem, y0, cfg, t_end = run
    with stepped_components() as steps:
        _, trace = integrate(problem, 0.0, t_end, y0, cfg)
    assert_windows_tile_with_a_fixed_cohort(trace, steps)


@settings(max_examples=40, deadline=None)
@example(run=(SHORT_CHAIN.problem, SHORT_CHAIN.y0, SHORT_CHAIN.config, SHORT_CHAIN.t_end))
@given(run=banded_runs(st.floats(0.0, 20.0)))
def test_nested_active_sets(run):
    """Every micro step of a window refines exactly the window's cohort, also
    on nonlinear systems, where Newton iterates more than once."""
    problem, y0, cfg, t_end = run
    with stepped_components() as steps:
        _, trace = integrate(problem, 0.0, t_end, y0, cfg)
    assert_windows_tile_with_a_fixed_cohort(trace, steps)


@settings(max_examples=40, deadline=None)
@given(run=banded_runs(st.floats(0.0, 20.0)),
       samples=st.lists(st.floats(0.0, 0.05, exclude_min=True, exclude_max=True), max_size=4))
# two samples closer to t_end, and to each other, than 1e-12
@example(run=(linear_problem(np.diag([-1.0, -800.0])), np.ones(2),
              default_cfg(tolerances=ToleranceSpec(1e-7, 1e-7), h0=1e-3), 0.05),
         samples=[0.04999999999999999, 0.049999999999999996])
def test_delta_one_is_single_rate_and_lands_on_samples(run, samples):
    """δ = 1 is the adaptive single-rate method bitwise, through full steps
    only, and every sample time is landed on exactly."""
    problem, y0, cfg, t_end = run
    cfg_d1 = replace(cfg, controller=replace(cfg.controller, delta=1.0))
    with stepped_components() as steps:
        traj, trace = integrate(problem, 0.0, t_end, y0, cfg_d1, t_samples=samples)
    ref, ref_trace = integrate_single_rate(problem, 0.0, t_end, y0, cfg, t_samples=samples)
    assert traj.times.tobytes() == ref.times.tobytes()
    assert traj.states.tobytes() == ref.states.tobytes()
    assert trace.summary() == ref_trace.summary()
    assert trace.accepted_micro == 0
    assert all(stepped is None for *_, stepped in steps)
    for s in samples:
        (i,) = np.flatnonzero(traj.times == s)
        assert traj.state_at(s).tobytes() == traj.states[i].tobytes()


# At t0 = 1e6 a spacing of t is 1.2e-10, so t + h rounds by up to 5.8e-11 and
# the sum of the steps does not reach t_end = t0 + 1 by itself.
LARGE_T_PAIR = linear_problem(np.diag([-1.0, -200.0]))


@pytest.mark.parametrize("drive", [integrate, integrate_single_rate])
def test_lands_on_t_end_and_a_sample_just_before_it_at_large_t(drive):
    t0 = 1e6
    t_end = t0 + 1.0
    sample = t_end - 5e-7
    cfg = default_cfg(h0=1e-3)
    traj, _ = drive(LARGE_T_PAIR, t0, t_end, np.ones(2), cfg, t_samples=[sample])
    assert traj.t_final == t_end
    assert np.count_nonzero(traj.times == sample) == 1
    assert np.all(np.diff(traj.times) > 0.0)


@pytest.mark.parametrize("drive", [integrate, integrate_single_rate])
def test_state_at_reads_only_the_knot_itself_at_large_t(drive):
    """At t0 = 1e6 a time 1e-4 past a knot, short of the next one, is not
    stored, while a time a spacing off still reads the knot's row."""
    t0 = 1e6
    traj, _ = drive(LARGE_T_PAIR, t0, t0 + 1.0, np.ones(2), default_cfg())
    knot = traj.times[5]
    assert knot + 1e-4 < traj.times[6]
    assert traj.state_at(np.nextafter(knot, np.inf)).tobytes() == traj.states[5].tobytes()
    with pytest.raises(ValueError, match="t_samples"):
        traj.state_at(knot + 1e-4)


@pytest.mark.parametrize("interpolant", integrator.INTERPOLANT_KINDS)
@pytest.mark.parametrize("t0", [1e4, 1e6])
def test_refinement_windows_at_large_t(monkeypatch, t0, interpolant):
    """At large |t| a micro stage time at the window end lies a rounding of
    t + h past h from the window start; the latent reconstruction reads it as
    the window end, and the run matches the same run started at t = 0."""
    offsets = []
    check_offset = interpolants._check_offset

    def logged(zeta, h):
        offsets.append((zeta, h))
        return check_offset(zeta, h)

    monkeypatch.setattr(interpolants, "_check_offset", logged)
    cfg = default_cfg(h0=1e-3, interpolant=interpolant)
    traj, trace = integrate(LARGE_T_PAIR, t0, t0 + 1.0, np.ones(2), cfg)
    ref, _ = integrate(LARGE_T_PAIR, 0.0, 1.0, np.ones(2), cfg)
    assert trace.accepted_micro > 0
    assert traj.t_final == t0 + 1.0
    assert all(0.0 <= zeta <= h for zeta, h in offsets)
    assert max(zeta / h for zeta, h in offsets) == 1.0
    assert np.max(np.abs(traj.states[-1] - ref.states[-1])) <= 1e-6


def test_stiff_scalar_no_step_collapse():
    lam = -1e6
    p = OdeProblem(
        m=1,
        rhs=lambda t, y: lam * (y - np.sin(t)) + np.cos(t),
        jacobian=lambda t, y: np.array([[lam]]),
    )
    cfg = default_cfg(tolerances=ToleranceSpec(1e-6, 1e-8), h0=1e-4)
    traj, trace = integrate_single_rate(p, 0.0, 2.0, np.array([0.5]), cfg)
    assert trace.accepted_macro <= 1e4 * 2.0
    assert abs(traj.states[-1, 0] - np.sin(2.0)) <= 1e-3


def test_trajectory_times_strictly_increasing_and_exact_landings():
    p = linear_problem([[-1.0]])
    samples = [0.31, 0.62, 0.99]
    traj, _ = integrate(p, 0.0, 1.0, np.array([1.0]), default_cfg(), t_samples=samples)
    assert np.all(np.diff(traj.times) > 0)
    assert traj.times[-1] == 1.0
    for s in samples:
        assert np.min(np.abs(traj.times - s)) == 0.0


@pytest.mark.parametrize("run", [integrate, integrate_single_rate])
@pytest.mark.parametrize("t_end, samples", [(1e-3, []), (1.0, [1e-3])], ids=["t_end", "sample"])
def test_first_step_beyond_the_first_target_is_cut_to_land_on_it(run, t_end, samples):
    # h0 = 1e-2 overshoots the first target, so the first step takes the whole
    # gap and lands on it exactly
    p = linear_problem([[-1.0]])
    traj, trace = run(p, 0.0, t_end, np.array([1.0]), default_cfg(h0=1e-2), t_samples=samples)
    assert trace.records[0].h == 1e-3
    assert traj.times[1] == 1e-3


@pytest.mark.parametrize("run", [integrate, integrate_single_rate])
def test_landing_on_the_smallest_subnormal_time(run):
    # the step after the 5e-324 landing cannot rescale the FSAL derivative:
    # h/h_prev overflows, so that step evaluates its own
    p = linear_problem(np.diag([-1.0, -100.0]))
    traj, _ = run(p, 0.0, 1.0, np.array([1.0, 1.0]), default_cfg(), t_samples=[5e-324])
    assert traj.times[1] == 5e-324 and traj.times[-1] == 1.0
    assert np.all(np.isfinite(traj.states))
    assert abs(traj.states[-1, 0] - np.exp(-1.0)) <= 1e-4


def test_state_at_reads_stored_rows_only():
    p = linear_problem([[-1.0]])
    traj, _ = integrate(p, 0.0, 1.0, np.array([1.0]), default_cfg(), t_samples=[0.43])
    i = int(np.flatnonzero(traj.times == 0.43)[0])
    assert traj.state_at(0.43).tobytes() == traj.states[i].tobytes()
    assert abs(traj.state_at(0.43)[0] - np.exp(-0.43)) <= 5e-5
    assert np.array_equal(traj.state_at(1.0), traj.states[-1])
    with pytest.raises(ValueError, match="t_samples"):
        traj.state_at(0.17)


def test_step_floor_reached():
    # error estimate can never meet the tolerance before h hits its floor
    p = OdeProblem(
        m=1,
        rhs=lambda t, y: np.array([np.cos(1e3 * t)]),
        jacobian=lambda t, y: np.zeros((1, 1)),
    )
    cfg = default_cfg(
        tolerances=ToleranceSpec(0.0, 1e-280),
        h0=1e-2,
        controller=ControllerConfig(h_min=1e-3, max_rejections=10),
    )
    with pytest.raises(StepFloorReached):
        integrate_single_rate(p, 0.0, 1.0, np.array([0.0]), cfg)


def test_micro_safety_cap():
    # the step budget counts micro attempts too: one more than the macro
    # attempts cannot finish a window of two or more micro steps
    p = linear_problem(np.diag([-1.0, -1000.0]))
    cfg = default_cfg(tolerances=ToleranceSpec(1e-6, 1e-6), h0=1e-2)
    out = macro_step(p, 0.0, np.array([1.0, 1.0]), 1e-2, cfg)
    assert len(out.record.micro) >= 2
    with pytest.raises(SafetyCapExceeded):
        macro_step(p, 0.0, np.array([1.0, 1.0]), 1e-2,
                   replace(cfg, max_steps=out.record.rejections + 2))


@pytest.mark.parametrize("run", [integrate, integrate_single_rate])
def test_step_budget_ends_a_run_pinned_at_h_min(run):
    # h_max = 2·h_min pins the controller near the floor, so t = 1 is 5e5
    # steps away; the run ends after exactly max_steps attempts instead
    h_min = 1e-6
    cfg = default_cfg(h0=h_min, max_steps=300,
                      controller=ControllerConfig(h_min=h_min, h_max=2.0 * h_min))
    with stepped_components() as steps, pytest.raises(SafetyCapExceeded, match="300 attempts"):
        run(linear_problem([[-1.0, 0.0], [0.0, -1e3]]), 0.0, 1.0, np.ones(2), cfg)
    assert len(steps) == 300
    assert issubclass(SafetyCapExceeded, ToolkitError)  # the CLI exits 3 on it


def test_workload_counts_components():
    p = linear_problem(np.diag([-1.0, -1000.0]))
    cfg = default_cfg(tolerances=ToleranceSpec(1e-6, 1e-6), h0=1e-3)
    traj, trace = integrate(p, 0.0, 0.05, np.ones(2), cfg)
    # each micro step records the substate it started from
    expected = 2 * trace.accepted_macro + sum(
        mic.x_start.size for rec in trace.records for mic in rec.micro
    )
    assert trace.workload() == expected


def test_single_rate_workload_identity():
    p = linear_problem([[-1.0]])
    traj, trace = integrate_single_rate(p, 0.0, 1.0, np.array([1.0]), default_cfg())
    assert trace.workload() == 1 * trace.accepted_macro


def test_multirate_accuracy_on_random_stiff_systems():
    # errors stay within a small multiple of the tolerance across random
    # coupled systems with widely spread timescales
    rng = np.random.default_rng(99)
    for _ in range(3):
        m = int(rng.integers(3, 7))
        lam = -(10.0 ** rng.uniform(0, 4, size=m))
        a = np.diag(lam) + rng.normal(scale=0.5, size=(m, m))
        p = linear_problem(a)
        y0 = rng.uniform(0.5, 1.5, size=m)
        cfg = default_cfg(tolerances=ToleranceSpec(1e-6, 1e-8), h0=1e-3)
        traj, trace = integrate(p, 0.0, 0.5, y0, cfg)
        tight = default_cfg(tolerances=ToleranceSpec(1e-9, 1e-11), h0=1e-4)
        ref, _ = integrate_single_rate(p, 0.0, 0.5, y0, tight)
        err = np.max(np.abs(traj.states[-1] - ref.states[-1]))
        assert err <= 1e-4
        assert trace.accepted_micro > 0


def test_every_top_level_export_resolves():
    import mrtrbdf2
    assert [name for name in mrtrbdf2.__all__ if not hasattr(mrtrbdf2, name)] == []
