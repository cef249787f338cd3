import numpy as np
import pytest

from mrtrbdf2 import trbdf2
from mrtrbdf2.benchmarks import inverter_chain
from mrtrbdf2.controller import ControllerConfig, ToleranceSpec
from mrtrbdf2.errors import SafetyCapExceeded, StepFloorReached
from mrtrbdf2.integrator import (
    MultirateConfig,
    integrate,
    integrate_single_rate,
    macro_step,
)
from mrtrbdf2.ode_problem import ActivePartition, OdeProblem


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
    assert np.array_equal(out.state, out.tentative.u_next)


def test_macro_step_flags_fast_component():
    p = linear_problem(np.diag([-1.0, -1000.0]))
    cfg = default_cfg(tolerances=ToleranceSpec(1e-6, 1e-6), h0=1e-2)
    out = macro_step(p, 0.0, np.array([1.0, 1.0]), 1e-2, cfg)
    assert out.record.active0.tolist() == [1]


def test_latent_components_keep_tentative_values():
    p = linear_problem(np.diag([-1.0, -1000.0]))
    cfg = default_cfg(tolerances=ToleranceSpec(1e-6, 1e-6), h0=1e-2)
    out = macro_step(p, 0.0, np.array([1.0, 1.0]), 1e-2, cfg)
    mask = np.zeros(2, dtype=bool)
    mask[out.record.active0] = True
    assert np.array_equal(out.state[~mask], out.tentative.u_next[~mask])


def test_all_active_refinement_matches_micro_grid_replay():
    # identical dynamics in every component -> the whole state is refined;
    # replaying the recorded micro grid step by step must reproduce the
    # result exactly (no latent variables exist)
    a = np.diag([-40.0, -40.0, -40.0])
    p = linear_problem(a)
    cfg = default_cfg(tolerances=ToleranceSpec(0.0, 1e-10), h0=0.05)
    u0 = np.array([1.0, 1.0, 1.0])
    out = macro_step(p, 0.0, u0, 0.05, cfg)
    rec = out.record
    assert rec.active0.tolist() == [0, 1, 2]
    assert len(rec.micro) >= 2
    x = u0.copy()
    part = ActivePartition.full(3)
    for mic in rec.micro:
        assert mic.active.tolist() == [0, 1, 2]
        res = trbdf2.step(p, mic.t_start, x, mic.h, part=part, cfg=cfg.newton)
        x = res.u_next
    assert np.array_equal(x, out.state)


def test_micro_windows_cover_interval():
    p = linear_problem(np.diag([-1.0, -800.0]))
    cfg = default_cfg(tolerances=ToleranceSpec(1e-6, 1e-6), h0=5e-3)
    out = macro_step(p, 0.0, np.array([1.0, 1.0]), 5e-3, cfg)
    rec = out.record
    assert len(rec.micro) >= 1
    t = rec.t_start
    for mic in rec.micro:
        assert mic.t_start == pytest.approx(t, abs=1e-12 * rec.h)
        t = mic.t_start + mic.h
    assert t == pytest.approx(rec.t_end, abs=1e-9 * rec.h)


def test_nested_active_sets():
    """Every micro step of a window refines exactly the window's cohort."""
    # On this short inverter chain a cohort re-partitioned after each micro
    # step would shrink within some windows.
    preset = inverter_chain(m=10, t_end=8.0, tol_abs=1e-5)
    traj, trace = integrate(preset.problem, 0.0, 8.0, preset.y0, preset.config,
                            keep_dense=False)
    assert any(rec.micro for rec in trace.records)
    for rec in trace.records:
        for mic in rec.micro:
            assert np.array_equal(mic.active, rec.active0)


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


def test_trajectory_dense_output():
    p = linear_problem([[-1.0]])
    traj, _ = integrate(p, 0.0, 1.0, np.array([1.0]), default_cfg())
    for t in (0.17, 0.43, 0.88):
        assert abs(traj.sample(t)[0] - np.exp(-t)) <= 5e-5


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
    p = linear_problem(np.diag([-1.0, -1000.0]))
    cfg = default_cfg(tolerances=ToleranceSpec(1e-6, 1e-6), h0=1e-2, max_micro_steps=1)
    with pytest.raises(SafetyCapExceeded):
        macro_step(p, 0.0, np.array([1.0, 1.0]), 1e-2, cfg)


def test_workload_counts_components():
    p = linear_problem(np.diag([-1.0, -1000.0]))
    cfg = default_cfg(tolerances=ToleranceSpec(1e-6, 1e-6), h0=1e-3)
    traj, trace = integrate(p, 0.0, 0.05, np.ones(2), cfg)
    expected = 2 * trace.accepted_macro + sum(
        len(mic.active) for rec in trace.records for mic in rec.micro
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
