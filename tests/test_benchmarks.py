from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from mrtrbdf2.benchmarks import (
    burgers_riemann,
    courant_numbers,
    inverter_chain,
    inverter_gate,
    inverter_input,
    linear_advection,
    reaction_diffusion,
)
from mrtrbdf2.errors import MissingSpatialMetadata
from mrtrbdf2.integrator import integrate, integrate_single_rate
from mrtrbdf2.ode_problem import ActivePartition, EvalCounter, OdeProblem, subsystem_jacobian
from mrtrbdf2.reference import integrate_dop853, integrate_radau


def dense_jacobian(problem, t, y):
    """The m×m Jacobian: analytic if the problem has one, else forward differences."""
    return subsystem_jacobian(replace(problem, bandwidth=None), t, y, None,
                              ActivePartition.full(problem.m), EvalCounter())


def test_gate_function_clamps():
    assert inverter_gate(0.5, 123.0, 1.0) == 0.0
    assert inverter_gate(5.0, 5.0, 1.0) == pytest.approx(16.0)


def test_input_signal_pieces():
    assert inverter_input(7.5) == pytest.approx(2.5)
    assert inverter_input(12.0) == pytest.approx(5.0)
    assert inverter_input(16.0) == pytest.approx(2.5)
    assert inverter_input(20.0) == 0.0
    assert inverter_input(2.0) == 0.0


def test_inverter_initial_state_near_equilibrium():
    preset = inverter_chain(m=10)
    f = preset.problem.rhs(0.0, preset.y0)
    assert np.max(np.abs(f)) <= 0.01


@pytest.mark.parametrize("factory,point_fn", [
    (lambda: inverter_chain(m=12), lambda y0, rng: np.clip(y0 + rng.normal(scale=0.3, size=y0.size), 0.1, 4.7)),
    (lambda: reaction_diffusion(n_cells=24), lambda y0, rng: np.clip(y0 + rng.normal(scale=0.05, size=y0.size), 0.05, 0.95)),
    (lambda: linear_advection(n_cells=32), lambda y0, rng: y0 + rng.normal(scale=0.1, size=y0.size)),
    (lambda: burgers_riemann(n_cells=32), lambda y0, rng: np.abs(y0 + rng.uniform(0.1, 0.6, size=y0.size))),
])
def test_analytic_jacobians_match_finite_differences(factory, point_fn):
    preset = factory()
    rng = np.random.default_rng(17)
    y = point_fn(preset.y0.astype(float), rng)
    p_plain = OdeProblem(m=preset.problem.m, rhs=preset.problem.rhs)
    j_an = dense_jacobian(preset.problem, 7.3, y)
    j_fd = dense_jacobian(p_plain, 7.3, y)
    assert np.max(np.abs(j_an - j_fd)) <= 1e-4 * max(1.0, np.max(np.abs(j_an)))


def test_reaction_diffusion_jacobian_is_tridiagonal():
    # stencil locality oracle: finite differences of the rhs at the initial
    # profile must vanish exactly beyond the first off-diagonals
    preset = reaction_diffusion(n_cells=30)
    p_plain = OdeProblem(m=30, rhs=preset.problem.rhs)
    j_fd = dense_jacobian(p_plain, 0.0, preset.y0)
    far = np.abs(np.triu(j_fd, 2)) + np.abs(np.tril(j_fd, -2))
    assert np.max(far) <= 1e-12


def test_inverter_jacobian_equals_the_loop_form_bitwise():
    # reference: the per-row loop the indexed assignment replaced
    m, g, u = 30, 100.0, 1.0
    preset = inverter_chain(m=m, gamma_stiff=g, u_thresh=u)
    rng = np.random.default_rng(5)
    for t in (0.0, 7.5, 12.0, 16.0):
        y = rng.uniform(0.0, 5.0, size=m)
        drive = np.concatenate(([inverter_input(t)], y[:-1]))
        b = np.maximum(drive - y - u, 0.0)
        dg_dy = 2.0 * np.maximum(drive - u, 0.0) - 2.0 * b
        ref = np.zeros((m, m))
        np.fill_diagonal(ref, -1.0 - g * 2.0 * b)
        for i in range(1, m):
            ref[i, i - 1] = -g * dg_dy[i]
        assert preset.problem.jacobian(t, y).tobytes() == ref.tobytes()


def _outside_band(j, kl, ku):
    i, k = np.indices(j.shape)
    return j[(i - k > kl) | (k - i > ku)]


@pytest.mark.parametrize("factory,states", [
    (lambda: inverter_chain(m=40), lambda y0, rng: rng.uniform(0.0, 5.0, size=y0.size)),
    (lambda: reaction_diffusion(n_cells=30), lambda y0, rng: rng.uniform(-0.2, 1.2, size=y0.size)),
    (lambda: burgers_riemann(n_cells=30), lambda y0, rng: rng.uniform(-1.0, 1.5, size=y0.size)),
    (lambda: burgers_riemann(n_cells=30, u_left=0.0, u_right=1.0), lambda y0, rng: rng.normal(size=y0.size)),
])
def test_declared_bandwidth_covers_the_jacobian(factory, states):
    # a declaration narrower than the Jacobian would silently drop entries
    # from the Newton matrix
    preset = factory()
    p = preset.problem
    kl, ku = p.bandwidth
    p_plain = OdeProblem(m=p.m, rhs=p.rhs)
    rng = np.random.default_rng(41)
    ys = [states(preset.y0, rng) for _ in range(5)]
    if "u_thresh" in preset.params:
        # inverter states on both sides of the gate threshold
        u = preset.params["u_thresh"]
        assert all(np.any(y < u) and np.any(y > u) for y in ys)
    used = np.zeros(kl + ku + 1, dtype=bool)
    for t in (0.0, 7.5, 12.0, 16.0):
        for y in [preset.y0.astype(float)] + ys:
            j = dense_jacobian(p, t, y)
            assert not np.any(_outside_band(j, kl, ku))
            assert not np.any(_outside_band(dense_jacobian(p_plain, t, y), kl, ku))
            used |= [np.any(np.diagonal(j, -k)) for k in range(-ku, kl + 1)]
    # and no wider than the stencil: every declared diagonal is used
    assert np.all(used)


def test_advection_declares_no_bandwidth():
    # the periodic inflow couples cell 0 to cell n-1
    preset = linear_advection(n_cells=16)
    assert preset.problem.bandwidth is None
    assert dense_jacobian(preset.problem, 0.0, preset.y0)[0, -1] != 0.0


def test_reaction_diffusion_steady_states():
    preset = reaction_diffusion(n_cells=30)
    for value in (0.0, 1.0):
        f = preset.problem.rhs(0.0, np.full(30, value))
        assert np.max(np.abs(f)) <= 1e-12


def test_reaction_diffusion_pure_diffusion_consistency():
    n = 200
    preset = reaction_diffusion(n_cells=n, gamma_r=0.0, eps_d=0.01)
    dx = preset.dx
    x = (np.arange(n) + 0.5) * dx
    f = preset.problem.rhs(0.0, x * x)
    # second difference of x^2 is exactly 2 in the interior
    interior = f[2:-2]
    assert np.max(np.abs(interior - 2.0 * 0.01)) <= 1e-9


def test_advection_constant_state():
    preset = linear_advection(n_cells=64)
    f = preset.problem.rhs(0.0, np.full(64, 2.5))
    assert np.max(np.abs(f)) <= 1e-14


def test_advection_mass_conservation():
    preset = linear_advection(n_cells=64)
    rng = np.random.default_rng(3)
    y = rng.normal(size=64)
    f = preset.problem.rhs(0.0, y)
    # telescoping periodic sum: total mass flux vanishes
    assert abs(np.sum(f) * preset.dx) <= 1e-12


def test_advection_exact_solution_at_zero():
    preset = linear_advection(n_cells=64)
    assert np.max(np.abs(preset.exact_solution(0.0) - preset.y0)) <= 1e-14


def test_burgers_constant_state():
    preset = burgers_riemann(n_cells=32, u_left=0.7, u_right=0.7)
    f = preset.problem.rhs(0.0, np.full(32, 0.7))
    assert np.max(np.abs(f)) <= 1e-14


def test_burgers_shock_speed():
    # Rankine-Hugoniot oracle: s = (u_l + u_r) / 2
    preset = burgers_riemann(n_cells=400, u_left=1.0, u_right=0.0)
    lo = -1.0
    dx = preset.dx
    for t in (0.2, 0.6):
        ex = preset.exact_solution(t)
        jump = np.nonzero(np.diff(ex) != 0.0)[0]
        x_jump = lo + (jump[0] + 1) * dx
        assert abs(x_jump - 0.5 * t) <= dx


def test_burgers_interior_mass_telescoping():
    preset = burgers_riemann(n_cells=64)
    rng = np.random.default_rng(5)
    y = rng.uniform(0.0, 1.0, size=64)
    f = preset.problem.rhs(0.0, y)
    # total mass change reduces to the two boundary fluxes
    ul, ur = 1.0, 0.0
    flux = lambda a, b: 0.5 * (0.5 * a * a + 0.5 * b * b) - 0.5 * max(abs(a), abs(b)) * (b - a)
    boundary = flux(ul, y[0]) - flux(y[-1], ur)
    assert abs(np.sum(f) * preset.dx - boundary) <= 1e-12


def test_courant_requires_spatial_metadata():
    preset = inverter_chain(m=5)
    traj, trace = integrate_single_rate(
        preset.problem, 0.0, 0.2, preset.y0, preset.config
    )
    with pytest.raises(MissingSpatialMetadata):
        courant_numbers(traj, trace, preset)


def test_courant_advection_unit():
    preset = linear_advection(n_cells=32)
    traj, trace = integrate_single_rate(
        preset.problem, 0.0, 0.5, preset.y0, preset.config
    )
    samples = courant_numbers(traj, trace, preset)
    assert len(samples) == trace.accepted_macro
    for s, rec in zip(samples, trace.records):
        assert s.kind == "global"
        assert s.value == pytest.approx(rec.h / preset.dx, rel=1e-12)


def test_courant_refined_smaller_than_global_on_shock():
    preset = burgers_riemann(n_cells=100, u_left=1.0, u_right=0.0, t_end=0.3)
    traj, trace = integrate(preset.problem, 0.0, 0.3, preset.y0, preset.config)
    samples = courant_numbers(traj, trace, preset)
    glb = [s.value for s in samples if s.kind == "global"]
    ref = [s.value for s in samples if s.kind == "refined"]
    assert ref, "shock run is expected to refine"
    assert np.median(ref) < np.median(glb)


def test_courant_zero_state():
    preset = burgers_riemann(n_cells=16, u_left=0.0, u_right=0.0)
    traj, trace = integrate_single_rate(
        preset.problem, 0.0, 0.1, preset.y0, preset.config
    )
    samples = courant_numbers(traj, trace, preset)
    assert all(s.value == 0.0 for s in samples)


def test_inverter_states_stay_bounded():
    preset = inverter_chain(m=12, t_end=8.0)
    traj, _ = integrate(preset.problem, 0.0, 8.0, preset.y0, preset.config)
    assert traj.states.min() >= -0.1
    assert traj.states.max() <= 5.1


def test_reaction_diffusion_invariant_region():
    preset = reaction_diffusion(n_cells=40, t_end=1.0)
    traj, _ = integrate(preset.problem, 0.0, 1.0, preset.y0, preset.config)
    assert traj.states.min() >= -0.01
    assert traj.states.max() <= 1.01


def test_radau_and_explicit_references_agree_with_the_exact_solution():
    # both references land on every record time; on a mildly stiff linear
    # system each is within 1e-8 of the matrix exponential
    a = np.array([[-1.0, 0.5], [0.0, -50.0]])
    y0 = np.array([1.0, 1.0])
    times = [1.0, 0.3, 1.0]
    rad = integrate_radau(lambda t, y: a @ y, lambda t, y: a, 0.0, y0, times)
    exp = integrate_dop853(lambda t, y: a @ y, 0.0, y0, times)
    for t in (0.3, 1.0):
        exact = scipy.linalg.expm(a * t) @ y0
        assert np.max(np.abs(rad[t] - exact)) <= 1e-8
        assert np.max(np.abs(exp[t] - exact)) <= 1e-8


def test_stiff_presets_use_the_radau_reference():
    preset = inverter_chain(m=6, t_end=1.0)
    ref = preset.reference_states([1.0])[1.0]
    rad = integrate_radau(preset.problem.rhs, preset.problem.jacobian, 0.0, preset.y0, [1.0])
    assert np.array_equal(ref, rad[1.0])
    assert reaction_diffusion(n_cells=8).reference_kind == "radau"
