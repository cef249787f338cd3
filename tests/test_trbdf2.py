import math
from dataclasses import replace

import numpy as np
import pytest

from mrtrbdf2 import trbdf2
from mrtrbdf2.controller import ToleranceSpec
from mrtrbdf2.errors import DimensionMismatch, NewtonDivergence, PoleEncountered
from mrtrbdf2.ode_problem import (ActivePartition, EvalCounter, OdeProblem, eval_subsystem_rhs,
                                  subsystem_jacobian)
from mrtrbdf2.trbdf2 import (
    D_STAGE,
    EMBEDDED_WEIGHTS,
    GAMMA,
    NEWTON_KAPPA,
    W_STAGE,
    WEIGHTS,
    NewtonConfig,
    newton_matrix,
    raw_error_estimate,
    stability_function,
    step,
)
from stepping import lone_step

TIGHT = NewtonConfig(tolerance=1e-13, max_iterations=50)


@pytest.mark.parametrize("tolerance", [np.nan, np.inf, -np.inf, 0.0, -1e-8])
def test_newton_tolerance_must_be_finite_and_positive(tolerance):
    with pytest.raises(ValueError):
        NewtonConfig(tolerance=tolerance)


def scalar_problem(lam):
    return OdeProblem(
        m=1, rhs=lambda t, y: lam * y, jacobian=lambda t, y: np.array([[lam]])
    )


def eps_raw(res):
    """The raw embedded error estimate of a step."""
    return raw_error_estimate(res.z_n, res.z_gamma, res.z_next)


# Independent oracle: rational functions of the main and embedded rows built
# directly from the Butcher tableau via a linear solve.
_A_TABLEAU = np.array([
    [0.0, 0.0, 0.0],
    [D_STAGE, D_STAGE, 0.0],
    [WEIGHTS[0], WEIGHTS[1], WEIGHTS[2]],
])


def tableau_amplification(z, weights):
    stages = np.linalg.solve(np.eye(3) - z * _A_TABLEAU, np.ones(3))
    return 1.0 + z * np.dot(weights, stages)


def test_coefficients_sum_to_one():
    assert abs(sum(WEIGHTS) - 1.0) <= 1e-15
    assert abs(sum(EMBEDDED_WEIGHTS) - 1.0) <= 1e-15
    assert 0.0 < GAMMA < 1.0


def test_step_zero_rhs():
    p = OdeProblem(m=2, rhs=lambda t, y: np.zeros(2), jacobian=lambda t, y: np.zeros((2, 2)))
    u = np.array([1.5, -2.0])
    res = lone_step(p, 0.0, u, 0.7)
    assert np.array_equal(res.u_gamma, u)
    assert np.array_equal(res.u_next, u)
    assert np.all(eps_raw(res) == 0.0)
    assert np.all(res.eps_mod == 0.0)


def test_scalar_step_matches_stability_function():
    res = lone_step(scalar_problem(-1.0), 0.0, np.array([1.0]), 0.1, cfg=TIGHT)
    expected = stability_function(-0.1).real
    assert abs(res.u_next[0] - expected) <= 1e-10


def test_fixed_step_second_order():
    p = scalar_problem(-1.0)

    def global_error(h):
        n = round(1.0 / h)
        u = np.array([1.0])
        z = None
        for k in range(n):
            res = lone_step(p, k * h, u, h, z_in=z, cfg=TIGHT)
            u, z = res.u_next, res.z_next
        return abs(u[0] - math.exp(-1.0))

    e1, e2 = global_error(0.05), global_error(0.025)
    assert 3.6 <= e1 / e2 <= 4.4


def test_stability_function_consistency():
    assert stability_function(0.0) == pytest.approx(1.0, abs=1e-15)


def test_stability_function_decay_at_minus_infinity():
    assert abs(stability_function(-1e6)) <= 1e-5


def test_stability_function_third_order_contact():
    # |R(z) - e^z| = O(z^3) near the origin
    for z in (0.1, -0.1, 0.01, -0.01):
        assert abs(stability_function(z) - math.exp(z)) / abs(z) ** 3 <= 0.1


def test_l_stability_on_log_grid():
    xs = -np.logspace(-4, 8, 200)
    vals = [abs(stability_function(x)) for x in xs]
    assert max(vals) <= 1.0 + 1e-14
    decades = [abs(stability_function(-10.0**k)) for k in range(2, 9)]
    assert all(a > b for a, b in zip(decades, decades[1:]))


def test_a_stability_on_imaginary_axis():
    ys = np.linspace(-1e3, 1e3, 501)
    assert max(abs(stability_function(1j * y)) for y in ys) <= 1.0 + 1e-12


def test_stability_function_pole():
    pole = 2.0 + math.sqrt(2.0)  # double root of the denominator
    with pytest.raises(PoleEncountered):
        stability_function(pole)


def test_raw_error_estimate_zero_for_equal_stages():
    z = np.array([0.3, -0.4])
    assert np.max(np.abs(raw_error_estimate(z, z, z))) <= 1e-16


def test_raw_error_estimate_first_weight():
    out = raw_error_estimate(np.array([1.0, 0.0]), np.zeros(2), np.zeros(2))
    assert out[0] == pytest.approx((1.0 - math.sqrt(2.0)) / 3.0, abs=1e-15)
    assert out[1] == 0.0


def test_raw_error_estimate_matches_embedded_difference():
    # quadrature check: for y' = lam*y the estimate equals (Rhat - R)(h*lam)*u0
    lam, h, u0 = -2.0, 0.37, 1.3
    res = lone_step(scalar_problem(lam), 0.0, np.array([u0]), h, cfg=TIGHT)
    z = h * lam
    expected = (tableau_amplification(z, EMBEDDED_WEIGHTS) - tableau_amplification(z, WEIGHTS)) * u0
    assert eps_raw(res)[0] == pytest.approx(expected, rel=1e-9)


def test_modified_estimate_identity_jacobian_zero():
    # f depends on t only, so J = 0 and the modified estimate is the raw one
    p = OdeProblem(m=2, rhs=lambda t, y: np.array([np.cos(3.0 * t), t * t]),
                   jacobian=lambda t, y: np.zeros((2, 2)))
    res = lone_step(p, 0.1, np.array([0.25, -0.5]), 0.3, cfg=TIGHT)
    raw = eps_raw(res)
    assert np.all(raw != 0.0)
    assert np.allclose(res.eps_mod, raw, rtol=0, atol=1e-15)


def test_modified_estimate_stiff_scalar():
    res = lone_step(scalar_problem(-1e6), 0.0, np.array([1.0]), 1.0)
    raw = eps_raw(res)[0]
    assert res.eps_mod[0] == pytest.approx(raw / (1.0 + D_STAGE * 1e6), rel=1e-12)


def test_modified_estimate_small_step_limit():
    for h in (1e-4, 1e-6):
        res = lone_step(scalar_problem(-3.0), 0.0, np.array([0.7]), h, cfg=TIGHT)
        raw = eps_raw(res)[0]
        assert abs(res.eps_mod[0] - raw) <= 2.0 * D_STAGE * h * 3.0 * abs(raw)


def test_modified_estimate_solves_shifted_system():
    # the returned estimate must satisfy (I - d*h*J) eps = eps_raw
    rng = np.random.default_rng(8)
    a = rng.normal(size=(4, 4))
    p = OdeProblem(m=4, rhs=lambda t, y: a @ y, jacobian=lambda t, y: a)
    h = 0.3
    res = lone_step(p, 0.0, rng.normal(size=4), h, cfg=TIGHT)
    lhs = (np.eye(4) - D_STAGE * h * a) @ res.eps_mod
    raw = eps_raw(res)
    denom = max(np.max(np.abs(raw)), 1e-300)
    assert np.max(np.abs(lhs - raw)) / denom <= 1e-10


@pytest.mark.parametrize("active", [None, [2], [3, 4], [2, 3, 4], [0, 3, 4, 7], [1, 2, 3, 5, 6]])
def test_banded_newton_matrix_matches_dense(active):
    # a stiff nonlinear tridiagonal system: the banded factorization of
    # I - d*h*J must give the step of the dense one, full and on subsystems,
    # by the band routines below order 3 and the tridiagonal ones from it on
    m = 8
    lap = np.diag(np.full(m, -2.0)) + np.eye(m, k=1) + np.eye(m, k=-1)

    def rhs(t, y):
        return 50.0 * lap @ y - y ** 3

    def jac(t, y):
        return 50.0 * lap - np.diag(3.0 * y ** 2)

    dense = OdeProblem(m=m, rhs=rhs, jacobian=jac)
    banded = replace(dense, bandwidth=(1, 1))
    y = np.linspace(0.2, 1.0, m)
    part = None if active is None else ActivePartition(m, active)
    u = y if part is None else y[part.indices]
    cfg = NewtonConfig(tolerance=1e-12, max_iterations=50)
    ref = lone_step(dense, 0.0, u, 0.05, part=part, frozen=lambda ts: y, cfg=cfg)
    got = lone_step(banded, 0.0, u, 0.05, part=part, frozen=lambda ts: y, cfg=cfg)
    pairs = {name: (getattr(ref, name), getattr(got, name)) for name in ("u_gamma", "u_next", "eps_mod")}
    pairs["eps_raw"] = (eps_raw(ref), eps_raw(got))
    for name, (a, b) in pairs.items():
        assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.max(np.abs(a))), name


def test_fsal_bitwise_handoff():
    p = scalar_problem(-0.5)
    h = 0.2
    res1 = lone_step(p, 0.0, np.array([1.0]), h, cfg=TIGHT)
    res2 = lone_step(p, h, res1.u_next, h, z_in=res1.z_next, cfg=TIGHT)
    assert np.array_equal(res2.z_n, res1.z_next)


def test_newton_two_iterations_on_linear():
    a = np.array([[-1.0, 0.3], [0.0, -2.0]])
    p = OdeProblem(m=2, rhs=lambda t, y: a @ y, jacobian=lambda t, y: a)
    res = lone_step(p, 0.0, np.array([1.0, -1.0]), 0.25)
    assert res.newton_iterations[0] <= 2
    assert res.newton_iterations[1] <= 2


def test_modified_estimate_tames_stiff_raw():
    ratios = []
    for lam in (-1e2, -1e4, -1e6):
        res = lone_step(scalar_problem(lam), 0.0, np.array([1.0]), 1.0)
        ratios.append(abs(res.eps_mod[0]) / abs(eps_raw(res)[0]))
    assert ratios[0] > ratios[1] > ratios[2]
    assert ratios[2] <= 1e-4


def test_newton_divergence_raises():
    # rhs with a Jacobian wildly inconsistent with the supplied one: the
    # modified-Newton contraction fails and the iteration must give up
    p = OdeProblem(
        m=1,
        rhs=lambda t, y: 1e4 * y * y - y,
        jacobian=lambda t, y: np.array([[-1.0]]),
    )
    with pytest.raises(NewtonDivergence):
        lone_step(p, 0.0, np.array([5.0]), 1.0,
                  cfg=NewtonConfig(tolerance=1e-12, max_iterations=8))


def stiff_cubic_chain(m=8, stiffness=100.0, cubic=5.0):
    """y' = stiffness·L y − cubic·y³ with the tridiagonal Laplacian L."""
    lap = np.diag(np.full(m, -2.0)) + np.eye(m, k=1) + np.eye(m, k=-1)
    return OdeProblem(
        m=m,
        rhs=lambda t, y: stiffness * lap @ y - cubic * y ** 3,
        jacobian=lambda t, y: stiffness * lap - np.diag(3.0 * cubic * y ** 2),
        bandwidth=(1, 1),
    )


def test_rate_stop_stays_within_kappa_of_a_tight_solve():
    p = stiff_cubic_chain()
    y = np.sin(np.pi * np.arange(1, 9) / 9.0)
    tol = ToleranceSpec(1e-4, 1e-6)
    h = 0.01
    tight = lone_step(p, 0.0, y, h, cfg=NewtonConfig(tolerance=1e-14, max_iterations=100))
    floor_only = lone_step(p, 0.0, y, h)
    rate = lone_step(p, 0.0, y, h, tolerances=tol)
    # the rate test stops each stage before the increment floor does
    assert all(r < f for r, f in zip(rate.newton_iterations, floor_only.newton_iterations))
    weights = 1.0 / tol.scale(y)
    for name in ("u_gamma", "u_next"):
        gap = np.max(np.abs(getattr(rate, name) - getattr(tight, name)) * weights)
        assert 0.0 < gap <= NEWTON_KAPPA, name
    # On a Jacobian twice too stiff, Newton contracts linearly at θ ≈ 1/2, so
    # the rate estimate is sharp: each stage ends within κ of its own exact
    # solution, where a stop that weighs ‖Δz‖ by 0.1 in place of d lands 2.2κ
    # and 2.5κ off.
    h = 0.02
    full = ActivePartition.full(p.m)
    rough_lu = newton_matrix(2.0 * subsystem_jacobian(p, 0.0, y, None, full, EvalCounter()), h,
                             p.bandwidth)
    rough = lone_step(p, 0.0, y, h, tolerances=tol, lu=rough_lu)
    stages = ((GAMMA * h, y + D_STAGE * rough.z_n, rough.z_gamma),
              (h, y + W_STAGE * (rough.z_n + rough.z_gamma), rough.z_next))
    for t_stage, base, z in stages:
        exact = exact_stage_solution(p, t_stage, base, z, h)
        gap = D_STAGE * np.max(np.abs(z - exact) * weights)
        assert 0.0 < gap <= NEWTON_KAPPA, t_stage


def exact_stage_solution(p, t, base, z, h):
    """z = h·f(t, base + d·z) by full Newton with a dense solve, to roundoff."""
    for _ in range(50):
        y = base + D_STAGE * z
        dz = np.linalg.solve(np.eye(z.size) - D_STAGE * h * p.jacobian(t, y), h * p.rhs(t, y) - z)
        z = z + dz
        if np.max(np.abs(dz)) <= 1e-15:
            return z
    raise AssertionError("reference Newton did not converge")


def test_given_factorization_is_used_and_no_jacobian_is_evaluated(monkeypatch):
    # the step solves on the z_n and factorization it is given: it evaluates
    # f only in its Newton iterations, no J, and factors nothing
    p = stiff_cubic_chain()
    y = np.sin(np.pi * np.arange(1, 9) / 9.0)
    h = 0.01
    # banded problem: J comes in band storage
    full = ActivePartition.full(p.m)
    jac = subsystem_jacobian(p, 0.0, y, None, full, EvalCounter())
    assert jac.shape == (3, 8)
    z_n, lu = h * p.rhs(0.0, y), newton_matrix(jac, h, p.bandwidth)
    short_lu = newton_matrix(jac[:, :4], h, p.bandwidth)
    prepared = lone_step(p, 0.0, y, h)

    def no_factoring(*args, **kwargs):
        raise AssertionError("the step factored a matrix")

    monkeypatch.setattr(trbdf2, "lu_factor", no_factoring)
    counter, cfg = EvalCounter(), NewtonConfig()
    res = step(p, 0.0, y, h, full, z_in=z_n, lu=lu, cfg=cfg, counter=counter)
    assert counter.rhs_calls == counter.newton_iterations == sum(res.newton_iterations)
    assert counter.jacobian_evaluations == 0
    assert res.u_next.tobytes() == prepared.u_next.tobytes()
    with pytest.raises(TypeError):
        step(p, 0.0, y, h, full, lu=lu, cfg=cfg, counter=counter)
    with pytest.raises(TypeError):
        step(p, 0.0, y, h, full, z_in=z_n, cfg=cfg, counter=counter)
    with pytest.raises(DimensionMismatch):
        step(p, 0.0, y, h, full, z_in=z_n, lu=short_lu, cfg=cfg, counter=counter)


def test_a_cohort_step_asks_its_provider_only_for_its_stage_times():
    # given z_n and the LU, the step reads the latent context only through
    # its Newton iterations' f: once per iteration, at t + γh, then at t + h
    p = stiff_cubic_chain()
    y = np.sin(np.pi * np.arange(1, 9) / 9.0)
    part = ActivePartition(p.m, [2, 3, 4])
    t, h = 0.3, 0.01
    x, context = y[part.indices], y.copy()
    counter = EvalCounter()
    z_n = h * eval_subsystem_rhs(p, t, x, lambda s: context, part, counter)
    lu = newton_matrix(subsystem_jacobian(p, t, x, lambda s: context, part, counter), h,
                       p.bandwidth)
    asked = []

    def frozen(s):
        asked.append(s)
        return context

    res = step(p, t, x, h, part, frozen, z_in=z_n, lu=lu, cfg=NewtonConfig(), counter=counter)
    it_tr, it_bdf = res.newton_iterations
    assert it_tr >= 1 and it_bdf >= 1
    assert asked == [t + GAMMA * h] * it_tr + [t + h] * it_bdf


def test_quadratic_predictor_is_exact_on_a_quadratic_forcing():
    # y' = c0 + c1·t + c2·t² with J = 0: the Newton matrix is I and each stage
    # solution is h times the forcing at the stage time, which the quadratic
    # through the previous step's stage derivatives and z_n predicts exactly
    c0, c1, c2 = 0.7, -1.3, 2.1
    p = OdeProblem(m=2, rhs=lambda t, y: np.full(2, c0 + c1 * t + c2 * t * t),
                   jacobian=lambda t, y: np.zeros((2, 2)))
    y = np.array([1.0, -2.0])
    h_prev, h = 0.3, 0.5
    first = lone_step(p, 0.0, y, h_prev, cfg=TIGHT)
    prev = (h_prev, first.z_n, first.z_gamma)
    got = lone_step(p, h_prev, first.u_next, h, prev=prev)
    assert got.newton_iterations == (1, 1)
    tight = lone_step(p, h_prev, first.u_next, h, cfg=TIGHT)
    for name in ("z_gamma", "z_next", "u_gamma", "u_next"):
        a, b = getattr(got, name), getattr(tight, name)
        assert np.max(np.abs(a - b)) <= 8.0 * np.spacing(np.max(np.abs(b))), name


def test_predicted_stages_stop_after_one_iteration_within_kappa():
    # The second step takes the first's stage derivatives and contraction
    # rate.  Measured gaps from the exact stage solutions: 0.0006κ and 0.0008κ
    # at h = 0.002, 0.022κ and 0.031κ when h doubles to 0.004.
    p = stiff_cubic_chain()
    y = np.sin(np.pi * np.arange(1, 9) / 9.0)
    tol = ToleranceSpec(1e-4, 1e-6)
    h_prev = 0.002
    first = lone_step(p, 0.0, y, h_prev, tolerances=tol)
    u = first.u_next
    weights = 1.0 / tol.scale(u)
    for h in (h_prev, 2.0 * h_prev):
        res = lone_step(p, h_prev, u, h, tolerances=tol, prev=(h_prev, first.z_n, first.z_gamma),
                        rate=first.rate)
        assert res.newton_iterations == (1, 1), h
        stages = ((h_prev + GAMMA * h, u + D_STAGE * res.z_n, res.z_gamma),
                  (h_prev + h, u + W_STAGE * (res.z_n + res.z_gamma), res.z_next))
        for t_stage, base, z in stages:
            exact = exact_stage_solution(p, t_stage, base, z, h)
            assert D_STAGE * np.max(np.abs(z - exact) * weights) <= NEWTON_KAPPA, (h, t_stage)


def plain_newton(p, t_stage, base, z, h, lu, tolerance):
    """The stage's modified Newton loop with no stop but the increment floor."""
    while True:
        delta = trbdf2.lu_solve(lu, h * p.rhs(t_stage, base + D_STAGE * z) - z)
        z = z + delta
        if np.max(np.abs(delta)) <= tolerance:
            return z


def test_without_a_previous_step_the_stages_start_from_z_n_and_the_line():
    # no previous step and the initial rate: the trapezoidal stage starts
    # from z_n and the BDF2 stage from the line through z_n and z_γ, each
    # bitwise as a plain Newton loop from there
    p = stiff_cubic_chain()
    y = np.sin(np.pi * np.arange(1, 9) / 9.0)
    h = 0.01
    z_n = h * p.rhs(0.0, y)
    full, cfg = ActivePartition.full(p.m), NewtonConfig()
    lu = newton_matrix(subsystem_jacobian(p, 0.0, y, None, full, EvalCounter()), h, p.bandwidth)
    res = step(p, 0.0, y, h, full, z_in=z_n, lu=lu, prev=None, rate=1.0, cfg=cfg,
               counter=EvalCounter())
    assert res.u_next.tobytes() == step(p, 0.0, y, h, full, z_in=z_n, lu=lu, cfg=cfg,
                                        counter=EvalCounter()).u_next.tobytes()
    tol = NewtonConfig().tolerance
    base1 = y + D_STAGE * z_n
    z_gamma = plain_newton(p, GAMMA * h, base1, z_n, h, lu, tol)
    base2 = y + W_STAGE * z_n + W_STAGE * z_gamma
    line = (1.0 - 1.0 / GAMMA) * z_n + (1.0 / GAMMA) * z_gamma
    z_next = plain_newton(p, h, base2, line, h, lu, tol)
    assert res.z_gamma.tobytes() == z_gamma.tobytes()
    assert res.z_next.tobytes() == z_next.tobytes()
    assert res.u_next.tobytes() == (base2 + D_STAGE * z_next).tobytes()


# h_prev/h at the excluded bounds 1e-3 and 1e3, not finite, or zero
@pytest.mark.parametrize("h_prev, h", [(1e-3, 1.0), (1e3, 1.0), (5e-324, 0.1), (1.0, 5e-324),
                                       (math.nan, 0.1), (math.inf, 0.1)])
def test_predictor_outside_its_spacing_bounds_falls_back(h_prev, h):
    p = OdeProblem(m=1, rhs=lambda t, y: -3.0 * y - y ** 3,
                   jacobian=lambda t, y: np.array([[-3.0 - 3.0 * y[0] ** 2]]))
    u = np.array([1.0])
    tol = ToleranceSpec(1e-6, 1e-6)
    z_prev = (np.array([0.5]), np.array([0.25]))
    got = lone_step(p, 1.0, u, h, tolerances=tol, prev=(h_prev, *z_prev))
    want = lone_step(p, 1.0, u, h, tolerances=tol)
    for name in ("z_gamma", "z_next", "u_next", "eps_mod"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert (got.newton_iterations, got.rate) == (want.newton_iterations, want.rate)
    # inside the bounds the same values do move the start
    inside = lone_step(p, 1.0, u, 0.1, tolerances=tol, prev=(0.1, *z_prev))
    assert inside.z_gamma.tobytes() != lone_step(p, 1.0, u, 0.1, tolerances=tol).z_gamma.tobytes()
