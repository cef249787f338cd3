import numpy as np
import pytest

from mrtrbdf2.controller import (
    ControllerConfig,
    ToleranceSpec,
    accept_global,
    next_step_size,
    normalized_errors,
    select_active,
)
from mrtrbdf2.errors import EmptyActiveSet


def test_tolerance_validation():
    with pytest.raises(ValueError):
        ToleranceSpec(-1e-6, 1e-8)
    with pytest.raises(ValueError):
        ToleranceSpec(1e-6, 0.0)


@pytest.mark.parametrize("tau_r,tau_a", [
    (np.nan, 1e-8), (np.inf, 1e-8), (1e-6, np.nan), (1e-6, np.inf), (1e-6, -np.inf),
])
def test_tolerance_must_be_finite(tau_r, tau_a):
    with pytest.raises(ValueError):
        ToleranceSpec(tau_r, tau_a)


def test_controller_config_validation():
    with pytest.raises(ValueError):
        ControllerConfig(delta=0.0)
    with pytest.raises(ValueError):
        ControllerConfig(nu=1.0)
    with pytest.raises(ValueError):
        ControllerConfig(h_min=1.0, h_max=0.5)


def test_normalized_errors_zero():
    tol = ToleranceSpec(1e-6, 1e-8)
    eta = normalized_errors(np.zeros(3), np.ones(3), tol)
    assert np.all(eta == 0.0)


def test_normalized_errors_definition():
    tol = ToleranceSpec(0.37, 1e-8)
    eta = normalized_errors(np.array([1e-8]), np.array([0.0]), tol)
    assert eta[0] == pytest.approx(1.0, rel=1e-14)


def test_normalized_errors_values():
    tol = ToleranceSpec(1e-6, 1e-8)
    eta = normalized_errors(np.array([2e-6, 1e-8]), np.array([1.0, 1.0]), tol)
    # direct evaluation oracle: scale = 1.01e-6 for both components
    assert eta[0] == pytest.approx(2e-6 / 1.01e-6, rel=1e-12)
    assert eta[1] == pytest.approx(1e-8 / 1.01e-6, rel=1e-12)
    assert eta[0] == pytest.approx(1.9802, abs=1e-4)
    assert eta[1] == pytest.approx(0.0099, abs=1e-4)


def test_accept_global_boundaries():
    assert accept_global(np.zeros(4))
    assert accept_global(np.array([0.3, 1.0]))
    assert not accept_global(np.array([0.5, 1.2]))
    assert accept_global(np.empty(0))


def test_select_active_threshold():
    out = select_active(np.array([1.0, 0.3, 0.05]), 0.1)
    assert out.tolist() == [True, True, False]


def test_select_active_small_delta_selects_all():
    eta = np.array([0.2, 0.9, 0.5, 0.1])
    out = select_active(eta, 1e-12)
    assert out.tolist() == [True, True, True, True]


def test_select_active_tie_handling():
    eta = np.array([0.8, 0.8, 0.1])
    out = select_active(eta, 0.5)
    # brute-force threshold check
    expected = [i for i in range(3) if eta[i] > 0.5 * eta.max()]
    assert np.flatnonzero(out).tolist() == expected == [0, 1]


def test_select_active_zero_errors_and_delta_one():
    assert not select_active(np.zeros(3), 0.5).any()
    assert not select_active(np.array([0.3, 0.2, 0.1]), 1.0).any()


def test_next_step_size_ratio_one():
    tol = ToleranceSpec(0.0, 1e-6)
    cfg = ControllerConfig()
    h = next_step_size(0.5, np.full(3, 1e-6), np.zeros(3), tol, cfg)
    assert h == pytest.approx(0.45, rel=1e-12)


def test_next_step_size_sixteen_times_too_large():
    tol = ToleranceSpec(0.0, 1e-6)
    cfg = ControllerConfig()
    h = next_step_size(1.0, np.full(2, 16e-6), np.zeros(2), tol, cfg)
    assert h == pytest.approx(0.9 * (1.0 / 16.0) ** (1.0 / 3.0), rel=1e-12)


def test_next_step_size_growth_cap():
    tol = ToleranceSpec(0.0, 1e-6)
    cfg = ControllerConfig(h_max=100.0)
    h = next_step_size(1.0, np.zeros(2), np.zeros(2), tol, cfg)
    assert h == pytest.approx(min(100.0, 5.0 * 1.0))


def test_next_step_size_empty():
    with pytest.raises(EmptyActiveSet):
        next_step_size(1.0, np.empty(0), np.empty(0), ToleranceSpec(0.0, 1e-6), ControllerConfig())


# ---------------------------------------------------------------------------
# Property tests over seeded random inputs
# ---------------------------------------------------------------------------

N_PROPERTY_TRIALS = 1000


def test_property_select_active_scale_invariance():
    rng = np.random.default_rng(101)
    for _ in range(N_PROPERTY_TRIALS):
        n = int(rng.integers(1, 12))
        eta = rng.uniform(0.0, 10.0, size=n)
        delta = float(rng.uniform(0.01, 1.0))
        c = float(rng.uniform(1e-6, 1e6))
        a = select_active(eta, delta)
        b = select_active(c * eta, delta)
        assert np.array_equal(a, b)


def test_property_select_active_delta_monotone():
    rng = np.random.default_rng(202)
    for _ in range(N_PROPERTY_TRIALS):
        n = int(rng.integers(1, 12))
        eta = rng.uniform(0.0, 5.0, size=n)
        d1, d2 = sorted(rng.uniform(0.01, 1.0, size=2))
        s1 = set(np.flatnonzero(select_active(eta, d1)).tolist())
        s2 = set(np.flatnonzero(select_active(eta, d2)).tolist())
        assert s2.issubset(s1)


def test_property_next_step_size_monotone_and_homogeneous():
    rng = np.random.default_rng(303)
    tol = ToleranceSpec(1e-6, 1e-8)
    cfg = ControllerConfig(h_min=1e-300, h_max=1e300, max_growth=1e12)
    for _ in range(N_PROPERTY_TRIALS):
        n = int(rng.integers(1, 8))
        eps = rng.uniform(1e-12, 1e-3, size=n)
        u = rng.normal(size=n)
        h = float(rng.uniform(1e-4, 10.0))
        base = next_step_size(h, eps, u, tol, cfg)
        # monotone nonincreasing in each component error
        j = int(rng.integers(0, n))
        eps2 = eps.copy()
        eps2[j] *= float(rng.uniform(1.0, 100.0))
        assert next_step_size(h, eps2, u, tol, cfg) <= base * (1.0 + 1e-12)
        # positively homogeneous of degree one in the current step
        c = float(rng.uniform(0.1, 10.0))
        assert next_step_size(c * h, eps, u, tol, cfg) == pytest.approx(c * base, rel=1e-12)


def test_property_accept_monotone_in_errors():
    rng = np.random.default_rng(404)
    tol = ToleranceSpec(1e-6, 1e-8)
    for _ in range(N_PROPERTY_TRIALS):
        n = int(rng.integers(1, 8))
        eps = rng.uniform(0.0, 2e-8, size=n)
        u = rng.normal(size=n)
        ok = accept_global(normalized_errors(eps, u, tol))
        eps2 = eps * rng.uniform(1.0, 50.0, size=n)
        ok2 = accept_global(normalized_errors(eps2, u, tol))
        assert ok or not ok2  # increasing any error never flips reject -> accept
