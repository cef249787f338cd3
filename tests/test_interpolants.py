import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrtrbdf2.errors import DegenerateNodes, OffsetOutOfRange
from mrtrbdf2.interpolants import HermiteData, hermite_cubic, linear_interp, quadratic_lagrange
from mrtrbdf2.trbdf2 import GAMMA


def hermite_from_function(f, df, t0, h):
    """Exact step data sampled from a smooth function (z = h * derivative)."""
    tg = t0 + GAMMA * h
    t1 = t0 + h
    return HermiteData(
        u_n=np.atleast_1d(f(t0)), u_gamma=np.atleast_1d(f(tg)), u_next=np.atleast_1d(f(t1)),
        z_n=h * np.atleast_1d(df(t0)), z_gamma=h * np.atleast_1d(df(tg)),
        z_next=h * np.atleast_1d(df(t1)), h=h,
    )


def test_linear_endpoints_and_midpoint():
    u0, u1 = np.array([0.0]), np.array([2.0])
    assert linear_interp(u0, u1, 1.0, 0.0)[0] == 0.0
    assert linear_interp(u0, u1, 1.0, 1.0)[0] == 2.0
    assert linear_interp(u0, u1, 1.0, 0.5)[0] == pytest.approx(1.0, abs=1e-15)


def test_linear_offset_range():
    with pytest.raises(OffsetOutOfRange):
        linear_interp(np.zeros(1), np.ones(1), 1.0, 1.5)
    with pytest.raises(OffsetOutOfRange):
        linear_interp(np.zeros(1), np.ones(1), 1.0, -0.5)


def test_quadratic_node_interpolation():
    u0, um, u1 = np.array([1.0]), np.array([-2.0]), np.array([5.0])
    h_lam, h = 0.3, 1.0
    assert abs(quadratic_lagrange(u0, um, u1, h_lam, h, 0.0)[0] - 1.0) <= 1e-13
    assert abs(quadratic_lagrange(u0, um, u1, h_lam, h, h_lam)[0] + 2.0) <= 1e-13
    assert abs(quadratic_lagrange(u0, um, u1, h_lam, h, 1.0)[0] - 5.0) <= 1e-13


def test_quadratic_polynomial_reproduction():
    q = lambda t: t * t
    got = quadratic_lagrange(
        np.array([q(0.0)]), np.array([q(0.3)]), np.array([q(1.0)]), 0.3, 1.0, 0.77
    )
    assert abs(got[0] - q(0.77)) <= 1e-14


def test_quadratic_constant_data():
    c = np.array([3.3])
    for zeta in (0.0, 0.2, 0.9, 1.0):
        assert quadratic_lagrange(c, c, c, 0.4, 1.0, zeta)[0] == pytest.approx(3.3, abs=1e-14)


def test_quadratic_degenerate_nodes():
    with pytest.raises(DegenerateNodes):
        quadratic_lagrange(np.zeros(1), np.zeros(1), np.zeros(1), 0.0, 1.0, 0.5)
    with pytest.raises(DegenerateNodes):
        quadratic_lagrange(np.zeros(1), np.zeros(1), np.zeros(1), 1.0, 1.0, 0.5)


def test_hermite_knot_values():
    h = 0.8
    d = hermite_from_function(np.sin, np.cos, 0.2, h)
    assert np.max(np.abs(hermite_cubic(d, 0.0) - d.u_n)) <= 1e-12
    assert np.max(np.abs(hermite_cubic(d, GAMMA * h) - d.u_gamma)) <= 1e-12
    assert np.max(np.abs(hermite_cubic(d, h) - d.u_next)) <= 1e-12


def test_hermite_slopes_and_c1_join():
    h = 0.8
    d = hermite_from_function(np.sin, np.cos, 0.2, h)
    eps = 1e-6 * h

    def slope(z0, z1):
        return (hermite_cubic(d, z1) - hermite_cubic(d, z0)) / (z1 - z0)

    assert abs(slope(0.0, eps)[0] - d.z_n[0] / h) <= 1e-4
    assert abs(slope(h - eps, h)[0] - d.z_next[0] / h) <= 1e-4
    left = slope(GAMMA * h - eps, GAMMA * h)
    right = slope(GAMMA * h, GAMMA * h + eps)
    assert abs(left[0] - d.z_gamma[0] / h) <= 1e-4
    assert abs(right[0] - d.z_gamma[0] / h) <= 1e-4


def test_hermite_offset_range():
    d = hermite_from_function(np.sin, np.cos, 0.0, 1.0)
    with pytest.raises(OffsetOutOfRange):
        hermite_cubic(d, 1.2)
    with pytest.raises(OffsetOutOfRange):
        hermite_cubic(d, -0.2)


def test_hermite_cubic_reproduction_per_branch():
    coeffs = (0.3, -1.2, 0.8, 2.0)
    f = lambda t: ((coeffs[3] * t + coeffs[2]) * t + coeffs[1]) * t + coeffs[0]
    df = lambda t: (3.0 * coeffs[3] * t + 2.0 * coeffs[2]) * t + coeffs[1]
    h = 1.3
    d = hermite_from_function(f, df, -0.4, h)
    for zeta in np.linspace(0.0, h, 23):
        assert abs(hermite_cubic(d, zeta)[0] - f(-0.4 + zeta)) <= 1e-12


def test_affine_equivariance():
    rng = np.random.default_rng(3)
    h = 0.9
    d = hermite_from_function(np.cos, lambda t: -np.sin(t), 0.1, h)
    c, b = 2.7, -1.1
    d2 = HermiteData(
        u_n=c * d.u_n + b, u_gamma=c * d.u_gamma + b, u_next=c * d.u_next + b,
        z_n=c * d.z_n, z_gamma=c * d.z_gamma, z_next=c * d.z_next, h=h,
    )
    for zeta in rng.uniform(0.0, h, size=20):
        lhs = hermite_cubic(d2, zeta)
        rhs = c * hermite_cubic(d, zeta) + b
        assert np.max(np.abs(lhs - rhs)) <= 1e-12
        l2 = linear_interp(c * d.u_n + b, c * d.u_next + b, h, zeta)
        assert np.max(np.abs(l2 - (c * linear_interp(d.u_n, d.u_next, h, zeta) + b))) <= 1e-12


def max_interp_error(kind, h):
    f, df = np.sin, np.cos
    t0 = 0.3
    d = hermite_from_function(f, df, t0, h)
    zs = np.linspace(0.0, h, 101)
    errs = []
    for z in zs:
        if kind == "linear":
            got = linear_interp(d.u_n, d.u_next, h, z)
        elif kind == "quadratic":
            got = quadratic_lagrange(d.u_n, d.u_gamma, d.u_next, GAMMA * h, h, z)
        else:
            got = hermite_cubic(d, z)
        errs.append(abs(got[0] - f(t0 + z)))
    return max(errs)


@pytest.mark.parametrize("kind,order", [("linear", 2), ("quadratic", 3), ("hermite", 4)])
def test_interpolation_convergence_order(kind, order):
    e1 = max_interp_error(kind, 0.4)
    e2 = max_interp_error(kind, 0.2)
    ratio = e1 / e2
    assert 0.75 * 2**order <= ratio <= 1.25 * 2**order


def hermite_per_call(d, zeta):
    """The cubic Hermite with each branch's coefficients built from the step
    data at every evaluation, as the interpolant is defined."""
    g, h = GAMMA, d.h
    if zeta <= g * h:
        a0 = d.u_n
        a1 = g * d.z_n
        a2 = d.u_gamma - d.u_n - g * d.z_n
        a3 = g * (d.z_gamma - d.z_n)
        beta = zeta / (g * h)
    else:
        a1 = (1.0 - g) * d.z_gamma
        a0 = d.u_gamma
        a2 = d.u_next - d.u_gamma - a1
        a3 = (1.0 - g) * (d.z_next - d.z_gamma)
        beta = (zeta - g * h) / ((1.0 - g) * h)
    return ((a3 - 2.0 * a2) * beta + (3.0 * a2 - a3)) * beta * beta + a1 * beta + a0


@st.composite
def hermite_windows(draw):
    """Random step data and up to six offsets on both branches, drawn from
    [0, h] and from the knots 0, γh and h."""
    n = draw(st.integers(1, 5))
    value = st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)

    def vector():
        return np.array(draw(st.lists(value, min_size=n, max_size=n)))

    h = draw(st.floats(1e-6, 1e3))
    d = HermiteData(u_n=vector(), u_gamma=vector(), u_next=vector(),
                    z_n=vector(), z_gamma=vector(), z_next=vector(), h=h)
    offset = st.one_of(st.sampled_from([0.0, GAMMA * h, h]), st.floats(0.0, h))
    return d, draw(st.lists(offset, min_size=1, max_size=6))


@settings(max_examples=300, deadline=None)
@given(window=hermite_windows())
def test_hermite_coefficients_built_once_give_the_per_call_bits(window):
    # the coefficients are kept on the data after the first evaluation; every
    # later one must give the bits of building them afresh
    d, offsets = window
    for zeta in offsets:
        assert hermite_cubic(d, zeta).tobytes() == hermite_per_call(d, zeta).tobytes(), zeta
