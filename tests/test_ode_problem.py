import numpy as np
import pytest

from mrtrbdf2.errors import DimensionMismatch, NonFiniteOutput
from mrtrbdf2.ode_problem import (
    ActivePartition,
    EvalCounter,
    OdeProblem,
    eval_subsystem_rhs,
    subsystem_jacobian,
)


def linear_problem(a):
    a = np.asarray(a, dtype=float)
    return OdeProblem(m=a.shape[0], rhs=lambda t, y: a @ y, jacobian=lambda t, y: a)


def linear_problem_no_jac(a):
    a = np.asarray(a, dtype=float)
    return OdeProblem(m=a.shape[0], rhs=lambda t, y: a @ y)


# The full system is the subsystem with every component active.
def eval_full_rhs(p, t, y, counter=None):
    return eval_subsystem_rhs(p, t, y, y, ActivePartition.full(p.m), counter)


def full_jacobian(p, t, y):
    return subsystem_jacobian(p, t, y, None, ActivePartition.full(p.m))


def test_eval_rhs_linear():
    p = linear_problem(np.diag([-1.0, -2.0]))
    f = eval_full_rhs(p, 0.3, np.array([1.0, 1.0]))
    assert np.allclose(f, [-1.0, -2.0], rtol=0, atol=0)


def test_eval_rhs_counts_scalar_evaluations():
    p = linear_problem(np.eye(3))
    c = EvalCounter()
    eval_full_rhs(p, 0.0, np.zeros(3), c)
    eval_full_rhs(p, 0.0, np.zeros(3), c)
    assert c.scalar_evals == 6


def test_eval_rhs_nonfinite():
    p = OdeProblem(m=1, rhs=lambda t, y: np.array([np.inf]))
    with pytest.raises(NonFiniteOutput):
        eval_full_rhs(p, 0.0, np.zeros(1))


def test_eval_rhs_dimension():
    p = linear_problem(np.eye(2))
    with pytest.raises(DimensionMismatch):
        eval_full_rhs(p, 0.0, np.zeros(3))


def test_jacobian_analytic_linear():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(full_jacobian(linear_problem(a), 0.0, np.ones(2)), a)


def test_jacobian_analytic_checked():
    wrong_shape = OdeProblem(m=2, rhs=lambda t, y: y, jacobian=lambda t, y: np.eye(3))
    with pytest.raises(DimensionMismatch):
        full_jacobian(wrong_shape, 0.0, np.ones(2))
    non_finite = OdeProblem(m=2, rhs=lambda t, y: y, jacobian=lambda t, y: np.full((2, 2), np.nan))
    with pytest.raises(NonFiniteOutput):
        subsystem_jacobian(non_finite, 0.0, np.ones(1), np.ones(2), ActivePartition(2, [1]))


def test_jacobian_fd_linear():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    jac = full_jacobian(linear_problem_no_jac(a), 0.0, np.array([0.5, -0.2]))
    assert np.max(np.abs(jac - a)) <= 1e-6


def buffer_problem(a):
    """y' = A·y by an rhs that writes every value into one reused buffer."""
    a = np.asarray(a, dtype=float)
    buf = np.empty(a.shape[0])
    return OdeProblem(m=a.shape[0], rhs=lambda t, y: np.matmul(a, y, out=buf))


def test_full_rhs_value_is_not_the_rhs_buffer():
    a = np.array([[-1.0, 0.5], [0.0, -100.0]])
    p = buffer_problem(a)
    f = eval_full_rhs(p, 0.0, np.array([1.0, 1.0]))
    eval_full_rhs(p, 0.0, np.array([2.0, -3.0]))
    assert np.array_equal(f, a @ np.array([1.0, 1.0]))
    jac = full_jacobian(p, 0.0, np.array([1.0, 1.0]))
    assert np.max(np.abs(jac - a)) <= 1e-6 * np.max(np.abs(a))


def test_jacobian_fd_scalar_square():
    p = OdeProblem(m=1, rhs=lambda t, y: y * y)
    jac = full_jacobian(p, 0.0, np.array([3.0]))
    assert jac[0, 0] == pytest.approx(6.0, abs=1e-6)


def test_jacobian_fd_linear_bounded_error():
    rng = np.random.default_rng(5)
    a = rng.uniform(-1e3, 1e3, size=(4, 4))
    a *= 1e3 / max(np.max(np.sum(np.abs(a), axis=1)), 1.0)
    jac = full_jacobian(linear_problem_no_jac(a), 0.0, rng.normal(size=4))
    assert np.max(np.abs(jac - a)) <= 5e-6 * 1e3


def test_partition_basics():
    part = ActivePartition(5, [3, 1])
    assert part.indices.tolist() == [1, 3]
    assert part.complement().indices.tolist() == [0, 2, 4]
    assert ActivePartition.full(4).is_full
    assert ActivePartition(4, []).size == 0
    with pytest.raises(DimensionMismatch):
        ActivePartition(3, [5])


def test_subsystem_call_writes_only_the_active_entries_of_its_context():
    seen = []

    def rhs(t, y):
        seen.append(y.copy())
        return -y

    p = OdeProblem(m=4, rhs=rhs)
    part = ActivePartition(4, [0, 2])
    x = np.array([7.0, 9.0])
    context = np.array([-0.0, 1.0, np.nan, 3.0])
    before = context.copy()
    got = eval_subsystem_rhs(p, 0.0, x, context, part)
    assert np.array_equal(seen[-1], [7.0, 1.0, 9.0, 3.0])
    assert np.array_equal(got, -x)
    # x lands at the active entries; every other entry keeps its bytes
    assert np.array_equal(context[part.indices], x)
    latent = part.complement().indices
    assert context[latent].tobytes() == before[latent].tobytes()
    with pytest.raises(DimensionMismatch):
        eval_subsystem_rhs(p, 0.0, np.ones(3), context, part)
    # the full system is evaluated on the state itself: the context is not touched
    y = np.array([1.0, 2.0, 3.0, 4.0])
    eval_subsystem_rhs(p, 0.0, y, context, ActivePartition.full(4))
    assert seen[-1].tobytes() == y.tobytes()
    assert context.tobytes() == np.array([7.0, 1.0, 9.0, 3.0]).tobytes()


def test_subsystem_full_matches_eval_rhs():
    a = np.array([[0.0, 1.0], [-1.0, -0.5]])
    p = linear_problem(a)
    y = np.array([0.3, -0.7])
    full = ActivePartition.full(2)
    # the frozen context is overwritten everywhere on the full partition
    assert np.array_equal(eval_subsystem_rhs(p, 0.0, y, np.zeros(2), full), p.rhs(0.0, y))


def test_subsystem_empty():
    p = linear_problem(np.eye(3))
    out = eval_subsystem_rhs(p, 0.0, np.empty(0), np.ones(3), ActivePartition(3, []))
    assert out.size == 0


def test_subsystem_matches_hand_reduction():
    a = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]])
    p = linear_problem(a)
    part = ActivePartition(3, [0, 2])
    frozen = np.array([0.0, 10.0, 0.0])
    x = np.array([2.0, -1.0])
    got = eval_subsystem_rhs(p, 0.0, x, frozen, part)
    # hand-reduced 2x2 subsystem: rows {0,2}, latent y1 frozen at 10
    reduced = a[np.ix_([0, 2], [0, 2])] @ x + a[np.ix_([0, 2], [1])].ravel() * 10.0
    assert np.allclose(got, reduced, rtol=0, atol=1e-14)


def test_subsystem_counts_active_evals():
    p = linear_problem(np.eye(4))
    c = EvalCounter()
    part = ActivePartition(4, [1, 2])
    eval_subsystem_rhs(p, 0.0, np.zeros(2), np.zeros(4), part, c)
    assert c.scalar_evals == 2


def test_subsystem_jacobian_full_and_diag():
    a = np.diag([2.0, 3.0, 4.0])
    p = linear_problem(a)
    full = subsystem_jacobian(p, 0.0, np.ones(3), None, ActivePartition.full(3))
    assert np.array_equal(full, a)
    single = subsystem_jacobian(p, 0.0, np.ones(1), np.ones(3), ActivePartition(3, [1]))
    assert single.shape == (1, 1) and single[0, 0] == 3.0


def test_subsystem_jacobian_corner():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(4, 4))
    p = linear_problem(a)
    part = ActivePartition(4, [0, 3])
    y = rng.normal(size=4)
    got = subsystem_jacobian(p, 0.0, y[part.indices], y, part)
    assert np.allclose(got, a[np.ix_([0, 3], [0, 3])], rtol=0, atol=1e-13)


def test_subsystem_jacobian_fd_matches_block():
    rng = np.random.default_rng(21)
    a = rng.normal(size=(5, 5))
    p = linear_problem_no_jac(a)
    part = ActivePartition(5, [1, 2, 4])
    y = rng.normal(size=5)
    got = subsystem_jacobian(p, 0.0, y[part.indices], y, part)
    assert np.max(np.abs(got - a[np.ix_([1, 2, 4], [1, 2, 4])])) <= 1e-6


def from_band(ab, kl, ku):
    """Dense matrix from band storage: a[i, j] = ab[ku + i - j, j] inside the band."""
    n = ab.shape[1]
    a = np.zeros((n, n))
    for j in range(n):
        for i in range(max(0, j - ku), min(n, j + kl + 1)):
            a[i, j] = ab[ku + i - j, j]
    return a


def banded_problem(rng, m, kl, ku, analytic=True):
    a = rng.normal(size=(m, m))
    i, j = np.indices((m, m))
    a[(i - j > kl) | (j - i > ku)] = 0.0
    jac = (lambda t, y: a) if analytic else None
    return a, OdeProblem(m=m, rhs=lambda t, y: a @ y, jacobian=jac, bandwidth=(kl, ku))


@pytest.mark.parametrize("kl,ku", [(1, 0), (0, 1), (1, 1), (2, 1)])
def test_subsystem_jacobian_band_block_matches_dense_block(kl, ku):
    rng = np.random.default_rng(31 + 10 * kl + ku)
    m = 12
    a, p = banded_problem(rng, m, kl, ku)
    subsets = [[], list(range(m))]
    subsets += [sorted(rng.choice(m, size=k, replace=False)) for k in (1, 2, 5, 9) for _ in range(3)]
    for idx in subsets:
        y = rng.normal(size=m)
        ab = subsystem_jacobian(p, 0.0, y[idx], y, ActivePartition(m, idx))
        n = len(idx)
        assert ab.shape == (kl + ku + 1, n)
        assert np.array_equal(from_band(ab, kl, ku), a[np.ix_(idx, idx)])
        # storage entries outside the block stay zero
        assert np.count_nonzero(ab) == np.count_nonzero(a[np.ix_(idx, idx)])


def test_subsystem_jacobian_band_block_from_finite_differences():
    rng = np.random.default_rng(23)
    a, p = banded_problem(rng, 7, 1, 1, analytic=False)
    for idx in ([], [0, 1, 2, 3, 4, 5, 6], [1, 2, 5]):
        y = rng.normal(size=7)
        ab = subsystem_jacobian(p, 0.0, y[idx], y, ActivePartition(7, idx))
        assert ab.shape == (3, len(idx))
        assert np.max(np.abs(from_band(ab, 1, 1) - a[np.ix_(idx, idx)]), initial=0.0) <= 1e-6


@pytest.mark.parametrize("bad", [(-1, 0), (0, -1), (3, 0), (0, 3), (1,), (1, 1, 1), (1.5, 0), 1, "11"])
def test_bad_bandwidth_rejected(bad):
    with pytest.raises(ValueError):
        OdeProblem(m=3, rhs=lambda t, y: y, bandwidth=bad)


def test_bandwidth_accepts_integer_pairs():
    assert OdeProblem(m=3, rhs=lambda t, y: y, bandwidth=[np.int64(2), 0]).bandwidth == (2, 0)
    assert OdeProblem(m=1, rhs=lambda t, y: y, bandwidth=(0, 0)).bandwidth == (0, 0)
    assert OdeProblem(m=3, rhs=lambda t, y: y).bandwidth is None
