import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from mrtrbdf2 import dense_linalg
from mrtrbdf2.dense_linalg import (band_storage, block, eigenvalues, from_diagonals, lu_factor,
                                   lu_solve, matrix_norm, spectral_radius)
from mrtrbdf2.errors import DimensionMismatch, SingularMatrix


def test_lu_identity():
    f = lu_factor(np.eye(3))
    b = np.array([4.0, -1.0, 2.5])
    assert np.allclose(lu_solve(f, b), b, rtol=0, atol=1e-15)


def test_lu_permutation_matrix():
    f = lu_factor(np.array([[0.0, 1.0], [1.0, 0.0]]))
    x = lu_solve(f, np.array([1.0, 2.0]))
    assert np.allclose(x, [2.0, 1.0], rtol=0, atol=1e-15)


def test_lu_random_residual():
    rng = np.random.default_rng(42)
    a = rng.normal(size=(10, 10)) + 10.0 * np.eye(10)
    b = rng.normal(size=10)
    x = lu_solve(lu_factor(a), b)
    # residual oracle by direct multiplication
    res = np.max(np.abs(a @ x - b)) / np.max(np.abs(b))
    assert res <= 1e-12


def test_lu_solve_diagonal():
    f = lu_factor(np.diag([2.0, 4.0]))
    assert np.allclose(lu_solve(f, np.array([2.0, 4.0])), [1.0, 1.0], rtol=0, atol=1e-15)


def test_lu_hilbert_like():
    n = 5
    a = np.array([[1.0 / (i + j + 1) for j in range(n)] for i in range(n)])
    x_true = np.ones(n)
    b = a @ x_true  # construct rhs from known solution
    x = lu_solve(lu_factor(a), b)
    assert np.max(np.abs(x - x_true)) <= 1e-6


def test_lu_singular_detection():
    with pytest.raises(SingularMatrix):
        lu_factor(np.zeros((3, 3)))
    with pytest.raises(SingularMatrix):
        lu_factor(np.array([[1.0, 2.0], [2.0, 4.0]]))


def test_lu_dimension_checks():
    with pytest.raises(DimensionMismatch):
        lu_factor(np.ones((2, 3)))
    f = lu_factor(np.eye(3))
    with pytest.raises(DimensionMismatch):
        lu_solve(f, np.ones(4))


def test_matrix_norm_identity():
    for kind in ("one", "two", "inf"):
        assert matrix_norm(np.eye(4), kind) == pytest.approx(1.0, abs=1e-12)


def test_matrix_norm_column_row_sums():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert matrix_norm(a, "one") == pytest.approx(6.0)
    assert matrix_norm(a, "inf") == pytest.approx(7.0)


def test_matrix_norm_two_diagonal():
    assert matrix_norm(np.diag([3.0, 4.0]), "two") == pytest.approx(4.0, rel=1e-10)


def test_spectral_radius_diagonal():
    assert spectral_radius(np.diag([-1.0, -1000.0])) == pytest.approx(1000.0, rel=1e-8)


def test_spectral_radius_rotation():
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])  # eigenvalues +-i
    assert spectral_radius(a) == pytest.approx(1.0, rel=1e-8)


def test_spectral_radius_vs_characteristic_polynomial():
    a = np.array([[-1.0, 1.0], [-1000.0, -1000.0]])
    # 2x2 quadratic-formula oracle
    tr, det = np.trace(a), np.linalg.det(a)
    disc = tr * tr - 4.0 * det
    roots = [(tr + np.sqrt(complex(disc))) / 2.0, (tr - np.sqrt(complex(disc))) / 2.0]
    expected = max(abs(r) for r in roots)
    assert spectral_radius(a) == pytest.approx(expected, rel=1e-8)


def test_radius_below_norms():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = rng.normal(size=(6, 6))
        rho = spectral_radius(a)
        for kind in ("one", "two", "inf"):
            assert rho <= matrix_norm(a, kind) * (1.0 + 1e-8)


def test_lu_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(10):
        a = rng.normal(size=(8, 8)) + 8.0 * np.eye(8)
        x = rng.normal(size=8)
        got = lu_solve(lu_factor(a), a @ x)
        assert np.max(np.abs(got - x)) <= 1e-10 * max(1.0, np.max(np.abs(x)))


def test_two_norm_matches_gram_radius():
    rng = np.random.default_rng(13)
    for _ in range(10):
        a = rng.normal(size=(5, 5))
        n2 = matrix_norm(a, "two")
        assert n2 == pytest.approx(np.sqrt(spectral_radius(a.T @ a)), rel=1e-8)


BANDS = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1)]


def to_band(a, kl, ku):
    """Band storage by the definition: row ku + i - j of column j holds a[i, j]."""
    n = a.shape[0]
    ab = np.zeros((kl + ku + 1, n))
    for j in range(n):
        for i in range(max(0, j - ku), min(n, j + kl + 1)):
            ab[ku + i - j, j] = a[i, j]
    return ab


def random_banded(rng, n, kl, ku):
    a = rng.normal(size=(n, n))
    i, j = np.indices((n, n))
    a[(i - j > kl) | (j - i > ku)] = 0.0
    return a


@pytest.fixture
def routines(monkeypatch):
    """The names of the band LAPACK routines called, in call order."""
    called = []
    for name in ("dgbtrf", "dgbtrs", "dgttrf", "dgttrs"):
        def spy(*args, _name=name, _fn=getattr(dense_linalg, name), **kwargs):
            called.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(dense_linalg, name, spy)
    return called


def tridiagonal(kl, ku, n):
    """Whether a band LU of order n takes the tridiagonal routines: at most one
    sub- and one super-diagonal, and n >= 3, the least order that SciPy's
    dgttrf accepts."""
    return kl <= 1 and ku <= 1 and n >= 3


@pytest.mark.parametrize("kl,ku", BANDS)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 50])
def test_band_lu_matches_dense_solve(kl, ku, n, routines):
    rng = np.random.default_rng(100 * n + 10 * kl + ku)
    a = random_banded(rng, n, kl, ku) + 3.0 * np.eye(n)
    ab = band_storage(a, (kl, ku))
    assert np.array_equal(ab, to_band(a, kl, ku))
    f = lu_factor(ab, band=(kl, ku))
    assert f.band == (kl, ku) and f.n == n
    b = rng.normal(size=n)
    x = lu_solve(f, b)
    assert x.shape == (n,)
    assert np.max(np.abs(x - np.linalg.solve(a, b))) <= 1e-12 * max(1.0, np.max(np.abs(x)))
    bb = rng.normal(size=(n, 3))
    xx = lu_solve(f, bb)
    assert xx.shape == (n, 3)
    assert np.max(np.abs(xx - np.linalg.solve(a, bb))) <= 1e-12 * max(1.0, np.max(np.abs(xx)))
    kernel = "dgtt" if tridiagonal(kl, ku, n) else "dgbt"
    assert routines == [kernel + "rf", kernel + "rs", kernel + "rs"]


@pytest.mark.parametrize("kl,ku", BANDS)
def test_block_of_band_storage_is_band_storage_of_the_block(kl, ku):
    rng = np.random.default_rng(10 * kl + ku)
    n = 9
    a = random_banded(rng, n, kl, ku)
    for idx in ([0], [4], [1, 2, 3], [0, 2, 3, 7, 8], list(range(n))):
        sub = a[np.ix_(idx, idx)]
        assert np.array_equal(block(a, idx), sub)
        assert np.array_equal(block(band_storage(a, (kl, ku)), idx, (kl, ku)), to_band(sub, kl, ku))


# −0.0 is drawn often: the inverter chain's subdiagonal holds it wherever a
# gate is closed, and a sum of np.diag terms would turn it into +0.0.
entries = st.one_of(st.just(-0.0), st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_from_diagonals_is_the_inverse_of_band_storage_on_the_band(data):
    n = data.draw(st.integers(1, 10))
    kl, ku = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    listed = data.draw(st.lists(st.integers(-ku, kl), unique=True))
    diagonals = {k: data.draw(st.one_of(entries, st.lists(entries, min_size=n - abs(k),
                                                          max_size=n - abs(k)).map(np.array)))
                 for k in listed}
    a = from_diagonals(n, diagonals)
    ab = band_storage(a, (kl, ku))
    for k in range(-ku, kl + 1):
        lo, hi = max(0, -k), min(n, n - k)
        want = np.broadcast_to(np.asarray(diagonals.get(k, 0.0), dtype=float), (hi - lo,))
        assert ab[ku + k, lo:hi].tobytes() == want.tobytes()  # bitwise, so signed zeros too
    i, j = np.indices((n, n))
    off = ~np.isin(i - j, listed)
    assert a[off].tobytes() == np.zeros(int(off.sum())).tobytes()


@pytest.mark.parametrize("kl,ku", [(1, 1), (2, 1)])
def test_band_lu_pivots_rows(kl, ku):
    # a zero main diagonal forces row interchanges at every step
    rng = np.random.default_rng(5)
    n = 12
    a = random_banded(rng, n, kl, ku) + 4.0 * np.eye(n, k=-1)
    np.fill_diagonal(a, 0.0)
    f = lu_factor(band_storage(a, (kl, ku)), band=(kl, ku))
    assert np.any(f.pivots != np.arange(1, n + 1))  # LAPACK's 1-based row interchanges
    b = rng.normal(size=n)
    x = lu_solve(f, b)
    assert np.max(np.abs(a @ x - b)) <= 1e-12 * np.max(np.abs(b))
    assert np.allclose(x, scipy.linalg.solve(a, b), rtol=1e-12, atol=1e-12)


def test_band_lu_singular_detection():
    for kl, ku in BANDS:
        with pytest.raises(SingularMatrix):
            lu_factor(np.zeros((kl + ku + 1, 4)), band=(kl, ku))
    # tridiagonal with two equal rows
    a = np.array([[1.0, 2.0, 0.0], [1.0, 2.0, 0.0], [0.0, 1.0, 1.0]])
    with pytest.raises(SingularMatrix):
        lu_factor(band_storage(a, (1, 1)), band=(1, 1))
    with pytest.raises(SingularMatrix):
        lu_factor(a)


def test_zero_pivot_in_a_column_too_small_to_scale_is_singular():
    # PIVOT_RTOL times this column's largest entry underflows to zero, so the
    # relative test alone would pass its exact zero pivot
    a = np.array([[1.0, 1e-311], [1.0, 1e-311]])
    with pytest.raises(SingularMatrix, match="column 1"):
        lu_factor(a)
    with pytest.raises(SingularMatrix, match="column 1"):
        lu_factor(band_storage(a, (1, 1)), band=(1, 1))


def test_zero_pivot_in_a_column_too_small_to_scale_is_singular_on_the_tridiagonal_kernel(routines):
    # the 3×3 twin of the case above, which is factored by dgttrf
    a = np.array([[1.0, 1e-311, 0.0], [1.0, 1e-311, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(SingularMatrix, match="column 1"):
        lu_factor(a)
    with pytest.raises(SingularMatrix, match="column 1"):
        lu_factor(band_storage(a, (1, 1)), band=(1, 1))
    assert routines == ["dgttrf"]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dense_lu_rejects_non_finite_matrix(bad):
    for i, j in ((0, 0), (2, 1), (1, 2)):
        a = np.eye(3)
        a[i, j] = bad
        with pytest.raises(ValueError, match="non-finite"):
            lu_factor(a)


def test_band_lu_rejects_non_finite_and_bad_shapes():
    ab = band_storage(np.eye(3), (1, 1))
    ab[1, 1] = np.nan
    with pytest.raises(ValueError):
        lu_factor(ab, band=(1, 1))
    ab[1, 1] = np.inf
    with pytest.raises(ValueError):
        lu_factor(ab, band=(1, 1))
    with pytest.raises(DimensionMismatch):
        lu_factor(np.ones((2, 3)), band=(1, 1))  # (1, 1) needs 3 rows
    with pytest.raises(DimensionMismatch):
        lu_factor(np.ones((3, 0)), band=(1, 1))
    with pytest.raises(ValueError):
        lu_factor(np.ones((1, 3)), band=(-1, 1))
    f = lu_factor(band_storage(np.eye(3), (1, 1)), band=(1, 1))
    with pytest.raises(DimensionMismatch):
        lu_solve(f, np.ones(4))


@pytest.mark.parametrize("kl,ku", [(1, 0), (0, 1), (1, 1)])
def test_tridiagonal_inputs_are_checked_before_the_kernel(kl, ku, routines):
    # every check that a band LU makes runs in front of dgttrf, on n >= 3
    n = 5
    ab = band_storage(np.eye(n), (kl, ku))
    for bad in (np.nan, np.inf, -np.inf):
        broken = ab.copy()
        broken[ku, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            lu_factor(broken, band=(kl, ku))
    with pytest.raises(DimensionMismatch):
        lu_factor(np.ones((kl + ku + 2, n)), band=(kl, ku))
    with pytest.raises(DimensionMismatch):
        lu_factor(np.ones((kl + ku + 1, n, 1)), band=(kl, ku))
    assert routines == []
    with pytest.raises(SingularMatrix, match="column 2"):
        broken = ab.copy()
        broken[:, 2] = 0.0  # a zero column
        lu_factor(broken, band=(kl, ku))
    f = lu_factor(ab, band=(kl, ku))
    assert routines == ["dgttrf", "dgttrf"]
    with pytest.raises(DimensionMismatch):
        lu_solve(f, np.ones(n + 1))
    assert routines == ["dgttrf", "dgttrf"]


def random_stack(rng, shape, n):
    return rng.normal(size=shape + (n, n)) + n * np.eye(n)


@pytest.mark.parametrize("shape", [(5,), (2, 3)])
def test_stacked_lu_matches_per_matrix_calls(shape):
    rng = np.random.default_rng(21)
    n = 6
    a = random_stack(rng, shape, n)
    f = lu_factor(a)
    assert f.factors.shape == shape + (n, n) and f.pivots.shape == shape + (n,) and f.n == n
    b = rng.normal(size=shape + (n,))
    bb = rng.normal(size=shape + (n, 3))
    x, xx = lu_solve(f, b), lu_solve(f, bb)
    assert x.shape == b.shape and xx.shape == bb.shape
    for k in np.ndindex(shape):
        one = lu_factor(a[k])
        np.testing.assert_allclose(f.factors[k], one.factors, rtol=1e-14, atol=0.0)
        assert np.array_equal(f.pivots[k], one.pivots)
        np.testing.assert_allclose(x[k], lu_solve(one, b[k]), rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(xx[k], lu_solve(one, bb[k]), rtol=1e-14, atol=0.0)
        assert np.max(np.abs(a[k] @ xx[k] - bb[k])) <= 1e-12 * np.max(np.abs(bb[k]))


def test_stacked_lu_singular_and_non_finite_matrices():
    rng = np.random.default_rng(22)
    a = random_stack(rng, (4,), 3)
    a[2, :, 1] = 0.0  # zero column in matrix 2
    with pytest.raises(SingularMatrix, match="column 1 of stack index 2"):
        lu_factor(a)
    a = random_stack(rng, (4,), 3)
    a[3, 1] = a[3, 0]  # two equal rows in matrix 3
    with pytest.raises(SingularMatrix, match="stack index 3"):
        lu_factor(a)
    a = random_stack(rng, (4,), 3)
    a[1, 0, 0] = np.nan
    with pytest.raises(ValueError):
        lu_factor(a)
    a[1, 0, 0] = np.inf
    with pytest.raises(ValueError):
        lu_factor(a)


def test_stacked_lu_dimension_checks():
    rng = np.random.default_rng(23)
    with pytest.raises(DimensionMismatch):
        lu_factor(np.ones((3, 2, 4)))  # non-square matrices
    with pytest.raises(DimensionMismatch):
        lu_factor(np.ones(4))
    with pytest.raises(DimensionMismatch):
        lu_factor(np.ones((3, 0, 0)))
    f = lu_factor(random_stack(rng, (3,), 4))
    for b in (np.ones((2, 4)), np.ones((3, 5)), np.ones((3, 5, 2)), np.ones(4), np.ones((3, 4, 2, 2))):
        with pytest.raises(DimensionMismatch):
            lu_solve(f, b)


def test_stacked_norms_and_radius_match_per_matrix_values():
    rng = np.random.default_rng(24)
    a = rng.normal(size=(2, 3, 5, 5))
    for kind in ("one", "two", "inf"):
        got = matrix_norm(a, kind)
        assert got.shape == (2, 3)
        for k in np.ndindex(2, 3):
            one = matrix_norm(a[k], kind)
            assert isinstance(one, float)
            assert got[k] == pytest.approx(one, rel=1e-14)
    got = spectral_radius(a)
    eigs = eigenvalues(a)
    assert got.shape == (2, 3) and eigs.shape == (2, 3, 5)
    for k in np.ndindex(2, 3):
        one = spectral_radius(a[k])
        assert isinstance(one, float)
        assert got[k] == pytest.approx(one, rel=1e-14)
        assert np.allclose(np.sort_complex(eigs[k]), np.sort_complex(eigenvalues(a[k])), rtol=1e-13, atol=0.0)
    with pytest.raises(DimensionMismatch):
        spectral_radius(rng.normal(size=(2, 3, 4)))
    with pytest.raises(ValueError):
        matrix_norm(a, "fro")
