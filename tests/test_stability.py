import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from mrtrbdf2 import stability
from mrtrbdf2.dense_linalg import spectral_radius
from mrtrbdf2.errors import SingularMatrix, UnknownSystem
from mrtrbdf2.ode_problem import ActivePartition
from mrtrbdf2.stability import (
    CHUNK_BYTES,
    AmplificationReport,
    MODEL_SYSTEMS,
    StabilitySetup,
    TRBDF2_METHOD,
    default_rescaled_grid,
    interpolation_matrix,
    model_system,
    multirate_amplification,
    norm_sweep,
    single_rate_amplification,
)
from mrtrbdf2.trbdf2 import stability_function


def multirate_amplification_expanded(setup: StabilitySetup) -> np.ndarray:
    """Closed-form expansion of the multirate amplification matrix: an
    independent cross-check of the block assembly."""
    a = np.asarray(setup.matrix, dtype=float)
    m = a.shape[0]
    act = setup.active.indices
    lat = setup.active.complement().indices
    z = setup.h * a
    method = setup.method

    r_full = method.amplification(z)
    if act.size == 0:
        return r_full.copy()

    q = interpolation_matrix(a, setup.h, setup.kind, method)
    d_half = method.d_poly(0.5 * z)
    n_half = method.n_poly(0.5 * z)

    p = np.zeros((act.size, m))
    p[np.arange(act.size), act] = 1.0
    e = p.T
    p_perp = np.zeros((lat.size, m))
    p_perp[np.arange(lat.size), lat] = 1.0
    e_perp = p_perp.T

    d_aa = p @ d_half @ e
    d_al = p @ d_half @ e_perp
    n_aa = p @ n_half @ e
    n_al = p @ n_half @ e_perp
    d_aa_inv = np.linalg.inv(d_aa)

    inner = (
        d_aa_inv @ n_aa @ d_aa_inv @ (p @ n_half - d_al @ (p_perp @ q))
        + d_aa_inv @ n_al @ (p_perp @ q)
        - d_aa_inv @ d_al @ (p_perp @ r_full)
    )
    return e @ inner + e_perp @ p_perp @ r_full


def test_method_consistency_at_zero():
    r0 = TRBDF2_METHOD.amplification(np.zeros((3, 3)))
    assert np.allclose(r0, np.eye(3), rtol=0, atol=1e-14)


def test_scalar_matches_stability_function():
    r = single_rate_amplification(np.array([[-1.0]]), 1.0)
    assert abs(r[0, 0] - stability_function(-1.0).real) <= 1e-13


def test_diagonal_functional_calculus():
    lams = np.array([-0.5, -3.0, -40.0])
    r = single_rate_amplification(np.diag(lams), 0.7)
    assert np.allclose(np.diag(r), [stability_function(0.7 * l).real for l in lams], rtol=1e-12)
    off = r - np.diag(np.diag(r))
    assert np.max(np.abs(off)) <= 1e-14


def test_interpolation_matrix_at_zero():
    for kind in ("linear", "hermite"):
        q = interpolation_matrix(np.zeros((3, 3)), 0.5, kind)
        assert np.allclose(q, np.eye(3), rtol=0, atol=1e-14)


def test_interpolation_matrix_scalar_linear():
    z = -0.8
    q = interpolation_matrix(np.array([[z]]), 1.0, "linear")
    assert q[0, 0] == pytest.approx((1.0 + stability_function(z).real) / 2.0, rel=1e-13)


def test_hermite_interpolation_matrix_midpoint_accuracy():
    # scalar Taylor oracle: Q approximates e^{z/2} with an O(z^3) defect
    for z in (0.1, 0.05):
        q = interpolation_matrix(np.array([[1.0]]), z, "hermite")[0, 0]
        assert abs(q - np.exp(z / 2.0)) <= 0.05 * z**3


@pytest.mark.parametrize("kind", ["linear", "hermite"])
def test_degenerate_partitions_random_systems(kind):
    rng = np.random.default_rng(77)
    for _ in range(5):
        a = rng.normal(size=(5, 5))
        h = float(rng.uniform(0.05, 0.5))
        r = single_rate_amplification(a, h)
        r_half = single_rate_amplification(a, h / 2.0)
        empty = multirate_amplification(StabilitySetup(a, h, ActivePartition(5, []), kind))
        assert np.max(np.abs(empty - r)) <= 1e-12
        full = multirate_amplification(StabilitySetup(a, h, ActivePartition.full(5), kind))
        assert np.max(np.abs(full - r_half @ r_half)) <= 1e-10


@pytest.mark.parametrize("kind", ["linear", "hermite"])
def test_latent_rows_copy_single_rate(kind):
    rng = np.random.default_rng(78)
    a = rng.normal(size=(6, 6))
    h = 0.21
    part = ActivePartition(6, [1, 4])
    r = single_rate_amplification(a, h)
    r_mr = multirate_amplification(StabilitySetup(a, h, part, kind))
    lat = part.complement().indices
    assert np.array_equal(r_mr[lat, :], r[lat, :])


@pytest.mark.parametrize("kind", ["linear", "hermite"])
def test_block_assembly_matches_expanded_form(kind):
    rng = np.random.default_rng(79)
    for _ in range(10):
        a = rng.normal(size=(4, 4))
        h = float(rng.uniform(0.05, 0.4))
        k = int(rng.integers(1, 4))
        idx = rng.choice(4, size=k, replace=False)
        setup = StabilitySetup(a, h, ActivePartition(4, np.sort(idx)), kind)
        blk = multirate_amplification(setup)
        lit = multirate_amplification_expanded(setup)
        assert np.max(np.abs(blk - lit)) <= 1e-11


def test_scalar_reductions():
    a = np.array([[-2.0]])
    h = 0.4
    z = -0.8
    for kind in ("linear", "hermite"):
        latent = multirate_amplification(StabilitySetup(a, h, ActivePartition(1, []), kind))
        assert latent[0, 0] == pytest.approx(stability_function(z).real, rel=1e-13)
        active = multirate_amplification(StabilitySetup(a, h, ActivePartition.full(1), kind))
        assert active[0, 0] == pytest.approx(stability_function(z / 2.0).real ** 2, rel=1e-12)


def test_sys1_definition_and_spectrum():
    a, part = model_system("sys1")
    assert np.array_equal(a, [[-1.0, 1.0], [-1000.0, -1000.0]])
    assert part.indices.tolist() == [1]
    # quadratic-formula oracle on trace/determinant
    tr, det = np.trace(a), np.linalg.det(a)
    disc = complex(tr * tr - 4.0 * det)
    for root in ((tr + np.sqrt(disc)) / 2.0, (tr - np.sqrt(disc)) / 2.0):
        assert root.real < 0.0


def test_sys2_nofriction_purely_imaginary():
    a, part = model_system("sys2_nofriction")
    assert part.indices.tolist() == [2, 3]
    # characteristic polynomial factors into two undamped oscillators
    eigs = np.linalg.eigvals(a)
    expected = {1.0, 1000.0}
    assert np.max(np.abs(eigs.real)) <= 1e-9
    got = sorted(set(np.round(np.abs(eigs.imag), 6)))
    assert got == sorted(expected)


def test_heat40_interior_row_sums_vanish():
    a, part = model_system("heat40")
    assert part.indices.tolist() == list(range(20, 40))
    sums = np.sum(a, axis=1)
    assert np.max(np.abs(sums[1:-1])) <= 1e-9 * np.max(np.abs(a))


def test_unknown_system():
    with pytest.raises(UnknownSystem):
        model_system("sys99")


def test_norm_sweep_zero_matrix():
    rep = norm_sweep(np.zeros((3, 3)), ActivePartition(3, [2]), kinds=("linear",),
                     rescaled_grid=np.array([0.1, 1.0, 10.0]))
    for row in rep.rows:
        for key in ("norm1", "norm2", "norminf", "spectral_radius"):
            assert row[key] == pytest.approx(1.0, abs=1e-13)


def test_norm_sweep_schema_and_grid():
    a, part = model_system("sys1")
    rep = norm_sweep(a, part, kinds=("linear", "hermite"))
    assert len(rep.rows) == 2 * 60
    grid = default_rescaled_grid()
    assert grid[0] == pytest.approx(1e-3) and grid[-1] == pytest.approx(100.0)
    for row in rep.rows:
        assert set(rep.COLUMNS) <= set(row.keys()) | {"kind", "rescaled_h"} | set(row.keys())
        assert np.isfinite(row["norm2"])


def _numpy_norms(mat):
    return {
        "norm1": np.linalg.norm(mat, 1),
        "norm2": np.linalg.norm(mat, 2),
        "norminf": np.linalg.norm(mat, np.inf),
        "spectral_radius": np.max(np.abs(np.linalg.eigvals(mat))),
    }


def reference_sweep(a, partition, kinds, grid):
    """norm_sweep's rows one grid point at a time, from the expanded form,
    np.linalg.eigvals and np.linalg.norm."""
    lam = float(np.max(np.abs(np.linalg.eigvals(a)))) or 1.0
    rows = []
    for s in grid:
        h = s / lam
        single = _numpy_norms(multirate_amplification_expanded(
            StabilitySetup(a, h, ActivePartition(a.shape[0], []))))
        for kind in kinds:
            multi = _numpy_norms(multirate_amplification_expanded(StabilitySetup(a, h, partition, kind)))
            rows.append({"rescaled_h": s, "kind": kind, **multi,
                         **{f"single_rate_{col}": v for col, v in single.items()}})
    return rows


def _random_non_normal():
    # stiff spectrum on the diagonal, strong upper coupling: far from normal
    rng = np.random.default_rng(80)
    a = (np.tril(rng.normal(scale=0.5, size=(7, 7)), -1) + np.triu(rng.normal(scale=30.0, size=(7, 7)), 1)
         - np.diag(np.geomspace(1.0, 1e3, 7)))
    return a, ActivePartition(7, [0, 3, 4, 6])


SWEEP_CASES = {name: lambda name=name: model_system(name) for name in MODEL_SYSTEMS}
SWEEP_CASES["random7"] = _random_non_normal


@pytest.mark.parametrize("n_points", [23, 1])
@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_stacked_sweep_matches_per_point_reference(case, n_points):
    a, part = SWEEP_CASES[case]()
    # 23 points at order 40 end in a partial chunk
    assert 23 % (CHUNK_BYTES // (8 * 40 * 40)) != 0
    grid = np.geomspace(1e-3, 100.0, n_points) if n_points > 1 else np.array([0.7])
    kinds = ("linear", "hermite")
    rows = norm_sweep(a, part, kinds=kinds, rescaled_grid=grid).rows
    expected = reference_sweep(a, part, kinds, grid)
    assert [(r["rescaled_h"], r["kind"]) for r in rows] == [(e["rescaled_h"], e["kind"]) for e in expected]
    for row, want in zip(rows, expected):
        for col, value in want.items():
            if col != "kind":
                assert row[col] == pytest.approx(value, rel=1e-12, abs=0.0), (col, row["rescaled_h"])


@pytest.mark.parametrize("case", ["sys1", "adv40", "random7"])
def test_single_rate_radius_is_spectrally_mapped(case):
    a, part = SWEEP_CASES[case]()
    grid = np.geomspace(1e-2, 50.0, 9)
    lam = spectral_radius(a)
    rep = norm_sweep(a, part, kinds=("linear",), rescaled_grid=grid)
    assert rep.max_abs_eigenvalue == lam
    for row in rep.rows:
        direct = spectral_radius(single_rate_amplification(a, row["rescaled_h"] / lam))
        assert row["single_rate_spectral_radius"] == pytest.approx(direct, rel=1e-12)


def test_unknown_interpolation_kind_raises():
    a, part = model_system("sys1")
    with pytest.raises(ValueError):
        norm_sweep(a, part, kinds=("linear", "cubic"))
    with pytest.raises(ValueError):
        interpolation_matrix(a, 0.1, "cubic")
    with pytest.raises(ValueError):
        StabilitySetup(a, 0.1, part, "cubic")


class PoolRecord(list):
    """The thread pools a sweep opened; ``cancelled`` is set once any of
    their futures is cancelled."""

    def __init__(self):
        super().__init__()
        self.cancelled = threading.Event()


@pytest.fixture
def pools(monkeypatch):
    """Record the thread pools ``norm_sweep`` opens, with their worker counts
    and futures."""
    record = PoolRecord()

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            super().__init__(max_workers)
            self.workers = max_workers
            self.futures = []
            record.append(self)

        def submit(self, fn, /, *args, **kwargs):
            future = super().submit(fn, *args, **kwargs)
            future.add_done_callback(lambda f: f.cancelled() and record.cancelled.set())
            self.futures.append(future)
            return future

    monkeypatch.setattr(stability, "ThreadPoolExecutor", RecordingPool)
    return record


def allow_cpus(monkeypatch, n: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


@pytest.mark.parametrize("case", ["heat40", "random7"])
def test_sweep_bytes_do_not_depend_on_the_cpu_count(case, monkeypatch, pools):
    a, part = SWEEP_CASES[case]()
    # 47 points at order 40 are three chunks, the last one partial
    grid = np.geomspace(1e-3, 100.0, 47)
    numeric = [c for c in AmplificationReport.COLUMNS if c != "kind"]
    runs = []
    for n_cpus in (1, 2):
        allow_cpus(monkeypatch, n_cpus)
        rows = norm_sweep(a, part, rescaled_grid=grid).rows
        runs.append(([r["kind"] for r in rows],
                     np.array([[r[c] for c in numeric] for r in rows]).tobytes()))
    assert runs[0] == runs[1]
    n_chunks = [len(pool.futures) for pool in pools]
    assert n_chunks == ([3, 3] if case == "heat40" else [1, 1])
    assert [pool.workers for pool in pools] == ([1, 2] if case == "heat40" else [1, 1])


def failing_lu_factor(monkeypatch, k: int, wait_for=None):
    """Make ``stability.lu_factor`` raise ``SingularMatrix`` on its k-th call;
    later calls first wait for the event ``wait_for``, at most 5 s in all.
    Returns the numbers of the calls that waited in vain."""
    original = stability.lu_factor
    lock = threading.Lock()
    calls = []
    in_vain = []

    def lu_factor(*args, **kwargs):
        with lock:
            calls.append(None)
            n = len(calls)
        if n == k:
            raise SingularMatrix("injected")
        if n > k and wait_for is not None and not wait_for.wait(timeout=5.0):
            in_vain.append(n)
            wait_for.set()
        return original(*args, **kwargs)

    monkeypatch.setattr(stability, "lu_factor", lu_factor)
    return in_vain


@pytest.mark.parametrize("n_cpus", [1, 2])
def test_a_chunk_error_reaches_the_caller_as_its_type(n_cpus, monkeypatch):
    a, part = model_system("heat40")
    allow_cpus(monkeypatch, n_cpus)
    failing_lu_factor(monkeypatch, k=4)
    with pytest.raises(SingularMatrix, match="injected"):
        norm_sweep(a, part, rescaled_grid=np.geomspace(1e-3, 100.0, 400))


def test_a_chunk_error_cancels_the_queued_chunks(monkeypatch, pools):
    # One worker takes the chunks in grid order; the second chunk fails, and
    # no chunk after it gets past its first factorization until the queued
    # chunks are cancelled, so a sweep that waited on them would hang.
    a, part = model_system("heat40")
    allow_cpus(monkeypatch, 1)
    in_vain = failing_lu_factor(monkeypatch, k=5, wait_for=pools.cancelled)
    with pytest.raises(SingularMatrix):
        norm_sweep(a, part, rescaled_grid=np.geomspace(1e-3, 100.0, 400))
    (pool,) = pools
    assert len(pool.futures) == 20 and pool.workers == 1
    assert in_vain == []
    ran = [f for f in pool.futures if not f.cancelled()]
    assert len(ran) <= 3  # the good chunk, the failing one and one taken before the cancel
    assert pool.futures[0].exception() is None
    assert isinstance(pool.futures[1].exception(), SingularMatrix)
