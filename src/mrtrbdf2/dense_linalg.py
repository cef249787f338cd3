"""Minimal direct linear-algebra kernel.

Matrices are plain 2-D ``numpy`` float arrays.  The interface is real-valued;
complex arithmetic only appears internally in the spectral computations.
Everything is direct: LU with partial pivoting for solves, the LAPACK
singular-value iteration for the two-norm, and a dense eigenvalue solve for
the spectral radius.

:func:`lu_factor`/:func:`lu_solve` are the one seam for linear solves.  A
square matrix is factored dense.  A banded matrix with ``kl`` sub- and ``ku``
super-diagonals may instead be passed in LAPACK band storage (see
:func:`band_storage`) with ``band=(kl, ku)``; it is then factored and solved
by ``dgbtrf``/``dgbtrs`` in O(n·kl·(kl+ku)) work instead of O(n³).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .errors import DimensionMismatch, NonConvergence, SingularMatrix

# Pivots smaller than this fraction of the original column magnitude are
# treated as exact zeros.
PIVOT_RTOL = 1e-14


def as_matrix(a) -> np.ndarray:
    """Validate and return ``a`` as a 2-D float array with finite entries."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise DimensionMismatch(f"expected a 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    return m


def band_storage(a, band: Tuple[int, int], idx: Optional[Sequence[int]] = None) -> np.ndarray:
    """LAPACK band storage of the block of ``a`` over the sorted index subset
    ``idx`` (all rows and columns by default).

    Row ``ku + i − j`` of column ``j`` holds block[i, j] for −ku ≤ i − j ≤ kl;
    storage entries that fall outside the block are zero.  Only the
    (kl+ku+1)·|idx| entries of ``a`` that the band needs are read.  Entries of
    ``a`` outside the band are dropped, so ``band`` must cover its sparsity.
    The block of a banded matrix over a sorted subset has the same bandwidth.
    """
    kl, ku = band
    a = np.asarray(a, dtype=float)
    idx = np.arange(a.shape[1]) if idx is None else np.asarray(idx, dtype=np.intp)
    n = idx.size
    ab = np.zeros((kl + ku + 1, n))
    for r in range(kl + ku + 1):
        k = r - ku  # row offset i − j of the diagonal stored in row r
        lo, hi = max(0, -k), min(n, n - k)
        if lo < hi:
            ab[r, lo:hi] = a[idx[lo + k:hi + k], idx[lo:hi]]
    return ab


@dataclass(frozen=True)
class LuFactorization:
    """PA = LU factorization with partial pivoting, as produced by :func:`lu_factor`.

    ``band`` is ``None`` for a dense factorization.  For a banded one it holds
    (kl, ku), and ``factors`` is the LU in ``dgbtrf``'s band storage.
    """

    factors: np.ndarray
    pivots: np.ndarray
    band: Optional[Tuple[int, int]] = None

    @property
    def n(self) -> int:
        return self.factors.shape[0 if self.band is None else 1]


def lu_factor(a, band: Optional[Tuple[int, int]] = None) -> LuFactorization:
    """Factor a square matrix as PA = LU with partial pivoting.

    With ``band=(kl, ku)``, ``a`` is the matrix in band storage, shape
    (kl+ku+1, n) as built by :func:`band_storage`, and is factored by LAPACK
    ``dgbtrf``.  Storage entries outside the matrix must be zero.

    Raises :class:`SingularMatrix` when a pivot is negligible relative to the
    magnitude of its original column (a zero column always counts as singular).
    """
    if band is not None:
        return _band_lu_factor(a, band)
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"matrix must be square, got shape {m.shape}")
    col_scale = np.max(np.abs(m), axis=0)
    with warnings.catch_warnings():
        # exact zero pivots are reported below via SingularMatrix
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(m, check_finite=False)
    _check_pivots(np.abs(np.diag(lu)), col_scale)
    return LuFactorization(lu, piv)


def _band_lu_factor(ab, band: Tuple[int, int]) -> LuFactorization:
    kl, ku = band
    if kl < 0 or ku < 0:
        raise ValueError(f"band widths must be non-negative, got {band}")
    m = np.asarray(ab, dtype=float)
    if m.ndim != 2 or m.shape[0] != kl + ku + 1 or m.shape[1] < 1:
        raise DimensionMismatch(
            f"band storage for (kl, ku) = ({kl}, {ku}) needs shape ({kl + ku + 1}, n >= 1), got {m.shape}"
        )
    col_scale = np.abs(m).max(axis=0)
    if not np.isfinite(col_scale).all():  # max propagates NaN and inf
        raise ValueError("matrix has non-finite entries")
    # dgbtrf wants kl extra leading rows for the fill-in of row pivoting
    work = np.zeros((2 * kl + ku + 1, m.shape[1]), order="F")
    work[kl:] = m
    lu, piv, _ = dgbtrf(work, kl, ku, overwrite_ab=1)
    _check_pivots(np.abs(lu[kl + ku]), col_scale)
    return LuFactorization(lu, piv, (kl, ku))


def _check_pivots(diag: np.ndarray, col_scale: np.ndarray) -> None:
    """Raise :class:`SingularMatrix` unless every pivot |u_jj| is nonzero and
    at least PIVOT_RTOL times the largest entry of original column j."""
    ok = (diag > 0.0) & (col_scale > 0.0) & (diag >= PIVOT_RTOL * col_scale)
    if not ok.all():
        raise SingularMatrix(f"negligible pivot in column {int(np.argmin(ok))}")


def lu_solve(f: LuFactorization, b) -> np.ndarray:
    """Solve A x = b given the factorization of A.

    ``b`` may be a vector or carry multiple right-hand sides as columns.
    """
    rhs = np.asarray(b, dtype=float)
    if rhs.shape[0] != f.n:
        raise DimensionMismatch(f"rhs length {rhs.shape[0]} != matrix size {f.n}")
    if f.band is None:
        return scipy.linalg.lu_solve((f.factors, f.pivots), rhs, check_finite=False)
    x, _ = dgbtrs(f.factors, f.band[0], f.band[1], rhs, f.pivots)
    return x


def matrix_norm(a, kind: str) -> float:
    """Matrix norm of ``a``: ``"one"`` (max column sum), ``"inf"`` (max row sum)
    or ``"two"`` (largest singular value)."""
    m = as_matrix(a)
    if kind == "one":
        return float(np.max(np.sum(np.abs(m), axis=0)))
    if kind == "inf":
        return float(np.max(np.sum(np.abs(m), axis=1)))
    if kind == "two":
        return _two_norm(m)
    raise ValueError(f"unknown norm kind {kind!r}")


def _two_norm(m: np.ndarray) -> float:
    # Largest singular value via the LAPACK iterative QR-SVD.  Plain power
    # iteration on AᵀA stalls on near-identity matrices whose top singular
    # values cluster (the amplification matrices swept here do exactly that).
    try:
        return float(np.linalg.norm(m, 2))
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"singular-value iteration failed: {exc}") from exc


def spectral_radius(a) -> float:
    """Largest |λ| over the (possibly complex) eigenvalues of a square real matrix."""
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"matrix must be square, got shape {m.shape}")
    try:
        eigs = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"eigenvalue iteration failed: {exc}") from exc
    return float(np.max(np.abs(eigs)))
