"""Minimal direct linear-algebra kernel.

Matrices are plain ``numpy`` float arrays.  The interface is real-valued;
complex arithmetic only appears internally in the spectral computations.
Everything is direct: LU with partial pivoting for solves, the LAPACK
singular-value iteration for the two-norm, and a dense eigenvalue solve for
the spectral radius.

:func:`lu_factor`/:func:`lu_solve` are the one seam for linear solves.  A
square matrix is factored dense by LAPACK ``dgetrf``/``dgetrs``.  A banded
matrix with ``kl`` sub- and ``ku`` super-diagonals may instead be passed in
LAPACK band storage (see :func:`band_storage`) with ``band=(kl, ku)``; it is
then factored and solved by ``dgbtrf``/``dgbtrs`` in O(n·kl·(kl+ku)) work
instead of O(n³).  A band of at most one sub- and one super-diagonal, the
bi- and tridiagonal Newton matrices of the banded presets, goes to the
tridiagonal routines ``dgttrf``/``dgttrs`` instead, which read the three
diagonals (a missing one as zeros) and run one loop over the rows where the
general band routines make BLAS calls per column.  On a tridiagonal matrix
of order 400 they took 7 µs each, against 32 µs for ``dgbtrf`` with its work
array and 13 µs for ``dgbtrs`` (SciPy 1.17.1, one thread).  Orders 1 and 2
stay on ``dgbtrf``/``dgbtrs``, because SciPy's wrapper of ``dgttrf``
rejects them ("unexpected array size").

The dense path, :func:`matrix_norm`, :func:`spectral_radius` and
:func:`eigenvalues` also take a stack of matrices, shape (..., n, n), and
treat each matrix as if it were passed alone: a stacked solve takes
right-hand sides with the same leading stack shape, and a stacked norm or
radius returns one value per matrix.  One 2-D matrix still gives a float.

The six LAPACK routines come from SciPy's compiled LAPACK module,
``scipy.linalg._flapack``, loaded from its file without importing the
``scipy.linalg`` package.  ``scipy.linalg.lapack`` re-exports the same
function objects, but the package import also runs SciPy's array-API layer,
which pulls in ``numpy.f2py`` and ``numpy.testing``: about 0.27 s of the
0.42 s that ``import mrtrbdf2.cli`` took with it (Python 3.11, SciPy 1.17).
The module is registered in ``sys.modules`` under its own name, so a later
``import scipy.linalg`` shares it instead of loading a second copy.  The
import system sets a submodule as an attribute of its package only when it
loads it, so when ``mrtrbdf2`` loads first, the ``scipy.linalg`` package
imported after it has no ``_flapack`` attribute; ``from scipy.linalg import
_flapack`` and ``scipy.linalg.lapack`` still reach the module.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import DimensionMismatch, NonConvergence, SingularMatrix

_FLAPACK = "scipy.linalg._flapack"


def _lapack_module(package_dirs: Sequence[str]):
    """The module the LAPACK routines come from: ``scipy.linalg._flapack`` if
    already loaded; else that extension from the ``linalg`` directory of the
    first SciPy package directory in ``package_dirs`` that holds it, loaded
    under its real name and registered in ``sys.modules``; else
    ``scipy.linalg.lapack``, which re-exports the same routines (a SciPy
    whose extensions live elsewhere, such as an editable build)."""
    if _FLAPACK in sys.modules:
        return sys.modules[_FLAPACK]
    for directory in package_dirs:
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(directory, "linalg", "_flapack" + suffix)
            if os.path.isfile(path):
                loader = importlib.machinery.ExtensionFileLoader(_FLAPACK, path)
                spec = importlib.util.spec_from_file_location(_FLAPACK, path, loader=loader)
                module = importlib.util.module_from_spec(spec)
                loader.exec_module(module)
                sys.modules[_FLAPACK] = module
                return module
    from scipy.linalg import lapack
    return lapack


_scipy = importlib.util.find_spec("scipy")
_lapack = _lapack_module(_scipy.submodule_search_locations if _scipy else [])
dgbtrf, dgbtrs, dgetrf, dgetrs = _lapack.dgbtrf, _lapack.dgbtrs, _lapack.dgetrf, _lapack.dgetrs
dgttrf, dgttrs = _lapack.dgttrf, _lapack.dgttrs

# Pivots smaller than this fraction of the original column magnitude are
# treated as exact zeros.
PIVOT_RTOL = 1e-14


def as_matrix(a) -> np.ndarray:
    """Validate and return ``a`` as a 2-D float array with finite entries."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D matrix, got shape {m.shape}")
    return _as_matrices(m)


def _as_matrices(a, finite: bool = True) -> np.ndarray:
    """Validate and return ``a`` as a float matrix or stack of matrices
    (..., rows, cols), with finite entries unless ``finite`` is false."""
    m = np.asarray(a, dtype=float)
    if m.ndim < 2 or m.shape[-2] < 1 or m.shape[-1] < 1:
        raise DimensionMismatch(f"expected a matrix or a stack of matrices, got shape {m.shape}")
    if finite and not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    return m


def _as_square(a, finite: bool = True) -> np.ndarray:
    m = _as_matrices(a, finite)
    if m.shape[-2] != m.shape[-1]:
        raise DimensionMismatch(f"matrix must be square, got shape {m.shape}")
    return m


def from_diagonals(n: int, diagonals: Mapping[int, object]) -> np.ndarray:
    """The dense n×n matrix with ``diagonals[k]`` (its n − |k| entries in
    column order, or a scalar) on diagonal k = i − j, k > 0 below the main
    one, and zeros elsewhere.  Written by assignment only, so −0.0 keeps its
    sign; on the band it is the inverse of :func:`band_storage`."""
    a = np.zeros((n, n))
    flat = a.reshape(-1)  # a view: diagonal k is every (n+1)-th entry from its first
    for k, values in diagonals.items():
        flat[k * n if k >= 0 else -k::n + 1][:max(0, n - abs(k))] = values
    return a


def band_storage(a, band: Tuple[int, int]) -> np.ndarray:
    """LAPACK band storage of the square matrix ``a``.

    Row ``ku + i − j`` of column ``j`` holds a[i, j] for −ku ≤ i − j ≤ kl;
    storage entries that fall outside the matrix are zero.  Only the
    (kl+ku+1)·n entries of ``a`` that the band needs are read.  Entries of
    ``a`` outside the band are dropped, so ``band`` must cover its sparsity.
    :func:`block` takes the block over an index subset from this storage.
    """
    kl, ku = band
    a = np.asarray(a, dtype=float)
    n = a.shape[1]
    ab = np.zeros((kl + ku + 1, n))
    for r in range(kl + ku + 1):
        k = r - ku  # row offset i − j of the diagonal stored in row r
        lo, hi = max(0, -k), min(n, n - k)
        if lo < hi:
            ab[r, lo:hi] = np.diagonal(a, -k)
    return ab


def block(a, idx: Sequence[int], band: Optional[Tuple[int, int]] = None) -> np.ndarray:
    """The block of ``a`` over the sorted index subset ``idx``.

    ``a`` is a dense square matrix, or with ``band=(kl, ku)`` a matrix in
    band storage (see :func:`band_storage`), and the block comes in the same
    storage with the same (kl, ku).
    """
    a = np.asarray(a, dtype=float)
    idx = np.asarray(idx, dtype=np.intp)
    if band is None:
        return a[np.ix_(idx, idx)]
    kl, ku = band
    n = idx.size
    out = np.zeros((kl + ku + 1, n))
    for r in range(kl + ku + 1):
        k = r - ku
        lo, hi = max(0, -k), min(n, n - k)
        if lo < hi:
            rows, cols = idx[lo + k:hi + k], idx[lo:hi]
            src = ku + rows - cols  # storage row of a[rows, cols] in the full matrix
            inside = (src >= 0) & (src <= kl + ku)
            out[r, lo:hi][inside] = a[src[inside], cols[inside]]
    return out


@dataclass(frozen=True)
class LuFactorization:
    """PA = LU factorization with partial pivoting, as produced by :func:`lu_factor`.

    ``band`` is ``None`` for a dense factorization, whose ``factors`` and
    ``pivots`` carry the stack shape of the factored matrices in front.  For a
    banded one it holds (kl, ku), and ``factors`` is the LU in ``dgbtrf``'s
    band storage, or for a tridiagonal one the tuple (dl, d, du, du2) that
    ``dgttrf`` returns.
    """

    factors: Union[np.ndarray, Tuple[np.ndarray, ...]]
    pivots: np.ndarray
    band: Optional[Tuple[int, int]] = None

    @property
    def n(self) -> int:
        return self.pivots.shape[-1]


def lu_factor(a, band: Optional[Tuple[int, int]] = None) -> LuFactorization:
    """Factor a square matrix, or each matrix of a stack (..., n, n), as
    PA = LU with partial pivoting.

    With ``band=(kl, ku)``, ``a`` is the matrix in band storage, shape
    (kl+ku+1, n) as built by :func:`band_storage`, and is factored by LAPACK
    ``dgttrf`` when kl ≤ 1, ku ≤ 1 and n ≥ 3, by ``dgbtrf`` otherwise.
    Storage entries outside the matrix must be zero.

    Raises :class:`SingularMatrix` when a pivot is negligible relative to the
    magnitude of its original column (a zero column always counts as
    singular); for a stack the message names the matrix's stack index.
    """
    if band is not None:
        return _band_lu_factor(a, band)
    m = _as_square(a, finite=False)
    col_scale = np.abs(m).max(axis=-2)
    if not np.isfinite(col_scale).all():  # max propagates NaN and inf
        raise ValueError("matrix has non-finite entries")
    lu = _column_major(m.shape)
    lu[...] = m  # dgetrf factors each matrix of this copy in place
    piv = np.empty(m.shape[:-1], dtype=np.int32)
    for k in np.ndindex(m.shape[:-2]):
        # info > 0 flags an exact zero pivot, which _check_pivots reports
        _, piv[k], _ = dgetrf(lu[k], overwrite_a=1)
    _check_pivots(np.abs(np.diagonal(lu, axis1=-2, axis2=-1)), col_scale)
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
    col_scale = np.maximum.reduce(np.abs(m), axis=0)
    if not np.logical_and.reduce(np.isfinite(col_scale)):  # max propagates NaN and inf
        raise ValueError("matrix has non-finite entries")
    n = m.shape[1]
    if kl <= 1 and ku <= 1 and n >= 3:
        # dgttrf factors copies of the three diagonals; a missing one is zeros
        dl, d, du, du2, piv, _ = dgttrf(m[ku + 1, :-1] if kl else np.zeros(n - 1), m[ku],
                                        m[0, 1:] if ku else np.zeros(n - 1))
        _check_pivots(np.abs(d), col_scale)
        return LuFactorization((dl, d, du, du2), piv, (kl, ku))
    # dgbtrf wants kl extra leading rows for the fill-in of row pivoting
    work = np.zeros((2 * kl + ku + 1, n), order="F")
    work[kl:] = m
    lu, piv, _ = dgbtrf(work, kl, ku, overwrite_ab=1)
    _check_pivots(np.abs(lu[kl + ku]), col_scale)
    return LuFactorization(lu, piv, (kl, ku))


def _column_major(shape: Tuple[int, ...]) -> np.ndarray:
    """An empty stack of matrices of ``shape`` (..., rows, cols), each one
    Fortran-contiguous: the layout LAPACK reads and writes without copies."""
    return np.empty(shape[:-2] + (shape[-1], shape[-2])).swapaxes(-1, -2)


def _check_pivots(diag: np.ndarray, col_scale: np.ndarray) -> None:
    """Raise :class:`SingularMatrix` unless every pivot |u_jj| is nonzero and
    at least PIVOT_RTOL times the largest entry of original column j, for the
    pivots (..., n) of each factored matrix.

    A zero column keeps a zero pivot through the elimination, so |u_jj| > 0
    also rules out a zero column.  A test of the column scale in its place
    would pass a zero pivot in a column so small that PIVOT_RTOL times its
    largest entry underflows to zero.
    """
    ok = (diag > 0.0) & (diag >= PIVOT_RTOL * col_scale)
    if not np.logical_and.reduce(ok, axis=None):
        *stack, col = np.unravel_index(int(np.argmin(ok)), ok.shape)
        where = f" of stack index {', '.join(str(int(i)) for i in stack)}" if stack else ""
        raise SingularMatrix(f"negligible pivot in column {int(col)}{where}")


def lu_solve(f: LuFactorization, b) -> np.ndarray:
    """Solve A x = b given the factorization of A.

    ``b`` may be a vector or carry multiple right-hand sides as columns.  For
    a stack of dense factorizations (..., n, n), ``b`` has shape (..., n) or
    (..., n, k) with the same stack shape, and each system is solved with
    its own matrix; a banded factorization has no stack.
    """
    rhs = np.asarray(b, dtype=float)
    stack = () if f.band is not None else f.factors.shape[:-2]
    cut = len(stack)
    if rhs.shape[:cut] != stack or rhs.ndim - cut not in (1, 2) or rhs.shape[cut] != f.n:
        raise DimensionMismatch(
            f"rhs of shape {rhs.shape} does not fit {stack + (f.n, f.n)} factorizations"
        )
    if f.band is not None:
        if isinstance(f.factors, tuple):
            x, _ = dgttrs(*f.factors, f.pivots, rhs)
        else:
            x, _ = dgbtrs(f.factors, f.band[0], f.band[1], rhs, f.pivots)
        return x
    if not stack:  # one matrix: the stack loop would cost twice dgetrs at small n
        x, _ = dgetrs(f.factors, f.pivots, rhs)
        return x
    x = _column_major(rhs.shape) if rhs.ndim - cut == 2 else np.empty_like(rhs)
    for k in np.ndindex(stack):
        x[k], _ = dgetrs(f.factors[k], f.pivots[k], rhs[k])
    return x


def _per_matrix(values: np.ndarray):
    """A per-matrix reduction as returned: a float for one 2-D matrix."""
    return float(values) if values.ndim == 0 else values


def matrix_norm(a, kind: str):
    """Matrix norm of ``a``: ``"one"`` (max column sum), ``"inf"`` (max row sum)
    or ``"two"`` (largest singular value); one per matrix of a stack."""
    m = _as_matrices(a)
    if kind == "one":
        return _per_matrix(np.abs(m).sum(axis=-2).max(axis=-1))
    if kind == "inf":
        return _per_matrix(np.abs(m).sum(axis=-1).max(axis=-1))
    if kind == "two":
        return _per_matrix(_two_norm(m))
    raise ValueError(f"unknown norm kind {kind!r}")


def _two_norm(m: np.ndarray) -> np.ndarray:
    # Largest singular value via the LAPACK iterative QR-SVD.  Plain power
    # iteration on AᵀA stalls on near-identity matrices whose top singular
    # values cluster (the amplification matrices swept here do exactly that).
    try:
        return np.linalg.svd(m, compute_uv=False).max(axis=-1)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"singular-value iteration failed: {exc}") from exc


def eigenvalues(a) -> np.ndarray:
    """The (possibly complex) eigenvalues of a square real matrix, (..., n) for
    a stack of them."""
    m = _as_square(a)
    try:
        return np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"eigenvalue iteration failed: {exc}") from exc


def spectral_radius(a):
    """Largest |λ| over the eigenvalues of a square real matrix; one per
    matrix of a stack."""
    return _per_matrix(np.abs(eigenvalues(a)).max(axis=-1))
