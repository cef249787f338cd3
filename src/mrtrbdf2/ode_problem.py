"""Cauchy-problem abstraction with Jacobian access and frozen-component
subsystem evaluation.

An :class:`OdeProblem` packages the right-hand side f(t, y) of y' = f(t, y)
together with an optional analytic Jacobian and an optional declared Jacobian
bandwidth.  An :class:`ActivePartition` names a subset of components;
evaluating the subsystem obtained by freezing the complementary (latent)
components is a scatter / full evaluation / gather round trip, so no reduced
right-hand side ever has to be written by hand.

The problem layer has one operation of each kind: :func:`eval_subsystem_rhs`
for f and :func:`subsystem_jacobian` for ∂f/∂y (analytic when the problem has
one, forward differences otherwise), both on an active subsystem.  The full
system is the subsystem ``ActivePartition.full(m)``.

Scalar function-evaluation accounting: a subsystem call costs |active| scalar
evaluations, so a full call costs m.  Counters are owned by a single
integration run (see :class:`EvalCounter`), never by the problem.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .dense_linalg import band_storage
from .errors import DimensionMismatch, NonFiniteOutput

# Forward finite-difference increment scale: sqrt of unit roundoff.
FD_EPS = float(np.sqrt(np.finfo(float).eps))


class ActivePartition:
    """Sorted index subset of {0..m-1} naming the active components.

    Immutable by convention.  The complement is the latent set.  Empty and
    full partitions are both valid.
    """

    __slots__ = ("m", "indices")

    def __init__(self, m: int, indices: Sequence[int] | np.ndarray):
        idx = np.asarray(indices, dtype=np.intp).ravel()
        if m < 1:
            raise DimensionMismatch(f"total dimension must be >= 1, got {m}")
        if idx.size:
            if np.any(idx < 0) or np.any(idx >= m):
                raise DimensionMismatch("active indices out of range")
            if np.any(np.diff(idx) <= 0):
                idx = np.unique(idx)
        self.m = int(m)
        self.indices = idx
        self.indices.setflags(write=False)

    @classmethod
    def full(cls, m: int) -> "ActivePartition":
        return cls(m, np.arange(m))

    @classmethod
    def empty(cls, m: int) -> "ActivePartition":
        return cls(m, np.empty(0, dtype=np.intp))

    @property
    def size(self) -> int:
        return int(self.indices.size)

    @property
    def is_full(self) -> bool:
        return self.size == self.m

    @property
    def is_empty(self) -> bool:
        return self.size == 0

    def complement(self) -> "ActivePartition":
        mask = np.ones(self.m, dtype=bool)
        mask[self.indices] = False
        return ActivePartition(self.m, np.nonzero(mask)[0])

    def scatter(self, x: np.ndarray, base: np.ndarray) -> np.ndarray:
        """Return a copy of ``base`` with the active entries replaced by ``x``."""
        out = np.array(base, dtype=float, copy=True)
        if np.asarray(x).shape[0] != self.size:
            raise DimensionMismatch(f"substate length {len(x)} != active size {self.size}")
        out[self.indices] = x
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ActivePartition)
            and self.m == other.m
            and np.array_equal(self.indices, other.indices)
        )

    def __repr__(self) -> str:
        return f"ActivePartition(m={self.m}, active={self.indices.tolist()})"


@dataclass
class EvalCounter:
    """Scalar function-evaluation accumulator for one integration run."""

    scalar_evals: int = 0

    def add(self, n: int) -> None:
        self.scalar_evals += int(n)


@dataclass(frozen=True)
class OdeProblem:
    """Right-hand side f(t, y) with dimension m and optional analytic Jacobian.

    ``bandwidth = (kl, ku)`` declares that ∂f_i/∂y_j vanishes unless
    −ku ≤ i − j ≤ kl at every state.  Subsystem Jacobians then come in band
    storage and Newton matrices are factored banded; ``jacobian`` still
    returns the dense m×m array.
    """

    m: int
    rhs: Callable[[float, np.ndarray], np.ndarray]
    jacobian: Optional[Callable[[float, np.ndarray], np.ndarray]] = None
    name: str = ""
    bandwidth: Optional[Tuple[int, int]] = None

    def __post_init__(self) -> None:
        if self.bandwidth is None:
            return
        try:
            kl, ku = (operator.index(v) for v in self.bandwidth)
        except (TypeError, ValueError):
            raise ValueError(f"bandwidth must be an integer pair (kl, ku), got {self.bandwidth!r}") from None
        if not (0 <= kl < self.m and 0 <= ku < self.m):
            raise ValueError(f"bandwidth {self.bandwidth} needs 0 <= kl, ku < m = {self.m}")
        object.__setattr__(self, "bandwidth", (kl, ku))


def _call_rhs(p: OdeProblem, t: float, y: np.ndarray) -> np.ndarray:
    f = np.asarray(p.rhs(t, y), dtype=float)
    if f.shape != (p.m,):
        raise DimensionMismatch(f"rhs returned shape {f.shape}, expected ({p.m},)")
    return f


def eval_subsystem_rhs(
    p: OdeProblem,
    t: float,
    x: np.ndarray,
    frozen: np.ndarray,
    part: ActivePartition,
    counter: EvalCounter | None = None,
) -> np.ndarray:
    """Active-component derivative with the latent components frozen.

    Scatters ``x`` into ``frozen`` at the active indices, evaluates the full
    right-hand side, and gathers back the active rows.  Costs |active| scalar
    evaluations on the counter.
    """
    if part.is_empty:
        if counter is not None:
            counter.add(0)
        return np.empty(0)
    full = part.scatter(x, frozen)
    f = _call_rhs(p, t, full)
    if counter is not None:
        counter.add(part.size)
    out = f[part.indices]
    if not np.all(np.isfinite(out)):
        raise NonFiniteOutput(f"subsystem rhs produced non-finite values at t={t}")
    return out


def subsystem_jacobian(
    p: OdeProblem,
    t: float,
    y: np.ndarray,
    part: ActivePartition,
    counter: EvalCounter | None = None,
) -> np.ndarray:
    """Active-row/active-column block of the full Jacobian at (t, y).

    The latent components are held fixed, so this equals the Jacobian of the
    frozen subsystem.  With an analytic Jacobian the block is sliced out of
    the checked m×m matrix; with forward differences only the active columns
    are formed, each with the increment sqrt(eps)·max(|y_j|, 1) so that
    components at or near zero still get a sensible perturbation.  When the
    problem declares a bandwidth the block comes in band storage
    (:func:`~.dense_linalg.band_storage`) with the same (kl, ku).
    """
    y = np.asarray(y, dtype=float)
    idx = part.indices
    if p.jacobian is not None:
        jac = np.asarray(p.jacobian(t, y), dtype=float)
        if jac.shape != (p.m, p.m):
            raise DimensionMismatch(f"jacobian has shape {jac.shape}, expected ({p.m}, {p.m})")
        if not np.all(np.isfinite(jac)):
            raise NonFiniteOutput(f"jacobian produced non-finite values at t={t}")
        if p.bandwidth is not None:
            return band_storage(jac, p.bandwidth, idx)
        return jac[np.ix_(idx, idx)]
    f0 = _call_rhs(p, t, y)
    if counter is not None:
        counter.add(part.size)
    block = np.empty((part.size, part.size))
    for col, j in enumerate(idx):
        eps = FD_EPS * max(abs(y[j]), 1.0)
        yp = y.copy()
        yp[j] += eps
        fp = _call_rhs(p, t, yp)
        if counter is not None:
            counter.add(part.size)
        block[:, col] = (fp[idx] - f0[idx]) / eps
    if not np.all(np.isfinite(block)):
        raise NonFiniteOutput(f"subsystem jacobian non-finite at t={t}")
    if p.bandwidth is not None:
        return band_storage(block, p.bandwidth)
    return block
