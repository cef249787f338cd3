"""Cauchy-problem abstraction with Jacobian access and frozen-component
subsystem evaluation.

An :class:`OdeProblem` packages the right-hand side f(t, y) of y' = f(t, y)
together with an optional analytic Jacobian and an optional declared Jacobian
bandwidth.  An :class:`ActivePartition` names a subset of components; the
subsystem obtained by freezing the complementary (latent) components is
evaluated by writing the active state in place into a caller-owned length-m
context and gathering the active rows of f there, so no reduced right-hand
side ever has to be written by hand.

The problem layer has one operation of each kind: :func:`eval_subsystem_rhs`
for f and :func:`subsystem_jacobian` for ∂f/∂y (analytic when the problem has
one, forward differences otherwise).  Both take one argument list, (problem,
t, active state, context, partition, counter), and every call of the
problem's rhs goes through :func:`eval_subsystem_rhs`, the finite-difference
columns included.  The full system is the subsystem ``ActivePartition.full(m)``,
evaluated on the state itself with no context.  :func:`latent_halo`
names the latent components that an active subsystem's rows can read, so a
caller may leave the rest of the frozen context stale.

Scalar function-evaluation accounting: a subsystem call costs |active| scalar
evaluations, so a full call costs m.  Every call of the problem's rhs is also
counted, since each one computes all m components.  Counters are owned by a
single integration run (see :class:`EvalCounter`), never by the problem.
"""

from __future__ import annotations

import functools
import operator
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .dense_linalg import band_storage, block
from .errors import DimensionMismatch, NonFiniteOutput

# Forward finite-difference increment scale: sqrt of unit roundoff.
FD_EPS = float(np.sqrt(np.finfo(float).eps))


class ActivePartition:
    """Sorted index subset of {0..m-1} naming the active components.

    Immutable by convention.  The complement is the latent set.  Empty and
    full partitions are both valid.
    """

    __slots__ = ("m", "indices", "size")

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
        self.size = int(idx.size)

    @classmethod
    @functools.lru_cache(maxsize=32)
    def full(cls, m: int) -> "ActivePartition":
        # Shared per m: a partition is immutable and its indices read-only.
        return cls(m, np.arange(m))

    @property
    def is_full(self) -> bool:
        return self.size == self.m

    def complement(self) -> "ActivePartition":
        mask = np.ones(self.m, dtype=bool)
        mask[self.indices] = False
        return ActivePartition(self.m, np.nonzero(mask)[0])

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
    """Work accumulator for one integration run: scalar function evaluations
    (|active| per subsystem call), calls of the problem's rhs (each computes
    all m components), Jacobian evaluations, Newton iterations (failed ones
    included), step attempts, rejections by cause, and stale-Jacobian retries
    (not rejections)."""

    scalar_evals: int = 0
    rhs_calls: int = 0
    step_attempts: int = 0
    jacobian_evaluations: int = 0
    newton_iterations: int = 0
    rejections: Counter[str] = field(default_factory=Counter)
    stale_jacobian_retries: int = 0


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


def eval_subsystem_rhs(
    p: OdeProblem,
    t: float,
    x: np.ndarray,
    frozen: Optional[np.ndarray],
    part: ActivePartition,
    counter: EvalCounter | None = None,
) -> np.ndarray:
    """Active-component derivative with the latent components frozen.

    Writes ``x`` in place into the length-m context ``frozen`` at the active
    indices, leaving its latent entries untouched, evaluates the full
    right-hand side there and gathers the active rows.  The full system is
    evaluated on ``x`` itself, with ``frozen`` unused (it may be None), and a
    copy of the right-hand side's array is returned, so a right-hand side may
    write every value into one reused buffer.  Costs |active| scalar
    evaluations and one rhs call on the counter.
    """
    if len(x) != part.size:
        raise DimensionMismatch(f"substate length {len(x)} != active size {part.size}")
    full = part.is_full
    if not full:
        frozen[part.indices] = x
    f = np.asarray(p.rhs(t, x if full else frozen), dtype=float)
    if f.shape != (p.m,):
        raise DimensionMismatch(f"rhs returned shape {f.shape}, expected ({p.m},)")
    if counter is not None:
        counter.scalar_evals += part.size
        counter.rhs_calls += 1
    out = f.copy() if full else f[part.indices]
    if not np.logical_and.reduce(np.isfinite(out)):
        raise NonFiniteOutput(f"subsystem rhs produced non-finite values at t={t}")
    return out


def latent_halo(p: OdeProblem, part: ActivePartition) -> np.ndarray:
    """Sorted latent components that the active rows of f can depend on.

    Column j feeds row i when −ku ≤ i − j ≤ kl for the declared bandwidth
    (kl, ku), so the halo is the latent part of [i − kl, i + ku] over the
    active i.  With no bandwidth declared every latent component is halo.
    :func:`eval_subsystem_rhs` gathers the same active rows whatever the
    frozen context holds outside the active set and this halo.
    """
    latent = np.ones(p.m, dtype=bool)
    latent[part.indices] = False
    if p.bandwidth is None:
        return np.flatnonzero(latent)
    kl, ku = p.bandwidth
    near = np.zeros(p.m, dtype=bool)
    for k in range(-kl, ku + 1):
        j = part.indices + k
        near[j[(j >= 0) & (j < p.m)]] = True
    return np.flatnonzero(near & latent)


def subsystem_jacobian(
    p: OdeProblem,
    t: float,
    x: np.ndarray,
    frozen: Optional[np.ndarray],
    part: ActivePartition,
    counter: EvalCounter | None = None,
    f0: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Active-row/active-column block of the Jacobian of the subsystem at
    (t, x), with ``x``, ``frozen`` and ``part`` as in :func:`eval_subsystem_rhs`.

    The latent components are held fixed, so this equals the Jacobian of the
    frozen subsystem.  With an analytic Jacobian the block is sliced out of
    the checked m×m matrix at the context holding ``x``, or out of its band
    storage (:func:`~.dense_linalg.block`).  With forward differences each
    active column is one :func:`eval_subsystem_rhs` call on ``x`` with that
    component raised by sqrt(eps)·max(|x_j|, 1), so that components at or
    near zero still get a sensible perturbation; the base value is ``f0``
    when the caller has f(t, x) already, and is evaluated otherwise.  The
    context's latent entries are only read.  When the problem declares a
    bandwidth the block comes in band storage
    (:func:`~.dense_linalg.band_storage`) with the same (kl, ku).  Each call
    counts one Jacobian evaluation on the counter.
    """
    x = np.asarray(x, dtype=float)
    if counter is not None:
        counter.jacobian_evaluations += 1
    if p.jacobian is not None:
        if not part.is_full:
            frozen[part.indices] = x
        jac = np.asarray(p.jacobian(t, x if part.is_full else frozen), dtype=float)
        if jac.shape != (p.m, p.m):
            raise DimensionMismatch(f"jacobian has shape {jac.shape}, expected ({p.m}, {p.m})")
        if not np.all(np.isfinite(jac)):
            raise NonFiniteOutput(f"jacobian produced non-finite values at t={t}")
        if p.bandwidth is None:
            return block(jac, part.indices)
        jac = band_storage(jac, p.bandwidth)
        return jac if part.is_full else block(jac, part.indices, p.bandwidth)
    if f0 is None:
        f0 = eval_subsystem_rhs(p, t, x, frozen, part, counter)
    fd = np.empty((part.size, part.size))
    for j in range(part.size):
        eps = FD_EPS * max(abs(x[j]), 1.0)
        xp = x.copy()
        xp[j] += eps
        fd[:, j] = (eval_subsystem_rhs(p, t, xp, frozen, part, counter) - f0) / eps
    if not np.all(np.isfinite(fd)):
        raise NonFiniteOutput(f"subsystem jacobian non-finite at t={t}")
    if p.bandwidth is not None:
        return band_storage(fd, p.bandwidth)
    return fd
