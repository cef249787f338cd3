"""Linear stability analysis of the multirate scheme.

For y' = A·y a one-step solver with rational amplification R(Z) = D(Z)⁻¹N(Z),
Z = h·A, gives rise to a multirate amplification matrix when a constant macro
step h is split once into two half steps h/2 for an active component subset,
with the latent components reconstructed at the midpoint by an interpolation
matrix Q acting on the start state.  The assembly here simulates those block
equations with LU solves.

Norm sweeps over a grid of rescaled step sizes h·max|λ(A)| reproduce the
stability diagnostics for the built-in model systems.  A sweep works on
stacks Z = h·A over one chunk of grid points at a time, bounded in bytes by
CHUNK_BYTES.  R(Z), D(Z/2), N(Z/2) and the factorization of the active block
are built once per chunk and shared by the single-rate matrix and both
interpolation kinds.  The single-rate spectral radius is max|R(h·λᵢ)| over
the eigenvalues λᵢ of A, by the spectral mapping theorem.  The one-matrix
functions call the same stacked code with a single matrix.

The chunks do not depend on each other, so a sweep computes them
concurrently on a thread pool with one worker per CPU the process may run on
(no more than there are chunks); the NumPy and LAPACK kernels that take the
time release the GIL.  Rows are appended in grid order, and each chunk does
the same arithmetic whichever thread runs it, so the report is bitwise the
same for any number of CPUs.  With ``OPENBLAS_NUM_THREADS=1`` the BLAS does
not start threads of its own on top of the pool's.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from .dense_linalg import (as_matrix, eigenvalues, from_diagonals, lu_factor, lu_solve, matrix_norm,
                           spectral_radius)
from .errors import UnknownSystem
from .integrator import INTERPOLANT_KINDS
from .ode_problem import ActivePartition
from .trbdf2 import GAMMA

NORM_KINDS = ("one", "two", "inf")

# Bytes of one stacked array in a sweep chunk.  A chunk holds about a dozen
# such arrays at once, so this bounds the sweep's working memory whatever the
# grid length: 20 grid points at order 40, a 400-point grid whole at order 4.
CHUNK_BYTES = 256 * 1024


@dataclass(frozen=True)
class RationalMatrixMethod:
    """One-step solver amplification R(Z) = D(Z)⁻¹N(Z), polynomials in Z.

    Coefficients are ascending in powers of Z and are applied with the
    identity in place of Z⁰.  Consistency requires D(0)⁻¹N(0) = I.  Every
    matrix method also takes a stack of matrices (..., n, n).
    """

    numerator: Tuple[float, ...]
    denominator: Tuple[float, ...]

    def n_poly(self, z: np.ndarray) -> np.ndarray:
        return _matrix_poly(self.numerator, z)

    def d_poly(self, z: np.ndarray) -> np.ndarray:
        return _matrix_poly(self.denominator, z)

    def amplification(self, z: np.ndarray) -> np.ndarray:
        lu = lu_factor(self.d_poly(z))
        return lu_solve(lu, self.n_poly(z))

    def scalar_amplification(self, z: np.ndarray) -> np.ndarray:
        """R(z) = N(z)/D(z) elementwise, for (complex) scalar arguments."""
        return _scalar_poly(self.numerator, z) / _scalar_poly(self.denominator, z)


def _matrix_poly(coeffs: Sequence[float], z: np.ndarray) -> np.ndarray:
    eye = np.eye(z.shape[-1])
    out = np.zeros_like(z)
    for c in reversed(coeffs):
        out = out @ z + c * eye
    return out


def _scalar_poly(coeffs: Sequence[float], z: np.ndarray) -> np.ndarray:
    out = np.zeros_like(z)
    for c in reversed(coeffs):
        out = out * z + c
    return out


def trbdf2_method() -> RationalMatrixMethod:
    """Rational form of the TR-BDF2 amplification:
    N(Z) = [1+(1−γ)²]Z + 2(2−γ)I,  D(Z) = (1−γ)γZ² + (γ²−2)Z + 2(2−γ)I."""
    g = GAMMA
    return RationalMatrixMethod(
        numerator=(2.0 * (2.0 - g), 1.0 + (1.0 - g) ** 2),
        denominator=(2.0 * (2.0 - g), g * g - 2.0, (1.0 - g) * g),
    )


TRBDF2_METHOD = trbdf2_method()


def _check_setup(m: int, active: ActivePartition, kinds: Sequence[str]) -> None:
    if active.m != m:
        raise ValueError("partition dimension does not match the matrix")
    if not set(kinds) <= set(INTERPOLANT_KINDS):
        raise ValueError(f"interpolation kind must be one of {INTERPOLANT_KINDS}")


@dataclass(frozen=True)
class StabilitySetup:
    """One stability-matrix assembly: system matrix, macro step, active subset
    and latent interpolation kind (one of :data:`~.integrator.INTERPOLANT_KINDS`)."""

    matrix: np.ndarray
    h: float
    active: ActivePartition
    kind: str = "hermite"
    method: RationalMatrixMethod = TRBDF2_METHOD

    def __post_init__(self) -> None:
        m = as_matrix(self.matrix)
        if m.shape[0] != m.shape[1]:
            raise ValueError("system matrix must be square")
        _check_setup(m.shape[0], self.active, (self.kind,))


def single_rate_amplification(a, h: float, method: RationalMatrixMethod = TRBDF2_METHOD) -> np.ndarray:
    """Amplification matrix R(h·A) of the single-rate solver."""
    z = h * as_matrix(a)
    return method.amplification(z)


def interpolation_matrix(a, h: float, kind: str, method: RationalMatrixMethod = TRBDF2_METHOD) -> np.ndarray:
    """Matrix mapping the start state to the macro-midpoint reconstruction.

    Linear kind: (I + R)/2.  Hermite kind: the cubic dense-output branch at
    the midpoint written in terms of the trapezoidal-stage amplification
    R_γ = (I − (γ/2)Z)⁻¹(I + (γ/2)Z).
    """
    z = h * as_matrix(a)
    r = method.amplification(z) if kind == "linear" else None
    return _interpolation(z, r, kind)


def _interpolation(z: np.ndarray, r, kind: str) -> np.ndarray:
    """Q for Z (..., n, n); the linear kind reuses r = R(Z)."""
    eye = np.eye(z.shape[-1])
    if kind == "linear":
        return 0.5 * (eye + r)
    if kind != "hermite":
        raise ValueError(f"interpolation kind must be one of {INTERPOLANT_KINDS}")
    g = GAMMA
    lu = lu_factor(eye - 0.5 * g * z)
    r_gamma = lu_solve(lu, eye + 0.5 * g * z)
    gz = g * z
    f_mat = 3.0 * (r_gamma - eye - gz) - gz @ (r_gamma - eye)
    g_mat = gz @ (r_gamma - eye) - 2.0 * (r_gamma - eye - gz)
    beta = 1.0 / (2.0 * g)
    return eye + beta * gz + beta**2 * f_mat + beta**3 * g_mat


class _AmplificationStack:
    """R(Z) and the half-step blocks both interpolation kinds share, for
    Z = h·A (..., m, m): one matrix or a chunk of a sweep."""

    def __init__(self, z: np.ndarray, active: ActivePartition, method: RationalMatrixMethod) -> None:
        self.z = z
        self.act = active.indices
        self.lat = active.complement().indices
        self.r = method.amplification(z)
        if self.act.size:
            z_half = 0.5 * z
            d_act = method.d_poly(z_half)[..., self.act, :]
            self.n_act = method.n_poly(z_half)[..., self.act, :]
            self.d_al = d_act[..., self.lat]
            self.lu_aa = lu_factor(d_act[..., self.act])

    def multirate(self, kind: str) -> np.ndarray:
        """Multirate amplification matrix for one h/2 refinement of the active set.

        Latent rows copy the single-rate macro step; active rows run two half
        steps against the interpolated (first half) and macro-endpoint
        (second half) latent values.
        """
        act, lat, r = self.act, self.lat, self.r
        if act.size == 0:
            return r.copy()
        q_lat = _interpolation(self.z, r, kind)[..., lat, :]
        # First half step: D_aa x1 = [N_half]_act u - D_a,lat (Q u)_lat.
        m1 = lu_solve(self.lu_aa, self.n_act - self.d_al @ q_lat)
        # Second half step: endpoint latent values come from the macro step itself.
        rhs2 = self.n_act[..., act] @ m1
        rhs2 += self.d_al @ (-r[..., lat, :]) + self.n_act[..., lat] @ q_lat
        r_mr = r.copy()
        r_mr[..., act, :] = lu_solve(self.lu_aa, rhs2)
        return r_mr


def multirate_amplification(setup: StabilitySetup) -> np.ndarray:
    """Multirate amplification matrix for one h/2 refinement of the active set.

    Assembled by simulating the two half-step block systems: latent rows copy
    the single-rate macro step, active rows run two half steps against the
    interpolated (first half) and macro-endpoint (second half) latent values.
    """
    z = setup.h * as_matrix(setup.matrix)
    return _AmplificationStack(z, setup.active, setup.method).multirate(setup.kind)


@dataclass
class AmplificationReport:
    """Norm sweep results: one row per (rescaled step, interpolation kind)."""

    system: str
    max_abs_eigenvalue: float
    rows: List[dict] = field(default_factory=list)

    COLUMNS = (
        "rescaled_h", "kind", "norm1", "norm2", "norminf", "spectral_radius",
        "single_rate_norm1", "single_rate_norm2", "single_rate_norminf",
        "single_rate_spectral_radius",
    )


def _norm_columns(mats: np.ndarray) -> dict:
    """One-, two- and inf-norm of each matrix of a stack, by report column."""
    return {"norm1": matrix_norm(mats, "one"), "norm2": matrix_norm(mats, "two"),
            "norminf": matrix_norm(mats, "inf")}


def default_rescaled_grid(n_points: int = 60, s_min: float = 1e-3, s_max: float = 100.0) -> np.ndarray:
    """Logarithmic grid of rescaled step values h·max|λ(A)|."""
    return np.geomspace(s_min, s_max, n_points)


def norm_sweep(
    a,
    partition: ActivePartition,
    kinds: Sequence[str] = INTERPOLANT_KINDS,
    rescaled_grid: np.ndarray | None = None,
    system_name: str = "",
    method: RationalMatrixMethod = TRBDF2_METHOD,
) -> AmplificationReport:
    """Sweep matrix norms of the multirate and single-rate amplification
    matrices over a grid of rescaled time steps."""
    a = as_matrix(a)
    eigs = eigenvalues(a)
    _check_setup(a.shape[0], partition, kinds)
    lam = float(np.max(np.abs(eigs)))
    if lam <= 0.0:
        lam = 1.0  # zero matrix: rescaling is moot, use h directly
    grid = default_rescaled_grid() if rescaled_grid is None else np.asarray(rescaled_grid, dtype=float)
    report = AmplificationReport(system=system_name, max_abs_eigenvalue=lam)
    chunk = max(1, CHUNK_BYTES // a.nbytes)
    chunks = [grid[i:i + chunk] for i in range(0, grid.size, chunk)]

    def sweep(s: np.ndarray) -> Tuple[dict, dict]:
        return _sweep_chunk(a, eigs, s / lam, partition, kinds, method)

    # Executor.map cancels the chunks still queued when one raises.
    with ThreadPoolExecutor(max(1, min(_available_cpus(), len(chunks)))) as pool:
        for s, (single, multi) in zip(chunks, pool.map(sweep, chunks)):
            for i, s_i in enumerate(s.tolist()):
                for kind in kinds:
                    row = {"rescaled_h": s_i, "kind": kind}
                    row.update((col, float(v[i])) for col, v in multi[kind].items())
                    row.update((f"single_rate_{col}", float(v[i])) for col, v in single.items())
                    report.rows.append(row)
    return report


def _available_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _sweep_chunk(a: np.ndarray, eigs: np.ndarray, h: np.ndarray, partition: ActivePartition,
                 kinds: Sequence[str], method: RationalMatrixMethod) -> Tuple[dict, dict]:
    """Norm columns of one chunk of step sizes ``h``: the single-rate columns,
    and the multirate columns per interpolation kind."""
    stack = _AmplificationStack(h[:, None, None] * a, partition, method)
    single = _norm_columns(stack.r)
    single["spectral_radius"] = np.max(
        np.abs(method.scalar_amplification(np.multiply.outer(h, eigs))), axis=-1)
    multi = {}
    for kind in kinds:
        mats = stack.multirate(kind)
        multi[kind] = _norm_columns(mats)
        multi[kind]["spectral_radius"] = spectral_radius(mats)
    return single, multi


def _harmonic_interfaces(c: np.ndarray) -> np.ndarray:
    """Interface values of the cell values ``c``: harmonic means of the two
    neighbours inside, and the boundary cells' own values at the two ends."""
    return np.concatenate(([c[0]], 2.0 * c[:-1] * c[1:] / (c[:-1] + c[1:]), [c[-1]]))


def _conservative_diffusion(n: int, coeff: np.ndarray, dx: float) -> np.ndarray:
    """(D(x) u')' by second differences, Dirichlet closure.

    Interface diffusivities are harmonic means (the standard conservative
    treatment of a coefficient jump), so the matrix stays symmetric and the
    slow/fast blocks couple only weakly.
    """
    iface = _harmonic_interfaces(coeff)
    return from_diagonals(n, {0: -(iface[:-1] + iface[1:]), 1: iface[1:-1], -1: iface[1:-1]}) / dx**2


def _flux_form_advection(n: int, vel: np.ndarray, dx: float) -> np.ndarray:
    """-(v(x) u)' with centered interface values, Dirichlet closure.

    Off-diagonal pairs are exactly skew-symmetric, keeping the operator
    near-normal across the velocity jump.
    """
    iface = _harmonic_interfaces(vel)
    return from_diagonals(n, {0: 0.5 * (iface[:-1] - iface[1:]), 1: 0.5 * iface[1:-1],
                              -1: -0.5 * iface[1:-1]}) / dx


def _advective_form_advection(n: int, vel: np.ndarray, dx: float) -> np.ndarray:
    """-v(x) u' by centered differences on a periodic grid (pure transport;
    the spectrum stays purely imaginary for any velocity field)."""
    a = from_diagonals(n, {1: vel[1:] / 2.0, -1: -vel[:-1] / 2.0})
    a[0, -1] = vel[0] / 2.0  # the periodic wrap-around
    a[-1, 0] = -vel[-1] / 2.0
    return a / dx


MODEL_SYSTEMS = ("sys1", "sys2", "sys2_nofriction", "heat40", "advdiff40", "adv40")


def model_system(name: str) -> Tuple[np.ndarray, ActivePartition]:
    """Built-in model systems and their default active partitions.

    Systems are arranged with the latent (slow) variables first; the returned
    partition names the fast components, which is where the half-step
    refinement is applied in the sweeps.
    """
    if name == "sys1":
        a = np.array([[-1.0, 1.0], [-1000.0, -1000.0]])
        return a, ActivePartition(2, [1])
    if name in ("sys2", "sys2_nofriction"):
        m1 = m2 = 1.0
        k1, k2 = 1.0, 1e6
        g1 = 0.0
        g2 = 0.0 if name == "sys2_nofriction" else 100.0
        a = np.array([
            [0.0, 1.0, 0.0, 0.0],
            [-k1 / m1, -g1, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [k2 / m2, 0.0, -k2 / m2, -g2],
        ])
        return a, ActivePartition(4, [2, 3])
    if name in ("heat40", "advdiff40", "adv40"):
        n = 40
        dx = 1.0 / n  # unit domain resolved by all 40 variables
        slow = np.ones(n)
        if name == "heat40":
            coeff = slow.copy()
            coeff[n // 2:] = 1e6
            a = _conservative_diffusion(n, coeff, dx)
        elif name == "advdiff40":
            coeff = slow.copy()
            coeff[n // 2:] = 1e4
            a = _conservative_diffusion(n, coeff, dx) + _flux_form_advection(n, coeff, dx)
        else:
            vel = slow.copy()
            vel[n // 2:] = 1e4
            a = _advective_form_advection(n, vel, dx)
        return a, ActivePartition(n, np.arange(n // 2, n))
    raise UnknownSystem(f"unknown model system {name!r}; choose from {MODEL_SYSTEMS}")
