"""Dense-output operators used to reconstruct latent components inside a step.

Three interpolants over one step interval [0, h]:

* linear between the two endpoint states,
* quadratic Lagrange through the endpoints and one interior state,
* the C¹ cubic Hermite built from the TR-BDF2 stage data (two polynomial
  branches joined at ζ = γh with matching value and slope).

All of them only interpolate; offsets outside [0, h] raise
:class:`~mrtrbdf2.errors.OffsetOutOfRange` rather than extrapolating.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateNodes, OffsetOutOfRange
from .trbdf2 import GAMMA

# Relative slack on the interval bounds so endpoint offsets computed with
# roundoff still evaluate.
_EDGE_RTOL = 1e-9


def _check_offset(zeta: float, h: float) -> float:
    slack = _EDGE_RTOL * h
    if zeta < -slack or zeta > h + slack:
        raise OffsetOutOfRange(f"offset {zeta} outside [0, {h}]")
    return min(max(zeta, 0.0), h)


def linear_interp(u_n: np.ndarray, u_next: np.ndarray, h: float, zeta: float) -> np.ndarray:
    """Linear blend (ζ/h)·u_next + ((h−ζ)/h)·u_n."""
    zeta = _check_offset(zeta, h)
    w = zeta / h
    return w * np.asarray(u_next, dtype=float) + (1.0 - w) * np.asarray(u_n, dtype=float)


def quadratic_lagrange(
    u_n: np.ndarray,
    u_lambda: np.ndarray,
    u_next: np.ndarray,
    h_lambda: float,
    h: float,
    zeta: float,
) -> np.ndarray:
    """Quadratic Lagrange interpolation through (0, u_n), (h_λ, u_λ), (h, u_next).

    No driver calls it: the integrator offers the ``linear`` and ``hermite``
    kinds only, the two that :func:`~.stability.interpolation_matrix` covers,
    and a third kind needs its amplification matrix there first.  It stays
    as the quadratic member of the dense-output set, whose node identities
    acceptance criterion 11 checks.
    """
    if not (0.0 < h_lambda < h):
        raise DegenerateNodes(f"interior node {h_lambda} must lie strictly inside (0, {h})")
    zeta = _check_offset(zeta, h)
    u_n = np.asarray(u_n, dtype=float)
    u_lambda = np.asarray(u_lambda, dtype=float)
    u_next = np.asarray(u_next, dtype=float)
    c_next = (zeta - h_lambda) * zeta / (h * (h - h_lambda))
    c_lam = zeta * (zeta - h) / ((h_lambda - h) * h_lambda)
    c_n = (h_lambda - zeta) * (h - zeta) / (h_lambda * h)
    return c_next * u_next + c_lam * u_lambda + c_n * u_n


@dataclass(frozen=True)
class HermiteData:
    """Step data needed by the cubic Hermite interpolant.

    States at the step start, the interior stage point and the step end,
    together with the scaled stage derivatives z = h·f at those points.  The
    polynomial coefficients of both branches are built from them on first
    use and kept, so a window's reconstructions share one set.
    """

    u_n: np.ndarray
    u_gamma: np.ndarray
    u_next: np.ndarray
    z_n: np.ndarray
    z_gamma: np.ndarray
    z_next: np.ndarray
    h: float

    @cached_property
    def branches(self) -> tuple:
        """(γh, (1−γ)h, left, right): the widths of the two branches and, for
        each, the coefficients (c₃, c₂, a₁, a₀) of c₃β³ + c₂β² + a₁β + a₀ in
        its local variable β ∈ [0, 1], with c₃ = a₃ − 2a₂ and c₂ = 3a₂ − a₃."""
        g, h = GAMMA, self.h
        a0 = self.u_n
        a1 = g * self.z_n
        a2 = self.u_gamma - self.u_n - g * self.z_n
        a3 = g * (self.z_gamma - self.z_n)
        left = (a3 - 2.0 * a2, 3.0 * a2 - a3, a1, a0)
        a1 = (1.0 - g) * self.z_gamma
        a0 = self.u_gamma
        a2 = self.u_next - self.u_gamma - a1
        a3 = (1.0 - g) * (self.z_next - self.z_gamma)
        right = (a3 - 2.0 * a2, 3.0 * a2 - a3, a1, a0)
        return g * h, (1.0 - g) * h, left, right


def hermite_cubic(d: HermiteData, zeta: float) -> np.ndarray:
    """C¹ piecewise-cubic dense output at offset ζ ∈ [0, h].

    On [0, γh] the cubic matches value and slope at the step start and the
    interior stage; on [γh, h] it matches them at the interior stage and the
    step end, so the two branches join with a continuous first derivative.
    """
    zeta = _check_offset(zeta, d.h)
    gh, wh, left, right = d.branches
    if zeta <= gh:
        c3, c2, a1, a0 = left
        beta = zeta / gh
    else:
        c3, c2, a1, a0 = right
        beta = (zeta - gh) / wh
    return (c3 * beta + c2) * beta * beta + a1 * beta + a0
