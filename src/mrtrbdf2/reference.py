"""Reference integrators, independent of the TR-BDF2 method under test.

SciPy's explicit Dormand-Prince 8(5,3) pair (DOP853) run at very tight
tolerances produces semidiscrete reference solutions for the non-stiff
benchmark problems; SciPy's Radau IIA method with an analytic Jacobian does
the same for the stiff ones.  Both restart at every requested output time, so
each returned state is a step endpoint rather than dense output.

SciPy's ``integrate`` and ``sparse`` modules are imported inside the
functions: together they take about a quarter second to import, and only
reference runs need them.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence

import numpy as np

from .errors import StepFloorReached


def _restarted(
    f: Callable[[float, np.ndarray], np.ndarray],
    t0: float,
    y0: np.ndarray,
    t_record: Sequence[float],
    **options,
) -> Dict[float, np.ndarray]:
    """``solve_ivp`` from one recorded time to the next, keyed by time."""
    from scipy.integrate import solve_ivp

    targets = sorted({float(s) for s in t_record})
    if targets and targets[0] <= t0:
        raise ValueError("record times must exceed t0")
    t, y = float(t0), np.array(y0, dtype=float)
    out: Dict[float, np.ndarray] = {}
    for tgt in targets:
        sol = solve_ivp(f, (t, tgt), y, **options)
        if not sol.success:
            raise StepFloorReached(f"{options['method']} reference failed: {sol.message}")
        t, y = tgt, sol.y[:, -1].copy()
        out[tgt] = y
    return out


def integrate_dop853(
    f: Callable[[float, np.ndarray], np.ndarray],
    t0: float,
    y0: np.ndarray,
    t_record: Sequence[float],
) -> Dict[float, np.ndarray]:
    """States at every time in ``t_record`` from SciPy's DOP853 at rtol 1e-11,
    atol 1e-13."""
    return _restarted(f, t0, y0, t_record, method="DOP853", rtol=1e-11, atol=1e-13)


def integrate_radau(
    f: Callable[[float, np.ndarray], np.ndarray],
    jac: Callable[[float, np.ndarray], np.ndarray],
    t0: float,
    y0: np.ndarray,
    t_record: Sequence[float],
) -> Dict[float, np.ndarray]:
    """States at every time in ``t_record`` from SciPy's Radau IIA method.

    The Jacobian is handed over in sparse form, so Radau factors it with the
    single-threaded SuperLU: as fast as dense LU for the banded preset
    Jacobians, and unaffected by other processes on the same cores, which
    slowed the threaded dense factorization down by more than 2x.
    """
    import scipy.sparse

    def sparse_jac(t: float, y: np.ndarray):
        return scipy.sparse.csc_matrix(jac(t, y))

    # rtol 1e-10 agrees with rtol 1e-12 to about 1e-9 on the inverter chain,
    # far below the TR-BDF2 errors the reference is used to measure.
    return _restarted(f, t0, y0, t_record, method="Radau", jac=sparse_jac,
                      rtol=1e-10, atol=1e-12)
