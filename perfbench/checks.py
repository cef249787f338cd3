"""Independent references and the correctness checks built on them.

No reference uses an integrator or solver of mrtrbdf2; only the problem
definitions (right-hand side, analytic Jacobian, initial state, model matrix)
are taken from the package:

* ``inverter_chain``: SciPy ``Radau`` with the preset's analytic Jacobian at
  rtol 1e-10;
* ``burgers_shock``: SciPy ``DOP853`` (the semidiscrete Rusanov system is not
  stiff);
* ``stability``: every column of the sweep, from numpy alone.  The single-rate
  spectral radius is the closed-form TR-BDF2 stability function R(z) at the
  eigenvalues from ``numpy.linalg.eigvals(A)`` (spectral mapping theorem:
  ρ(R(hA)) = max_i |R(h λ_i)|).  The multirate matrix is rebuilt from
  R(Z) = D(Z)⁻¹N(Z), the midpoint interpolation Q in closed form and the two
  half-step block solves, and its 1-, 2- and ∞-norms and spectral radius
  come from numpy.

The integration references are computed outside every timed region and
cached per seed under ``refs/``; each cache file carries the command that
regenerates it::

    python3 perfbench/checks.py --preset inverter_chain --seed 3
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from workloads import seeded_inputs

REFS_DIR = Path(__file__).resolve().parent / "refs"

# Wrong-answer bound on the relative max-norm error of the final state.  At
# the defining commit the largest error over seeds 0-20 is 1.5e-2 (inverter
# multi, when t_end falls while a switching front passes; 1.3e-3 at seed 0)
# and 6.0e-3 on Burgers; the bound sits 3x above, so the accuracy gap can
# move and is reported through err_* instead.  A defect in the integrator
# gives O(1) errors: a shock one cell off, or an inverter switching late, is
# a full jump of the state at that component.  The acceptance checks 07b/09b
# gate accuracy; this bound only catches wrong answers.
WRONG_ANSWER_BOUND = 5e-2

# Largest deviation |got - want| / max(|want|, 1) of any amplification.csv
# column from the numpy reference.  Measured deviations are at most 2.1e-14
# over all columns of the six model systems (roundoff of the stiff sys2 and of
# the 40x40 eigenvalue and singular-value solves); a wrong amplification or
# interpolation matrix moves a norm by O(1).
STABILITY_RTOL = 1e-9

_FLAG_KWARGS = {"--t-end": "t_end", "--ul": "u_left"}

_GAMMA = 2.0 - math.sqrt(2.0)


def preset_for(preset: str, seed: int):
    """The preset a ``run --preset <preset>`` invocation of this seed integrates."""
    from mrtrbdf2 import benchmarks

    kwargs = {_FLAG_KWARGS[f]: v for f, v in seeded_inputs(preset, seed).items()}
    if preset == "inverter_chain":
        return benchmarks.inverter_chain(**kwargs)
    if preset == "burgers_shock":
        return benchmarks.burgers_riemann(**kwargs)
    raise ValueError(f"no reference for preset {preset!r}")


def _fingerprint(p) -> str:
    """Hash of the problem definition, so a cached reference of a changed
    problem is recomputed rather than trusted."""
    h = hashlib.sha256(repr((p.t0, p.t_end, p.problem.m)).encode())
    y0 = np.asarray(p.y0, dtype=float)
    h.update(y0.tobytes())
    h.update(np.asarray(p.problem.rhs(p.t0, y0), dtype=float).tobytes())
    h.update(np.asarray(p.problem.jacobian(p.t0, y0), dtype=float).tobytes())
    return h.hexdigest()


def _solve(preset: str, p) -> Tuple[np.ndarray, str]:
    import scipy.sparse
    from scipy.integrate import solve_ivp

    if preset == "inverter_chain":
        method = "scipy Radau, analytic Jacobian, rtol 1e-10, atol 1e-12"
        sol = solve_ivp(p.problem.rhs, (p.t0, p.t_end), p.y0, method="Radau",
                        jac=lambda t, y: scipy.sparse.csc_matrix(p.problem.jacobian(t, y)),
                        rtol=1e-10, atol=1e-12)
    else:
        method = "scipy DOP853, rtol 1e-12, atol 1e-14"
        sol = solve_ivp(p.problem.rhs, (p.t0, p.t_end), p.y0, method="DOP853",
                        rtol=1e-12, atol=1e-14)
    if not sol.success:
        raise RuntimeError(f"reference solve failed: {sol.message}")
    return sol.y[:, -1].copy(), method


def reference(preset: str, seed: int) -> Tuple[np.ndarray, float]:
    """Final state and end time of the independent reference (cached)."""
    p = preset_for(preset, seed)
    fp = _fingerprint(p)
    path = REFS_DIR / f"{preset}-seed{seed}.json"
    if path.is_file():
        cached = json.loads(path.read_text())
        if cached.get("fingerprint") == fp:
            return np.array(cached["y_final"]), float(cached["t_end"])
    y_final, method = _solve(preset, p)
    REFS_DIR.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    tmp.write_text(json.dumps({
        "preset": preset, "seed": seed,
        "inputs": seeded_inputs(preset, seed),
        "method": method,
        "regenerate": f"python3 perfbench/checks.py --preset {preset} --seed {seed}",
        "fingerprint": fp,
        "t_end": p.t_end,
        "y_final": [float(v) for v in y_final],
    }) + "\n")
    os.replace(tmp, path)
    return y_final, float(p.t_end)


def relative_error(y: np.ndarray, ref: np.ndarray) -> float:
    """Relative max-norm error ||y - ref||_inf / ||ref||_inf."""
    return float(np.max(np.abs(y - ref)) / np.max(np.abs(ref)))


def check_run(out_dir: Path, ref: np.ndarray, t_end: float) -> Tuple[float, Optional[str]]:
    """Error of the final trajectory row, and the reason it is wrong (or None)."""
    tail = (out_dir / "trajectory.csv").read_bytes().rstrip(b"\r\n").rsplit(b"\n", 1)[-1]
    last = next(csv.reader([tail.decode()]))
    t_final = float(last[0])
    y = np.array([float(v) for v in last[1:]])
    if y.shape != ref.shape:
        return math.nan, f"final state has {y.size} components, reference {ref.size}"
    if abs(t_final - t_end) > 1e-12 * max(abs(t_end), 1.0):
        return math.nan, f"trajectory ends at t={t_final!r}, expected {t_end!r}"
    err = relative_error(y, ref)
    if not err <= WRONG_ANSWER_BOUND:
        return err, f"relative error {err:.3e} exceeds the wrong-answer bound {WRONG_ANSWER_BOUND}"
    return err, None


def stability_function(z: np.ndarray) -> np.ndarray:
    """Closed-form TR-BDF2 stability function, γ = 2 - √2:
    R(z) = ([1+(1-γ)²] z + 2(2-γ)) / ((1-γ)γ z² + (γ²-2) z + 2(2-γ))."""
    g = _GAMMA
    return (((1.0 + (1.0 - g) ** 2) * z + 2.0 * (2.0 - g))
            / ((1.0 - g) * g * z * z + (g * g - 2.0) * z + 2.0 * (2.0 - g)))


def single_rate_radius(eigs: np.ndarray, rescaled_h) -> np.ndarray:
    """max_i |R(h λ_i)| with h = rescaled_h / max_i |λ_i|, per rescaled step."""
    h = np.asarray(rescaled_h, dtype=float) / float(np.max(np.abs(eigs)))
    return np.max(np.abs(stability_function(np.multiply.outer(h, eigs))), axis=-1)


# N(Z) and D(Z) of R(Z) = D(Z)⁻¹N(Z), coefficients ascending in powers of Z.
_NUMERATOR = (2.0 * (2.0 - _GAMMA), 1.0 + (1.0 - _GAMMA) ** 2)
_DENOMINATOR = (2.0 * (2.0 - _GAMMA), _GAMMA ** 2 - 2.0, (1.0 - _GAMMA) * _GAMMA)


def _poly(coeffs, z: np.ndarray) -> np.ndarray:
    eye = np.eye(z.shape[-1])
    out = coeffs[-1] * z + coeffs[-2] * eye
    for c in reversed(coeffs[:-2]):
        out = out @ z + c * eye
    return out


def _midpoint_interpolation(z: np.ndarray, r: np.ndarray, kind: str) -> np.ndarray:
    """Q: start state to the latent reconstruction at the macro midpoint.
    Linear: (I + R)/2.  Hermite: the cubic through the start state and the
    trapezoidal stage, R_γ = (I − (γ/2)Z)⁻¹(I + (γ/2)Z), evaluated at h/2."""
    eye = np.eye(z.shape[-1])
    if kind == "linear":
        return 0.5 * (eye + r)
    g = _GAMMA
    r_gamma = np.linalg.solve(eye - 0.5 * g * z, eye + 0.5 * g * z)
    gz = g * z
    f = 3.0 * (r_gamma - eye - gz) - gz @ (r_gamma - eye)
    c = gz @ (r_gamma - eye) - 2.0 * (r_gamma - eye - gz)
    beta = 1.0 / (2.0 * g)
    return eye + beta * gz + beta ** 2 * f + beta ** 3 * c


def multirate_matrix(z: np.ndarray, r: np.ndarray, active: np.ndarray, kind: str) -> np.ndarray:
    """Amplification of one macro step h whose active rows take two h/2 steps.

    ``z`` holds h·A (stacked over steps), ``r`` = R(Z).  Latent rows take the
    macro step, R; active rows solve D(Z/2) x = N(Z/2) y twice, with latent
    values Q·u in the first half step and R·u in the second.
    """
    m = z.shape[-1]
    latent = np.setdiff1d(np.arange(m), active)
    q = _midpoint_interpolation(z, r, kind)
    d_half, n_half = _poly(_DENOMINATOR, 0.5 * z), _poly(_NUMERATOR, 0.5 * z)
    d_aa = d_half[..., active, :][..., active]
    d_al = d_half[..., active, :][..., latent]
    first = np.linalg.solve(d_aa, n_half[..., active, :] - d_al @ q[..., latent, :])
    second = np.linalg.solve(d_aa, n_half[..., active, :][..., active] @ first
                             + n_half[..., active, :][..., latent] @ q[..., latent, :]
                             - d_al @ r[..., latent, :])
    out = r.copy()
    out[..., active, :] = second
    return out


def _norms(mats: np.ndarray) -> Dict[str, np.ndarray]:
    mag = np.abs(mats)
    return {
        "norm1": mag.sum(axis=-2).max(axis=-1),
        "norm2": np.linalg.svd(mats, compute_uv=False)[..., 0],
        "norminf": mag.sum(axis=-1).max(axis=-1),
        "spectral_radius": np.abs(np.linalg.eigvals(mats)).max(axis=-1),
    }


def stability_reference(matrix: np.ndarray, active, rescaled_grid: np.ndarray,
                        kinds=("linear", "hermite")) -> Dict[str, np.ndarray]:
    """Every column of the ``amplification.csv`` a ``stability`` sweep writes,
    row by row (grid point, then kind), computed with numpy alone.

    The single-rate spectral radius comes from the eigenvalues of A by the
    spectral mapping theorem; every other column from the amplification
    matrices themselves.
    """
    a = np.asarray(matrix, dtype=float)
    grid = np.asarray(rescaled_grid, dtype=float)
    eigs = np.linalg.eigvals(a)
    z = np.multiply.outer(grid / float(np.max(np.abs(eigs))), a)
    r = np.linalg.solve(_poly(_DENOMINATOR, z), _poly(_NUMERATOR, z))
    single = _norms(r)
    single["spectral_radius"] = single_rate_radius(eigs, grid)
    multi = [_norms(multirate_matrix(z, r, np.asarray(active), kind)) for kind in kinds]
    expected = {"rescaled_h": np.repeat(grid, len(kinds))}
    for col in single:
        expected[col] = np.stack([mk[col] for mk in multi], axis=1).ravel()
        expected[f"single_rate_{col}"] = np.repeat(single[col], len(kinds))
    expected["kind"] = np.array(list(kinds) * len(grid))
    return expected


def check_stability(out_dir: Path, expected: Dict[str, np.ndarray]) -> Tuple[float, Optional[str]]:
    """Largest deviation of ``amplification.csv`` from ``expected``
    (|got - want| / max(|want|, 1), over every numeric column), and the
    reason the sweep is wrong (or None)."""
    with (out_dir / "amplification.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    n_rows = len(expected["kind"])
    if len(rows) != n_rows:
        return math.nan, f"amplification.csv has {len(rows)} rows, expected {n_rows}"
    kinds = [row.get("kind") for row in rows]
    if kinds != expected["kind"].tolist():
        return math.nan, "amplification.csv rows are not in grid-point, kind order"
    worst = 0.0
    for col, want in expected.items():
        if col == "kind":
            continue
        if col not in rows[0]:
            return math.nan, f"amplification.csv has no column {col}"
        got = np.array([float(row[col]) for row in rows])
        dev = np.abs(got - want) / np.maximum(np.abs(want), 1.0)
        i = int(np.argmax(np.where(np.isnan(dev), np.inf, dev)))
        if not dev[i] <= STABILITY_RTOL:
            return float(dev[i]), (f"{col} {got[i]!r} at rescaled h {rows[i]['rescaled_h']} "
                                   f"({rows[i]['kind']}) differs from the reference {want[i]!r}")
        worst = max(worst, float(dev[i]))
    return worst, None


def artifact_hashes(out_dir: Path) -> Dict[str, str]:
    """SHA-256 of every CSV artifact in ``out_dir``."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.glob("*.csv"))}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="(Re)compute one cached reference.")
    parser.add_argument("--preset", required=True, choices=("inverter_chain", "burgers_shock"))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    path = REFS_DIR / f"{args.preset}-seed{args.seed}.json"
    if path.exists():
        path.unlink()
    y_final, t_end = reference(args.preset, args.seed)
    print(f"wrote {path} (t_end {t_end!r}, |y|_inf {np.max(np.abs(y_final)):.6g})")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    sys.exit(main())
