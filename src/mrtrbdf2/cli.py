"""Command-line front end.

Three subcommands:

* ``run``       — integrate a benchmark preset single-rate or multirate and
                  write trajectory/trace/space-time/Courant CSVs plus a JSON
                  summary,
* ``stability`` — sweep amplification-matrix norms for a model system (or a
                  matrix read from CSV) and write amplification.csv,
* ``compare``   — run both modes over a list of tolerances and write
                  compare.csv.

Every CSV file declares its column formats once: ``%.17g`` for numeric
(float) columns, so each value round-trips exactly, and ``%s`` for counts and
text.  Rows end in CRLF.  Re-running an identical invocation reproduces every
artifact bitwise (wall-clock fields in summary.json and compare.csv are
measurements and exempt from that guarantee).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import Iterable, List, Optional, Sequence

import numpy as np

from . import benchmarks
from .benchmarks import BenchmarkPreset, courant_numbers
from .controller import ToleranceSpec
from .dense_linalg import as_matrix
from .errors import ToolkitError
from .integrator import INTERPOLANT_KINDS, IntegrationTrace, Trajectory, integrate, integrate_single_rate
from .ode_problem import ActivePartition
from .stability import MODEL_SYSTEMS, default_rescaled_grid, model_system, norm_sweep

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INTEGRATION = 3

# Preset name -> (factory in :mod:`.benchmarks`, {CLI flag: factory keyword},
# fixed factory defaults that the flags may override).  ``--t-end`` goes to
# every factory.  The factory is looked up by name at build time, so a
# wrapper installed on the ``benchmarks`` module is the one called.
_PDE_FLAGS = {"cells": "n_cells", "tol_abs": "tol_abs", "tol_rel": "tol_rel"}
_BURGERS_FLAGS = {**_PDE_FLAGS, "ul": "u_left", "ur": "u_right"}
_PRESET_TABLE = {
    "inverter_chain": ("inverter_chain", {"m": "m", "tol_abs": "tol_abs"}, {}),
    "reaction_diffusion": ("reaction_diffusion", _PDE_FLAGS, {}),
    "advection": ("linear_advection", _PDE_FLAGS, {}),
    "burgers": ("burgers_riemann", _BURGERS_FLAGS, {}),
    "burgers_shock": ("burgers_riemann", _BURGERS_FLAGS, {}),
    "burgers_rarefaction": ("burgers_riemann", _BURGERS_FLAGS, {"u_left": 0.0, "u_right": 1.0}),
}
PRESETS = tuple(_PRESET_TABLE)
_PRESET_FLAGS = tuple(dict.fromkeys(dest for _, flags, _ in _PRESET_TABLE.values() for dest in flags))


FLOAT, TEXT = "%.17g", "%s"


@contextmanager
def _csv_file(path: Path, header: Sequence[str], formats: Sequence[str]):
    """Open ``path``, write ``header`` and yield ``write(row)``.  Every row goes
    through one line template built from the column ``formats`` (``FLOAT`` or
    ``TEXT``), and every line ends in CRLF."""
    line = ",".join(formats) + "\r\n"
    with path.open("w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        yield lambda row: fh.write(line % row)


def _write_csv(path: Path, header: Sequence[str], formats: Sequence[str],
               rows: Iterable[tuple]) -> None:
    with _csv_file(path, header, formats) as write:
        for row in rows:
            write(row)


def _step_rows(trace: IntegrationTrace):
    """One walk over the step records: the trace.csv and spacetime.csv rows
    of every accepted step, each macro step followed by its micro steps."""
    m = trace.m
    all_components = " ".join(str(i) for i in range(m))
    idx = 0
    for rec in trace.records:
        yield (("macro", idx, rec.t_start, rec.h, rec.eta_max, rec.rejections,
                *rec.newton_iterations, m),
               (idx, rec.t_start, rec.t_end, all_components))
        idx += 1
        n_active, cohort = rec.active0.size, " ".join(str(i) for i in rec.active0)
        for mic in rec.micro:
            yield (("micro", idx, mic.t_start, mic.h, mic.eta_max, mic.rejections,
                    *mic.newton_iterations, n_active),
                   (idx, mic.t_start, mic.t_start + mic.h, cohort))
            idx += 1


def _build_preset(args) -> BenchmarkPreset:
    if args.preset is None:
        raise ValueError("--preset is required (on the command line or in --config)")
    factory, flags, defaults = _PRESET_TABLE[args.preset]
    kw = dict(defaults)
    if args.t_end is not None:
        kw["t_end"] = args.t_end
    given = [dest for dest in _PRESET_FLAGS if getattr(args, dest) is not None]
    unsupported = ["--" + dest.replace("_", "-") for dest in given if dest not in flags]
    if unsupported:
        raise ValueError(f"preset {args.preset!r} does not take {', '.join(unsupported)}")
    kw.update({flags[dest]: getattr(args, dest) for dest in given})
    preset = getattr(benchmarks, factory)(**kw)
    if not (np.isfinite(preset.t0) and preset.t0 < preset.t_end < np.inf):
        raise ValueError(f"--t-end must be finite and after t0 = {preset.t0}, got {preset.t_end!r}")

    cfg = preset.config
    ctrl = cfg.controller
    ctrl_updates = {}
    if args.delta is not None:
        ctrl_updates["delta"] = args.delta
    if args.nu is not None:
        ctrl_updates["nu"] = args.nu
    if ctrl_updates:
        ctrl = replace(ctrl, **ctrl_updates)
    cfg_updates = {"controller": ctrl}
    if args.h0 is not None:
        cfg_updates["h0"] = args.h0
    if args.interp is not None:
        cfg_updates["interpolant"] = args.interp
    preset.config = replace(cfg, **cfg_updates)
    return preset


def _config_snapshot(preset: BenchmarkPreset, mode: str) -> dict:
    cfg = preset.config
    return {
        "preset": preset.name,
        "mode": mode,
        "tol_rel": cfg.tolerances.tau_r,
        "tol_abs": cfg.tolerances.tau_a,
        "delta": cfg.controller.delta,
        "nu": cfg.controller.nu,
        "h0": cfg.h0,
        "h_min": cfg.controller.h_min,
        "h_max": cfg.controller.h_max if np.isfinite(cfg.controller.h_max) else "inf",
        "interpolant": cfg.interpolant,
        "newton_tolerance": cfg.newton.tolerance,
        "t0": preset.t0,
        "t_end": preset.t_end,
        "preset_params": preset.params,
    }


def _write_run_artifacts(
    out_dir: Path,
    preset: BenchmarkPreset,
    mode: str,
    traj: Trajectory,
    trace: IntegrationTrace,
    wall_time: float,
    argv: Sequence[str],
) -> List[str]:
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs: List[str] = []

    m = trace.m
    # Row by row: a whole-array tolist() would hold a Python float per value.
    _write_csv(out_dir / "trajectory.csv",
               ["t"] + [f"y{i}" for i in range(m)], [FLOAT] * (m + 1),
               ((t, *row.tolist()) for t, row in zip(traj.times.tolist(), traj.states)))
    outputs.append("trajectory.csv")

    # One walk over the records writes both files, with no rows held.
    with (_csv_file(out_dir / "trace.csv",
                    ["kind", "step", "t_start", "h", "eta_max", "rejections",
                     "newton_stage1", "newton_stage2", "n_active"],
                    [TEXT, TEXT, FLOAT, FLOAT, FLOAT, TEXT, TEXT, TEXT, TEXT]) as write_trace,
          _csv_file(out_dir / "spacetime.csv", ["step", "t_start", "t_end", "active"],
                    [TEXT, FLOAT, FLOAT, TEXT]) as write_spacetime):
        for trace_row, spacetime_row in _step_rows(trace):
            write_trace(trace_row)
            write_spacetime(spacetime_row)
    outputs += ["trace.csv", "spacetime.csv"]

    if preset.dx is not None and preset.flux_derivative is not None:
        samples = courant_numbers(traj, trace, preset)
        _write_csv(out_dir / "courant.csv",
                   ["kind", "t_start", "h", "courant"], [TEXT, FLOAT, FLOAT, FLOAT],
                   ((s.kind, s.t_start, s.h, s.value) for s in samples))
        outputs.append("courant.csv")

    summary = {
        "command_line": list(argv),
        "config": _config_snapshot(preset, mode),
        "determinism": "identical invocations reproduce all CSV artifacts bitwise; "
                       "wall_time_s is a measurement and may vary",
        "outputs": outputs + ["summary.json"],
        "metrics": {**trace.summary(), "wall_time_s": wall_time,
                    "t_final": traj.t_final},
    }
    with (out_dir / "summary.json").open("w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    outputs.append("summary.json")
    return outputs


def cmd_run(args, argv: Sequence[str]) -> int:
    try:
        preset = _build_preset(args)
    except (ValueError, TypeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    driver = integrate if args.mode == "multi" else integrate_single_rate
    t_start = time.perf_counter()
    try:
        traj, trace = driver(preset.problem, preset.t0, preset.t_end, preset.y0,
                             preset.config)
    except ToolkitError as exc:
        print(f"integration failed: {exc}", file=sys.stderr)
        return EXIT_INTEGRATION
    wall = time.perf_counter() - t_start
    _write_run_artifacts(Path(args.out_dir), preset, args.mode, traj, trace, wall, argv)
    print(f"wrote artifacts to {args.out_dir} "
          f"(workload {trace.workload()}, {trace.accepted_macro} macro / "
          f"{trace.accepted_micro} micro steps)")
    return EXIT_OK


def cmd_stability(args, argv: Sequence[str]) -> int:
    try:
        if args.points < 1:
            raise ValueError(f"--points must be at least 1, got {args.points}")
        for flag, value in (("--smin", args.smin), ("--smax", args.smax)):
            if not 0.0 < value < np.inf:
                raise ValueError(f"{flag} must be positive and finite, got {value!r}")
        if args.matrix_file:
            a = as_matrix(np.loadtxt(args.matrix_file, delimiter=",", ndmin=2))
            if a.shape[0] != a.shape[1]:
                raise ValueError(f"--matrix-file must hold a square matrix, got shape {a.shape}")
            if args.active is None:
                raise ValueError("--active is required with --matrix-file")
            idx = [int(s) for s in args.active.split(",") if s.strip()]
            partition = ActivePartition(a.shape[0], idx)
            name = Path(args.matrix_file).stem
        else:
            if args.system is None:
                raise ValueError("either --system or --matrix-file is required")
            a, partition = model_system(args.system)
            if args.active is not None:
                idx = [int(s) for s in args.active.split(",") if s.strip()]
                partition = ActivePartition(a.shape[0], idx)
            name = args.system
        kinds = INTERPOLANT_KINDS if args.kind == "both" else (args.kind,)
        grid = default_rescaled_grid(args.points, args.smin, args.smax)
    except (ValueError, OSError, ToolkitError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    report = norm_sweep(a, partition, kinds=kinds, rescaled_grid=grid, system_name=name)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "amplification.csv",
               report.COLUMNS, [TEXT if c == "kind" else FLOAT for c in report.COLUMNS],
               (tuple(row[c] for c in report.COLUMNS) for row in report.rows))
    meta = {
        "system": name,
        "dimension": int(a.shape[0]),
        "active_components": [int(i) for i in partition.indices],
        "max_abs_eigenvalue": report.max_abs_eigenvalue,
        "kinds": list(kinds),
        "grid_points": len(grid),
        "rescaled_range": [float(grid[0]), float(grid[-1])],
    }
    with (out_dir / "amplification_meta.json").open("w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out_dir / 'amplification.csv'} "
          f"({len(report.rows)} rows, system {name}, active {partition.indices.tolist()})")
    return EXIT_OK


def cmd_compare(args, argv: Sequence[str]) -> int:
    try:
        tols = [float(s) for s in args.tols.split(",") if s.strip()]
        if not tols:
            raise ValueError("tolerance list is empty")
        preset0 = _build_preset(args)
        # τ_r scales with τ_a, so the preset's ratio between them is kept.
        base = preset0.config.tolerances
        run_tols = [ToleranceSpec(base.tau_r * (tol / base.tau_a), tol) for tol in tols]
    except (ValueError, TypeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    ref = preset0.reference_states([preset0.t_end])[preset0.t_end]
    rows = []
    for tol, tolerances in zip(tols, run_tols):
        for mode in ("single", "multi"):
            run_cfg = replace(preset0.config, tolerances=tolerances)
            driver = integrate if mode == "multi" else integrate_single_rate
            t_start = time.perf_counter()
            try:
                traj, trace = driver(preset0.problem, preset0.t0, preset0.t_end,
                                     preset0.y0, run_cfg)
            except ToolkitError as exc:
                print(f"integration failed at tol {tol} mode {mode}: {exc}", file=sys.stderr)
                return EXIT_INTEGRATION
            wall = time.perf_counter() - t_start
            err = float(np.max(np.abs(traj.states[-1] - ref)))
            s = trace.summary()
            rows.append((tol, mode, err, s["workload"], s["scalar_function_evaluations"],
                         s["effective_scalar_evals"], s["accepted_macro_steps"],
                         s["accepted_micro_steps"], s["total_accepted_steps"],
                         s["rejected_macro_steps"] + s["rejected_micro_steps"], wall))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "compare.csv",
               ["tolerance", "mode", "error_vs_reference", "workload", "scalar_evals",
                "effective_scalar_evals", "macro_steps", "micro_steps", "total_steps",
                "rejected_steps", "wall_time_s"],
               [FLOAT, TEXT, FLOAT, TEXT, TEXT, TEXT, TEXT, TEXT, TEXT, TEXT, FLOAT],
               rows)
    print(f"wrote {out_dir / 'compare.csv'} ({len(rows)} rows)")
    return EXIT_OK


def _config_flags(path: str) -> List[str]:
    """The flat ``key = value`` lines of a config file as command-line flags."""
    flags: List[str] = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        flags.extend([f"--{key.strip().replace('_', '-')}", value.strip()])
    return flags


def _add_preset_flags(p: argparse.ArgumentParser) -> None:
    # Required, but checked by _build_preset, so that a --config file can set it.
    p.add_argument("--preset", choices=PRESETS, default=None,
                   help="benchmark preset (required; may come from --config)")
    p.add_argument("--tol-rel", type=float, default=None)
    p.add_argument("--tol-abs", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--nu", type=float, default=None)
    p.add_argument("--h0", type=float, default=None)
    p.add_argument("--interp", choices=INTERPOLANT_KINDS, default=None)
    p.add_argument("--t-end", type=float, default=None)
    p.add_argument("--cells", type=int, default=None, help="spatial cells for PDE presets")
    p.add_argument("--m", type=int, default=None, help="chain length for the inverter preset")
    p.add_argument("--ul", type=float, default=None, help="left state (burgers)")
    p.add_argument("--ur", type=float, default=None, help="right state (burgers)")
    p.add_argument("--out-dir", default="out")
    p.add_argument("--config", default=None, help="flat key=value file of flag defaults")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mrtrbdf2",
        description="Multirate TR-BDF2 integration: benchmark runs, stability sweeps, comparisons.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate one benchmark preset")
    _add_preset_flags(p_run)
    p_run.add_argument("--mode", choices=("single", "multi"), default="multi")

    p_st = sub.add_parser("stability", help="amplification-matrix norm sweep")
    p_st.add_argument("--system", choices=MODEL_SYSTEMS, default=None)
    p_st.add_argument("--matrix-file", default=None, help="CSV file with a square matrix")
    p_st.add_argument("--active", default=None, help="comma-separated active indices")
    p_st.add_argument("--kind", choices=(*INTERPOLANT_KINDS, "both"), default="both")
    p_st.add_argument("--points", type=int, default=60)
    p_st.add_argument("--smin", type=float, default=1e-3)
    p_st.add_argument("--smax", type=float, default=100.0)
    p_st.add_argument("--out-dir", default="out")
    p_st.add_argument("--config", default=None)

    p_cmp = sub.add_parser("compare", help="single vs multirate over a tolerance list")
    _add_preset_flags(p_cmp)
    p_cmp.add_argument("--tols", required=True, help="comma-separated absolute tolerances")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    raw = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(raw)
        if args.config is not None:
            # The file's flags go right after the subcommand, so any flag
            # also given on the command line overrides them.
            at = raw.index(args.command) + 1
            args = parser.parse_args(raw[:at] + _config_flags(args.config) + raw[at:])
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    except (OSError, UnicodeDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.command == "run":
        return cmd_run(args, raw)
    if args.command == "stability":
        return cmd_stability(args, raw)
    return cmd_compare(args, raw)


if __name__ == "__main__":
    sys.exit(main())
