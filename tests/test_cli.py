import csv
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import mrtrbdf2
from mrtrbdf2 import benchmarks, dense_linalg
from mrtrbdf2.cli import PRESETS, _build_preset, build_parser, main
from mrtrbdf2.controller import ToleranceSpec
from mrtrbdf2.dense_linalg import matrix_norm, spectral_radius
from mrtrbdf2.integrator import REJECTION_CAUSES, integrate, integrate_single_rate
from mrtrbdf2.stability import AmplificationReport, single_rate_amplification


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# The columns each artifact writes at 17 significant digits (None: every one).
FLOAT_COLUMNS = {
    "trajectory.csv": None,
    "trace.csv": ("t_start", "h", "eta_max"),
    "spacetime.csv": ("t_start", "t_end"),
    "courant.csv": ("t_start", "h", "courant"),
    "amplification.csv": tuple(c for c in AmplificationReport.COLUMNS if c != "kind"),
    "compare.csv": ("tolerance", "error_vs_reference", "wall_time_s"),
}


def assert_crlf_and_17_digit_floats(path):
    data = path.read_bytes()
    assert data.endswith(b"\r\n") and data.count(b"\n") == data.count(b"\r\n"), path.name
    rows = read_csv(path)
    assert rows, path.name
    for col in FLOAT_COLUMNS[path.name] or rows[0]:
        for row in rows:
            assert row[col] == format(float(row[col]), ".17g"), (path.name, col, row[col])


def test_run_writes_artifacts_and_schema(tmp_path):
    out = tmp_path / "run"
    rc = main([
        "run", "--preset", "advection", "--mode", "multi", "--cells", "50",
        "--t-end", "0.3", "--out-dir", str(out),
    ])
    assert rc == 0
    for name in ("trajectory.csv", "trace.csv", "spacetime.csv", "courant.csv", "summary.json"):
        assert (out / name).exists(), name
    summary = json.loads((out / "summary.json").read_text())
    metrics = summary["metrics"]
    for key in ("workload", "accepted_macro_steps", "rejected_macro_steps",
                "scalar_function_evaluations", "rhs_calls", "effective_scalar_evals",
                "jacobian_evaluations", "newton_iterations",
                "rejection_causes", "stale_jacobian_retries", "wall_time_s"):
        assert key in metrics
    # each rhs call computes all m components; a subsystem call is charged fewer
    assert metrics["effective_scalar_evals"] == metrics["rhs_calls"] * metrics["dimension"]
    assert metrics["scalar_function_evaluations"] <= metrics["effective_scalar_evals"]
    rejected = metrics["rejected_macro_steps"] + metrics["rejected_micro_steps"]
    assert sum(metrics["rejection_causes"].values()) == rejected
    # the Jacobian is carried across steps, and each step iterates Newton
    steps = metrics["total_accepted_steps"]
    assert 0 < metrics["jacobian_evaluations"] < steps < metrics["newton_iterations"]
    # workload equals the component-step pairs of the space-time diagram
    st = read_csv(out / "spacetime.csv")
    counted = sum(len(row["active"].split()) for row in st)
    assert counted == metrics["workload"]
    # every csv row carries a header and floats round-trip at 17 digits
    traj = read_csv(out / "trajectory.csv")
    assert traj and "t" in traj[0]


def test_run_deterministic(tmp_path):
    args = ["run", "--preset", "burgers_shock", "--mode", "multi", "--cells", "40",
            "--ul", "1.0", "--ur", "0.0", "--t-end", "0.1"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out-dir", str(out1)]) == 0
    assert main(args + ["--out-dir", str(out2)]) == 0
    for name in ("trajectory.csv", "trace.csv", "spacetime.csv", "courant.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    s1 = json.loads((out1 / "summary.json").read_text())
    s2 = json.loads((out2 / "summary.json").read_text())
    for s in (s1, s2):
        s["metrics"].pop("wall_time_s")  # measured, exempt from the guarantee
        s.pop("command_line")            # records the differing --out-dir
    assert s1 == s2


@pytest.mark.parametrize("preset,flags,factory", [
    ("inverter_chain", ["--m", "5", "--t-end", "1"],
     lambda: benchmarks.inverter_chain(m=5, t_end=1.0)),
    ("burgers_shock", ["--cells", "40", "--t-end", "0.1"],
     lambda: benchmarks.burgers_riemann(n_cells=40, t_end=0.1)),
])
def test_run_csv_rows_are_crlf_17_digit_and_the_trajectory_is_bitwise(tmp_path, preset, flags,
                                                                     factory):
    out = tmp_path / "run"
    assert main(["run", "--preset", preset, "--mode", "multi", *flags, "--out-dir", str(out)]) == 0
    written = [p.name for p in out.glob("*.csv")]
    assert {"trajectory.csv", "trace.csv", "spacetime.csv"} <= set(written)
    for name in written:
        assert_crlf_and_17_digit_floats(out / name)
    with open(out / "trajectory.csv", newline="") as fh:
        cells = [[float(c) for c in row] for row in list(csv.reader(fh))[1:]]
    p = factory()
    traj, _ = integrate(p.problem, p.t0, p.t_end, p.y0, p.config)
    assert np.array(cells).tobytes() == np.column_stack([traj.times, traj.states]).tobytes()


def test_stability_csv_rows_are_crlf_17_digit(tmp_path):
    out = tmp_path / "st"
    assert main(["stability", "--system", "sys2", "--points", "7", "--out-dir", str(out)]) == 0
    assert_crlf_and_17_digit_floats(out / "amplification.csv")


def test_run_single_mode(tmp_path):
    out = tmp_path / "sr"
    rc = main(["run", "--preset", "reaction_diffusion", "--mode", "single",
               "--cells", "30", "--t-end", "0.2", "--out-dir", str(out)])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    m = summary["metrics"]
    assert m["accepted_micro_steps"] == 0
    assert m["workload"] == 30 * m["accepted_macro_steps"]


def test_run_linear_interpolant(tmp_path):
    out = tmp_path / "lin"
    rc = main(["run", "--preset", "advection", "--cells", "40", "--t-end", "0.2",
               "--interp", "linear", "--out-dir", str(out)])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["interpolant"] == "linear"


def test_run_bad_preset_exits_2(capsys):
    assert main(["run", "--preset", "nonsense", "--out-dir", "/tmp/x"]) == 2


def test_run_integration_failure_exits_3(tmp_path, capsys):
    rc = main([
        "run", "--preset", "advection", "--cells", "16", "--t-end", "0.5",
        "--tol-abs", "1e-290", "--tol-rel", "0", "--out-dir", str(tmp_path / "f"),
    ])
    assert rc == 3


def test_stability_sys1(tmp_path):
    out = tmp_path / "st"
    rc = main(["stability", "--system", "sys1", "--kind", "both",
               "--out-dir", str(out)])
    assert rc == 0
    rows = read_csv(out / "amplification.csv")
    assert len(rows) == 120  # 60 grid points x 2 kinds
    assert all(float(r["spectral_radius"]) <= 1.0 + 1e-8 for r in rows)


def test_stability_zero_matrix_file(tmp_path):
    mfile = tmp_path / "zero.csv"
    np.savetxt(mfile, np.zeros((3, 3)), delimiter=",")
    out = tmp_path / "st0"
    rc = main(["stability", "--matrix-file", str(mfile), "--active", "1",
               "--points", "5", "--kind", "linear", "--out-dir", str(out)])
    assert rc == 0
    for row in read_csv(out / "amplification.csv"):
        for col in ("norm1", "norm2", "norminf", "spectral_radius"):
            assert float(row[col]) == pytest.approx(1.0, abs=1e-12)


def test_stability_full_active_matches_two_half_steps(tmp_path):
    rng = np.random.default_rng(31)
    a = rng.normal(size=(5, 5))
    mfile = tmp_path / "m.csv"
    np.savetxt(mfile, a, delimiter=",")
    out = tmp_path / "stf"
    rc = main(["stability", "--matrix-file", str(mfile), "--active", "0,1,2,3,4",
               "--points", "7", "--kind", "hermite", "--out-dir", str(out)])
    assert rc == 0
    lam = spectral_radius(a)
    for row in read_csv(out / "amplification.csv"):
        h = float(row["rescaled_h"]) / lam
        r_half = single_rate_amplification(a, h / 2.0)
        expected = r_half @ r_half
        assert float(row["norm2"]) == pytest.approx(matrix_norm(expected, "two"), abs=1e-10)
        assert float(row["norminf"]) == pytest.approx(matrix_norm(expected, "inf"), abs=1e-10)


def test_stability_missing_system_exits_2():
    assert main(["stability", "--out-dir", "/tmp/y"]) == 2


@pytest.mark.parametrize("flags", [
    ["--points", "0"],
    ["--smin", "-1"],
    ["--smax", "0"],
    ["--smax", "inf"],
])
def test_stability_bad_grid_exits_2_and_writes_nothing(tmp_path, flags):
    out = tmp_path / "bad"
    assert main(["stability", "--system", "sys1", *flags, "--out-dir", str(out)]) == 2
    assert not out.exists()


def test_stability_non_square_matrix_file_exits_2_and_writes_nothing(tmp_path):
    mfile = tmp_path / "rect.csv"
    np.savetxt(mfile, np.ones((2, 3)), delimiter=",")
    out = tmp_path / "bad"
    assert main(["stability", "--matrix-file", str(mfile), "--active", "1",
                 "--out-dir", str(out)]) == 2
    assert not out.exists()


def test_stability_deterministic(tmp_path):
    argv = ["stability", "--system", "heat40", "--kind", "both", "--points", "23"]
    assert main(argv + ["--out-dir", str(tmp_path / "a")]) == 0
    assert main(argv + ["--out-dir", str(tmp_path / "b")]) == 0
    first = (tmp_path / "a" / "amplification.csv").read_bytes()
    assert len(read_csv(tmp_path / "a" / "amplification.csv")) == 46
    assert first == (tmp_path / "b" / "amplification.csv").read_bytes()


def test_compare_emits_rows(tmp_path):
    out = tmp_path / "cmp"
    flags = ["--preset", "reaction_diffusion", "--cells", "24", "--t-end", "0.3"]
    rc = main(["compare", *flags, "--tols", "1e-3,1e-4", "--out-dir", str(out)])
    assert rc == 0
    rows = read_csv(out / "compare.csv")
    assert len(rows) == 4  # two tolerances x two modes
    assert {r["mode"] for r in rows} == {"single", "multi"}
    for r in rows:
        assert float(r["workload"]) > 0
        assert float(r["error_vs_reference"]) >= 0.0
    assert_crlf_and_17_digit_floats(out / "compare.csv")
    # The counts are those of the same run's summary.json.
    preset = _build_preset(build_parser().parse_args(["run", *flags]))
    base = preset.config.tolerances
    cfg = replace(preset.config, tolerances=ToleranceSpec(base.tau_r * (1e-4 / base.tau_a), 1e-4))
    attempts = {}
    for mode, driver in (("single", integrate_single_rate), ("multi", integrate)):
        _, trace = driver(preset.problem, preset.t0, preset.t_end, preset.y0, cfg)
        s = trace.summary()
        (row,) = [r for r in rows if r["mode"] == mode and float(r["tolerance"]) == 1e-4]
        attempts[mode] = (int(row["macro_attempts"]), int(row["micro_attempts"]))
        assert attempts[mode] == (s["accepted_macro_steps"] + s["rejected_macro_steps"],
                                  s["accepted_micro_steps"] + s["rejected_micro_steps"])
        assert int(row["scalar_evals"]) == s["scalar_function_evaluations"]
        assert int(row["effective_scalar_evals"]) == s["rhs_calls"] * preset.problem.m
        assert int(row["total_steps"]) == s["total_accepted_steps"]
        assert int(row["rejected_steps"]) == s["rejected_macro_steps"] + s["rejected_micro_steps"] > 0
        assert int(row["newton_iterations"]) == s["newton_iterations"] > 0
        assert int(row["jacobian_evaluations"]) == s["jacobian_evaluations"] > 0
        assert int(row["stale_jacobian_retries"]) == s["stale_jacobian_retries"]
        causes = {c: int(row[f"rejected_{c}"]) for c in REJECTION_CAUSES}
        assert causes == s["rejection_causes"]
        assert sum(causes.values()) == int(row["rejected_steps"])
    # r* = (N_single − N_macro)/N_micro on multirate rows only
    (n_single, _), (n_macro, n_micro) = attempts["single"], attempts["multi"]
    assert n_micro > 0
    for r in rows:
        if r["mode"] == "single":
            assert r["break_even_r"] == ""
        elif float(r["tolerance"]) == 1e-4:
            assert r["break_even_r"] == format((n_single - n_macro) / n_micro, ".17g")


def test_compare_leaves_break_even_r_empty_without_micro_attempts(tmp_path):
    out = tmp_path / "cmp"
    rc = main(["compare", "--preset", "reaction_diffusion", "--cells", "12", "--t-end", "0.05",
               "--delta", "1", "--tols", "1e-4", "--out-dir", str(out)])
    assert rc == 0
    rows = {r["mode"]: r for r in read_csv(out / "compare.csv")}
    assert rows["multi"]["micro_attempts"] == "0"
    assert rows["multi"]["break_even_r"] == rows["single"]["break_even_r"] == ""


def test_compare_empty_tolerances_exits_2():
    assert main(["compare", "--preset", "advection", "--tols", "", "--out-dir", "/tmp/z"]) == 2


@pytest.mark.parametrize("argv", [
    ["compare", "--tols", "0"],
    ["compare", "--tols=1e-5,0"],
    ["compare", "--tols", "nan"],
    ["run", "--tol-abs", "nan"],
    ["run", "--tol-abs", "inf"],
    ["run", "--tol-rel", "nan"],
    ["run", "--tol-rel", "-1"],
])
def test_bad_tolerance_exits_2_and_writes_nothing(tmp_path, capsys, argv):
    out = tmp_path / "bad"
    preset = ["--preset", "reaction_diffusion", "--cells", "12", "--t-end", "0.05"]
    assert main(argv[:1] + preset + argv[1:] + ["--out-dir", str(out)]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [["run"], ["compare", "--tols", "1e-4"]], ids=["run", "compare"])
@pytest.mark.parametrize("t_end", ["nan", "inf", "0", "-1"])
def test_bad_t_end_exits_2_and_writes_nothing(tmp_path, capsys, command, t_end):
    out = tmp_path / "bad"
    argv = command + ["--preset", "reaction_diffusion", "--cells", "12",
                      "--t-end", t_end, "--out-dir", str(out)]
    assert main(argv) == 2
    assert "--t-end must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_compare_inverter_multirate_wins(tmp_path):
    out = tmp_path / "inv"
    rc = main(["compare", "--preset", "inverter_chain", "--m", "20", "--t-end", "8.0",
               "--tols", "1e-5", "--out-dir", str(out)])
    assert rc == 0
    rows = {r["mode"]: r for r in read_csv(out / "compare.csv")}
    assert float(rows["multi"]["workload"]) < float(rows["single"]["workload"])


def test_compare_reaction_diffusion_error_tracks_tolerance(tmp_path):
    out = tmp_path / "rd"
    rc = main(["compare", "--preset", "reaction_diffusion", "--cells", "30",
               "--t-end", "0.5", "--tols", "1e-3,1e-4,1e-5", "--out-dir", str(out)])
    assert rc == 0
    rows = read_csv(out / "compare.csv")
    for mode in ("single", "multi"):
        errs = [float(r["error_vs_reference"]) for r in rows if r["mode"] == mode]
        # tighter tolerances never make things an order of magnitude worse,
        # and the tightest run beats the loosest outright
        assert all(b <= 10.0 * a for a, b in zip(errs, errs[1:]))
        assert errs[-1] < errs[0]


def test_config_file_expansion(tmp_path):
    cfgfile = tmp_path / "flags.cfg"
    cfgfile.write_text("preset = advection\ncells = 40\nt_end = 0.2\n")
    out = tmp_path / "cfgrun"
    rc = main(["run", "--config", str(cfgfile), "--out-dir", str(out)])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["preset"] == "advection"
    assert summary["config"]["preset_params"]["n_cells"] == 40


# Every spelling of --config that argparse accepts: a separate or an attached
# value, after the full flag or an unambiguous prefix of it.
CONFIG_SPELLINGS = {
    "separate": lambda path: ["--config", path],
    "attached": lambda path: [f"--config={path}"],
    "prefix": lambda path: ["--conf", path],
    "prefix-attached": lambda path: [f"--conf={path}"],
}
# Per command: a valid invocation, and a config line it must reject.
CONFIG_COMMANDS = {
    "run": (["run", "--preset", "reaction_diffusion", "--cells", "12", "--t-end", "0.05"],
            "tol_abs = nan\n"),
    "stability": (["stability", "--system", "sys1"], "points = 0\n"),
}


@pytest.mark.parametrize("spelling", CONFIG_SPELLINGS)
@pytest.mark.parametrize("command", CONFIG_COMMANDS)
@pytest.mark.parametrize("content", ["bad", "undecodable", "missing"])
def test_unusable_config_file_exits_2_in_every_spelling(tmp_path, capsys, command,
                                                       spelling, content):
    argv, bad_line = CONFIG_COMMANDS[command]
    cfgfile = tmp_path / "flags.cfg"
    if content == "bad":
        cfgfile.write_text(bad_line)
    elif content == "undecodable":
        cfgfile.write_bytes(b"points = \xff\n")
    out = tmp_path / "out"
    assert main(argv + CONFIG_SPELLINGS[spelling](str(cfgfile)) + ["--out-dir", str(out)]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("spelling", CONFIG_SPELLINGS)
def test_run_config_file_is_read_in_every_spelling_and_the_command_line_wins(tmp_path, spelling):
    cfgfile = tmp_path / "flags.cfg"
    cfgfile.write_text("preset = reaction_diffusion\ncells = 12\nt_end = 0.02\n")
    out = tmp_path / "out"
    argv = ["run", "--cells", "10", *CONFIG_SPELLINGS[spelling](str(cfgfile)), "--out-dir", str(out)]
    assert main(argv) == 0
    config = json.loads((out / "summary.json").read_text())["config"]
    assert config["preset"] == "reaction_diffusion"
    assert config["t_end"] == 0.02
    assert config["preset_params"]["n_cells"] == 10


@pytest.mark.parametrize("spelling", CONFIG_SPELLINGS)
def test_stability_config_file_is_read_in_every_spelling_and_the_command_line_wins(tmp_path,
                                                                                 spelling):
    cfgfile = tmp_path / "flags.cfg"
    cfgfile.write_text("system = sys1\nkind = linear\npoints = 3\n")
    out = tmp_path / "out"
    argv = ["stability", "--points", "4", *CONFIG_SPELLINGS[spelling](str(cfgfile)),
            "--out-dir", str(out)]
    assert main(argv) == 0
    rows = read_csv(out / "amplification.csv")
    assert len(rows) == 4
    assert {r["kind"] for r in rows} == {"linear"}


def test_run_without_preset_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--out-dir", str(out)]) == 2
    assert "--preset is required" in capsys.readouterr().err
    assert not out.exists()


def _python(code: str) -> dict:
    """Run ``code`` in a fresh interpreter that imports this package, and
    return the JSON object its last output line holds."""
    src = str(Path(mrtrbdf2.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_cli_import_and_commands_leave_scipy_linalg_integrate_and_sparse_unloaded(tmp_path):
    # Only reference runs need scipy.integrate and scipy.sparse, and LAPACK
    # comes from scipy.linalg._flapack without the scipy.linalg package:
    # importing any of the three adds to the start-up time of every command.
    code = f"""
import json, sys
import mrtrbdf2.cli
heavy = ("scipy.linalg", "scipy.integrate", "scipy.sparse")
loaded = {{"import": [m for m in heavy if m in sys.modules]}}
rc = mrtrbdf2.cli.main(["run", "--preset", "inverter_chain", "--m", "8", "--t-end", "0.5",
                        "--out-dir", {str(tmp_path / "run")!r}])
loaded["run"] = [m for m in heavy if m in sys.modules]
rc += mrtrbdf2.cli.main(["stability", "--system", "sys1", "--points", "4",
                         "--out-dir", {str(tmp_path / "stability")!r}])
loaded["stability"] = [m for m in heavy if m in sys.modules]
print(json.dumps({{"rc": rc, **loaded}}))
"""
    assert _python(code) == {"rc": 0, "import": [], "run": [], "stability": []}


LAPACK_ROUTINES = ("dgetrf", "dgetrs", "dgbtrf", "dgbtrs", "dgttrf", "dgttrs")
SHARED_LAPACK = f"""
import scipy.linalg.lapack
from mrtrbdf2 import dense_linalg
shared = all(getattr(dense_linalg, name) is getattr(scipy.linalg.lapack, name)
             for name in {LAPACK_ROUTINES!r})
"""


def test_lapack_routines_are_scipys_when_scipy_linalg_is_imported_first():
    code = "import json, sys, scipy.linalg\n" + SHARED_LAPACK + "print(json.dumps(shared))\n"
    assert _python(code) is True


def test_lapack_routines_are_scipys_when_mrtrbdf2_is_imported_first():
    """The extension module registered at import is the one SciPy then uses:
    a Radau reference run and a SciPy dense solve work on it."""
    code = """
import json, sys
import numpy as np
from mrtrbdf2 import benchmarks, dense_linalg, integrate_single_rate
flapack = sys.modules["scipy.linalg._flapack"]
before = "scipy.linalg" in sys.modules
preset = benchmarks.inverter_chain(m=8, t_end=0.5)
ref = preset.reference_states([0.5])[0.5]
traj, _ = integrate_single_rate(preset.problem, preset.t0, preset.t_end, preset.y0, preset.config)
""" + SHARED_LAPACK + """
a = np.array([[4.0, 1.0], [2.0, 3.0]])
print(json.dumps({
    "scipy.linalg before": before,
    "shared": shared,
    "one module": scipy.linalg.lapack._flapack is flapack,
    "radau agrees": bool(np.max(np.abs(traj.states[-1] - ref)) < 1e-2),
    "solve": bool(np.allclose(scipy.linalg.solve(a, [5.0, 5.0]), 1.0, rtol=0.0, atol=1e-15)),
}))
"""
    assert _python(code) == {"scipy.linalg before": False, "shared": True, "one module": True,
                             "radau agrees": True, "solve": True}


def test_lapack_module_falls_back_to_scipy_linalg_lapack_without_the_file(monkeypatch, tmp_path):
    import scipy.linalg.lapack

    monkeypatch.delitem(sys.modules, dense_linalg._FLAPACK)
    (tmp_path / "linalg").mkdir()
    assert dense_linalg._lapack_module([str(tmp_path)]) is scipy.linalg.lapack
    assert dense_linalg._FLAPACK not in sys.modules


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize("preset,flag,value", [
    ("inverter_chain", "--tol-rel", "0.5"),
    ("inverter_chain", "--cells", "7"),
    ("inverter_chain", "--ul", "3"),
    ("inverter_chain", "--ur", "3"),
    ("reaction_diffusion", "--m", "20"),
    ("advection", "--ul", "0.5"),
    ("burgers_shock", "--m", "20"),
])
def test_unsupported_preset_flag_exits_2_and_writes_nothing(tmp_path, capsys, command, preset, flag, value):
    out = tmp_path / "bad"
    argv = [command, "--preset", preset, flag, value, "--t-end", "0.05", "--out-dir", str(out)]
    if command == "compare":
        argv += ["--tols", "1e-4"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and flag in err
    assert not out.exists()


@pytest.mark.parametrize("preset", PRESETS)
def test_preset_flags_reach_the_factory(preset):
    factory = {"inverter_chain": benchmarks.inverter_chain,
               "reaction_diffusion": benchmarks.reaction_diffusion,
               "advection": benchmarks.linear_advection}.get(preset, benchmarks.burgers_riemann)
    fixed = {"u_left": 0.0, "u_right": 1.0} if preset == "burgers_rarefaction" else {}
    default = _build_preset(build_parser().parse_args(["run", "--preset", preset]))
    assert default.params == factory(**fixed).params
    if preset == "inverter_chain":
        flags, kw = ["--m", "7", "--tol-abs", "1e-4"], {"m": 7, "tol_abs": 1e-4}
    else:
        flags, kw = ["--cells", "12", "--tol-abs", "1e-4", "--tol-rel", "1e-3"], {
            "n_cells": 12, "tol_abs": 1e-4, "tol_rel": 1e-3}
        if preset.startswith("burgers"):
            flags += ["--ul", "0.25"]
            kw["u_left"] = 0.25
    got = _build_preset(build_parser().parse_args(["run", "--preset", preset, "--t-end", "0.5", *flags]))
    want = factory(**{**fixed, **kw, "t_end": 0.5})
    assert got.params == want.params
    assert got.t_end == 0.5
    assert got.config.tolerances == want.config.tolerances
