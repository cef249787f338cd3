import csv
import json

import numpy as np
import pytest

from mrtrbdf2 import benchmarks
from mrtrbdf2.cli import PRESETS, _build_preset, build_parser, main
from mrtrbdf2.dense_linalg import matrix_norm, spectral_radius
from mrtrbdf2.stability import single_rate_amplification


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


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
                "scalar_function_evaluations", "wall_time_s"):
        assert key in metrics
    # workload equals the component-step pairs of the space-time diagram
    st = read_csv(out / "spacetime.csv")
    counted = sum(len(row["active"].split()) for row in st)
    assert counted == metrics["workload"]
    # every csv row carries a header and floats round-trip at 17 digits
    traj = read_csv(out / "trajectory.csv")
    assert traj and "t" in traj[0]


def test_run_deterministic(tmp_path):
    args = ["run", "--preset", "burgers", "--mode", "multi", "--cells", "40",
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
    rc = main(["compare", "--preset", "reaction_diffusion", "--cells", "24",
               "--t-end", "0.3", "--tols", "1e-3,1e-4", "--out-dir", str(out)])
    assert rc == 0
    rows = read_csv(out / "compare.csv")
    assert len(rows) == 4  # two tolerances x two modes
    assert {r["mode"] for r in rows} == {"single", "multi"}
    for r in rows:
        assert float(r["workload"]) > 0
        assert float(r["error_vs_reference"]) >= 0.0


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
