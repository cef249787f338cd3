"""Tests of the benchmark's own logic: self-time arithmetic, the stability
reference, failure counting, seeded inputs and hook robustness."""

import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

import checks
import refkernel
import tracing
import worker
import workloads
from mrtrbdf2 import benchmarks, cli
from mrtrbdf2.ode_problem import ActivePartition
from mrtrbdf2.stability import (StabilitySetup, model_system, multirate_amplification,
                                single_rate_amplification)
from mrtrbdf2.trbdf2 import stability_function


def _span(tr, name, parent, start, end):
    tr.name.append(tr.intern(name))
    tr.parent.append(parent)
    tr.start.append(start)
    tr.end.append(end)
    tr.size.append(0.0)
    return len(tr.start) - 1


def test_self_time_subtracts_direct_children_only():
    tr = tracing.Tracer()
    root = _span(tr, "cli", tracing.ROOT, 0.0, 10.0)
    a = _span(tr, "integrator", root, 1.0, 5.0)
    _span(tr, "dense_linalg.lu_factor", a, 2.0, 3.0)
    _span(tr, "dense_linalg.lu_factor", a, 3.5, 4.0)
    _span(tr, "controller", root, 6.0, 9.0)
    _span(tr, "cli", tracing.ROOT, 11.0, 12.0)

    assert tr.self_times().tolist() == [3.0, 2.5, 1.0, 0.5, 3.0, 1.0]
    by_name = tr.by_name()
    assert by_name["cli"][:2] == (2, 4.0)
    assert by_name["dense_linalg.lu_factor"][:2] == (2, 1.5)
    assert tr.root_time() == 11.0
    # self times partition the root spans exactly
    assert sum(v[1] for v in by_name.values()) == tr.root_time()


def test_wrapped_calls_nest_and_record_sizes():
    tr = tracing.Tracer()
    inner = tr.wrap(lambda n: np.zeros(n), "inner", size_of=lambda a, k, r: float(r.size))
    outer = tr.wrap(lambda n: (inner(n), inner(2 * n)), "outer")
    outer(3)
    assert [tr.names[i] for i in tr.name] == ["outer", "inner", "inner"]
    assert list(tr.parent) == [tracing.ROOT, 0, 0]
    assert list(tr.size) == [0.0, 3.0, 6.0]


def test_closed_form_stability_function_matches_the_package():
    for z in (-1e3, -1.0, -0.1 + 2.0j, 0.5j, 1e-3):
        assert checks.stability_function(np.array(z)) == pytest.approx(stability_function(z), rel=1e-14)


def test_spectral_identity_on_a_2x2_case():
    # eigenvalues -1 and -1000: rho(R(hA)) = max |R(h lambda)|
    a = np.array([[-1.0, 1.0], [0.0, -1000.0]])
    eigs = np.linalg.eigvals(a)
    for s in (1e-3, 0.7, 30.0):
        rho = float(np.max(np.abs(np.linalg.eigvals(single_rate_amplification(a, s / 1000.0)))))
        assert checks.single_rate_radius(eigs, s) == pytest.approx(rho, rel=1e-12)


@pytest.mark.parametrize("kind", ["linear", "hermite"])
def test_numpy_multirate_matrix_matches_the_package(kind):
    rng = np.random.default_rng(5)
    a = rng.normal(size=(5, 5)) - 4.0 * np.eye(5)
    active = np.array([1, 3])
    for h in (0.01, 0.3, 7.0):
        z = h * a
        r = np.linalg.solve(checks._poly(checks._DENOMINATOR, z), checks._poly(checks._NUMERATOR, z))
        ours = checks.multirate_matrix(z, r, active, kind)
        theirs = multirate_amplification(StabilitySetup(a, h, ActivePartition(5, active), kind))
        assert ours == pytest.approx(theirs, rel=1e-10, abs=1e-12)


def _write_amplification(path, expected):
    cols = list(expected)
    with (path / "amplification.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(cols)
        w.writerows(zip(*(expected[c].tolist() for c in cols)))


def test_stability_check_flags_a_wrong_column(tmp_path):
    a, partition = model_system("sys1")
    expected = checks.stability_reference(a, partition.indices, np.array([0.1, 10.0]))
    assert list(expected["kind"]) == ["linear", "hermite"] * 2
    _write_amplification(tmp_path, expected)
    dev, problem = checks.check_stability(tmp_path, expected)
    assert problem is None and dev == 0.0
    for col in ("norm2", "spectral_radius", "single_rate_norm1", "single_rate_spectral_radius"):
        wrong = {k: v.copy() for k, v in expected.items()}
        wrong[col][3] *= 1.01
        _write_amplification(tmp_path, wrong)
        assert col in checks.check_stability(tmp_path, expected)[1]
    fewer = {k: v[:3] for k, v in expected.items()}
    _write_amplification(tmp_path, fewer)
    assert "rows" in checks.check_stability(tmp_path, expected)[1]


def test_failure_reasons():
    h = {"trajectory.csv": "aa"}
    assert worker.failure_reason(0, None, None, h, None) is None
    assert worker.failure_reason(0, None, None, h, dict(h)) is None
    assert worker.failure_reason(None, "ValueError: x", None, {}, None).startswith("exception")
    assert worker.failure_reason(3, None, None, {}, None) == "exit code 3"
    assert worker.failure_reason(0, None, "too far", h, None).startswith("wrong answer")
    assert "trajectory.csv" in worker.failure_reason(0, None, None, {"trajectory.csv": "bb"}, h)


def test_failures_are_counted_per_invocation(tmp_path):
    session = worker.Session("stability", 0, out_root=tmp_path)
    session.argvs = session.argvs[:1]
    session.checks = checks
    session._check = lambda i, out_dir, record: None
    out_dir = tmp_path / "stability" / "sys1"
    outcomes = iter(["ok", "changed", "raise", "exit"])

    def fake_main(argv):
        what = next(outcomes)
        if what == "raise":
            raise RuntimeError("boom")
        (out_dir / "amplification.csv").write_text("x\n" if what == "ok" else "y\n")
        return 3 if what == "exit" else 0

    for _ in range(4):
        session.run_pass(fake_main)
    reasons = [c["failure"] for c in session.calls]
    assert reasons[0] is None
    assert "differ" in reasons[1]
    assert reasons[2] == "exception: RuntimeError: boom"
    assert reasons[3] == "exit code 3"
    assert sum(1 for r in reasons if r) == 3


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_zero_runs_the_default_presets(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    for argv in workloads.pass_argvs(wl, 0, tmp_path):
        assert not {"--t-end", "--ul", "--smin", "--smax"} & set(argv)
        args = cli.build_parser().parse_args(argv)
        assert args.out_dir.startswith(str(tmp_path))
    if wl.preset is not None:
        default = {"inverter_chain": benchmarks.inverter_chain,
                   "burgers_shock": benchmarks.burgers_riemann}[wl.preset]()
        assert checks.preset_for(wl.preset, 0).params == default.params


def test_jitter_is_seeded_small_and_around_the_cli_defaults():
    parsed = cli.build_parser().parse_args(["stability"])
    defaults = {
        "inverter_chain": {"--t-end": benchmarks.inverter_chain().t_end},
        "burgers_shock": {"--t-end": benchmarks.burgers_riemann().t_end,
                          "--ul": benchmarks.burgers_riemann().params["u_left"]},
        "stability": {"--smin": parsed.smin, "--smax": parsed.smax},
    }
    assert workloads.DEFAULTS == defaults
    for key, base in defaults.items():
        one = workloads.seeded_inputs(key, 7)
        assert one == workloads.seeded_inputs(key, 7) != workloads.seeded_inputs(key, 8)
        for flag, value in one.items():
            assert abs(value / base[flag] - 1.0) <= workloads.JITTER


def test_missing_hook_reads_null_without_breaking_other_layers(monkeypatch):
    import mrtrbdf2.trbdf2

    monkeypatch.delattr(mrtrbdf2.trbdf2, "lu_factor")
    tr = tracing.Tracer()
    hooks = tracing.Hooks(tr)
    hooks.install()
    try:
        assert "mrtrbdf2.trbdf2.lu_factor" in tr.missing["dense_linalg.lu_factor"]
        assert hasattr(cli.integrate, "__wrapped__")
    finally:
        hooks.uninstall()
    assert not hasattr(cli.integrate, "__wrapped__")
    metrics = tracing.layer_metrics(tr, 1.0, 1.0)
    assert set(metrics) == set(tracing.UNITS)
    for key in ("calls", "self_s", "mean_n", "flops_computed", "bytes_computed"):
        assert metrics[f"dense_linalg.lu_factor.{key}"] is None
    assert metrics["dense_linalg.lu_solve.calls"] == 0
    assert metrics["tracing_overhead_s"] == 0.0
    assert not any(isinstance(v, float) and math.isnan(v) for v in metrics.values())


def test_benchmark_json_lists_the_workloads_and_metrics_run_py_prints():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.LAYER_METRICS
    import run

    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS


def test_slowness_is_the_mean_slice_time_over_nominal():
    nominal = refkernel.NOMINAL_S
    assert refkernel.slowness([nominal, 3.0 * nominal]) == pytest.approx(2.0)


def test_sampler_times_slices_while_active_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    sampler = refkernel.Sampler()
    t0 = time.perf_counter()
    with sampler:
        while time.perf_counter() - t0 < 3 * refkernel.PERIOD_S:
            pass
    assert len(sampler.samples) >= 2
    assert sampler.taken == pytest.approx(sum(sampler.samples))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
