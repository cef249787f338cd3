"""The benchmark tracer finds every binding it hooks.

``perfbench/tracing.py`` wraps package functions by module attribute, and a
hook whose binding is gone is only warned about: the per-layer metrics it
feeds then read null.  These tests turn a rename that would blind those
metrics into a failure.  ``perfbench/`` is imported read-only.
"""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

from mrtrbdf2 import cli, trbdf2

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracing():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("tracing")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_step_takes_the_partition_fifth():
    # the tracer tells full from subsystem steps by positional argument 4
    assert list(inspect.signature(trbdf2.step).parameters).index("part") == 4


def test_every_hook_installs_and_every_layer_is_traced(tracing, tmp_path):
    tracer = tracing.Tracer()
    hooks = tracing.Hooks(tracer)
    hooks.install()
    try:
        assert tracer.missing == {}
        rc = cli.main(["run", "--preset", "inverter_chain", "--m", "20", "--t-end", "8",
                       "--mode", "multi", "--out-dir", str(tmp_path / "out")])
    finally:
        hooks.uninstall()
    assert rc == 0
    assert tracer.missing == {}
    stats = tracer.by_name()
    calls = {name: c for name, (c, _, _) in stats.items()}
    for name in ("integrator", "trbdf2.step_full", "trbdf2.step_sub",
                 "ode_problem.eval_subsystem_rhs", "ode_problem.subsystem_jacobian",
                 "benchmarks.rhs", "benchmarks.jacobian", "dense_linalg.lu_factor",
                 "dense_linalg.lu_solve", "interpolants.hermite_cubic", "controller"):
        assert calls.get(name, 0) > 0, name
    assert tracer.counts["trbdf2.newton_iters"] > 0
    # every rhs, Jacobian and factorization passes through a hooked binding: a
    # local alias in the step, the attempt loop or the Newton loop would hide
    # calls from it
    assert calls["ode_problem.eval_subsystem_rhs"] == calls["benchmarks.rhs"]
    assert calls["ode_problem.subsystem_jacobian"] == calls["benchmarks.jacobian"]
    assert calls["dense_linalg.lu_factor"] == calls["trbdf2.step_full"] + calls["trbdf2.step_sub"]
    # the Jacobian is carried across steps, not evaluated once per step
    steps = calls["trbdf2.step_full"] + calls["trbdf2.step_sub"]
    assert calls["benchmarks.jacobian"] <= 0.5 * steps
    assert tracer.counts["integrator.workload"] > 0
    # micro steps reconstruct only the latent halo, not all m = 20 components,
    hermite_calls, _, hermite_len = stats["interpolants.hermite_cubic"]
    assert hermite_len / hermite_calls < 20
    # and each of a step's three stage times at most once
    assert hermite_calls <= 3 * calls["trbdf2.step_sub"]
