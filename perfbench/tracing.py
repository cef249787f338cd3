"""Span tracing for the traced benchmark run, from outside the program.

Each hook wraps one public function of an mrtrbdf2 layer at the binding site
its caller uses: the modules import each other's functions by name, so
``mrtrbdf2.trbdf2.lu_factor`` is a different binding from
``mrtrbdf2.dense_linalg.lu_factor``.  ``trbdf2.step`` is called through the
module attribute and is wrapped there.

A span records its name, parent, start, end and a size (matrix order, active
count or vector length).  Spans are kept in memory in flat arrays and written
out when the run ends.  A span's self time is its duration minus the
durations of its children; spans nest on one thread, so children never
overlap.

A hook whose binding no longer exists (say ``lu_factor`` replaced by a solver
seam) is skipped with a warning, and every metric fed by it reads ``None``.
"""

from __future__ import annotations

import importlib
from array import array
from dataclasses import replace
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

ROOT = -1


class Tracer:
    """In-memory span store plus the exact counts read at the same boundaries."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.size = array("d")
        self.counts: Dict[str, float] = {}
        self.missing: Dict[str, str] = {}  # span or count name -> why it is unavailable
        self._stack = [ROOT]

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    def wrap(self, fn: Callable, name: str,
             name_of: Optional[Callable] = None,
             size_of: Optional[Callable] = None,
             on_result: Optional[Callable] = None,
             on_error: Optional[Callable] = None) -> Callable:
        """Return ``fn`` recording one span per call.

        ``name_of(args, kwargs)`` may pick another span name per call;
        ``size_of(args, kwargs, result)`` gives the span's size;
        ``on_result``/``on_error`` read counts off the result or exception.
        """
        default = self.intern(name)
        names, parents, starts, ends, sizes = self.name, self.parent, self.start, self.end, self.size
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(default if name_of is None else name_of(args, kwargs))
            parents.append(stack[-1])
            sizes.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[idx] = perf_counter()
                stack.pop()
                if on_error is not None:
                    on_error(exc)
                raise
            ends[idx] = perf_counter()
            stack.pop()
            if size_of is not None:
                sizes[idx] = size_of(args, kwargs, result)
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def self_times(self) -> np.ndarray:
        """Per-span duration minus the durations of its direct children."""
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
        return dur - covered

    def root_time(self) -> float:
        """Total duration of the spans without a parent."""
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        return float(np.sum(dur[np.frombuffer(self.parent, dtype=np.int32) == ROOT]))

    def by_name(self) -> Dict[str, Tuple[int, float, float]]:
        """name -> (calls, summed self time, summed size)."""
        name = np.frombuffer(self.name, dtype=np.int32)
        n = len(self.names)
        calls = np.bincount(name, minlength=n)
        self_s = np.bincount(name, weights=self.self_times(), minlength=n)
        size = np.bincount(name, weights=np.frombuffer(self.size, dtype=float), minlength=n)
        return {nm: (int(calls[i]), float(self_s[i]), float(size[i]))
                for i, nm in enumerate(self.names)}

    def size_cubes_squares(self, name: str) -> Tuple[float, float]:
        """Σ n³ and Σ n² over the spans called ``name``."""
        if name not in self._ids:
            return 0.0, 0.0
        sel = np.frombuffer(self.name, dtype=np.int32) == self._ids[name]
        n = np.frombuffer(self.size, dtype=float)[sel]
        return float(np.sum(n ** 3)), float(np.sum(n ** 2))

    def write(self, path: Path) -> None:
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=float),
                 end=np.frombuffer(self.end, dtype=float),
                 size=np.frombuffer(self.size, dtype=float))


# ---------------------------------------------------------------------------
# Hooks into mrtrbdf2
# ---------------------------------------------------------------------------

def _order(args, kwargs, result) -> float:
    return float(np.shape(args[0])[0])


def _rhs_order(args, kwargs, result) -> float:
    return float(np.shape(args[1])[0])


def _length(args, kwargs, result) -> float:
    return float(np.size(result))


class Hooks:
    """Installs the tracer's wrappers and restores the originals."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: List[Tuple[object, str, object]] = []

    def _hook(self, target: str, feeds: Sequence[str], make: Callable[[Callable], Callable]) -> None:
        module_name, _, attr = target.rpartition(".")
        try:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
        except (ImportError, AttributeError) as exc:
            why = f"hook {target} unavailable ({exc.__class__.__name__}: {exc})"
            for name in feeds:
                self.tracer.missing.setdefault(name, why)
            return
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def _guarded(self, feeds: Sequence[str], read: Callable) -> Callable:
        """Run ``read(value)``; on a missing attribute mark ``feeds`` unavailable."""
        tracer = self.tracer

        def guarded(value) -> None:
            try:
                read(value)
            except AttributeError as exc:
                for name in feeds:
                    tracer.missing.setdefault(name, f"count unreadable ({exc})")
        return guarded

    def install(self) -> None:
        t = self.tracer
        span = self._span

        # integrator: the CLI's bindings of the two drivers
        integ_counts = ("integrator.macro_accepted", "integrator.macro_rejected",
                        "integrator.micro_accepted", "integrator.micro_rejected",
                        "integrator.workload", "integrator.scalar_evals")

        def read_trace(result) -> None:
            trace = result[1]
            t.add("integrator.macro_accepted", trace.accepted_macro)
            t.add("integrator.macro_rejected", trace.rejected_macro)
            t.add("integrator.micro_accepted", trace.accepted_micro)
            t.add("integrator.micro_rejected", trace.rejected_micro)
            t.add("integrator.workload", trace.workload())
            t.add("integrator.scalar_evals", trace.scalar_evals)

        for target in ("mrtrbdf2.cli.integrate", "mrtrbdf2.cli.integrate_single_rate"):
            span(target, "integrator", feeds=("integrator", *integ_counts),
                 on_result=self._guarded(integ_counts, read_trace))

        # trbdf2: full or subsystem step, Newton iterations and failures
        full_id, sub_id = t.intern("trbdf2.step_full"), t.intern("trbdf2.step_sub")

        def step_kind(args, kwargs) -> int:
            part = kwargs.get("part", args[4] if len(args) > 4 else None)
            return full_id if part is None or part.is_full else sub_id

        def newton_iters(result) -> None:
            t.add("trbdf2.newton_iters", sum(result.newton_iterations))

        try:
            from mrtrbdf2.errors import NewtonDivergence as divergence
        except ImportError as exc:
            divergence = ()  # isinstance(x, ()) is always False
            t.missing["trbdf2.newton_failures"] = f"NewtonDivergence unavailable ({exc})"

        def newton_failure(exc) -> None:
            if isinstance(exc, divergence):
                t.add("trbdf2.newton_failures", 1)

        span("mrtrbdf2.trbdf2.step", "trbdf2.step_full",
             feeds=("trbdf2.step_full", "trbdf2.step_sub", "trbdf2.newton_iters",
                    "trbdf2.newton_failures"),
             name_of=step_kind,
             size_of=lambda a, k, r: float(np.size(r.u_next)),
             on_result=self._guarded(("trbdf2.newton_iters",), newton_iters),
             on_error=newton_failure)

        # ode_problem: subsystem rhs (scatter/gather) and Jacobian slicing
        span("mrtrbdf2.trbdf2.eval_subsystem_rhs", "ode_problem.eval_subsystem_rhs")
        span("mrtrbdf2.trbdf2.subsystem_jacobian", "ode_problem.subsystem_jacobian")

        # dense_linalg, at the bindings of both of its callers
        for caller in ("trbdf2", "stability"):
            span(f"mrtrbdf2.{caller}.lu_factor", "dense_linalg.lu_factor", size_of=_order)
            span(f"mrtrbdf2.{caller}.lu_solve", "dense_linalg.lu_solve", size_of=_rhs_order)
        span("mrtrbdf2.stability.matrix_norm", "dense_linalg.norms")
        span("mrtrbdf2.stability.spectral_radius", "dense_linalg.norms")

        # interpolants and controller, at the integrator's bindings
        span("mrtrbdf2.integrator.hermite_cubic", "interpolants.hermite_cubic", size_of=_length)
        for fn in ("normalized_errors", "accept_global", "select_active", "next_step_size"):
            span(f"mrtrbdf2.integrator.{fn}", "controller")

        # stability
        span("mrtrbdf2.cli.norm_sweep", "stability.norm_sweep")
        span("mrtrbdf2.stability.multirate_amplification", "stability.multirate_amplification")
        span("mrtrbdf2.stability.interpolation_matrix", "stability.interpolation_matrix")

        # benchmarks: the presets' rhs and Jacobian callables, wrapped as the
        # CLI builds each preset
        for factory in ("inverter_chain", "burgers_riemann"):
            self._hook(f"mrtrbdf2.benchmarks.{factory}",
                       ("benchmarks.rhs", "benchmarks.jacobian"),
                       self._wrap_factory)

    def _span(self, target: str, name: str, feeds: Sequence[str] = (), **kwargs) -> None:
        """Hook ``target`` with a span called ``name``; ``feeds`` names the
        spans and counts that read null when the hook is missing."""
        self._hook(target, feeds or (name,), lambda fn: self.tracer.wrap(fn, name, **kwargs))

    def _wrap_factory(self, factory: Callable) -> Callable:
        t = self.tracer

        def build(*args, **kwargs):
            preset = factory(*args, **kwargs)
            problem = preset.problem
            m = float(problem.m)
            rhs = t.wrap(problem.rhs, "benchmarks.rhs", size_of=lambda a, k, r: m)
            jac = t.wrap(problem.jacobian, "benchmarks.jacobian")
            preset.problem = replace(problem, rhs=rhs, jacobian=jac)
            return preset

        return build

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# (metric, unit, better) for every per-layer metric, in report order.
LAYER_METRICS: List[Tuple[str, str, str]] = [
    ("cli.self_s", "s", "lower"),
    ("cli.bytes_written", "bytes", "lower"),
    ("integrator.self_s", "s", "lower"),
    ("integrator.macro_accepted", "count", "lower"),
    ("integrator.macro_rejected", "count", "lower"),
    ("integrator.micro_accepted", "count", "lower"),
    ("integrator.micro_rejected", "count", "lower"),
    ("integrator.accept_ratio", "ratio", "higher"),
    ("integrator.workload", "count", "lower"),
    ("integrator.scalar_evals", "count", "lower"),
    ("integrator.rhs_width", "count", "lower"),
    ("integrator.useful_width_ratio", "ratio", "higher"),
    ("trbdf2.step_full.calls", "count", "lower"),
    ("trbdf2.step_full.self_s", "s", "lower"),
    ("trbdf2.step_sub.calls", "count", "lower"),
    ("trbdf2.step_sub.self_s", "s", "lower"),
    ("trbdf2.step_sub.mean_active", "components", "lower"),
    ("trbdf2.newton_iters", "count", "lower"),
    ("trbdf2.newton_failures", "count", "lower"),
    ("ode_problem.eval_subsystem_rhs.calls", "count", "lower"),
    ("ode_problem.eval_subsystem_rhs.self_s", "s", "lower"),
    ("ode_problem.subsystem_jacobian.calls", "count", "lower"),
    ("ode_problem.subsystem_jacobian.self_s", "s", "lower"),
    ("benchmarks.rhs.calls", "count", "lower"),
    ("benchmarks.rhs.self_s", "s", "lower"),
    ("benchmarks.jacobian.calls", "count", "lower"),
    ("benchmarks.jacobian.self_s", "s", "lower"),
    ("dense_linalg.lu_factor.calls", "count", "lower"),
    ("dense_linalg.lu_factor.self_s", "s", "lower"),
    ("dense_linalg.lu_factor.mean_n", "rows", "lower"),
    ("dense_linalg.lu_factor.flops_computed", "flop", "lower"),
    ("dense_linalg.lu_factor.bytes_computed", "bytes", "lower"),
    ("dense_linalg.lu_solve.calls", "count", "lower"),
    ("dense_linalg.lu_solve.self_s", "s", "lower"),
    ("dense_linalg.lu_solve.mean_n", "rows", "lower"),
    ("dense_linalg.norms.calls", "count", "lower"),
    ("dense_linalg.norms.self_s", "s", "lower"),
    ("interpolants.hermite_cubic.calls", "count", "lower"),
    ("interpolants.hermite_cubic.self_s", "s", "lower"),
    ("interpolants.hermite_cubic.mean_len", "components", "lower"),
    ("controller.calls", "count", "lower"),
    ("controller.self_s", "s", "lower"),
    ("stability.multirate_amplification.calls", "count", "lower"),
    ("stability.multirate_amplification.self_s", "s", "lower"),
    ("stability.interpolation_matrix.self_s", "s", "lower"),
    ("stability.norm_sweep.self_s", "s", "lower"),
    ("tracing_overhead_s", "s", "lower"),
    ("unaccounted_s", "s", "lower"),
]

UNITS = {name: unit for name, unit, _ in LAYER_METRICS}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float) -> Dict[str, Optional[float]]:
    """Every per-layer metric of one traced pass; ``None`` where a hook is missing.

    A layer that did not run on the workload reads 0 (0 calls, 0 s).
    """
    spans = tracer.by_name()
    counts = tracer.counts
    out: Dict[str, Optional[float]] = {}

    def calls(name: str) -> int:
        return spans.get(name, (0, 0.0, 0.0))[0]

    def self_s(name: str) -> float:
        return spans.get(name, (0, 0.0, 0.0))[1]

    def mean_size(name: str) -> float:
        c, _, size = spans.get(name, (0, 0.0, 0.0))
        return _ratio(size, c)

    def count(key: str) -> float:
        return int(counts.get(key, 0))

    out["cli.self_s"] = self_s("cli")
    out["cli.bytes_written"] = count("cli.bytes_written")
    out["integrator.self_s"] = self_s("integrator")
    for key in ("macro_accepted", "macro_rejected", "micro_accepted", "micro_rejected",
                "workload", "scalar_evals"):
        out[f"integrator.{key}"] = count(f"integrator.{key}")
    # each rhs call evaluates all m components; the span size holds m
    out["integrator.rhs_width"] = int(spans.get("benchmarks.rhs", (0, 0.0, 0.0))[2])
    accepted = out["integrator.macro_accepted"] + out["integrator.micro_accepted"]
    attempted = accepted + out["integrator.macro_rejected"] + out["integrator.micro_rejected"]
    out["integrator.accept_ratio"] = _ratio(accepted, attempted)
    out["integrator.useful_width_ratio"] = _ratio(out["integrator.scalar_evals"],
                                                  out["integrator.rhs_width"])
    for kind in ("step_full", "step_sub"):
        out[f"trbdf2.{kind}.calls"] = calls(f"trbdf2.{kind}")
        out[f"trbdf2.{kind}.self_s"] = self_s(f"trbdf2.{kind}")
    out["trbdf2.step_sub.mean_active"] = mean_size("trbdf2.step_sub")
    out["trbdf2.newton_iters"] = count("trbdf2.newton_iters")
    out["trbdf2.newton_failures"] = count("trbdf2.newton_failures")
    for name in ("ode_problem.eval_subsystem_rhs", "ode_problem.subsystem_jacobian",
                 "benchmarks.rhs", "benchmarks.jacobian", "dense_linalg.lu_factor",
                 "dense_linalg.lu_solve", "dense_linalg.norms", "interpolants.hermite_cubic",
                 "stability.multirate_amplification"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = self_s(name)
    out["dense_linalg.lu_factor.mean_n"] = mean_size("dense_linalg.lu_factor")
    cubes, squares = tracer.size_cubes_squares("dense_linalg.lu_factor")
    out["dense_linalg.lu_factor.flops_computed"] = 2.0 / 3.0 * cubes
    out["dense_linalg.lu_factor.bytes_computed"] = 8.0 * squares
    out["dense_linalg.lu_solve.mean_n"] = mean_size("dense_linalg.lu_solve")
    out["interpolants.hermite_cubic.mean_len"] = mean_size("interpolants.hermite_cubic")
    out["controller.calls"] = calls("controller")
    out["controller.self_s"] = self_s("controller")
    out["stability.interpolation_matrix.self_s"] = self_s("stability.interpolation_matrix")
    out["stability.norm_sweep.self_s"] = self_s("stability.norm_sweep")
    out["tracing_overhead_s"] = traced_wall - untraced_wall
    out["unaccounted_s"] = traced_wall - tracer.root_time()

    derived = {  # metrics computed from other spans or counts
        "integrator.accept_ratio": ("integrator.macro_accepted",),
        "integrator.rhs_width": ("benchmarks.rhs",),
        "integrator.useful_width_ratio": ("integrator.scalar_evals", "benchmarks.rhs"),
    }
    for metric in out:
        sources = derived.get(metric, (metric.rsplit(".", 1)[0], metric))
        if any(src in tracer.missing for src in sources):
            out[metric] = None
    return out
