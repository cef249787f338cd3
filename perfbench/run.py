"""Benchmark entry point: time-to-solution and accuracy of mrtrbdf2 through its CLI.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  One closed-loop client runs the
workload's CLI invocations in a worker process, one at a time, for about
``--seconds`` seconds; every call's outputs are checked against an
independent reference and its CSV artifacts hashed.  The last stdout line is
one JSON object: with ``--trace 0`` the end-to-end metrics, with ``--trace 1``
the per-layer metrics of one traced pass.  See README.md for the metrics.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

from workloads import WORKLOADS, seeded_inputs

# BLAS threads of this process and the worker.  One thread: the matrices are
# at most 400x400, and a single-threaded run is the steady baseline on a small
# shared machine.
BLAS_THREADS = 1

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Fresh interpreters timed for setup_s.  Their time counts towards --seconds;
# the worker's passes get the rest.
SETUP_PROBES = 7
# Reference-kernel slices before the first probe and after each (about 0.3 s).
SETUP_SLICES = 12
# Everything a run starts must end within this many seconds.
RUN_DEADLINE_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def _git(*args: str) -> Optional[str]:
    # The ceiling keeps git from reading a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model() -> Optional[str]:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas_version(module) -> Optional[str]:
    try:
        return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (AttributeError, KeyError, TypeError):
        return None


def environment() -> dict:
    import numpy
    import scipy

    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if sha else None
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": _blas_version(numpy),
        "openblas_scipy": _blas_version(scipy),
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
    }


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            raise TimeoutError("benchmark run exceeded its deadline")
        return left


def _worker(args: List[str], deadline: Deadline) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, text=True, timeout=deadline.left())
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.rstrip().rsplit("\n", 1)[-1])


def _quartiles(values: List[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.4f}"
    q = statistics.quantiles(values, n=4)
    return f"q1 {q[0]:.4f}, q3 {q[2]:.4f}"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mrtrbdf2" / "__init__.py").is_file():
        print(f"error: no mrtrbdf2 source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    deadline = Deadline(RUN_DEADLINE_S)
    # Pinned before numpy loads, here and in every child.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import mrtrbdf2.cli  # noqa: F401  (fails early, and compiles the package once)
    import checks
    import refkernel

    workload = WORKLOADS[args.workload]
    env = environment()
    env["loadavg_start"] = os.getloadavg()
    if workload.preset is not None:  # computed or loaded outside every timed region
        checks.reference(workload.preset, args.seed)

    common = ["--workload", workload.name, "--seed", str(args.seed)]
    probes_start = time.monotonic()
    setups, setup_slices = [], [refkernel.run_slice() for _ in range(SETUP_SLICES)]
    for _ in range(SETUP_PROBES):
        setups.append(_worker([*common, "--setup-only"], deadline)["setup_s"])
        setup_slices += [refkernel.run_slice() for _ in range(SETUP_SLICES)]
    seconds = max(args.seconds - (time.monotonic() - probes_start), 0.0)
    result = _worker([*common, "--seconds", repr(seconds), "--trace", str(args.trace)],
                     deadline)
    env["loadavg_end"] = os.getloadavg()

    calls = result["calls"]
    failed = [c for c in calls if c["failure"]]
    walls = result["pass_walls"]
    # Each time is divided by how slow the machine ran while it was taken (see
    # refkernel.py).  The mean over passes, not the median: the slices of a
    # slow pass weigh in the slowness as much as the pass in the mean.
    slowness = {"setup": refkernel.slowness(setup_slices),
                "passes": refkernel.slowness(result["slices"])}
    e2e = {
        "wall_s": statistics.fmean(walls) / slowness["passes"],
        "setup_s": statistics.median(setups) / slowness["setup"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    errs = sorted({c["err"] for c in calls if "err" in c})
    print(f"workload {workload.name}, seed {args.seed}, inputs {seeded_inputs(workload.inputs_key, args.seed) or 'CLI defaults'}")
    print(f"  wall_s       {e2e['wall_s']:.4f} s    mean of {len(walls)} passes ({_quartiles(walls)}) "
          f"/ slowness {slowness['passes']:.3f}")
    print(f"  setup_s      {e2e['setup_s']:.4f} s    median of {len(setups)} fresh interpreters "
          f"({_quartiles(setups)}) / slowness {slowness['setup']:.3f}")
    print(f"  peak_rss_mb  {e2e['peak_rss_mb']:.1f} MiB")
    if errs:
        print(f"  err          {', '.join(f'{e:.3e}' for e in errs)}    relative max-norm vs independent reference")
    print(f"  fail_share   {len(failed)}/{len(calls)}")
    for c in failed:
        print(f"  FAILED {' '.join(c['argv'])}: {c['failure']}")
    for w in result.get("warnings", []):
        print(f"  warning: {w}", file=sys.stderr)
    detail = {"workload": workload.name, "seed": args.seed, "env": env, "setup_samples": setups,
              "setup_slices": setup_slices, "slowness": slowness,
              **{k: v for k, v in result.items() if k != "layers"}}
    print("detail " + json.dumps(detail))

    if args.trace:
        import tracing

        layers = result["layers"]
        metrics = {k: {"value": layers[k], "unit": tracing.UNITS[k]} for k, _, _ in tracing.LAYER_METRICS}
        print(f"  traced wall {result['traced_wall']:.4f} s, untraced median {statistics.median(walls):.4f} s")
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    print(json.dumps({"correct": not failed, "attempted": len(calls), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
