"""Benchmark worker: one process driving one workload's passes in a closed loop.

run.py starts it with the BLAS thread pin and ``PYTHONPATH`` already set::

    python3 perfbench/worker.py --workload W --seed S --seconds N --trace 0|1
    python3 perfbench/worker.py --workload W --seed S --setup-only

and reads the JSON object on its last stdout line.  Set-up is timed from the
first line of this file, in a fresh interpreter, to ready: ``import
mrtrbdf2`` plus building the workload's inputs.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

from workloads import WORKLOADS, pass_argvs, stability_grid  # noqa: E402

HERE = Path(__file__).resolve().parent
WORK_DIR = HERE / "_work"

# Untraced passes per invocation, at least: a repeat of one seed lets its
# artifact hashes be compared.
MIN_PASSES = 2


def failure_reason(exit_code: Optional[int], error: Optional[str], problem: Optional[str],
                   hashes: Dict[str, str], first_hashes: Optional[Dict[str, str]]) -> Optional[str]:
    """Why one CLI invocation failed, or None: an exception, a non-zero exit
    code, a failed correctness check, or CSV artifacts that differ from the
    first pass of the same seed."""
    if error is not None:
        return f"exception: {error}"
    if exit_code != 0:
        return f"exit code {exit_code}"
    if problem is not None:
        return f"wrong answer: {problem}"
    if first_hashes is not None and hashes != first_hashes:
        changed = sorted(k for k in set(hashes) | set(first_hashes)
                         if hashes.get(k) != first_hashes.get(k))
        return f"artifacts differ between passes of one seed: {', '.join(changed)}"
    return None


class Session:
    """The workload's inputs, its references and every call's outcome."""

    def __init__(self, workload: str, seed: int, out_root: Path = WORK_DIR / "out"):
        import mrtrbdf2.cli

        self.workload = WORKLOADS[workload]
        self.main = mrtrbdf2.cli.main
        self.argvs = pass_argvs(self.workload, seed, out_root)
        for argv in self.argvs:
            Path(argv[-1]).mkdir(parents=True, exist_ok=True)
        self.seed = seed
        self.setup_s = time.perf_counter() - _T0
        self.calls: List[dict] = []
        self.first_hashes: Dict[int, Dict[str, str]] = {}

    def load_references(self) -> None:
        import checks

        self.checks = checks
        if self.workload.preset is not None:
            self.ref, self.t_end = checks.reference(self.workload.preset, self.seed)
        else:
            from mrtrbdf2.stability import model_system

            grid = stability_grid(self.seed)
            self.expected = []
            for argv in self.argvs:
                matrix, partition = model_system(argv[argv.index("--system") + 1])
                self.expected.append(checks.stability_reference(matrix, partition.indices, grid))

    def run_pass(self, main, on_bytes=None, sampler=None) -> float:
        """Run every invocation of one pass; returns the summed wall time.

        With a ``refkernel.Sampler``, kernel slices run during each
        invocation, and their time is taken out of the invocation's.
        """
        wall = 0.0
        for i, argv in enumerate(self.argvs):
            out_dir = Path(argv[-1])
            exit_code, error = None, None
            t0 = time.perf_counter()
            try:
                with sampler or contextlib.nullcontext():
                    exit_code = main(argv)
            except Exception as exc:  # any exception is a failed call, counted below
                error = f"{exc.__class__.__name__}: {exc}"
            dt = time.perf_counter() - t0 - (sampler.taken if sampler else 0.0)
            wall += dt
            record = {"argv": argv, "wall_s": dt, "exit_code": exit_code}
            problem, hashes = None, {}
            if error is None and exit_code == 0:
                problem = self._check(i, out_dir, record)
                hashes = self.checks.artifact_hashes(out_dir)
                # CSV only: summary.json holds a measured wall time of varying length
                written = sum(p.stat().st_size for p in out_dir.glob("*.csv"))
                if on_bytes is not None:
                    on_bytes(written)
            record["failure"] = failure_reason(exit_code, error, problem, hashes,
                                               self.first_hashes.get(i))
            if hashes and i not in self.first_hashes:
                self.first_hashes[i] = hashes
            self.calls.append(record)
        return wall

    def _check(self, i: int, out_dir: Path, record: dict) -> Optional[str]:
        try:
            if self.workload.preset is not None:
                record["err"], problem = self.checks.check_run(out_dir, self.ref, self.t_end)
                metrics = json.loads((out_dir / "summary.json").read_text())["metrics"]
                record["workload"] = metrics["workload"]
                return problem
            record["deviation"], problem = self.checks.check_stability(out_dir, self.expected[i])
            return problem
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            return f"unreadable output ({exc.__class__.__name__}: {exc})"


def peak_rss_mb() -> float:
    """Peak resident set size of this process's own address space.

    ``getrusage`` is not used: Linux carries the parent's peak into the
    ``ru_maxrss`` of a child started by fork/vfork and exec.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    session = Session(workload, seed)
    session.load_references()
    budget = seconds / 2 if trace else seconds
    import refkernel  # after set-up, which it must not include

    sampler = refkernel.Sampler()
    walls: List[float] = []
    start = time.perf_counter()
    while True:
        walls.append(session.run_pass(session.main, sampler=sampler))
        elapsed = time.perf_counter() - start
        enough = len(walls) >= (1 if trace else MIN_PASSES)
        if enough and elapsed + walls[-1] > budget:
            break
    result = {
        "pass_walls": walls,
        "slices": sampler.samples,
        "peak_rss_mb": peak_rss_mb(),
    }
    if trace:
        result.update(_traced_pass(session, statistics.median(walls)))
    result["calls"] = session.calls
    return result


def _traced_pass(session: Session, untraced_wall: float) -> dict:
    import tracing

    tracer = tracing.Tracer()
    hooks = tracing.Hooks(tracer)
    hooks.install()
    try:
        main = tracer.wrap(session.main, "cli")
        wall = session.run_pass(main, on_bytes=lambda n: tracer.add("cli.bytes_written", n))
    finally:
        hooks.uninstall()
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    tracer.write(WORK_DIR / f"spans-{session.workload.name}.npz")
    return {
        "traced_wall": wall,
        "layers": tracing.layer_metrics(tracer, wall, untraced_wall),
        "warnings": sorted(set(tracer.missing.values())),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    if not args.setup_only and args.seconds is None:
        parser.error("--seconds is required unless --setup-only is given")
    if args.setup_only:
        result = {"setup_s": Session(args.workload, args.seed).setup_s}
    else:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    sys.stdout.write("\n" + json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
