"""One command for every end-to-end metric, per preset and mode:

    python3 perfbench/report.py [--seed 0] [--trace]

Runs run.py once per workload, for the ``run_seconds`` of BENCHMARK.json,
and prints, for ``inverter`` and ``burgers``,
wall_single_s, wall_multi_s, err_single, err_multi, setup_s, peak_rss_mb and
fail_share, and for ``stability`` wall_sweep_s, setup_s, peak_rss_mb and
fail_share.  The multi/single wall-time and workload ratios are printed as
derived information; the benchmark gates neither.  ``--trace`` adds one
traced run per workload and prints its per-layer metrics.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

GROUPS = {
    "inverter": ("inverter_single", "inverter_multi"),
    "burgers": ("burgers_single", "burgers_multi"),
    "stability": ("stability",),
}


def _run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(RUN_SECONDS), "--trace", str(trace)],
        cwd=HERE.parent, stdout=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"run.py --workload {workload} exited with code {proc.returncode}")
    lines = proc.stdout.rstrip().split("\n")
    detail = next(json.loads(ln[len("detail "):]) for ln in lines if ln.startswith("detail "))
    return {"detail": detail, "result": json.loads(lines[-1])}


def _line(name: str, value, unit: str, note: str = "") -> None:
    shown = "null" if value is None else (f"{value:.4g}" if isinstance(value, float) else str(value))
    print(f"  {name:<40} {shown:>14} {unit:<10} {note}")


def _median(calls, key):
    """Median of ``key`` over the calls that got as far as recording it."""
    values = [c[key] for c in calls if key in c]
    return statistics.median(values) if values else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    runs = {w: _run(w, args.seed, 0) for ws in GROUPS.values() for w in ws}
    env = runs["stability"]["detail"]["env"]
    print(f"seed {args.seed}; git {env['git_sha']} dirty={env['git_dirty']}; python {env['python']}, "
          f"numpy {env['numpy']}, scipy {env['scipy']}, OpenBLAS {env['openblas_numpy']} "
          f"x{env['blas_threads']} threads; nproc {env['nproc']}, {env['cpu_model']}")
    for group, names in GROUPS.items():
        print(group)
        results = [runs[w]["result"] for w in names]
        calls = [c for w in names for c in runs[w]["detail"]["calls"]]
        if group == "stability":
            _line("wall_sweep_s", results[0]["metrics"]["wall_s"]["value"], "s", "(stability: wall_s)")
        else:
            by_mode = {m: [c for c in calls if c["argv"][c["argv"].index("--mode") + 1] == m]
                       for m in ("single", "multi")}
            wall = {m: runs[f"{group}_{m}"]["result"]["metrics"]["wall_s"]["value"]
                    for m in ("single", "multi")}
            for m in ("single", "multi"):
                _line(f"wall_{m}_s", wall[m], "s", f"({group}_{m}: wall_s)")
            for m in ("single", "multi"):
                _line(f"err_{m}", _median(by_mode[m], "err"), "1",
                      "relative max-norm vs independent reference")
        for w, res in zip(names, results):
            _line("setup_s", res["metrics"]["setup_s"]["value"], "s", f"({w})")
        for w, res in zip(names, results):
            _line("peak_rss_mb", res["metrics"]["peak_rss_mb"]["value"], "MiB", f"({w})")
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        _line("fail_share", failed / attempted, "1", f"({failed}/{attempted})")
        if group != "stability":
            _line("multi/single wall ratio", wall["multi"] / wall["single"], "1", "not gated")
            single, multi = _median(by_mode["single"], "workload"), _median(by_mode["multi"], "workload")
            _line("multi/single workload ratio", single and multi / single, "1", "not gated")
        if args.trace:
            for w in names:
                print(f" {w}, traced")
                for key, m in _run(w, args.seed, 1)["result"]["metrics"].items():
                    _line(key, m["value"], m["unit"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
