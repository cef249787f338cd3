"""Write the CSV artifacts of every preset run and model-system sweep, and
print their sha256 lines and those of the runs' summary metrics.

    PYTHONPATH=src python scripts/artifact_hashes.py OUT_DIR

Runs ``run`` on every preset in both modes (single and multi), once more in
multirate with the linear latent interpolant (``--interp linear``), and
``stability --kind both --points 400`` on every model system, each into its
own directory under OUT_DIR.  Then it prints one ``<sha256>  <path>`` line per
CSV file written, sorted by path, with paths relative to OUT_DIR, and after
them one ``<sha256>  run/<preset>-<mode>/summary.json:metrics`` line per run:
the hash of the canonical JSON (sorted keys, no whitespace) of the ``metrics``
of its ``summary.json`` without ``wall_time_s``, a measurement.  The CLI's
messages go to stderr, so stdout holds only the hash lines.

Identical invocations must reproduce every CSV bitwise and every count of a
run, so two runs of one tree print the same lines.  Comparing the output of
two trees shows whether a change kept every artifact's bytes and every
summary metric but the wall time.
"""

import contextlib
import hashlib
import json
import sys
from pathlib import Path

from mrtrbdf2.cli import PRESETS, main
from mrtrbdf2.stability import MODEL_SYSTEMS


def commands(out_dir: Path):
    """(subdirectory, CLI arguments) of every artifact-producing command."""
    for preset in PRESETS:
        for mode in ("single", "multi"):
            sub = f"run/{preset}-{mode}"
            yield sub, ["run", "--preset", preset, "--mode", mode, "--out-dir", str(out_dir / sub)]
        sub = f"run/{preset}-multi-linear"
        yield sub, ["run", "--preset", preset, "--mode", "multi", "--interp", "linear",
                    "--out-dir", str(out_dir / sub)]
    for system in MODEL_SYSTEMS:
        sub = f"stability/{system}"
        yield sub, ["stability", "--system", system, "--kind", "both", "--points", "400",
                    "--out-dir", str(out_dir / sub)]


def sha256_lines(out_dir: Path):
    lines = [f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out_dir).as_posix()}"
             for path in sorted(out_dir.rglob("*.csv"))]
    for path in sorted(out_dir.glob("run/*/summary.json")):
        metrics = json.loads(path.read_text())["metrics"]
        del metrics["wall_time_s"]
        canonical = json.dumps(metrics, sort_keys=True, separators=(",", ":")).encode()
        lines.append(f"{hashlib.sha256(canonical).hexdigest()}  "
                     f"{path.relative_to(out_dir).as_posix()}:metrics")
    return lines


def run(out_dir: Path) -> int:
    for sub, argv in commands(out_dir):
        with contextlib.redirect_stdout(sys.stderr):
            code = main(argv)
        if code != 0:
            print(f"command {' '.join(argv)} exited {code}", file=sys.stderr)
            return code
    for line in sha256_lines(out_dir):
        print(line)
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        print("usage: python scripts/artifact_hashes.py OUT_DIR", file=sys.stderr)
        sys.exit(2)
    sys.exit(run(Path(sys.argv[1])))
