"""Write the CSV artifacts of every preset run and model-system sweep, and
print their sha256 lines.

    PYTHONPATH=src python scripts/artifact_hashes.py OUT_DIR

Runs ``run`` on every preset in both modes (single and multi) and
``stability --kind both --points 400`` on every model system, each into its
own directory under OUT_DIR.  Then it prints one ``<sha256>  <path>`` line per
CSV file written, sorted by path, with paths relative to OUT_DIR.  The CLI's
messages go to stderr, so stdout holds only the hash lines.

Identical invocations must reproduce every CSV bitwise, so two runs of one
tree print the same lines.  Comparing the output of two trees shows whether a
change kept every artifact's bytes.
"""

import contextlib
import hashlib
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
    for system in MODEL_SYSTEMS:
        sub = f"stability/{system}"
        yield sub, ["stability", "--system", system, "--kind", "both", "--points", "400",
                    "--out-dir", str(out_dir / sub)]


def sha256_lines(out_dir: Path):
    return [f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out_dir).as_posix()}"
            for path in sorted(out_dir.rglob("*.csv"))]


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
