"""The benchmark's workloads: which CLI invocations one pass makes.

Each workload is one closed-loop client driving ``mrtrbdf2.cli.main`` in
process.  Both presets are split by mode so that single-rate and multirate
wall time are gated separately: micro-step work must speed up
``inverter_multi`` without slowing ``inverter_single``, and a change to the
multirate path alone (an accuracy fix, say) must show on ``burgers_multi``
in full rather than diluted in a sum with single-rate time.

Seed 0 passes no value the CLI would otherwise default, so it runs the
default presets exactly.  Any other seed jitters only inputs the CLI already
takes (``--t-end``, ``--ul``, ``--smin``/``--smax``) by at most ``JITTER``
of their default, so the work per pass stays close to the default while the
inputs, and with them the references, change with the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

# Largest relative jitter of a seeded input.
JITTER = 0.02

# Grid points per stability sweep: dense enough that the six sweeps take
# seconds, so a pass is dominated by the dense linear algebra, not by
# interpreter start-up or CSV writing.
STABILITY_POINTS = 400
STABILITY_SYSTEMS = ("sys1", "sys2", "sys2_nofriction", "heat40", "advdiff40", "adv40")

# CLI defaults the seeded inputs are jittered around (see cli.py and the
# preset factories in benchmarks.py).
DEFAULTS = {
    "inverter_chain": {"--t-end": 20.0},
    "burgers_shock": {"--t-end": 1.0, "--ul": 1.0},
    "stability": {"--smin": 1e-3, "--smax": 100.0},
}


@dataclass(frozen=True)
class Workload:
    name: str
    preset: Optional[str]  # None for the stability sweep
    modes: Tuple[str, ...] = ()

    @property
    def inputs_key(self) -> str:
        """Workloads sharing this key get the same seeded inputs and references."""
        return self.preset or "stability"


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("inverter_single", "inverter_chain", ("single",)),
    Workload("inverter_multi", "inverter_chain", ("multi",)),
    Workload("burgers_single", "burgers_shock", ("single",)),
    Workload("burgers_multi", "burgers_shock", ("multi",)),
    Workload("stability", None),
)}


def seeded_inputs(key: str, seed: int) -> Dict[str, float]:
    """Jittered CLI inputs for one seed; empty for seed 0 (CLI defaults)."""
    if seed == 0:
        return {}
    rng = random.Random(f"{key}:{seed}")
    return {flag: base * (1.0 + rng.uniform(-JITTER, JITTER))
            for flag, base in DEFAULTS[key].items()}


def stability_grid(seed: int):
    """The rescaled step grid a stability invocation of this seed sweeps
    (the CLI's ``np.geomspace(smin, smax, points)``)."""
    import numpy as np

    inputs = {**DEFAULTS["stability"], **seeded_inputs("stability", seed)}
    return np.geomspace(inputs["--smin"], inputs["--smax"], STABILITY_POINTS)


def _flags(inputs: Dict[str, float]) -> List[str]:
    out: List[str] = []
    for flag, value in inputs.items():
        out += [flag, repr(value)]
    return out


def pass_argvs(workload: Workload, seed: int, out_root: Path) -> List[List[str]]:
    """The CLI argument lists one pass of ``workload`` executes, in order."""
    inputs = _flags(seeded_inputs(workload.inputs_key, seed))
    if workload.preset is not None:
        return [["run", "--preset", workload.preset, "--mode", mode, *inputs,
                 "--out-dir", str(out_root / workload.name / mode)]
                for mode in workload.modes]
    return [["stability", "--system", system, "--kind", "both",
             "--points", str(STABILITY_POINTS), *inputs,
             "--out-dir", str(out_root / workload.name / system)]
            for system in STABILITY_SYSTEMS]
