"""A fixed reference computation that measures how fast the machine runs now.

On a small shared host the same code runs up to 1.7x slower in phases that
last seconds to minutes: other tenants contend for the cores, and CPU time
slows as much as wall time.  Each core slows on its own, so a probe on the
other core tells nothing.  Whole benchmark runs land in such phases, and raw
wall times of runs of the same code spread by 10-40% (quartile distance
over median).

The benchmark therefore times short slices of this kernel on the same core,
while the timed call runs (``Sampler``, a slice every ``PERIOD_S`` from a
timer signal), and between set-up probes.  The slices' own time is taken out
of the timed call, and what remains is divided by the slowness the slices
saw:

    slowness = mean(slice times) / NOMINAL_S
    scaled_s = (measured_s - time in slices) / slowness

The kernel uses only Python, NumPy and SciPy, never ``mrtrbdf2``, so a change
to the program cannot move it.  Its mix resembles the program's: interpreted
arithmetic, many small NumPy operations, and LU factorizations and solves.
"""

import signal
import time

import numpy as np
import scipy.linalg

# About the fastest time of one slice on the machine the benchmark was
# defined on (2 vCPUs of an "Intel(R) Xeon(R) Processor", Python 3.11,
# single-threaded OpenBLAS; 300 slices ranged 0.021-0.147 s).  It only sets
# the unit of the scaled times: a scaled time is what the call would take at
# that speed.
NOMINAL_S = 0.021
# Wall time between the starts of two slices while a Sampler is active; a
# slice takes about a tenth of it.
PERIOD_S = 0.25

_RNG = np.random.default_rng(20180126)
_A100 = _RNG.standard_normal((100, 100)) + 100.0 * np.eye(100)
_A200 = (np.diag(np.full(200, 4.0)) + np.diag(np.ones(199), 1) + np.diag(np.ones(199), -1))
_A400 = (np.diag(np.full(400, 4.0)) + np.diag(np.ones(399), 1) + np.diag(np.ones(399), -1))
_V = _RNG.standard_normal(100)
_B = np.ones(400)


def run_slice() -> float:
    """Run one slice of the kernel; returns its wall time in seconds."""
    t0 = time.perf_counter()
    for _ in range(15):
        lu = scipy.linalg.lu_factor(_A100, check_finite=False)
        for _ in range(5):
            scipy.linalg.lu_solve(lu, _V, check_finite=False)
        y = _V.copy()
        for _ in range(40):
            y = y * 0.5 + np.abs(_V) * 1e-3
            float(np.max(np.abs(y)))
        acc = 0.0
        for k in range(3000):
            acc += k * 0.5
    for _ in range(8):
        scipy.linalg.lu_factor(_A200, check_finite=False)
    # A 400x400 factorization does not fit in a core's own cache, and it
    # slows differently under contention than the small operations above.
    # With both parts, pass times tracked the slices best on all three kinds
    # of workload (interpreted inverter steps, Burgers' LU, the sweeps).
    for _ in range(3):
        lu = scipy.linalg.lu_factor(_A400, check_finite=False)
        for _ in range(7):
            scipy.linalg.lu_solve(lu, _B, check_finite=False)
    return time.perf_counter() - t0


def slowness(samples) -> float:
    """How many times slower than nominal the machine ran while ``samples``
    (slice times) were taken; 1.0 at nominal speed."""
    return sum(samples) / (len(samples) * NOMINAL_S)


class Sampler:
    """While active (``with sampler:``), runs a slice every ``PERIOD_S`` of
    wall time, from a SIGALRM handler in the main thread, between two
    bytecodes of whatever runs.  Every slice time goes to ``samples``;
    ``taken`` is the time spent in slices during the last activation."""

    def __init__(self):
        self.samples = []
        self.taken = 0.0
        self._busy = False

    def _sample(self, signum, frame) -> None:
        if self._busy:  # a slice never nests inside another
            return
        self._busy = True
        try:
            dt = run_slice()
            self.samples.append(dt)
            self.taken += dt
        finally:
            self._busy = False

    def __enter__(self):
        self.taken = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
