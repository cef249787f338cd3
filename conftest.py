"""Pin BLAS to one thread for the whole test run, as ``perfbench/run.py``
and CI do, so that timing tests do not compete with BLAS worker threads.
This runs before any test module imports numpy; a value already set in the
environment wins."""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
