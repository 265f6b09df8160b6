"""Run the test suite with one BLAS thread unless the environment says otherwise.

OpenBLAS reads its thread count once, when numpy loads, so this must run
before anything imports numpy; pytest loads a root conftest before it
collects the test modules. On a machine with few cores a multi-threaded
GEMM slows down several times beside any other busy process, which makes
the suite's wall time and its timing bounds depend on what else runs.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
