"""novascape: innovation scoring, type landscapes, and regression analysis
for corpora of products described by binary feature vectors."""

import os

__version__ = "0.1.0"

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def default_one_blas_thread() -> None:
    """Set each BLAS thread variable the environment leaves unset to 1; a value it gives wins.

    OpenBLAS reads them when numpy loads, so this takes effect only before then.
    """
    for name in BLAS_THREAD_VARIABLES:
        os.environ.setdefault(name, "1")
