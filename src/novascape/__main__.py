"""The process entry of `python -m novascape` and the `novascape` console script.

run() calls cli.main and exits with its code. Before exiting it freezes the
heap (gc.freeze): the interpreter's teardown still runs atexit handlers
(logging.shutdown) and flushes stdout and stderr first, but its full
collections afterwards then scan nothing, and nothing they could free
outlives the process anyway. The freeze is here and not in main(), which
tests and scripts call many times in one process.

BLAS runs on one thread unless the environment sets the thread count: most
of a report's matrix products are too small to pay OpenBLAS's hand-off to a
second thread, and whole reports ran faster on one. The default is set here,
before numpy loads, so that importing the library (novascape.metrics,
novascape.cli) changes no thread setting.
"""

import gc
import sys

from . import default_one_blas_thread

default_one_blas_thread()

from .cli import main  # noqa: E402


def run() -> None:
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
