"""The process entry of `python -m novascape` and the `novascape` console script.

run() calls cli.main and exits with its code. Before exiting it freezes the
heap (gc.freeze): the interpreter's teardown still runs atexit handlers
(logging.shutdown) and flushes stdout and stderr first, but its full
collections afterwards then scan nothing, and nothing they could free
outlives the process anyway. The freeze is here and not in main(), which
tests and scripts call many times in one process.
"""

import gc
import sys

from .cli import main


def run() -> None:
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
