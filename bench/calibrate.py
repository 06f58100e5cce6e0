"""Host-speed calibration: times are reported as in the host's fast state.

The shared host this benchmark runs on switches between a fast and a slow
state every few seconds to minutes; in the slow state wall and CPU time of
the same work are up to 1.7x longer. Two fixed calibration kernels slow
down in step with the program: `kernel` (computation in-process) and a
fresh interpreter importing numpy (process start and module loading, which
are a third of a report-demo run). Over 4 minutes of Monte-Carlo seeds on a
2-CPU host, 25-second medians of the seed time spread (IQR/median) 0.30, and
of its ratio to `kernel`'s time 0.025. Over 6 minutes of report-demo runs,
single runs spread 0.21 raw, 0.17 over `kernel` alone, 0.11 over the import
alone and 0.10 over the geometric mean of the two. But the import tracks
in-process work worse: scaled by the geometric mean, 25-second medians of
Monte-Carlo batches spread 0.12 instead of 0.05.

So each timed piece of work sits between two samples of the host's
slowness, and its times are divided by the mean of the two samples: they
read as the seconds the work takes on this host in its fast state. A
slower program still reads slower; a slower host does not. A slowness
sample is a kernel's time over its time in the host's fast state: `kernel`
alone for in-process work (Monte-Carlo batches), and the geometric mean of
both kernels for work in a fresh process (CLI runs, set-up imports).
`kernel` is timed as the median of a few runs, because single runs taken
back to back differ by up to 40%; the import is timed once.
"""

import math
import statistics
import subprocess
import sys
import time

import numpy as np

# median times in the fast state of the 2-CPU host of bench/baseline.json
REFERENCE_KERNEL_S = 0.04
REFERENCE_START_S = 0.13
KERNEL_REPEATS = 3
START_REPEATS = 1
START_CMD = (sys.executable, "-c", "import numpy")
FRESH_S = 2.0  # a sample younger than this also counts as taken before the next work


def kernel() -> int:
    """Fixed work in the program's mix: Python loops over records, int64 array
    arithmetic on matrices of score size, and small dense linear algebra."""
    table = {}
    for i in range(150_000):
        key = (i * 7919) % 4099
        table[key] = table.get(key, 0) + (i & 15)
    rows = np.arange(400_000, dtype=np.int64).reshape(2_000, 200)
    acc = np.zeros(200, dtype=np.int64)
    for shift in range(14):
        acc += ((rows >> shift) ^ rows).sum(axis=0)
    x = np.linspace(0.0, 1.0, 120 * 120).reshape(120, 120) + np.eye(120)
    for _ in range(16):
        x = np.linalg.solve(x.T @ x + np.eye(120), x)
    return len(table) + int(acc[0] % 97) + int(x[0, 0] > 0)


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _start() -> None:
    subprocess.run(START_CMD, check=True, capture_output=True, timeout=60)


def sample(processes: bool) -> float:
    """The host's slowness now: 1.0 in its fast state, 1.5 when work takes 1.5x as long.

    With processes, for work that starts a fresh interpreter.
    """
    compute = _median_time(kernel, KERNEL_REPEATS) / REFERENCE_KERNEL_S
    if not processes:
        return compute
    return math.sqrt(compute * _median_time(_start, START_REPEATS) / REFERENCE_START_S)


class Clock:
    """Slowness samples taken around one kind of timed work in a call.

    processes: the work runs in fresh interpreters (see sample).
    """

    def __init__(self, processes: bool):
        self.processes = processes
        kernel()  # warm-up: first-call costs of numpy, the allocator and the page cache
        if processes:
            _start()
        self.samples = []
        self.at = None

    def _take(self) -> float:
        self.samples.append(sample(self.processes))
        self.at = time.perf_counter()
        return self.samples[-1]

    def before(self) -> float:
        """A sample for work about to start: the last one if it is fresh, else a new one."""
        if self.at is None or time.perf_counter() - self.at > FRESH_S:
            return self._take()
        return self.samples[-1]

    def scale(self, before: float) -> float:
        """For work that just ended: 1 over the mean slowness of the samples around it."""
        return 2 / (before + self._take())
