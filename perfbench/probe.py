"""Machine-speed probe: a fixed small piece of work run every 10 ms of wall time.

On a shared virtual machine the speed left to one process drifts. Other
tenants take a share that changes from second to second and from minute to
minute, and whole runs of this benchmark came out up to 2x apart. A wall
time alone then says more about the neighbours than about the program. While
a `Probe` is active, a SIGALRM timer interrupts the process every 10 ms and
runs the probe: a few small numpy products and a short Python loop, the two
kinds of work prism25d does. `seconds` turns a stretch of wall time into
nominal seconds. It leaves out the probes' own time, then scales the rest by
NOMINAL_S over the probes' mean duration in that stretch. A stretch in which
the machine ran at half speed thus counts half its wall time.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.01
# about the probe's duration on this 2-vCPU machine when it is lightly
# loaded; it only sets the scale of the reported figures
NOMINAL_S = 2.5e-4


class Probe:
    def __init__(self):
        self.count = 0
        self.busy = 0.0  # seconds spent inside the probe
        self._mat = np.random.default_rng(0).random((32, 32))
        self._buf = np.zeros(1 << 17)  # 1 MiB, to feel contention for the caches

    def _run(self, _signum, _frame) -> None:
        t0 = time.perf_counter()
        a = self._mat
        for _ in range(6):
            a = np.tanh(a @ self._mat * 0.01)
        np.add(self._buf, 1.0, out=self._buf)
        x = 0.0
        for i in range(1500):
            x += i * 0.5
        self.busy += time.perf_counter() - t0
        self.count += 1

    def __enter__(self) -> "Probe":
        signal.signal(signal.SIGALRM, self._run)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[int, float, float]:
        return self.count, self.busy, time.perf_counter()

    def since(self, mark: tuple[int, float, float]) -> tuple[float, float]:
        """(wall seconds without the probes, nominal seconds) since `mark`.

        A stretch shorter than one probe interval takes the mean probe
        duration of the whole activation.
        """
        count, busy, start = mark
        spent = self.busy - busy
        wall = time.perf_counter() - start - spent
        n = self.count - count
        mean = spent / n if n else (self.busy / self.count if self.count else NOMINAL_S)
        return wall, wall * NOMINAL_S / mean
