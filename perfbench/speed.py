"""Timing at a nominal machine speed.

Other tenants share this machine's cores: the same pass runs up to 40%
slower while they are busy, with CPU time rising as much as wall time, so
the process is slowed rather than descheduled, and the slow spells come and
go within seconds. A speed probe in a second process tracks it poorly, and
reference runs between jobs miss the spells inside jobs that last seconds.
So `SpeedSampler` interrupts the timed code every `INTERVAL_S` with a timer
signal, runs a fixed reference computation in the handler, and records
speed = nominal time / measured time. Timings taken with `sampler.clock`
leave out the handler's own time, and a pass's time multiplied by the mean
speed sampled during it is the time the pass would take at nominal speed.

The spells slow interpreter steps more than LAPACK calls, so each workload
names the reference that resembles its work (`workloads.REFERENCE`).
"""

import math
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05
_X = np.linspace(0.0, 1.0, 64)
_KMS = 0.5 ** np.abs(np.subtract.outer(np.arange(96), np.arange(96)))


def _interpreter_work():
    acc = 0.0
    for i in range(300):
        acc += float((_X * 1.0001 + i).sum()) + math.sqrt(i)
    return acc


def _lapack_work():
    return np.linalg.eigh(_KMS)


# kind -> (work, nominal seconds); the nominal time is the work's time on an
# uncontended core of the 2-core machine the benchmark was written on
# (Python 3.11, numpy 2.4 with OpenBLAS 0.3.31). Neither calls supadd code.
REFERENCES = {
    "interpreter": (_interpreter_work, 0.00085),
    "lapack": (_lapack_work, 0.0012),
}


def speed(kind: str) -> float:
    """Nominal over measured time of one run of a reference."""
    work, nominal = REFERENCES[kind]
    start = time.perf_counter()
    work()
    return nominal / (time.perf_counter() - start)


class SpeedSampler:
    """Context manager that samples the speed on a wall-clock timer."""

    def __init__(self, kind: str):
        self.kind = kind
        self.spent = 0.0
        self._speeds = []

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self._speeds.append(speed(self.kind))
        self.spent += time.perf_counter() - start

    def clock(self) -> float:
        """perf_counter without the time spent sampling."""
        return time.perf_counter() - self.spent

    def take(self) -> float:
        """Mean speed sampled since the last take (a fresh sample if the
        timer has not fired)."""
        samples, self._speeds = self._speeds, []
        return statistics.mean(samples) if samples else speed(self.kind)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
