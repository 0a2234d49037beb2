"""Machine-speed probe for normalising timings on a shared host.

On a shared machine the speed of a CPU drifts by 20 % or more within
seconds, as other tenants come and go, so equal work takes unequal wall
time.  The probe measures that drift where the work runs: a timer
signal interrupts the measured process every INTERVAL_S of wall time
and runs a fixed pure-Python reference computation, timed in thread CPU
time so that being descheduled does not count.  NOMINAL_S divided by
the reference's time is the speed at that moment relative to a nominal
machine.  Wall time multiplied by the mean of these samples estimates
the wall time at nominal speed.

Forked pool workers re-arm the timer and add their samples to shared
memory; when workers took samples, only theirs count, because they did
the computing.  The probe costs about one percent of the measured time,
the same on every run.
"""

from __future__ import annotations

import mmap
import os
import signal
import time

INTERVAL_S = 0.01
NOMINAL_S = 1e-4
_SLOTS = 64


def reference() -> int:
    """Fixed work: small-int arithmetic, tuples and a dict, as in the
    package's own inner loops."""
    d: dict = {}
    s = 0
    for i in range(400):
        t = (i, i * 7 % 13)
        d[t] = d.get(t, 0) + 1
        s += i * i % 7
    return s


def burst(reps: int = 30) -> float:
    """Relative speed right now, from `reps` back-to-back references."""
    t0 = time.thread_time()
    for _ in range(reps):
        reference()
    return NOMINAL_S * reps / (time.thread_time() - t0)


class SpeedProbe:
    """Samples reference speed in this process and its forked children.
    Slot 0 is this process; each forked child gets the next slot."""

    def __init__(self):
        self._buf = mmap.mmap(-1, 16 * _SLOTS)  # shared with forked children
        self._acc = memoryview(self._buf).cast("d")  # [sum, count] per slot
        self._slot = 0
        self._forked = 0
        os.register_at_fork(before=self._before_fork, after_in_child=self._in_child)

    def _sample(self, signum, frame) -> None:
        t0 = time.thread_time()
        reference()
        dt = time.thread_time() - t0
        if dt > 0 and self._slot < _SLOTS:
            self._acc[2 * self._slot] += NOMINAL_S / dt
            self._acc[2 * self._slot + 1] += 1

    def _before_fork(self) -> None:
        self._forked += 1

    def _in_child(self) -> None:
        self._slot = self._forked
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def start(self) -> None:
        for _ in range(20):  # warm the reference's code path
            reference()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def snapshot(self) -> tuple[float, float, float, float]:
        """(sum, count) over this process, then over forked children."""
        acc = self._acc
        kids_sum = sum(acc[2 * i] for i in range(1, _SLOTS))
        kids_n = sum(acc[2 * i + 1] for i in range(1, _SLOTS))
        return acc[0], acc[1], kids_sum, kids_n

    @staticmethod
    def factor(before, after) -> float | None:
        """Mean relative speed between two snapshots; children's samples
        when there are any.  None when no sample was taken."""
        own_s, own_n, kid_s, kid_n = (a - b for a, b in zip(after, before))
        if kid_n:
            return kid_s / kid_n
        return own_s / own_n if own_n else None
