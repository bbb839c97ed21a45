"""A meter of how fast the core runs, sampled in the thread that runs the ops.

The machines this benchmark runs on share their cores with other tenants,
and a core's speed switches between states about 1.5x apart, for seconds
to minutes at a time.  CPU time does not hide that: the same op takes
110 ms of CPU in one pass and 170 ms in the next.  So the benchmark times
a fixed reference kernel next to the program, on the same thread: before
each op, after it, and every ``INTERVAL_S`` of CPU time while it runs
(from a ``SIGVTALRM`` handler).  An op's time is then scaled by
``REF_S`` over the median of those samples, which gives its time at one
fixed reference speed.  The kernel is pure Python and cubestats never
runs it, so a change to cubestats moves only the op side of the ratio.
"""

from __future__ import annotations

import signal
import statistics
import time

# Iterations of the reference kernel, about 0.3 ms on a 2 GHz Xeon.
REF_ITERS = 2000
# The kernel's nominal duration: scaled times are "seconds at the speed
# where one kernel run takes REF_S".  A fixed constant, so that runs on
# the same machine at different times are comparable.
REF_S = 2.5e-4
INTERVAL_S = 0.01


def _kernel() -> int:
    total = 0
    table = {}
    for i in range(REF_ITERS):
        total += (i * i) % 7
        table[i & 63] = total
    return total + len(table)


class SpeedMeter:
    """Collects reference-kernel timings; ``overhead_s`` is their CPU time."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.overhead_s = 0.0

    def sample(self) -> None:
        t0 = time.thread_time()
        _kernel()
        dt = time.thread_time() - t0
        self.samples.append(dt)
        self.overhead_s += dt

    def _on_timer(self, signum, frame) -> None:
        self.sample()

    def start(self) -> None:
        signal.signal(signal.SIGVTALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_VIRTUAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0, 0)
        signal.signal(signal.SIGVTALRM, signal.SIG_DFL)

    def scale(self, first: int) -> float:
        """``REF_S`` over the median kernel time of the samples from ``first`` on."""
        return REF_S / statistics.median(self.samples[first:])
