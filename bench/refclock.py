"""A clock that reads seconds at a fixed reference speed of the CPU.

On a shared host the speed of a virtual CPU can change by 2x from one
second to the next, with no steal time to show for it, so raw wall times of
runs made minutes apart are not comparable.  This clock samples the speed
in the thread being measured: every ``PERIOD_S`` a SIGALRM handler times a
fixed calibration loop in CPU time, and the wall time that passes until the
next sample is scaled by ``CALIBRATION_S`` over the median of the last few
calibrations.  Time spent in the handler is left out.  On the host the
benchmark was defined on, a second at its fast speed reads as one second.

Interval timers are not inherited across fork, so worker processes of the
program under test run without the handler.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.1
# CPU time of one calibration at the fast speed of a 2-vCPU x86-64 VM
# running Python 3.11; slow periods on that host read about 0.0018.
CALIBRATION_S = 0.0011
KEEP = 5


def _calibrate(n: int = 4000) -> list[int]:
    """Interpreter-bound work shaped like the solver's: big-int bit
    arithmetic and list stores."""
    x, acc, mask, out = 12345, 0, (1 << 130) - 1, [0] * 64
    for i in range(n):
        x = (x * 6364136223846793005 + 1442695040888963407) & mask
        acc ^= x & -x
        out[i & 63] = acc.bit_length()
    return out


class RefClock:
    """``now()`` in reference seconds; ``wall()`` in plain seconds, both
    without the calibration time.  Start it in the main thread."""

    def __init__(self):
        self._samples: list[float] = []
        start = time.perf_counter()
        # (reference seconds, plain seconds, perf_counter, scale) at the last tick.
        self._state = (0.0, 0.0, start, 1.0)
        self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def _tick(self, *_) -> None:
        ref, plain, since, scale = self._state
        t0 = time.perf_counter()
        c0 = time.thread_time()
        _calibrate()
        self._samples = (self._samples + [time.thread_time() - c0])[-KEEP:]
        new_scale = CALIBRATION_S / statistics.median(self._samples)
        self._state = (ref + (t0 - since) * scale, plain + (t0 - since),
                       time.perf_counter(), new_scale)

    def now(self) -> float:
        ref, _, since, scale = self._state
        return ref + (time.perf_counter() - since) * scale

    def wall(self) -> float:
        _, plain, since, _ = self._state
        return plain + time.perf_counter() - since

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
