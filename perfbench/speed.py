"""Machine-speed adjustment for the benchmark's timings.

On a shared machine the speed of identical Python work drifts by tens of
percent over seconds to minutes.  The benchmark therefore runs a fixed
pure-Python reference loop right before each timed operation and scales the
operation's time by REFERENCE_S / (median of the last few reference times).
The result reads as the time the operation would take on a machine where the
reference loop takes exactly REFERENCE_S.  The loop is the benchmark's own
code, so a change to the program cannot move it; only the machine can.
"""

from __future__ import annotations

import statistics
import time
from collections import deque

REFERENCE_S = 0.005   # nominal reference-loop time the figures are scaled to
WINDOW = 5            # reference samples in the rolling median


def reference_loop() -> float:
    """Run the fixed reference work once; return its wall time in seconds."""
    start = time.perf_counter()
    values = []
    for i in range(60_000):
        values.append((i * i) % 7)
    frozen = tuple(values)
    sum(frozen[::3])
    return time.perf_counter() - start


class Speed:
    """Rolling estimate of the machine's current speed.

    `factor` multiplies a measured time into the adjusted time; it is updated
    by each `calibrate` and starts from a full window of samples.
    """

    def __init__(self) -> None:
        self.recent: deque[float] = deque(maxlen=WINDOW)
        self.factor = 1.0
        self.calibrate(WINDOW)

    def calibrate(self, samples: int = 1) -> None:
        for _ in range(samples):
            self.recent.append(reference_loop())
        self.factor = REFERENCE_S / statistics.median(self.recent)
