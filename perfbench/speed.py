"""The machine's current speed, from a fixed calibration loop.

On a shared host the speed of a core switches between regimes within
seconds: on the 2-core VM this benchmark was written on, the loop below
took about 1.0 ms in the fast regime and 1.6-1.7 ms in the slow one, and
operation times moved with it (a conf-III trace took 42 ms or 80 ms).
The ratio of an operation's time to the loop's time next to it stayed
within a few percent.  So every time the benchmark reports is scaled to a
reference speed:

    reported = measured * REFERENCE_S / loop time next to the measurement

REFERENCE_S is the loop's median time on that VM under sustained benchmark
load, so that reported times there read close to measured ones.  Measured
times are printed and recorded alongside.  The loop does interpreter work
and tiny numpy calls, and uses nothing from the package being measured.
"""

import time

import numpy as np

REFERENCE_S = 1.6e-3
_MATRIX = np.array([[1.0, 0.2, 0.1], [0.2, 1.0, 0.3], [0.1, 0.3, -1.0]])


def calibrate() -> float:
    """Seconds taken by the fixed calibration loop."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(3000):
        acc += (i * 0.5) ** 0.5
    for _ in range(200):
        acc += float(np.linalg.det(_MATRIX))
    return time.perf_counter() - t0


def scale(measured_s: float, loop_s: float) -> float:
    """A measured time at the reference speed."""
    return measured_s * REFERENCE_S / loop_s
