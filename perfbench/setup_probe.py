"""One timed set-up of a workload in a fresh interpreter: import the package
from the checkout's ``src`` and generate the workload's inputs.

Usage: python3 perfbench/setup_probe.py <workload> <seed> <size>
Prints one JSON object: the set-up time as measured (``raw_setup_s``), the
calibration loop's median time just after it (``loop_s``, see speed.py) and
a digest of the inputs (``inputs``).
"""

import json
import sys
import time

t0 = time.perf_counter()
from pathlib import Path  # noqa: E402  (timed: part of the set-up)

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import workloads  # noqa: E402  (imports the package)

if __name__ == "__main__":
    name, seed, size = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    wl = workloads.build(name, seed, size)
    elapsed = time.perf_counter() - t0
    if not Path(workloads.poncelet.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"poncelet imported from {workloads.poncelet.__file__}, not from {SRC}")
    import statistics

    import speed

    loop_s = statistics.median(speed.calibrate() for _ in range(5))
    print(json.dumps({"raw_setup_s": elapsed, "loop_s": loop_s, "inputs": wl.digest}))
