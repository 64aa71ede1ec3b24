"""Host-drift probe: time one fixed call over and over and print the median
of each window, with process CPU time against wall time.

    python3 perfbench/drift.py --seconds 60

The call, ``exact_pmf`` at n = 3000, and its inputs never change, so
differences between the 5 s windows come from the host.  CPU time that
tracks wall time means the process was not descheduled: the host itself ran
slower.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WINDOW_S = 5.0
N = 3000


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=60.0)
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from markovbin import ChainParams, exact_pmf

    params = ChainParams(0.1, 0.8)
    exact_pmf(params, N)
    medians = []
    end = time.monotonic() + args.seconds
    while time.monotonic() < end:
        wall0, cpu0 = time.monotonic(), time.process_time()
        samples = []
        while time.monotonic() - wall0 < WINDOW_S:
            start = time.perf_counter()
            exact_pmf(params, N)
            samples.append((time.perf_counter() - start) * 1e3)
        wall, cpu = time.monotonic() - wall0, time.process_time() - cpu0
        medians.append(statistics.median(samples))
        print(f"window {len(medians):3d}: {len(samples):4d} calls, median {medians[-1]:8.3f} ms, "
              f"cpu/wall {cpu / wall:.3f}", flush=True)
    print(f"window medians: min {min(medians):.3f} ms, max {max(medians):.3f} ms, "
          f"max/min {max(medians) / min(medians):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
