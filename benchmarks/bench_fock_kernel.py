"""Timing: the blocked numpy pair-sum kernel of the Fock oracle.

The discretized two-photon coincidence is the only O(M^2) hot spot in
the package; everything else is closed-form.  Run from a checkout (the
script puts its ``src/`` first on the import path) with

    python3 benchmarks/bench_fock_kernel.py

It prints the best of 5 wall times per grid size M, with the coincidence
probability that call returned.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from framedrag._kernels import hom_pair_probabilities  # noqa: E402
from framedrag.interference import Wavepacket, fock_grid  # noqa: E402

SIZES = (256, 1024, 2048)
REPEATS = 5
DELTA_T = 2.0e-4


def main() -> None:
    packet = Wavepacket.gaussian(2.0e6, 3.5e3)
    print(f"{'M':>6} {'best [ms]':>12} {'p_coinc':>22}")
    for size in SIZES:
        omegas, weights = fock_grid(packet, size)
        hom_pair_probabilities(weights, omegas, DELTA_T)  # warmup
        best = float("inf")
        value = 0.0
        for _ in range(REPEATS):
            start = time.perf_counter()
            value, _ = hom_pair_probabilities(weights, omegas, DELTA_T)
            best = min(best, time.perf_counter() - start)
        print(f"{size:>6} {best * 1e3:>12.3f} {value:>22.17g}")


if __name__ == "__main__":
    main()
