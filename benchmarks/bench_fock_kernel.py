"""Timing: numba pair-sum kernel vs the blocked numpy kernel, where numba is installed.

The discretized two-photon coincidence is the only O(M^2) hot spot in
the package; everything else is closed-form.  Run from a checkout (the
script puts its ``src/`` first on the import path) with

    python3 benchmarks/bench_fock_kernel.py

The numba path is selected by default; FRAMEDRAG_DISABLE_NUMBA=1 picks
the fallback (the flag is read per call, so both are timed in one
process).  Each column is labelled with the ``kernel_backend()`` that
actually ran; without numba only the numpy fallback is timed.  Results
also double as a consistency probe: the two backends sum in different
orders and must agree to 1e-12.
"""

import os
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from framedrag._kernels import hom_pair_probabilities, kernel_backend  # noqa: E402
from framedrag.interference import Wavepacket, fock_grid  # noqa: E402

SIZES = (256, 1024, 2048)
REPEATS = 5
DELTA_T = 2.0e-4


def _time_backend(disable_numba: bool, omegas: np.ndarray,
                  weights: np.ndarray) -> tuple[str, float, float]:
    """(backend that ran, best wall time in s, coincidence probability)."""
    os.environ["FRAMEDRAG_DISABLE_NUMBA"] = "1" if disable_numba else "0"
    backend = kernel_backend()
    hom_pair_probabilities(weights, omegas, DELTA_T)  # warmup / JIT compile
    best = float("inf")
    value = 0.0
    for _ in range(REPEATS):
        start = time.perf_counter()
        value, _ = hom_pair_probabilities(weights, omegas, DELTA_T)
        best = min(best, time.perf_counter() - start)
    return backend, best, value


def main() -> None:
    packet = Wavepacket.gaussian(2.0e6, 3.5e3)
    os.environ["FRAMEDRAG_DISABLE_NUMBA"] = "0"
    flags = (False, True) if kernel_backend() == "numba" else (True,)
    if len(flags) == 1:
        print("numba not installed")
    for i, size in enumerate(SIZES):
        omegas, weights = fock_grid(packet, size)
        runs = [_time_backend(flag, omegas, weights) for flag in flags]
        if i == 0:
            header = f"{'M':>6}" + "".join(f"{name + ' [ms]':>12}" for name, _, _ in runs)
            print(header + (f" {'speedup':>9} {'|diff|':>10}" if len(runs) == 2 else ""))
        row = f"{size:>6}" + "".join(f"{t * 1e3:>12.3f}" for _, t, _ in runs)
        if len(runs) == 2:
            (_, t_numba, p_numba), (_, t_numpy, p_numpy) = runs
            row += f" {t_numpy / t_numba:>9.2f} {abs(p_numba - p_numpy):>10.2e}"
        print(row)
    os.environ.pop("FRAMEDRAG_DISABLE_NUMBA", None)
    print(f"active backend with flag unset: {kernel_backend()}")


if __name__ == "__main__":
    main()
