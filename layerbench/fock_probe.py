"""Fresh-process probe of the Fock pair-sum kernel at one size M.

    python3 layerbench/fock_probe.py M

Times ``hom_pair_probabilities`` on an M-bin Gaussian grid (median of a
few calls after one warm-up), checks p_c + p_b = 1 to 1e-12 and agreement
with ``hom_coincidence_general`` to verify's 1e-6, and prints one JSON
line with the median, pairs/s = M^2/t, peak RSS from VmHWM (this process
only; ``ru_maxrss`` can carry the parent's peak) and ``kernel_backend()``.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402

DELTA_X = 0.7  # delay in units of 1/sigma: coincidence ~0.11, far from 0 and 1/2
CALLS = {256: 15, 1024: 7, 2048: 5}


def main() -> int:
    size = int(sys.argv[1])
    from framedrag._kernels import hom_pair_probabilities
    from framedrag.interference import Wavepacket, fock_grid, hom_coincidence_general
    from worker import vm_hwm_mb

    packet = Wavepacket.gaussian(2.0e6, 3.5e3)
    delta_t = DELTA_X / packet.sigma
    omegas, weights = fock_grid(packet, size)
    hom_pair_probabilities(weights, omegas, delta_t)
    times = []
    for _ in range(CALLS.get(size, 5)):
        start = time.perf_counter()
        p_c, p_b = hom_pair_probabilities(weights, omegas, delta_t)
        times.append(time.perf_counter() - start)
    median = statistics.median(times)
    problems = []
    if abs(p_c + p_b - 1.0) > 1.0e-12:
        problems.append(f"Fock M={size}: p_c + p_b - 1 = {p_c + p_b - 1.0:.3e}")
    general = hom_coincidence_general(packet, delta_t)
    if abs(p_c - general) > 1.0e-6:
        problems.append(f"Fock M={size}: |p_c - general| = {abs(p_c - general):.3e}")
    print(json.dumps({
        "size": size,
        "median_ms": 1e3 * median,
        "pairs_per_s": size * size / median,
        "peak_rss_mb": vm_hwm_mb(),
        "backend": wl.kernel_backend(),
        "problems": problems,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
