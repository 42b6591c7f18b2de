"""Two-photon beamsplitter pair sums.

The discretized coincidence oracle scales as O(M^2) in the number of
spectral bins — the only genuinely hot loop in the package.  The kernel
is numpy: one pass walks blocks of 256 rows and forms each block a chunk
of rows at a time, C_xy into a 512 KiB chunk buffer and C_yx into a
512 KiB scratch, then combines them and sums |C_xy - C_yx|^2 (or
|C_xy + C_yx|^2) over the chunk while both are still in cache.  So its
temporaries are the two chunk-sized buffers whatever M is, never a block
or an M x M array, allocated once per pass and reused by every chunk.
Each chunk is reduced by ``np.einsum``'s own loop, not by BLAS, and the
chunk totals are added in a fixed order, so the bits do not depend on
the BLAS library or its thread count.  It performs explicit pairwise
mode-operator bookkeeping; it may not collapse the sum into the
factorized characteristic-function shortcut used by the closed forms the
oracle exists to check.  ``_pair_sums_loops`` is the plain-Python
reference the tests compare it with.

``hom_coincidence_probability`` runs the coincidence pass alone, for the
oracle.  ``hom_pair_probabilities`` runs it and then the bunching pass,
for the unitarity check, so its p_coincidence is the other's bit for
bit.  Median of 6 fresh-process runs (one BLAS thread, 2-vCPU x86-64
host with AVX-512, Python 3.11, numpy 2.4): one pass takes 2.1 ms at
M = 1024 and 7.7 ms at M = 2048; both take 4.2 and 15.8 ms.

numpy loads with this module, so its callers import it inside the
functions that run the oracle: importing the package loads no numpy.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["hom_coincidence_probability", "hom_pair_probabilities"]

# Rows per block of the numpy pair sum: each row block adds its diagonal
# block once and the block right of it twice.
_BLOCK_ROWS = 256
# Complex values in the chunk buffer and in the scratch (512 KiB each,
# inside a 2 MiB per-core L2 cache), so each chunk's products are combined
# and reduced while still in cache; a chunk is max(1, _SCRATCH // block
# width) rows.
_SCRATCH = 2**15


def _pair_sums_loops(amp: np.ndarray, phase: np.ndarray) -> tuple[float, float]:
    # amp[x] = sqrt(w_x); phase[y] = exp(-i omega_y dt).  For each ordered
    # frequency pair the beamsplitter sends the two-photon amplitude
    # C_xy = amp_x amp_y phase_y into (C_xy - C_yx)/2 coincidence and
    # (C_xy + C_yx)/2 bunching components.
    m = amp.shape[0]
    coinc = 0.0
    bunch = 0.0
    for x in range(m):
        cx = amp[x] * phase[x]
        for y in range(m):
            c_xy = amp[x] * amp[y] * phase[y]
            c_yx = amp[y] * cx
            d = c_xy - c_yx
            s = c_xy + c_yx
            coinc += d.real * d.real + d.imag * d.imag
            bunch += s.real * s.real + s.imag * s.imag
    return 0.25 * coinc, 0.25 * bunch


def _pair_sum(amp: np.ndarray, phase: np.ndarray, combine: np.ufunc) -> float:
    # 1/4 sum over ordered pairs of |combine(C_xy, C_yx)|^2: np.subtract
    # gives the coincidence total, np.add the bunching total.  The (y, x)
    # term equals the (x, y) term bit for bit (C_yx - C_xy is the exact
    # negation of C_xy - C_yx, and C_xy + C_yx commutes), so each block of
    # _BLOCK_ROWS rows adds its diagonal block once and the block right of
    # it (none for the last row block) twice, which counts every ordered
    # pair once from explicitly evaluated C_xy, C_yx products.  A block is
    # formed a chunk of rows at a time and each chunk is reduced while it is
    # in cache: C_xy goes into the chunk buffer, C_yx into the scratch, and
    # combine(C_xy, C_yx) overwrites C_xy.  einsum sums each float64 view in
    # its own loop, never a BLAS call; chunk totals are added in row order.
    ap = amp * phase
    m = amp.shape[0]
    rows_max = min(_BLOCK_ROWS, m)
    # Every chunk holds at most max(_SCRATCH, M) values (one row when a row
    # is wider than the scratch), never more than the largest block.  One
    # allocation holds the chunk buffer and the scratch: as separate arrays,
    # glibc handed them back to the OS and faulted them in again on every
    # call (109 minor faults per call at M = 100).
    chunk = min(rows_max * max(rows_max, m - rows_max), max(_SCRATCH, m))
    buffer, scratch = np.empty((2, chunk), np.complex128)
    total = 0.0
    for start in range(0, m, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, m)
        blocks = [0.0, 0.0]  # the diagonal block, the block right of it
        for k, cols in enumerate((slice(start, stop), slice(stop, m))):
            n_cols = cols.stop - cols.start
            if n_cols == 0:  # the last row block has nothing right of it
                continue
            step = max(1, _SCRATCH // n_cols)
            for first in range(start, stop, step):
                x = slice(first, min(first + step, stop))
                size = (x.stop - first) * n_cols
                c_xy = buffer[:size].reshape(-1, n_cols)
                c_yx = scratch[:size].reshape(-1, n_cols)
                np.multiply(amp[x, None], ap[cols], out=c_xy)
                np.multiply(ap[x, None], amp[cols], out=c_yx)
                combine(c_xy, c_yx, out=c_xy)
                v = buffer[:size].view(np.float64)
                blocks[k] += float(np.einsum("i,i->", v, v))
        total += blocks[0] + 2.0 * blocks[1]
    return 0.25 * total


def _amplitudes(weights: np.ndarray, omegas: np.ndarray,
                delta_t: float) -> tuple[np.ndarray, np.ndarray]:
    # Checks the kernel's inputs; returns amp = sqrt(w) and phase = exp(-i omega dt).
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    omegas = np.ascontiguousarray(omegas, dtype=np.float64)
    if weights.shape != omegas.shape or weights.ndim != 1 or weights.size == 0:
        raise ValueError("weights and omegas must be matching non-empty 1-d arrays")
    bad = ~(np.isfinite(weights) & (weights >= 0.0))
    if bad.any():
        raise ValueError("weights must be finite and non-negative, "
                         f"got {float(weights[bad][0])!r}")
    bad = ~np.isfinite(omegas)
    if bad.any():
        raise ValueError(f"omegas must be finite, got {float(omegas[bad][0])!r}")
    if not math.isfinite(delta_t):
        raise ValueError(f"delta_t must be finite, got {delta_t!r}")
    return np.sqrt(weights), np.exp(-1j * omegas * delta_t)


def hom_pair_probabilities(weights: np.ndarray, omegas: np.ndarray,
                           delta_t: float) -> tuple[float, float]:
    """Coincidence and bunching probabilities of the discretized two-photon state.

    ``weights`` are normalized spectral weights (sum 1) on the frequency
    grid ``omegas``; ``delta_t`` is the relative delay in metres.  Returns
    (p_coincidence, p_bunching), each summed over every pair in a pass of
    its own; the two sum to 1 up to rounding, which the ``fock-unitarity``
    check tests.  p_coincidence is bit for bit ``hom_coincidence_probability``.
    Raises ValueError for mismatched or empty arrays, a negative or
    non-finite weight, a non-finite frequency or a non-finite delay.
    """
    amp, phase = _amplitudes(weights, omegas, delta_t)
    return _pair_sum(amp, phase, np.subtract), _pair_sum(amp, phase, np.add)


def hom_coincidence_probability(weights: np.ndarray, omegas: np.ndarray,
                                delta_t: float) -> float:
    """Coincidence probability of the discretized two-photon state.

    Takes the arguments of ``hom_pair_probabilities`` and returns its
    p_coincidence bit for bit, without the bunching pass.
    """
    return _pair_sum(*_amplitudes(weights, omegas, delta_t), np.subtract)
