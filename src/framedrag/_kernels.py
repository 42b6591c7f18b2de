"""Two-photon beamsplitter pair sums.

The discretized coincidence oracle scales as O(M^2) in the number of
spectral bins — the only genuinely hot loop in the package.  The kernel
is numpy: it walks blocks of 256 rows and forms each block a chunk of
rows at a time, C_xy into a 512 KiB chunk buffer and C_yx into a
512 KiB scratch, then subtracts them and sums |C_xy - C_yx|^2 over the
chunk while both are still in cache.  So its temporaries are a few
chunk-sized buffers whatever M is, never a block or an M x M array.
The buffers are allocated once per call and every chunk reuses them.
Each chunk is reduced by ``np.einsum``'s own loop, not by BLAS, and the
chunk totals are added in a fixed order, so the bits do not depend on
the BLAS library or its thread count.  It performs explicit pairwise
mode-operator bookkeeping; it may not collapse the sum into the
factorized characteristic-function shortcut used by the closed forms the
oracle exists to check.  ``_pair_sums_loops`` is the plain-Python
reference the tests compare it with.

It has two entry points on one block loop.  ``hom_pair_probabilities``
sums the coincidence and bunching totals independently, in two chunk
buffers, for the unitarity check.  ``hom_coincidence_probability`` sums
the coincidence total alone, in one chunk buffer, for the oracle; its
value is the other's p_coincidence bit for bit.  Median of 6
fresh-process runs (one BLAS thread, 2-vCPU x86-64 host with AVX-512,
Python 3.11, numpy 2.4), coincidence only: 2.7 ms at M = 1024 and
9.7 ms at M = 2048 (2.7 and 10.0 ms when each block was reduced by one
BLAS ``np.dot``); both totals: 4.1 and 15.3 ms (4.2 and 14.0 ms).

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
# Complex values in each chunk buffer and the scratch (512 KiB, inside a
# 2 MiB per-core L2 cache), so each chunk's products are subtracted and
# reduced while still in cache; a chunk is max(1, _SCRATCH // block width)
# rows.
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


def _block_sums(amp: np.ndarray, ap: np.ndarray, rows: slice, cols: slice,
                buffers: np.ndarray) -> tuple[float, ...]:
    # Sum of |C_xy - C_yx|^2 over x in rows, y in cols, and with two sum
    # buffers before the scratch also the sum of |C_xy + C_yx|^2.  The block
    # is formed a chunk of rows at a time and each chunk is reduced while it
    # is in cache: C_xy goes into the first buffer, C_yx into the scratch;
    # the second, if any, takes C_xy + C_yx, then C_xy - C_yx overwrites
    # C_xy.  einsum sums each float64 view in its own loop, never a BLAS
    # call, so the bits do not depend on the BLAS library or its thread
    # count; chunk totals are added in row order.
    n_rows, n_cols = rows.stop - rows.start, cols.stop - cols.start
    *sums, scratch = buffers
    totals = [0.0] * len(sums)
    step = max(1, _SCRATCH // n_cols)
    for first in range(0, n_rows, step):
        last = min(first + step, n_rows)
        x = slice(rows.start + first, rows.start + last)
        size = (last - first) * n_cols
        c_xy = sums[0][:size].reshape(last - first, n_cols)
        c_yx = scratch[:size].reshape(last - first, n_cols)
        np.multiply(amp[x, None], ap[cols], out=c_xy)
        np.multiply(ap[x, None], amp[cols], out=c_yx)
        if len(sums) == 2:
            np.add(c_xy, c_yx, out=sums[1][:size].reshape(last - first, n_cols))
        c_xy -= c_yx
        for k, buf in enumerate(sums):
            v = buf[:size].view(np.float64)
            totals[k] += float(np.einsum("i,i->", v, v))
    return tuple(totals)


def _pair_sums_numpy(amp: np.ndarray, phase: np.ndarray, *,
                     bunching: bool) -> tuple[float, ...]:
    # Streams blocks of _BLOCK_ROWS rows x.  The (y, x) term of either sum
    # equals the (x, y) term bit for bit: C_yx - C_xy is the exact negation
    # of C_xy - C_yx, and C_xy + C_yx commutes.  So each row block adds its
    # diagonal block once and the block right of it (none for the last row
    # block) twice, which counts every ordered pair once from explicitly
    # evaluated C_xy, C_yx products.  Returns (p_coincidence, p_bunching)
    # when ``bunching``, else (p_coincidence,): the same coincidence bits.
    ap = amp * phase
    m = amp.shape[0]
    rows_max = min(_BLOCK_ROWS, m)
    # Every chunk holds at most max(_SCRATCH, M) values (one row when a row
    # is wider than the scratch), never more than the largest block.  One
    # allocation holds a chunk buffer per sum and the scratch: as separate
    # arrays, glibc handed them back to the OS and faulted them in again on
    # every call (109 minor faults per call at M = 100).
    chunk = min(rows_max * max(rows_max, m - rows_max), max(_SCRATCH, m))
    n_sums = 2 if bunching else 1
    buffers = np.empty((n_sums + 1, chunk), np.complex128)
    totals = [0.0] * n_sums
    for start in range(0, m, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, m)
        rows = slice(start, stop)
        diag = _block_sums(amp, ap, rows, rows, buffers)
        right = (_block_sums(amp, ap, rows, slice(stop, m), buffers)
                 if stop < m else (0.0,) * n_sums)
        for k in range(n_sums):
            totals[k] += diag[k] + 2.0 * right[k]
    return tuple(0.25 * total for total in totals)


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
    (p_coincidence, p_bunching), each summed on its own over every pair;
    the two sum to 1 up to rounding, which the ``fock-unitarity`` check
    tests.  p_coincidence is bit for bit ``hom_coincidence_probability``.
    Raises ValueError for mismatched or empty arrays, a negative or
    non-finite weight, a non-finite frequency or a non-finite delay.
    """
    return _pair_sums_numpy(*_amplitudes(weights, omegas, delta_t), bunching=True)


def hom_coincidence_probability(weights: np.ndarray, omegas: np.ndarray,
                                delta_t: float) -> float:
    """Coincidence probability of the discretized two-photon state.

    Takes the arguments of ``hom_pair_probabilities`` and returns its
    p_coincidence bit for bit, with one chunk buffer instead of two and
    no bunching sum.
    """
    (p_coinc,) = _pair_sums_numpy(*_amplitudes(weights, omegas, delta_t), bunching=False)
    return p_coinc
