"""Two-photon beamsplitter pair sums.

The discretized coincidence oracle scales as O(M^2) in the number of
spectral bins — the only genuinely hot loop in the package.  The kernel
is blocked numpy: it streams blocks of 256 rows, so its temporaries take
O(256 M) memory rather than several M x M complex arrays, and reduces
each block with one ``np.dot``.  Each block is filled a chunk of rows at
a time: C_xy is written straight into the block buffer, C_yx into a
512 KiB scratch, and subtracted while both are still in cache, so every
block is written once.  The buffers are allocated once per call, at the
largest block size, and every block reuses them.  It performs explicit
pairwise mode-operator bookkeeping; it may not collapse the sum into the
factorized characteristic-function shortcut used by the closed forms the
oracle exists to check.  ``_pair_sums_loops`` is the plain-Python
reference the tests compare it with.

It has two entry points on one block loop.  ``hom_pair_probabilities``
sums the coincidence and bunching totals independently, in two block
buffers, for the unitarity check.  ``hom_coincidence_probability`` sums
the coincidence total alone, in one block buffer, for the oracle; its
value is the other's p_coincidence bit for bit.  Median of 6
fresh-process runs (one BLAS thread, 2-vCPU x86-64 host with AVX-512,
Python 3.11, numpy 2.4), coincidence only: 3.3 ms at M = 1024 and
13.0 ms at M = 2048 (5.9 and 17.7 ms when C_xy and C_yx each filled a
whole block buffer); both totals: 4.6 and 18.1 ms (7.9 and 26.7 ms).

numpy loads with this module, so its callers import it inside the
functions that run the oracle: importing the package loads no numpy.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["hom_coincidence_probability", "hom_pair_probabilities"]

# Rows per block of the numpy pair sum: its temporaries are two
# _BLOCK_ROWS x (M - _BLOCK_ROWS) complex buffers with the bunching total
# (14 MiB at M = 2048) and one without it (7 MiB), never M x M.
_BLOCK_ROWS = 256
# Complex values in the scratch that holds C_yx for one chunk of a block's
# rows (512 KiB, inside a 2 MiB per-core L2 cache), so each chunk's
# products are subtracted while still in cache; a chunk is
# max(1, _SCRATCH // block width) rows.
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
                buffers: tuple[np.ndarray, ...], scratch: np.ndarray) -> tuple[float, ...]:
    # Sum of |C_xy - C_yx|^2 over x in rows, y in cols, and with two buffers
    # also the sum of |C_xy + C_yx|^2, each reduced by one np.dot over the
    # float64 view of the whole block.  The block fills the leading part of
    # the flat buffers a chunk of rows at a time: C_xy goes straight into the
    # chunk's rows of the first, C_yx into the scratch; the second takes
    # C_xy + C_yx, then C_xy - C_yx overwrites C_xy.
    n_rows, n_cols = rows.stop - rows.start, cols.stop - cols.start
    blocks = [buf[:n_rows * n_cols].reshape(n_rows, n_cols) for buf in buffers]
    step = max(1, _SCRATCH // n_cols)
    for first in range(0, n_rows, step):
        last = min(first + step, n_rows)
        x = slice(rows.start + first, rows.start + last)
        c_xy = blocks[0][first:last]
        c_yx = scratch[:(last - first) * n_cols].reshape(last - first, n_cols)
        np.multiply(amp[x, None], ap[cols], out=c_xy)
        np.multiply(ap[x, None], amp[cols], out=c_yx)
        if len(blocks) == 2:
            np.add(c_xy, c_yx, out=blocks[1][first:last])
        c_xy -= c_yx
    flat = (block.view(np.float64).ravel() for block in blocks)
    return tuple(float(np.dot(v, v)) for v in flat)


def _pair_sums_numpy(amp: np.ndarray, phase: np.ndarray, *,
                     bunching: bool) -> tuple[float, ...]:
    # Streams blocks of _BLOCK_ROWS rows x.  The (y, x) term of either sum
    # equals the (x, y) term bit for bit: C_yx - C_xy is the exact negation
    # of C_xy - C_yx, and C_xy + C_yx commutes.  So each row block adds its
    # diagonal block once and the block right of it (none for the last row
    # block) twice, which counts every ordered pair once from explicitly
    # evaluated C_xy, C_yx products.  The largest block is the first row
    # block's right part (or the diagonal block, when M < 2 _BLOCK_ROWS);
    # every block reuses its buffers and the scratch.  Returns
    # (p_coincidence, p_bunching) from two block buffers when ``bunching``,
    # else (p_coincidence,) from one: the same coincidence bits.
    ap = amp * phase
    m = amp.shape[0]
    rows_max = min(_BLOCK_ROWS, m)
    size = rows_max * max(rows_max, m - rows_max)
    # One allocation holds the block buffers and the scratch (one chunk: at
    # most max(_SCRATCH, M) values, never more than a block).  As separate
    # arrays, glibc handed them back to the OS and faulted them in again on
    # every call: 109 minor faults per call at M = 100.
    n_buffers = 2 if bunching else 1
    work = np.empty(n_buffers * size + min(size, max(_SCRATCH, m)), np.complex128)
    buffers = tuple(work[k * size:(k + 1) * size] for k in range(n_buffers))
    scratch = work[n_buffers * size:]
    totals = [0.0] * n_buffers
    for start in range(0, m, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, m)
        rows = slice(start, stop)
        diag = _block_sums(amp, ap, rows, rows, buffers, scratch)
        right = (_block_sums(amp, ap, rows, slice(stop, m), buffers, scratch)
                 if stop < m else (0.0,) * n_buffers)
        for k in range(n_buffers):
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
    p_coincidence bit for bit, with one block buffer instead of two and
    no bunching sum.
    """
    (p_coinc,) = _pair_sums_numpy(*_amplitudes(weights, omegas, delta_t), bunching=False)
    return p_coinc
