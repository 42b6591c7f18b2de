"""Two-photon beamsplitter pair sums.

The discretized coincidence oracle scales as O(M^2) in the number of
spectral bins — the only genuinely hot loop in the package.  The kernel
is blocked numpy: it streams blocks of 256 rows, so its temporaries take
O(256 M) memory rather than several M x M complex arrays, and reduces
each block with ``np.dot``.  The block temporaries are allocated once
per call, at the largest block size, and every block is written into
them in place.  It performs explicit pairwise mode-operator
bookkeeping; it may not collapse the sum into the factorized
characteristic-function shortcut used by the closed forms the oracle
exists to check.  ``_pair_sums_loops`` is the plain-Python reference
the tests compare it with.

It has two entry points on one block loop.  ``hom_pair_probabilities``
sums the coincidence and bunching totals independently, in three
buffers, for the unitarity check.  ``hom_coincidence_probability`` sums
the coincidence total alone, in two buffers and with one ``np.dot`` per
block, for the oracle; its value is the other's p_coincidence bit for
bit.  Median of 6 fresh-process runs (one BLAS thread, 2-vCPU x86-64
host, Python 3.11, numpy 2.4), both totals -> coincidence only:
7.8 -> 6.3 ms at M = 1024 and 26.6 -> 16.8 ms at M = 2048.

numpy loads with this module, so its callers import it inside the
functions that run the oracle: importing the package loads no numpy.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["hom_coincidence_probability", "hom_pair_probabilities"]

# Rows per block of the numpy pair sum: its temporaries are three
# _BLOCK_ROWS x (M - _BLOCK_ROWS) complex buffers with the bunching total
# (about 22 MB at M = 2048) and two without it (about 15 MB), never M x M.
_BLOCK_ROWS = 256


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
                buffers: tuple[np.ndarray, ...]) -> tuple[float, ...]:
    # Sum of |C_xy - C_yx|^2 over x in rows, y in cols, and with three
    # buffers also the sum of |C_xy + C_yx|^2, each reduced by np.dot over
    # the float64 view of the complex block.  The block is written into the
    # leading part of the flat buffers; with two, C_xy - C_yx overwrites C_xy.
    shape = (rows.stop - rows.start, cols.stop - cols.start)
    c_xy, c_yx, *spare = (buf[:shape[0] * shape[1]].reshape(shape) for buf in buffers)
    np.multiply(amp[rows, None], ap[cols], out=c_xy)
    np.multiply(ap[rows, None], amp[cols], out=c_yx)
    if not spare:
        c_xy -= c_yx
        d = c_xy.view(np.float64).ravel()
        return (float(np.dot(d, d)),)
    d = np.subtract(c_xy, c_yx, out=spare[0]).view(np.float64).ravel()
    c_xy += c_yx
    s = c_xy.view(np.float64).ravel()
    return float(np.dot(d, d)), float(np.dot(s, s))


def _pair_sums_numpy(amp: np.ndarray, phase: np.ndarray, *,
                     bunching: bool) -> tuple[float, ...]:
    # Streams blocks of _BLOCK_ROWS rows x.  The (y, x) term of either sum
    # equals the (x, y) term bit for bit: C_yx - C_xy is the exact negation
    # of C_xy - C_yx, and C_xy + C_yx commutes.  So each row block adds its
    # diagonal block once and the block right of it twice, which counts
    # every ordered pair once from explicitly evaluated C_xy, C_yx products.
    # The largest block is the first row block's right part (or the
    # diagonal block, when M < 2 _BLOCK_ROWS); every block reuses its buffers.
    # Returns (p_coincidence, p_bunching) from three buffers when
    # ``bunching``, else (p_coincidence,) from two: the same coincidence bits.
    ap = amp * phase
    m = amp.shape[0]
    rows_max = min(_BLOCK_ROWS, m)
    size = rows_max * max(rows_max, m - rows_max)
    buffers = tuple(np.empty(size, np.complex128) for _ in range(3 if bunching else 2))
    totals = [0.0] * (len(buffers) - 1)
    for start in range(0, m, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, m)
        rows = slice(start, stop)
        diag = _block_sums(amp, ap, rows, rows, buffers)
        right = _block_sums(amp, ap, rows, slice(stop, m), buffers)
        for k in range(len(totals)):
            totals[k] += diag[k] + 2.0 * right[k]
    return tuple(0.25 * total for total in totals)


def _amplitudes(weights: np.ndarray, omegas: np.ndarray,
                delta_t: float) -> tuple[np.ndarray, np.ndarray]:
    # Checks the kernel's inputs; returns amp = sqrt(w) and phase = exp(-i omega dt).
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    omegas = np.ascontiguousarray(omegas, dtype=np.float64)
    if weights.shape != omegas.shape or weights.ndim != 1 or weights.size == 0:
        raise ValueError("weights and omegas must be matching non-empty 1-d arrays")
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
    """
    return _pair_sums_numpy(*_amplitudes(weights, omegas, delta_t), bunching=True)


def hom_coincidence_probability(weights: np.ndarray, omegas: np.ndarray,
                                delta_t: float) -> float:
    """Coincidence probability of the discretized two-photon state.

    Takes the arguments of ``hom_pair_probabilities`` and returns its
    p_coincidence bit for bit, with two block buffers instead of three
    and no bunching sum.
    """
    (p_coinc,) = _pair_sums_numpy(*_amplitudes(weights, omegas, delta_t), bunching=False)
    return p_coinc
