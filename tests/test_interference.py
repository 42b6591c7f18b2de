"""Photon interference: closed forms vs quadrature vs the pairwise Fock oracle."""

import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framedrag import _kernels, interference
from framedrag.errors import GuardViolation
from framedrag.interference import (
    SpectrumNormalizationWarning,
    Wavepacket,
    fock_grid,
    fock_oracle_hom,
    gaussian_visibility,
    hom_coincidence_gaussian,
    hom_coincidence_general,
    hom_visibility,
    load_spectrum,
    single_photon_prob,
    single_photon_prob_gaussian,
    single_photon_prob_quadrature,
)

PACKET = Wavepacket.gaussian(2.0e6, 3.5e3)
KERNEL_BITS = Path(__file__).with_name("fock_kernel_bits.json")


# --- single-photon routes ----------------------------------------------------

def test_mono_prob_exact_points():
    assert single_photon_prob(0.0) == 0.5
    assert single_photon_prob(math.pi / 2.0) == pytest.approx(1.0, abs=1e-15)
    assert single_photon_prob(-math.pi / 2.0) == pytest.approx(0.0, abs=1e-15)


def test_gaussian_visibility_basics():
    assert gaussian_visibility(0.0, 3.5e3) == 1.0
    assert gaussian_visibility(1.0e-3, 3.5e3) < gaussian_visibility(1.0e-4, 3.5e3)
    with pytest.raises(ValueError):
        gaussian_visibility(1.0, 0.0)


def test_one_minus_visibility_earth_delay_frozen():
    v = gaussian_visibility(3.4621633325275272e-9, 3.5e3)
    assert math.isclose(1.0 - v, 1.4683554372396657e-10, rel_tol=1e-5)


def test_narrowband_guard():
    with pytest.raises(GuardViolation, match="narrowband"):
        single_photon_prob_gaussian(0.1, 1.0e6, 2.5e5)
    forced = single_photon_prob_gaussian(0.1, 1.0e6, 2.5e5, force=True)
    x = 0.1 * 0.25
    assert forced == pytest.approx(
        0.5 * (1.0 + math.exp(-x * x) * math.sin(0.1)), rel=1e-15)
    with pytest.raises(ValueError):
        single_photon_prob_gaussian(0.1, -1.0, 2.0)


@pytest.mark.parametrize("delta_phi", [0.0, 7.0e-3, 0.05])
def test_single_photon_closed_matches_quadrature(delta_phi):
    closed = single_photon_prob_gaussian(delta_phi, PACKET.omega0, PACKET.sigma)
    ruled = single_photon_prob_quadrature(delta_phi, PACKET)
    assert ruled == pytest.approx(closed, abs=1e-9)


def test_single_photon_envelope_curvature():
    # the closed form dephases as exp(-(sigma dt)^2) while the exact
    # spectral average decays as exp(-(sigma dt)^2/4); the two routes only
    # agree while sigma*dt << 1, which the comparisons above stay inside
    delta_t = 1.0 / PACKET.sigma
    envelope = interference._centered_cosine_transform(PACKET, delta_t)
    assert math.isclose(envelope, math.exp(-0.25), rel_tol=1e-9)


@pytest.mark.parametrize("points", [25, 49, 201])
def test_sampled_gaussian_single_photon_matches_the_gaussian_route(points):
    # The atoms of a grid with spacing h have a chi(dt) that repeats with
    # period 2 pi/h, so the nearest alias adds up to exp(-(2 pi sigma/h -
    # sigma dt)^2/4)/2 to the probability: 5.8e-11 at 25 points and
    # sigma dt = 3, at most 3.8e-13 at the other points here.
    grid = np.linspace(PACKET.omega0 - 6.0 * PACKET.sigma, PACKET.omega0 + 6.0 * PACKET.sigma,
                       points)
    tab = Wavepacket.tabulated(grid, PACKET.density(grid))
    alias_period = 2.0 * math.pi * PACKET.sigma / (grid[1] - grid[0])
    for x in (0.0, 0.5, 1.0, 2.0, 3.0):
        delta_t = x / PACKET.sigma
        atoms = single_photon_prob_quadrature(tab.omega0 * delta_t, tab)
        gaussian = single_photon_prob_quadrature(PACKET.omega0 * delta_t, PACKET)
        alias = 0.5 * math.exp(-0.25 * (alias_period - x) ** 2)
        assert abs(atoms - gaussian) <= 1e-11 + alias, (points, x)


# --- two-photon routes -------------------------------------------------------

def test_hom_gaussian_exact_points():
    assert hom_coincidence_gaussian(3.5e3, 0.0) == 0.0
    assert math.isclose(hom_coincidence_gaussian(1.0, math.sqrt(2.0)),
                        0.5 - 0.5 / math.e, rel_tol=1e-15)
    assert hom_coincidence_gaussian(3.5e3, 1.0) == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ValueError):
        hom_coincidence_gaussian(-1.0, 0.1)


def test_visibility_exponent_ratio_is_two():
    sigma, delta_t = 3.5e3, 2.0e-4
    v = gaussian_visibility(delta_t, sigma)
    one_minus_2p = 1.0 - 2.0 * hom_coincidence_gaussian(sigma, delta_t)
    assert math.isclose(math.log(v), 2.0 * math.log(one_minus_2p), rel_tol=1e-12)


@pytest.mark.parametrize("delta_t", [0.0, 1.0e-4, 5.0e-4, 2.0e-3])
def test_hom_general_matches_closed_gaussian(delta_t):
    assert hom_coincidence_general(PACKET, delta_t) == pytest.approx(
        hom_coincidence_gaussian(PACKET.sigma, delta_t), abs=1e-9)


def test_hom_general_zero_delay_is_exactly_zero():
    assert hom_coincidence_general(PACKET, 0.0) == 0.0
    two = Wavepacket.tabulated([1.0e6, 3.0e6], np.full(2, 5.0e-7))
    assert hom_coincidence_general(two, 0.0) == 0.0


def test_two_point_spectrum_beats_exactly():
    d, omega0 = 1.0e6, 2.0e6
    density = np.full(2, 1.0 / (2.0 * d))  # integrates to 1: no renormalization
    two = Wavepacket.tabulated([omega0 - d, omega0 + d], density)
    assert two.omega0 == pytest.approx(omega0, rel=1e-12)
    assert two.sigma == pytest.approx(math.sqrt(2.0) * d, rel=1e-12)
    for delta_t in (0.0, 1.0e-7, 3.0e-7, 1.0e-6):
        expected = 0.5 * (1.0 - math.cos(d * delta_t) ** 2)
        assert hom_coincidence_general(two, delta_t) == pytest.approx(
            expected, abs=1e-13)


def test_hom_visibility():
    assert hom_visibility(0.0) == 1.0
    assert hom_visibility(0.25) == 0.5
    assert hom_visibility(0.5) == 0.0
    with pytest.raises(ValueError, match="0 <= p0 <= 0.5"):
        hom_visibility(0.6)
    with pytest.raises(ValueError, match="0 <= p0 <= 0.5"):
        hom_visibility(-0.1)


# --- Fock oracle and its kernel ----------------------------------------------

def test_fock_oracle_matches_closed_form():
    assert fock_oracle_hom(PACKET, 0.0, bins=256) == 0.0
    for delta_t in (2.0e-4, 6.0e-4):
        assert fock_oracle_hom(PACKET, delta_t, bins=512) == pytest.approx(
            hom_coincidence_gaussian(PACKET.sigma, delta_t), abs=1e-9)


@pytest.mark.parametrize("delta_t", [0.0, 3.0e-4])
@pytest.mark.parametrize("bins", [2, 255, 256, 257, 300, 512])
def test_numpy_kernel_matches_explicit_loops(bins, delta_t):
    # Sizes straddle the 256-row block: one partial, one exact, one block
    # plus a single row, a partial second block, and two full blocks.
    # Halved weights make the explicit totals sum to 1/4, so a bunching
    # total derived as 1 - p_c, or a coincidence taken from 1 - |chi|^2,
    # cannot match.
    omegas, weights = fock_grid(PACKET, bins)
    amp, phase = np.sqrt(0.5 * weights), np.exp(-1j * omegas * delta_t)
    p_c, p_b = _kernels._pair_sums_loops(amp, phase)
    assert _kernels._pair_sum(amp, phase, np.subtract) == pytest.approx(p_c, rel=1e-12)
    assert _kernels._pair_sum(amp, phase, np.add) == pytest.approx(p_b, rel=1e-12)


def _peak_allocation(call, *args) -> int:
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_numpy_kernel_peak_allocation():
    # One M x M complex array at M = 2048 is 64 MiB; each pass of the kernel
    # holds one chunk buffer and one scratch, each max(2**15, M) complex
    # values (512 KiB up to M = 2**15), so they do not grow with M, and the
    # two totals, summed in passes of their own, hold no more than the oracle.
    peaks = {}
    for bins in (512, 2048):
        omegas, weights = fock_grid(PACKET, bins)
        peaks[bins] = _peak_allocation(_kernels.hom_pair_probabilities, weights, omegas, 3.0e-4)
    assert peaks[2048] <= 1.5 * 2**20
    assert peaks[2048] - peaks[512] < 2**19


def test_fock_oracle_peak_allocation():
    # The oracle sums the coincidence total alone: its temporaries are one
    # 512 KiB chunk buffer and the 512 KiB scratch at any M up to 2**15.
    peaks = {bins: _peak_allocation(fock_oracle_hom, PACKET, 3.0e-4, bins)
             for bins in (512, 2048)}
    assert peaks[2048] <= 2 * 2**20
    assert peaks[2048] - peaks[512] < 2**19


@pytest.mark.parametrize("weights, omegas, delta_t, message", [
    ([0.6, -0.1, 0.5], [1.0, 2.0, 3.0], 1.0, "weights must be finite and non-negative, got -0.1"),
    ([0.5, math.inf], [1.0, 2.0], 1.0, "weights must be finite and non-negative, got inf"),
    ([0.5, math.nan], [1.0, 2.0], 1.0, "weights must be finite and non-negative, got nan"),
    ([0.5, 0.5], [1.0, math.nan], 1.0, "omegas must be finite, got nan"),
    ([0.5, 0.5], [-math.inf, 2.0], 1.0, "omegas must be finite, got -inf"),
    ([0.5, 0.5], [1.0, 2.0], math.nan, "delta_t must be finite, got nan"),
    ([0.5, 0.5], [1.0, 2.0, 3.0], 1.0, "weights and omegas must be matching"),
    ([], [], 1.0, "weights and omegas must be matching non-empty"),
])
@pytest.mark.parametrize("entry", [_kernels.hom_coincidence_probability,
                                   _kernels.hom_pair_probabilities])
def test_kernel_inputs_name_their_faults(entry, weights, omegas, delta_t, message):
    # A bad weight or frequency used to come back as nan, with at most a
    # numpy RuntimeWarning.
    with pytest.raises(ValueError, match=re.escape(message)):
        entry(np.array(weights), np.array(omegas), delta_t)


def _recorded_kernel_bits():
    # float.hex of both entry points, recorded from the kernel that reduces
    # each chunk of rows in cache, on two Gaussian packets at sizes
    # straddling the 256-row block and the chunk boundaries, and at delays 0,
    # 1/sigma, -3e-4 and two seeded random values.
    data = json.loads(KERNEL_BITS.read_text(encoding="utf-8"))
    packets = {name: Wavepacket.gaussian(*map(float.fromhex, pair))
               for name, pair in data["packets"].items()}
    cases = {}
    for name, bins, delta_t, p_c, p_b in data["cases"]:
        omegas, weights = fock_grid(packets[name], bins)
        cases[name, bins, float.fromhex(delta_t)] = (
            (weights, omegas, float.fromhex(delta_t)), (float.fromhex(p_c), float.fromhex(p_b)))
    return cases


def test_numpy_kernel_keeps_its_recorded_bits_in_any_call_order():
    # Within a call, chunks of different shapes share the same buffers; sizes
    # below, at and past one block, called in shuffled order, must give the
    # recorded bits every time and agree with a sum over 100-row strips that
    # shares nothing with the kernel's block or chunk layout.  The
    # coincidence entry point must give the p_coincidence bits of the entry
    # point that also sums bunching.
    cases = _recorded_kernel_bits()
    amplitudes = {key: (np.sqrt(w), np.exp(-1j * o * dt)) for key, ((w, o, dt), _) in cases.items()}
    keys = list(cases)
    for key in (keys[i] for i in np.random.default_rng(7).permutation(len(keys))):
        inputs, recorded = cases[key]
        assert _kernels._pair_sum(*amplitudes[key], np.subtract) == recorded[0], key
        assert _kernels._pair_sum(*amplitudes[key], np.add) == recorded[1], key
        assert _kernels.hom_coincidence_probability(*inputs) == recorded[0], key
        assert _kernels.hom_pair_probabilities(*inputs) == recorded, key
    for key, (amp, phase) in amplitudes.items():
        ap = amp * phase
        coinc = bunch = 0.0
        for x in range(0, key[1], 100):
            c_xy, c_yx = amp[x:x + 100, None] * ap, ap[x:x + 100, None] * amp
            coinc += float(np.sum(np.abs(c_xy - c_yx) ** 2))
            bunch += float(np.sum(np.abs(c_xy + c_yx) ** 2))
        assert cases[key][1][0] == pytest.approx(0.25 * coinc, rel=1e-12, abs=1e-300), key
        assert cases[key][1][1] == pytest.approx(0.25 * bunch, rel=1e-12), key


# Prints float.hex of both entry points on the grids the CLI and verify use.
THREAD_PROBE = """
from framedrag import _kernels, interference
packet = interference.Wavepacket.gaussian(2.0e6, 3.5e3)
for bins in (512, 1024, 2048):
    omegas, weights = interference.fock_grid(packet, bins)
    for delta_t in (0.0, 3.0e-4, -1.0e-4):
        p_c, p_b = _kernels.hom_pair_probabilities(weights, omegas, delta_t)
        print(bins, delta_t, p_c.hex(), p_b.hex(),
              _kernels.hom_coincidence_probability(weights, omegas, delta_t).hex())
"""


def test_fock_bits_do_not_depend_on_the_blas_thread_count():
    # Each run is a fresh process, since BLAS reads its thread count at load.
    # A BLAS dot in the reduction sums in an order set by its thread count.
    src = str(Path(__file__).resolve().parents[1] / "src")

    def run(threads, *argv):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
               "OMP_NUM_THREADS": str(threads),
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        return subprocess.run([sys.executable, *argv], capture_output=True, env=env,
                              check=True).stdout

    for argv in (["-c", THREAD_PROBE],
                 ["-m", "framedrag.cli", "hom", "--set", "interference.bins=2048"]):
        assert run(1, *argv) == run(2, *argv), argv


@given(st.lists(st.floats(1e-3, 1.0), min_size=2, max_size=32),
       st.floats(0.0, 1.0e-2))
@settings(max_examples=100, deadline=None)
def test_fock_unitarity(raw_weights, delta_t):
    weights = np.asarray(raw_weights)
    weights /= weights.sum()
    omegas = 1.0e6 + 1.0e3 * np.arange(weights.size)
    p_c, p_b = _kernels.hom_pair_probabilities(weights, omegas, delta_t)
    assert p_c + p_b == pytest.approx(1.0, abs=1e-12)
    assert -1e-15 <= p_c <= 0.5 + 1e-12


def test_fock_grid_caps_and_bins():
    with pytest.raises(ValueError, match="bins"):
        fock_grid(PACKET, bins=1)
    with pytest.raises(ValueError, match="capped"):
        fock_grid(PACKET, bins=interference.MAX_FOCK_BINS + 1)
    omegas, weights = fock_grid(PACKET, 512)
    assert omegas.shape == (512,)
    assert weights.sum() == pytest.approx(1.0, rel=1e-14)
    assert np.all(weights >= 0.0)
    big = np.linspace(1.0e6, 3.0e6, interference.MAX_FOCK_BINS + 1)
    tab = Wavepacket.tabulated(big, np.full(big.size, 5.0e-7))
    with pytest.raises(ValueError, match="capped"):
        fock_grid(tab)


def test_fock_grid_rejects_a_width_below_float_spacing():
    # +-6 sigma = 3e-124 rad/m around 2e6 rad/m: every bin rounds to omega0,
    # so the trapezoid weights sum to 0 and normalizing them would give nan
    with pytest.raises(ValueError, match="weights sum to 0.0"):
        fock_grid(Wavepacket.gaussian(2.0e6, 5.0e-125), 64)


# --- spectra and containers ----------------------------------------------------

def test_gaussian_density_normalized():
    grid = np.linspace(PACKET.omega0 - 10.0 * PACKET.sigma,
                       PACKET.omega0 + 10.0 * PACKET.sigma, 2001)
    assert np.trapezoid(PACKET.density(grid), grid) == pytest.approx(1.0, abs=1e-12)


def test_tabulated_gaussian_recovers_width_convention():
    grid = np.linspace(2.0e6 - 8.0 * 3.5e3, 2.0e6 + 8.0 * 3.5e3, 4001)
    tab = Wavepacket.tabulated(grid, PACKET.density(grid))
    assert tab.omega0 == pytest.approx(2.0e6, rel=1e-12)
    assert tab.sigma == pytest.approx(3.5e3, rel=1e-9)
    # both representations of the same spectrum predict the same coincidence
    for delta_t in (1.0e-4, 4.0e-4):
        assert hom_coincidence_general(tab, delta_t) == pytest.approx(
            hom_coincidence_gaussian(3.5e3, delta_t), abs=1e-9)


def test_tabulated_density_vanishes_off_grid():
    two = Wavepacket.tabulated([1.0e6, 3.0e6], np.full(2, 5.0e-7))
    assert two.density(0.5e6) == 0.0
    assert two.density(4.0e6) == 0.0


def test_tabulated_packet_copies_the_callers_arrays():
    # the packet freezes its own grid; the caller's array stays theirs and writeable
    grid, density = np.linspace(1.0e6, 3.0e6, 9), np.full(9, 5.0e-7)
    tab = Wavepacket.tabulated(grid, density)
    assert grid.flags.writeable and density.flags.writeable
    assert tab.grid_omega is not grid and tab.grid_density is not density
    assert not tab.grid_omega.flags.writeable and not tab.grid_density.flags.writeable
    grid[0] = 1.5e6
    assert tab.grid_omega[0] == 1.0e6


def test_gaussian_density_float_and_array_agree_bit_for_bit():
    # quad calls density with a Python float, the Fock grid with an array
    xs = np.linspace(PACKET.omega0 - 12.0 * PACKET.sigma,
                     PACKET.omega0 + 12.0 * PACKET.sigma, 20001)
    xs = np.concatenate([xs, np.random.default_rng(3).uniform(xs[0], xs[-1], 20000)])
    batch = PACKET.density(xs)
    assert [float(PACKET.density(x)) for x in xs.tolist()] == batch.tolist()


def test_tabulated_density_of_a_float_is_the_grid_interpolation():
    grid = np.linspace(1.0e6, 3.0e6, 9)
    tab = Wavepacket.tabulated(grid, np.linspace(1.0, 2.0, 9) / 3.0e6)
    for x in (0.5e6, 1.0e6, 1.37e6, 2.5e6, 3.0e6, 4.0e6):
        assert tab.density(x) == np.interp(x, grid, tab.grid_density, left=0.0, right=0.0)


def test_wavepacket_validation():
    with pytest.raises(ValueError, match="omega0"):
        Wavepacket.gaussian(0.0, 1.0)
    with pytest.raises(ValueError, match="sigma"):
        Wavepacket.gaussian(1.0, -1.0)
    for grid in ({"grid_omega": np.array([1.0])}, {"grid_density": np.array([1.0])}):
        with pytest.raises(ValueError, match="both grid_omega and grid_density"):
            Wavepacket(omega0=1.0, sigma=1.0, **grid)
    with pytest.raises(ValueError, match="increasing"):
        Wavepacket.tabulated([2.0, 1.0], [1.0, 1.0])
    with pytest.raises(ValueError, match="non-negative"):
        Wavepacket.tabulated([1.0, 2.0], [-1.0, 1.0])
    with pytest.raises(ValueError, match="not all zero"):
        Wavepacket.tabulated([1.0, 2.0], [0.0, 0.0])
    with pytest.raises(ValueError, match="positive"):
        Wavepacket.tabulated([0.0, 1.0], [1.0, 1.0])
    with pytest.raises(ValueError, match="length >= 2"):
        Wavepacket.tabulated([1.0], [1.0])


def test_load_spectrum_roundtrip(tmp_path):
    path = tmp_path / "spectrum.txt"
    path.write_text(
        "# omega_inv_m  density\n"
        "1.9e6  0.0\n"
        "2.0e6  2.0\n"
        "2.1e6  0.0\n")
    with pytest.warns(SpectrumNormalizationWarning):
        packet = load_spectrum(path)
    assert packet.grid_omega is not None
    assert packet.omega0 == pytest.approx(2.0e6, rel=1e-12)
    assert packet.sigma > 0.0
    total = interference._trapz_weights(packet.grid_omega) @ packet.grid_density
    assert total == pytest.approx(1.0, rel=1e-12)


def test_loaded_narrowband_spectra_have_zero_coincidence_at_zero_delay(tmp_path):
    # chi(0) and the weight sum used to round apart, giving p(0) = -2.2e-16 for
    # about one spectrum in five here and a refused visibility
    rng = np.random.default_rng(3)
    path = tmp_path / "spectrum.txt"
    for _ in range(300):
        omegas = np.sort(rng.normal(2.0e6, 2.0e3, size=16))
        density = np.exp(-0.5 * ((omegas - 2.0e6) / 2.0e3) ** 2) * rng.uniform(0.5, 1.0, 16)
        np.savetxt(path, np.column_stack([omegas, density]))
        with pytest.warns(SpectrumNormalizationWarning):
            packet = load_spectrum(path)
        assert hom_coincidence_general(packet, 0.0) == 0.0
        assert hom_visibility(hom_coincidence_general(packet, 0.0)) == 1.0
        assert 0.0 <= hom_coincidence_general(packet, 1e-12) <= 0.5


def test_load_spectrum_rejects_bad_columns(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1.0 2.0 3.0\n4.0 5.0 6.0\n")
    with pytest.raises(ValueError, match="two columns"):
        load_spectrum(path)


if __name__ == "__main__":
    # Re-records p_coincidence and p_bunching of fock_kernel_bits.json for
    # its recorded inputs, only at a commit whose kernel is known to be right:
    #     PYTHONPATH=src python tests/test_interference.py
    data = json.loads(KERNEL_BITS.read_text(encoding="utf-8"))
    packets = {name: Wavepacket.gaussian(*map(float.fromhex, pair))
               for name, pair in data["packets"].items()}
    rows = []
    for name, bins, delta_t, *_ in data["cases"]:
        omegas, weights = fock_grid(packets[name], bins)
        p_c, p_b = _kernels.hom_pair_probabilities(weights, omegas, float.fromhex(delta_t))
        rows.append(json.dumps([name, bins, delta_t, p_c.hex(), p_b.hex()]))
    with open(KERNEL_BITS, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(f'{{\n  "packets": {json.dumps(data["packets"])},\n'
                     f'  "columns": {json.dumps(data["columns"])},\n'
                     '  "cases": [\n    ' + ",\n    ".join(rows) + "\n  ]\n}\n")
    print(f"{KERNEL_BITS}: {len(rows)} cases")
