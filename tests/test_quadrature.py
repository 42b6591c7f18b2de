"""Quadrature routes, bit for bit: the recorded float.hex of every value they feed.

``quadrature_bits.json`` holds the ``worst`` value of each ``verify`` check,
``hom_coincidence_general`` and ``single_photon_prob_quadrature`` on two
Gaussian packets and one tabulated packet at delays that include 0 and
negative values, and ``downconverted_coincidence`` over the
``dispersion-cancellation`` grid (with its +-50 % beta perturbations) and
the ``downconverted-closed-vs-quadrature`` grid.  The golden CLI test masks
verify's ``%.3e`` digits, so these are the tests that see a quadrature bit
move inside a check.

Re-record, only at a commit whose outputs are known to be right:

    PYTHONPATH=src python tests/test_quadrature.py
"""

import collections
import json
import math
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.integrate

from _cli_helpers import run
from framedrag import fiber, interference, reference
from framedrag.interference import Wavepacket

BITS = Path(__file__).with_name("quadrature_bits.json")
DATA = json.loads(BITS.read_text(encoding="utf-8")) if BITS.exists() else {}


def _hex(value: float) -> str:
    return float(value).hex()


def _floats(values) -> list[float]:
    return [float.fromhex(value) for value in values]


def _packet(spec: dict) -> Wavepacket:
    if spec["kind"] == "gaussian":
        return Wavepacket.gaussian(*_floats(spec["omega0_sigma"]))
    return Wavepacket.tabulated(np.array(_floats(spec["omegas"])),
                                np.array(_floats(spec["density"])))


def _packet_rows(spec: dict) -> list[list[str]]:
    """[delta_t, hom_coincidence_general, single_photon_prob_quadrature] per delay."""
    packet = _packet(spec)
    rows = []
    for delta_t in _floats(spec["delays"]):
        rows.append([_hex(delta_t),
                     _hex(interference.hom_coincidence_general(packet, delta_t)),
                     _hex(interference.single_photon_prob_quadrature(
                         packet.omega0 * delta_t, packet))])
    return rows


def _downconverted(row: list[str]) -> str:
    sigma, a_plus, a_minus, b_plus, b_minus, length = _floats(row[:6])
    coeffs = fiber.DispersionCoefficients(a_plus, a_minus, b_plus, b_minus)
    return _hex(fiber.downconverted_coincidence(sigma, coeffs, length))


def test_checks_keep_their_recorded_bits():
    worst = {res.name: _hex(res.worst) for res in reference.run_all_checks()}
    assert worst == DATA["checks"]


@pytest.mark.parametrize("name", sorted(DATA.get("packets", {})))
def test_packet_quadratures_keep_their_recorded_bits(name):
    spec = DATA["packets"][name]
    assert _packet_rows(spec) == spec["rows"]


def test_tabulated_single_photon_is_the_sum_over_its_atoms():
    # (1 + sum w_k sin(omega_k dt) / sum w_k)/2 over the packet's own trapezoid
    # atoms, summed to 30 digits.  With the route's float phases fl(omega_k dt)
    # the sum and the formula hold to 1e-15; with exact phases the rounding of
    # each phase (half an ulp of up to ~330 rad here) adds its own bound.
    spec = DATA["packets"]["tabulated-skewed"]
    packet = _packet(spec)
    weights = interference._trapz_weights(packet.grid_omega) * packet.grid_density
    atoms = list(zip(packet.grid_omega.tolist(), weights.tolist()))
    with mpmath.workdps(30):
        total = mpmath.fsum(mpmath.mpf(w) for _, w in atoms)
        for recorded in _floats(spec["delays"]):
            delta_phi = packet.omega0 * recorded
            value = interference.single_photon_prob_quadrature(delta_phi, packet)
            dt = delta_phi / packet.omega0  # the delay the route forms
            rounded = mpmath.fsum(w * mpmath.sin(omega * dt) for omega, w in atoms)
            exact = mpmath.fsum(w * mpmath.sin(mpmath.mpf(omega) * dt) for omega, w in atoms)
            phase_bound = 0.5 * 2.0 ** -53 * max(abs(omega * dt) for omega, _ in atoms)
            assert abs(value - (1 + rounded / total) / 2) <= 1e-15, recorded
            assert abs(value - (1 + exact / total) / 2) <= 1e-15 + phase_bound, recorded


def test_downconverted_keeps_its_recorded_bits():
    rows = DATA["downconverted"]["rows"]
    assert [_downconverted(row) for row in rows] == [row[6] for row in rows]


# --- the work the quadratures do ------------------------------------------------

def _count_quad_calls(monkeypatch, argv: list[str]) -> collections.Counter:
    """scipy.integrate.quad calls of one CLI run, by integrand module and weight."""
    calls = collections.Counter()
    real = scipy.integrate.quad

    def counting(func, a, b, *args, **kwargs):
        calls[func.__module__, kwargs.get("weight")] += 1
        return real(func, a, b, *args, **kwargs)

    monkeypatch.setattr(scipy.integrate, "quad", counting)
    assert run(argv)[0] == 0
    return calls


@pytest.mark.parametrize("argv, expected", [
    # chi(0) is integrated once per packet: three packets in verify, one in hom
    (["verify"], {("framedrag.interference", None): 6, ("framedrag.interference", "cos"): 52,
                  ("framedrag.fiber", None): 64, ("framedrag.reference", None): 3}),
    (["hom"], {("framedrag.interference", None): 2, ("framedrag.interference", "cos"): 4}),
    # a tabulated spectrum is summed over its trapezoid atoms in every route
    (["hom", "--spectrum", "SPECTRUM"], {}),
])
def test_quadrature_call_counts(monkeypatch, tmp_path, argv, expected):
    spectrum = tmp_path / "spectrum.txt"
    omegas = np.linspace(1.99e6, 2.03e6, 801)
    x = (omegas - omegas[0]) / 4.0e3
    np.savetxt(spectrum, np.column_stack([omegas, x * x * np.exp(-x)]))
    argv = [str(spectrum) if arg == "SPECTRUM" else arg for arg in argv]
    assert _count_quad_calls(monkeypatch, argv) == expected


def test_downconverted_integrand_runs_once_per_abs_w_and_is_even(monkeypatch):
    # The memo of downconverted_coincidence returns f(w) for -w, which is right
    # only while the integrand is even bit for bit: a term odd in w (a cubic
    # phase, or a reordered product) must fail here.
    body = fiber._downconverted_integrand
    real = scipy.integrate.quad
    nodes, evaluated = [], []

    def recording(func, a, b, *args, **kwargs):
        def node(w):
            nodes.append(w)
            return func(w)
        return real(node, a, b, *args, **kwargs)

    def counted(w, *params):
        evaluated.append((w, params))
        return body(w, *params)

    monkeypatch.setattr(scipy.integrate, "quad", recording)
    monkeypatch.setattr(fiber, "_downconverted_integrand", counted)
    calls = [(float.fromhex(row[0]), fiber.DispersionCoefficients(*_floats(row[1:5])),
              float.fromhex(row[5])) for row in DATA["downconverted"]["rows"]]
    model = fiber.RefractiveModel(A=1.0e5, B=1.44, k0=8.0e6)
    calls.append((4000.0 * math.pi, fiber.dispersion_coefficients(model, 4.19e-9),
                  1.0e4))
    mirrored = 0
    for sigma, coeffs, length in calls:
        nodes.clear()
        evaluated.clear()
        fiber.downconverted_coincidence(sigma, coeffs, length)
        assert sorted(abs(w) for w, _ in evaluated) == sorted({abs(w) for w in nodes})
        params = evaluated[0][1]
        assert all(p == params for _, p in evaluated)
        for w in nodes:
            assert body(-w, *params).hex() == body(w, *params).hex(), (w, params)
        mirrored += len(nodes) - len(evaluated)
    assert mirrored > 0


# --- recording ------------------------------------------------------------------

def _record_packets() -> dict:
    # a skewed five-point spectrum, normalized so that constructing it
    # neither warns nor rescales
    omegas = np.array([1.96e6, 1.98e6, 2.0e6, 2.01e6, 2.04e6])
    density = np.array([0.5, 1.5, 2.0, 1.2, 0.3])
    density /= interference._trapz_weights(omegas) @ density
    specs = {
        "gaussian-narrow": {"kind": "gaussian", "omega0_sigma": [2.0e6, 3.5e3]},
        "gaussian-wide": {"kind": "gaussian", "omega0_sigma": [8.0e6, 4000.0 * math.pi]},
        "tabulated-skewed": {"kind": "tabulated", "omegas": omegas.tolist(),
                             "density": density.tolist()},
    }
    for spec in specs.values():
        for key in ("omega0_sigma", "omegas", "density"):
            if key in spec:
                spec[key] = [_hex(value) for value in spec[key]]
        sigma = _packet(spec).sigma
        spec["delays"] = [_hex(x / sigma) for x in (0.0, 0.5, 1.0, -1.0, 2.5, -4.0)]
        spec["rows"] = _packet_rows(spec)
    return specs


def _record_downconverted() -> dict:
    length, beta = 1.0e4, -1.9e-11
    grid = [(sigma, x, factor)
            for sigma in (1.0e3, 2.0e3, 3.5e3, 5.0e3)
            for x in (0.05, 0.3, 1.0, 2.0, 3.0)
            for factor in (1.0, 1.5, 0.5)]
    grid += [(3.5e3, x, 1.0) for x in (0.1, 0.25)]
    rows = []
    for sigma, x, factor in grid:
        coeffs = reference._grid_coeffs(x / (sigma * length), beta, factor)
        row = [_hex(value) for value in (sigma, coeffs.alpha_plus, coeffs.alpha_minus,
                                         coeffs.beta_plus, coeffs.beta_minus, length)]
        rows.append(row + [_downconverted(row)])
    return {"columns": ["sigma", "alpha_plus", "alpha_minus", "beta_plus", "beta_minus",
                        "length", "downconverted_coincidence"], "rows": rows}


if __name__ == "__main__":
    data = {"checks": {res.name: _hex(res.worst) for res in reference.run_all_checks()},
            "packets": _record_packets(),
            "downconverted": _record_downconverted()}
    with open(BITS, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"{BITS}: {len(data['checks'])} checks, "
          f"{sum(len(spec['rows']) for spec in data['packets'].values())} packet rows, "
          f"{len(data['downconverted']['rows'])} down-conversion rows", file=sys.stderr)
