"""The built-in cross-validation suite: all green, and tampering gets caught."""

import math
import re

import numpy as np
import pytest

from framedrag import _kernels, cli, fiber, interference, kerr, reference
from framedrag.scenario import QUOTED


def test_all_checks_pass():
    results = reference.run_all_checks()
    assert len(results) == 17
    assert [res.name for res in results if not res.passed] == []
    names = [res.name for res in results]
    assert len(set(names)) == len(names)
    for res in results:
        assert res.passed == (res.worst <= res.bound), res.name  # the one pass rule
        assert f"{res.worst:.3e}" in res.detail, res.name  # the margin line shows the worst


def test_weak_check_runs_the_shipped_formula():
    # verify checks the double-precision light_speed_weak itself, not a re-derivation
    result = reference.check_weak_vs_full()
    assert result == reference.check_weak_vs_full(weak_fn=kerr.light_speed_weak)
    assert result.passed


def test_tampered_weak_formula_is_caught():
    def wrong_radial(point, direction, force=True):
        r_s, a, r = point.source.r_s, point.source.a, point.r
        radial = 1.0 - r_s / r  # missing the factor 1/2
        drag = r_s * a / (r * r)
        return radial + drag if direction == "co" else -(radial - drag)

    assert not reference.check_weak_vs_full(weak_fn=wrong_radial).passed


def test_beta_dependence_is_caught():
    def leaky(sigma, coeffs, length):
        real = fiber.downconverted_coincidence(sigma, coeffs, length)
        return real * (1.0 + 1.0e6 * abs(coeffs.beta_sum))

    assert not reference.check_dispersion_cancellation(coincidence_fn=leaky).passed


def test_bunching_is_summed_on_its_own(monkeypatch, capsys):
    # Only the bunching total is off: fock-unitarity, which reads it, must
    # fail, and the oracle, which sums coincidence alone, must not move.
    # A p_b derived as 1 - p_c would hide the error.
    packet = interference.Wavepacket.gaussian(2.0e6, 3.5e3)
    oracle = interference.fock_oracle_hom(packet, 2.0e-4)
    pair_sum = _kernels._pair_sum

    def skewed(amp, phase, combine):
        total = pair_sum(amp, phase, combine)
        return total + 1.0e-9 if combine is np.add else total

    monkeypatch.setattr(_kernels, "_pair_sum", skewed)
    assert interference.fock_oracle_hom(packet, 2.0e-4) == oracle
    assert not reference.check_fock_unitarity().passed
    assert reference.check_fock_vs_quadrature().passed
    assert cli.main(["verify"]) == 3
    out = capsys.readouterr().out
    assert re.search(r"^FAIL fock-unitarity: max 1\.000e-09 ", out, re.M)
    assert re.search(r"^PASS fock-vs-quadrature:", out, re.M)
    assert "verify: 16/17 checks passed" in out


def test_nan_deviation_fails_the_check():
    # max(0.0, nan) is 0.0, so a running max would have reported these as PASS
    def nan_coincidence(sigma, coeffs, length):
        return math.nan

    def nan_weak(point, direction, force=True):
        return math.nan

    for result in (reference.check_dispersion_cancellation(coincidence_fn=nan_coincidence),
                   reference.check_weak_vs_full(weak_fn=nan_weak)):
        assert math.isnan(result.worst)
        assert result.passed is False
        assert " nan " in result.detail


def test_verify_calls_each_check_once_by_module_name(monkeypatch, capsys):
    # The traced benchmark wraps every reference.check_* attribute and needs one
    # span per verify line, so run_all_checks must look each check up by name.
    calls = []
    checks = [name for name in dir(reference) if name.startswith("check_")]
    for name in checks:
        def counting(*args, _name=name, _check=getattr(reference, name), **kwargs):
            result = _check(*args, **kwargs)
            calls.append((_name, result.name))
            return result

        monkeypatch.setattr(reference, name, counting)
    assert cli.main(["verify"]) == 0
    printed = re.findall(r"^(?:PASS|FAIL) ([\w-]+):", capsys.readouterr().out, re.M)
    assert sorted(name for name, _ in calls) == sorted(checks)
    assert [result_name for _, result_name in calls] == printed


def test_run_all_checks_follows_the_table():
    assert [res.name for res in reference.run_all_checks()] == [row.name for row in reference.CHECKS]


def test_check_attributes_are_the_table_rows():
    # the traced benchmark wraps exactly these attributes, one span per row
    checks = {name for name in dir(reference) if name.startswith("check_")}
    assert checks == {row.function for row in reference.CHECKS}
    assert len(checks) == len(reference.CHECKS)


@pytest.mark.parametrize("row", reference.CHECKS, ids=lambda row: row.name)
def test_each_check_returns_its_row(row):
    # the benchmark labels each wrapped attribute's span by the returned name
    result = getattr(reference, row.function)()
    assert isinstance(result, reference.CheckResult)
    assert (result.name, result.bound) == (row.name, row.bound)


def test_unreproduced_targets_values():
    targets = {row.name: row for row in QUOTED if row.value_of is not None}
    assert set(targets) == {"small-source-equivalence-velocity",
                            "dip-residual-timescale"}
    velocity = targets["small-source-equivalence-velocity"]
    assert velocity.quoted == "110 m/s"
    assert velocity.computed() == pytest.approx(1052.3188829887727, rel=1e-12)
    dip = targets["dip-residual-timescale"]
    assert dip.quoted == "3e-11 s"
    assert dip.computed() == pytest.approx(1.7031512955074023e-27, rel=1e-12)


def test_fig1_crossover_radius_frozen():
    assert reference.fig1_crossover_radius() == pytest.approx(396210921.22808666,
                                                              rel=1e-9)
