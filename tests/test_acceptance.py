"""End-to-end acceptance gate: one test (and one printed line) per criterion.

Each test drives the public surface -- the CLI where the criterion is about
reported numbers, the reference checks where it is about cross-validation --
and pushes a PASS/FAIL line through _acceptance_log so the verdicts show up
in the terminal summary.

A quoted figure that the formulas do not reproduce is asserted as a flagged
target, never dropped.  Criterion 3 checks the black-hole scan three ways:
at the stated spectral width the visibility at r/r_s = 100 is zero, not
>= 0.99, and fig1 warns with the width the quoted value would need; at a
width just inside that bound the quoted shape (drop at the horizon, V >= 0.99
at r/r_s = 100) appears with no warning; just outside it the warning is back.
"""

import math
import re

import pytest

from _acceptance_log import record
from _cli_helpers import parse_report, run_cli
from framedrag import interference, kerr, reference, turntable
from framedrag.constants import CONSTANTS, GravSource
from framedrag.interference import Wavepacket
from framedrag.scenario import FIBER_LOOP_DEFAULTS, QUOTED, Scenario

C = CONSTANTS.c


def within(value, target, rel):
    return abs(value - target) <= rel * abs(target)


# --- criteria 1-2: Earth-surface Kerr report --------------------------------------

def test_criterion_01_kerr_phase_earth(capsys):
    code, out, _ = run_cli(capsys, "kerr")
    assert code == 0
    phase = parse_report(out)["phase_weak"]
    ok = within(phase, 7.0e-3, 0.03)
    record(1, "kerr-phase-earth", ok,
           f"phase_weak = {phase:.6g} rad vs 7e-3 rad "
           f"({abs(phase - 7.0e-3) / 7.0e-3:.2%} off, tol 3%)")
    assert ok


def test_criterion_02_earth_visibility_drop(capsys):
    code, out, _ = run_cli(capsys, "kerr")
    assert code == 0
    deficit = 1.0 - parse_report(out)["visibility"]
    ok_value = within(deficit, 1.5e-10, 0.10)
    ok_warn = "WARN earth-radius-convention" in out
    record(2, "earth-visibility-drop", ok_value and ok_warn,
           f"1 - V = {deficit:.6g} vs 1.5e-10 "
           f"({abs(deficit - 1.5e-10) / 1.5e-10:.2%} off, tol 10%); "
           f"radius-convention warning {'present' if ok_warn else 'MISSING'}")
    assert ok_value
    assert ok_warn


# --- criterion 3: black-hole scan ---------------------------------------------------

QUOTED_V100 = 0.99
UNREPRODUCED = "WARN target-value-unreproduced"
SIGMA_INSIDE, SIGMA_OUTSIDE = 1.0e-4, 1.1e-4  # rad/m, either side of the bound


def fig1_visibility(capsys, *argv):
    """Innermost V on the default grid, V at exactly r' = 100, and stderr."""
    code, out, err = run_cli(capsys, "fig1", *argv)
    assert code == 0
    vis_inner = float(out.splitlines()[1].split(",")[2])
    # np.geomspace pins the endpoint, so a scan that stops at r' = 100
    # samples the very radius the fig1 warning probes.
    code, out, _ = run_cli(capsys, "fig1", "--r-max", "100", *argv)
    assert code == 0
    r_last, _, vis_100 = (float(x) for x in out.splitlines()[-1].split(","))
    assert r_last == 100.0
    return vis_inner, vis_100, err


def test_criterion_03_blackhole_scan(capsys):
    # Width the quoted V >= 0.99 at r' = 100 needs, from the full-mode delay
    # of the loop L = 2 pi r around the default source (r_s = 3e4, a = 7.5e3).
    source = GravSource(r_s=3.0e4, a=7.5e3)
    probe = kerr.KerrPoint(source=source, r=100.0 * source.r_s)
    delay = kerr.kerr_time_delay_full(probe, 2.0 * math.pi * probe.r)
    sigma_bound = math.sqrt(-math.log(QUOTED_V100)) / delay
    assert SIGMA_INSIDE < sigma_bound < SIGMA_OUTSIDE

    # 1. Stated width (3.5e3 rad/m): the loop delay at r' = 100 is ~952 m,
    #    so exp(-(sigma dt)^2) underflows to zero and the 1/2-crossover sits
    #    at r' = 3.96e8.  fig1 must say so and print the width it would need.
    inner, vis_100, err = fig1_visibility(capsys)
    crossover = reference.fig1_crossover_radius()
    printed = re.search(r"sigma <= (\S+) rad/m", err)
    flag = UNREPRODUCED in err
    flag_width = printed is not None and printed.group(1) == f"{sigma_bound:.4g}"
    ok_stated = inner <= 0.01 and vis_100 < QUOTED_V100 and flag and flag_width
    ok_cross = within(crossover, 396210921.22808665, 1.0e-9)

    # 2. Just inside the bound: the quoted shape, with no warning.
    inner_in, vis_in, err_in = fig1_visibility(
        capsys, "--set", f"light.sigma={SIGMA_INSIDE!r}")
    ok_inside = inner_in <= 0.01 and vis_in >= QUOTED_V100 and "WARN" not in err_in

    # 3. Just outside it: the quoted value is missed and flagged again.
    _, vis_out, err_out = fig1_visibility(
        capsys, "--set", f"light.sigma={SIGMA_OUTSIDE!r}")
    ok_outside = vis_out < QUOTED_V100 and UNREPRODUCED in err_out

    record(3, "blackhole-scan-fig", ok_stated and ok_cross and ok_inside and ok_outside,
           f"sigma = 3.5e3: innermost V = {inner:.3g}, V(r'=100) = {vis_100:.3g}, "
           f"flag {'printed' if flag else 'MISSING'} with needed sigma "
           f"{'<= ' + printed.group(1) if printed else 'MISSING'} "
           f"(expected {sigma_bound:.4g}); 1/2-crossover at r' = {crossover:.10g}; "
           f"sigma = {SIGMA_INSIDE:.1e}: innermost V = {inner_in:.3g}, "
           f"V(r'=100) = {vis_in:.5g}, flag {'absent' if 'WARN' not in err_in else 'PRINTED'}; "
           f"sigma = {SIGMA_OUTSIDE:.1e}: V(r'=100) = {vis_out:.5g}, "
           f"flag {'printed' if UNREPRODUCED in err_out else 'MISSING'}")
    assert inner <= 0.01
    assert ok_cross
    assert vis_100 < QUOTED_V100
    # Dropping the flag, or printing a width other than the one the formula
    # gives, is a regression, not a cleanup.
    assert flag, err
    assert flag_width, err
    assert inner_in <= 0.01
    assert vis_in >= QUOTED_V100, f"V(r'=100) = {vis_in!r} at sigma = {SIGMA_INSIDE}"
    assert "WARN" not in err_in, err_in
    assert vis_out < QUOTED_V100, f"V(r'=100) = {vis_out!r} at sigma = {SIGMA_OUTSIDE}"
    assert UNREPRODUCED in err_out, err_out


# --- criterion 4: equivalence velocities -------------------------------------------

def test_criterion_04_equivalence_velocities(capsys):
    # ten solar masses, a = r_s/100, field point at 10 r_s
    r_s = GravSource.from_mass(1.989e31, 0.0).r_s
    code, out, _ = run_cli(
        capsys, "equivalence",
        "--set", f"source.rs={r_s!r}",
        "--set", f"source.a={r_s / 100.0!r}",
        "--set", f"point.r={10.0 * r_s!r}")
    assert code == 0
    values = parse_report(out)
    v_bh = values["v_equiv_leading"] * C
    ok_bh = within(v_bh, 3.0e4, 0.05)

    code, out, _ = run_cli(capsys, "equivalence")
    assert code == 0
    values = parse_report(out)
    v_earth, omega_earth = values["v_equiv_si"], values["omega_equiv"]
    ok_earth = within(v_earth, 2.6e-7, 0.05) and within(omega_earth, 4.1e-14, 0.05)

    code, out, _ = run_cli(capsys, "equivalence", "--method", "timeshift",
                           "--set", "point.r=6.37e7")
    assert code == 0
    values = parse_report(out)
    v_shift, omega_shift = values["v_equiv_si"], values["omega_equiv"]
    ok_shift = within(v_shift, 0.8, 0.05) and within(omega_shift, 4.0, 0.05)

    record(4, "equivalence-velocities", ok_bh and ok_earth and ok_shift,
           f"black hole {v_bh:.6g} m/s vs 3e4 (leading form; exact matching "
           f"gives 3.16e4, 5.3% off); Earth metric {v_earth:.4g} m/s / "
           f"{omega_earth:.4g} rad/s vs 2.6e-7 / 4.1e-14; time-shift "
           f"{v_shift:.4g} m/s / {omega_shift:.4g} rad/s vs 0.8 / 4; tol 5%")
    assert ok_bh
    assert ok_earth
    assert ok_shift


# --- criteria 5-6: turntable feasibility -------------------------------------------

def test_criterion_05_min_velocity(capsys):
    code, out, _ = run_cli(capsys, "feasibility")
    assert code == 0
    values = parse_report(out)
    v_min = values["v_min_si"]
    v_short = values["v_min_short_pulse"]
    ok = within(v_min, 2.9e3, 0.03) and within(v_short, 2.9e2, 0.03)
    record(5, "min-velocity", ok,
           f"v_min = {v_min:.6g} m/s vs 2.9e3; 10x wider packet "
           f"{v_short:.6g} m/s vs 2.9e2; tol 3%")
    assert ok


def test_criterion_06_coherence_length(capsys):
    code, out, _ = run_cli(capsys, "fiber")
    assert code == 0
    coherence = parse_report(out)["coherence_length"]
    ok = within(coherence, 5.0e-4, 0.10)
    record(6, "coherence-length", ok,
           f"L_coh = {coherence:.6g} m vs 5e-4 m "
           f"({abs(coherence - 5.0e-4) / 5.0e-4:.2%} off, tol 10%)")
    assert ok


# --- criterion 7: HOM dip exactness ------------------------------------------------

def test_criterion_07_hom_exactness():
    packet = Wavepacket.gaussian(2.0e6, 3.5e3)
    p_zero = interference.hom_coincidence_general(packet, 0.0)
    ok_zero = abs(p_zero) <= 1.0e-15

    p_far_closed = interference.hom_coincidence_gaussian(3.5e3, 10.0 / 3.5e3)
    p_far_general = interference.hom_coincidence_general(packet, 10.0 / 3.5e3)
    ok_far = (abs(p_far_closed - 0.5) <= 1.0e-12
              and abs(p_far_general - 0.5) <= 1.0e-12)

    closed_vs_quad = reference.check_hom_closed_vs_quadrature()
    fock = reference.check_fock_vs_quadrature()

    ok = ok_zero and ok_far and closed_vs_quad.passed and fock.passed
    record(7, "hom-exactness", ok,
           f"P(0) = {p_zero:.3g} (tol 1e-15); |P(sigma dt = 10) - 1/2| = "
           f"{abs(p_far_closed - 0.5):.3g} (tol 1e-12); {closed_vs_quad.detail}; "
           f"Fock M=1024: {fock.detail}")
    assert ok_zero
    assert ok_far
    assert closed_vs_quad.passed, closed_vs_quad.detail
    assert fock.passed, fock.detail


# --- criterion 8: two-way isotropy --------------------------------------------------

def test_criterion_08_two_way_isotropy():
    kerr_check = reference.check_two_way_kerr()
    table_check = reference.check_two_way_turntable()
    ok = kerr_check.passed and table_check.passed
    record(8, "two-way-isotropy", ok,
           f"Kerr: {kerr_check.detail}; turntable: {table_check.detail}")
    assert kerr_check.passed, kerr_check.detail
    assert table_check.passed, table_check.detail


# --- criterion 9: dispersion cancellation -------------------------------------------

def test_criterion_09_dispersion_cancellation():
    check = reference.check_dispersion_cancellation()
    record(9, "dispersion-cancellation", check.passed, check.detail)
    assert check.passed, check.detail


# --- criterion 10: weak-field envelope ----------------------------------------------

def test_criterion_10_weak_field_envelope():
    check = reference.check_weak_vs_full()
    record(10, "weak-field-envelope", check.passed, check.detail)
    assert check.passed, check.detail


# --- criterion 11: silica model derivatives -----------------------------------------

def test_criterion_11_silica_derivatives():
    check = reference.check_silica_derivatives()
    silica = Scenario.assemble(FIBER_LOOP_DEFAULTS).refractive_model()
    n = silica.n
    ok_n = within(n, 1.4525, 1.0e-12)
    record(11, "silica-derivatives", check.passed and ok_n,
           f"n(k0) = {n!r}; {check.detail}")
    assert ok_n
    assert check.passed, check.detail


# --- criterion 12: unreproduced-figure ledger ---------------------------------------

def test_criterion_12_unreproduced_ledger(capsys):
    code, out, _ = run_cli(capsys, "verify")
    targets = {row.name: row for row in QUOTED if row.value_of is not None}
    ok_names = {"small-source-equivalence-velocity",
                "dip-residual-timescale"} <= set(targets)
    ok_velocity = ("quoted 110 m/s, formula gives 1052.3188829887727 m/s" in out)
    ok_timescale = ("quoted 3e-11 s, formula gives 1.7031512955074023e-27 s" in out)
    ok = code == 0 and ok_names and ok_velocity and ok_timescale
    record(12, "unreproduced-ledger", ok,
           f"verify exit {code}; 110 m/s flag "
           f"{'printed' if ok_velocity else 'MISSING'}, 3e-11 s flag "
           f"{'printed' if ok_timescale else 'MISSING'}")
    assert code == 0
    assert ok_names
    # Dropping either flag is a regression, not a cleanup.
    assert ok_velocity
    assert ok_timescale
    assert "checks passed" in out
