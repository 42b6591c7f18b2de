"""Equatorial light-speed splitting: frozen regressions + invariants."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from framedrag import kerr
from framedrag.constants import GravSource
from framedrag.errors import GuardViolation
from framedrag.kerr import (
    KerrPoint,
    _light_speed_full_raw,
    blackhole_scan,
    horizon_radius,
    kerr_phase_difference,
    kerr_time_delay,
    kerr_time_delay_full,
    light_speed_full,
    light_speed_weak,
    local_two_way_speed,
    metric_components_kerr,
    null_residual,
    roundtrip_mean_speed,
)

EARTH = GravSource(r_s=0.009, a=3.9)
BH = GravSource(r_s=3.0e4, a=7.5e3)


# --- frozen-value regressions (50-digit oracle) -----------------------------

def test_full_speeds_frozen():
    point = KerrPoint(source=BH, r=6.0e4)
    assert math.isclose(light_speed_full(point, "co"),
                        0.77158073738157208735, rel_tol=1e-14)
    assert math.isclose(light_speed_full(point, "counter"),
                        -0.64802032473852899213, rel_tol=1e-14)


def test_horizon_frozen():
    assert math.isclose(horizon_radius(BH), 27990.38105676658, rel_tol=1e-12)


@pytest.mark.parametrize("r_s", [1e-160, 1e-300, 5e-324])
def test_horizon_of_a_tiny_spinless_source_is_r_s(r_s):
    # (r_s/2)^2 used to underflow: 1e-160 gave r+ 2.8e-6 off, 1e-300 gave r_s/2, 5e-324 gave 0
    assert horizon_radius(GravSource(r_s=r_s, a=0.0)) == r_s


def test_horizon_of_a_tiny_spinning_source():
    # r+ = 5e-301 + sqrt(25e-602 - 9e-602) = 9e-301; the square of a underflows as well
    assert math.isclose(horizon_radius(GravSource(r_s=1e-300, a=3e-301)), 9e-301, rel_tol=1e-15)


@given(st.floats(2.0**-499, 1e150), st.floats(0.0, 0.5))
@settings(max_examples=500, deadline=None)
def test_horizon_keeps_its_bits_above_the_scaling_threshold(r_s, spin_frac):
    a = spin_frac * r_s
    half = 0.5 * r_s
    assert horizon_radius(GravSource(r_s=r_s, a=a)) == half + math.sqrt(half * half - a**2)


def test_earth_weak_delay_and_phase_frozen():
    point = KerrPoint(source=EARTH, r=6.37e7)
    length = math.pi * 6.37e7
    assert math.isclose(kerr_time_delay(point, length),
                        3.4621633325275272e-9, rel_tol=1e-12)
    assert math.isclose(kerr_phase_difference(point, length, 2.0e6),
                        0.0069243266660333738, rel_tol=1e-12)


def test_earth_full_phase_close_to_weak():
    point = KerrPoint(source=EARTH, r=6.37e7)
    length = math.pi * 6.37e7
    full = 2.0e6 * kerr_time_delay_full(point, length)
    weak = kerr_phase_difference(point, length, 2.0e6)
    # truncation difference is ~2e-15 relative here; double rounding of the
    # full route dominates what we can resolve
    assert math.isclose(full, weak, rel_tol=1e-8)


@pytest.mark.parametrize("r_over_rs,delay", [
    (2.0, 93162.3563121),
    (100.0, 951.994769086),
    (1000.0, 94.3421187783),
])
def test_scan_delays_frozen(r_over_rs, delay):
    point = KerrPoint(source=BH, r=r_over_rs * BH.r_s)
    assert math.isclose(kerr_time_delay_full(point, 2.0 * math.pi * point.r),
                        delay, rel_tol=1e-9)


def test_scan_innermost_frozen():
    rows, block = blackhole_scan(BH, 2.0e6, 3.5e3)
    r_over_rs, phase_rad, visibility = block(0, rows)
    assert rows == len(r_over_rs) == 512
    assert math.isclose(r_over_rs[0], 1.05 * horizon_radius(BH) / BH.r_s,
                        rel_tol=1e-12)
    assert math.isclose(phase_rad[0] / 2.0e6, 3522652.4319607281, rel_tol=1e-9)
    assert visibility[0] == 0.0


def test_scan_blocks_are_lists_of_python_floats():
    # the table writer formats the cells with %, so numpy scalars never reach it
    rows, block = blackhole_scan(BH, 2.0e6, 3.5e3, n_points=10)
    whole = block(0, rows)
    assert [type(column) for column in whole] == [list] * 3
    assert {type(cell) for column in whole for cell in column} == {float}
    assert [len(column) for column in whole] == [rows] * 3
    for start, stop in ((0, 3), (3, 10), (9, 10)):
        assert block(start, stop) == [column[start:stop] for column in whole]


def test_scan_raises_on_its_first_non_finite_row():
    # r = 1e308 r_s overflows; the scan names the row before it returns any
    with pytest.raises(OverflowError, match=r"^phase_rad = nan is not finite at r/r_s = "
                                            r"1e\+308$"):
        blackhole_scan(BH, 2.0e6, 3.5e3, r_max=1e308, n_points=8)


# --- structural properties ---------------------------------------------------

@st.composite
def outside_points(draw):
    r_s = draw(st.floats(1e-3, 1e6))
    spin_frac = draw(st.floats(0.0, 0.5))
    source = GravSource(r_s=r_s, a=spin_frac * r_s)
    mult = draw(st.floats(1.001, 1e6))
    return KerrPoint(source=source, r=mult * horizon_radius(source))


@given(outside_points())
@settings(max_examples=200, deadline=None)
def test_speed_ordering_and_product(point):
    co = light_speed_full(point, "co")
    counter = light_speed_full(point, "counter")
    assert co > 0.0
    assert counter < co
    r_s, r = point.source.r_s, point.r
    if r > r_s:  # outside the ergosphere the counter branch goes backwards
        assert counter < 0.0
    # exact algebraic identity c_+ * |c_-| = |1 - r_s/r|
    assert math.isclose(co * abs(counter), abs(1.0 - r_s / r),
                        rel_tol=1e-12, abs_tol=1e-300)


@given(outside_points())
@settings(max_examples=200, deadline=None)
def test_null_residual_property(point):
    assert null_residual(point, "co") <= 1e-12
    assert null_residual(point, "counter") <= 1e-12


@given(st.floats(1e-3, 1e6), st.floats(0.0, 0.5), st.floats(2.0, 1e6))
@settings(max_examples=200, deadline=None)
def test_spin_reversal_antisymmetry(r_s, spin_frac, mult):
    a = spin_frac * r_s
    r = mult * r_s
    assert _light_speed_full_raw(r_s, -a, r, "co") == pytest.approx(
        -_light_speed_full_raw(r_s, a, r, "counter"), rel=1e-15)
    assert _light_speed_full_raw(r_s, -a, r, "counter") == pytest.approx(
        -_light_speed_full_raw(r_s, a, r, "co"), rel=1e-15)


@given(outside_points(), st.floats(1.0, 1e8))
@settings(max_examples=100, deadline=None)
def test_full_delay_is_non_negative(point, length):
    assert kerr_time_delay_full(point, length) >= 0.0


@given(st.floats(1e-9, 1e-3), st.floats(0.0, 1.0))
@settings(max_examples=200, deadline=None)
def test_weak_tracks_full_in_weak_field(rs_over_r, spin_frac):
    source = GravSource(r_s=rs_over_r, a=spin_frac * rs_over_r * 1e-2)
    point = KerrPoint(source=source, r=1.0)
    for direction in ("co", "counter"):
        weak = light_speed_weak(point, direction)
        full = light_speed_full(point, direction)
        assert weak == pytest.approx(full, rel=10.0 * rs_over_r ** 2 + 1e-13)


def test_weak_guard_raises_and_forces():
    point = KerrPoint(source=BH, r=3.5e4)
    with pytest.raises(GuardViolation):
        light_speed_weak(point, "co")
    forced = light_speed_weak(point, "co", force=True)
    assert forced > 0.0
    with pytest.raises(GuardViolation):
        roundtrip_mean_speed(point)
    with pytest.raises(GuardViolation):
        local_two_way_speed(point)


def test_point_inside_horizon_rejected():
    r_plus = horizon_radius(BH)
    with pytest.raises(ValueError):
        KerrPoint(source=BH, r=0.999 * r_plus)
    KerrPoint(source=BH, r=1.0001 * r_plus)  # just outside is fine


def test_super_extremal_point_has_no_horizon_constraint():
    # Earth-like sources (a > r_s/2) admit any positive radius whose square is > 0
    KerrPoint(source=EARTH, r=1e-6)
    with pytest.raises(ValueError):
        horizon_radius(EARTH)


def test_point_whose_square_underflows_is_rejected():
    # r^2 = 0 made the light speeds and the metric matching divide by zero
    with pytest.raises(ValueError, match=r"^r must be large enough that r\^2 > 0, got 1e-200$"):
        KerrPoint(source=GravSource(r_s=0.0, a=0.0), r=1e-200)
    KerrPoint(source=GravSource(r_s=0.0, a=0.0), r=1e-150)


def test_counter_speed_is_dragged_forward_only_inside_the_ergosphere():
    assert light_speed_full(KerrPoint(source=BH, r=6.0e4), "counter") < 0.0
    assert light_speed_full(KerrPoint(source=BH, r=2.95e4), "counter") > 0.0


def test_metric_components_earth():
    comps = metric_components_kerr(KerrPoint(source=EARTH, r=6.37e7))
    assert comps.g_tt == pytest.approx(1.0 - 0.009 / 6.37e7, rel=1e-15)
    assert comps.g_tphi == pytest.approx(-0.009 * 3.9 / 6.37e7, rel=1e-15)
    assert comps.g_phiphi == -6.37e7 ** 2


def test_two_way_speeds_weak_field():
    point = KerrPoint(source=EARTH, r=6.37e7)
    rs_over_r = 0.009 / 6.37e7
    assert roundtrip_mean_speed(point) == pytest.approx(1.0 / (1.0 + rs_over_r),
                                                        rel=1e-15)
    assert abs(local_two_way_speed(point) - 1.0) <= 1e-15


def test_scan_shapes_and_ranges():
    rows, block = blackhole_scan(BH, 2.0e6, 3.5e3, r_max=500.0, n_points=64)
    r_over_rs, phase_rad, visibility = block(0, rows)
    assert rows == len(r_over_rs) == len(phase_rad) == len(visibility) == 64
    assert r_over_rs[-1] == pytest.approx(500.0)
    assert all(0.0 <= v <= 1.0 for v in visibility)
    assert np.all(np.diff(r_over_rs) > 0.0)
