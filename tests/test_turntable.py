"""Rotating-frame analogue: equivalence velocities, Sagnac, feasibility."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framedrag import turntable
from framedrag.constants import CONSTANTS, GravSource

EARTH = GravSource(r_s=0.009, a=3.9)
C = CONSTANTS.c

speeds = st.floats(min_value=1e-12, max_value=0.99)


# --- frozen equivalences -----------------------------------------------------

def test_metric_equivalence_earth_surface():
    res = turntable.equivalence_velocity_metric(EARTH, 6.37e6)
    assert math.isclose(res.v * C, 2.59327727925e-7, rel_tol=1e-11)


def test_metric_equivalence_small_source():
    res = turntable.equivalence_velocity_metric(EARTH, 100.0)
    assert math.isclose(res.v * C, 1052.31888299, rel_tol=1e-11)


def test_timeshift_equivalence_earth():
    res = turntable.equivalence_velocity_timeshift(EARTH, 6.37e7, 0.2)
    assert math.isclose(res.v * C, 0.825958812857, rel_tol=1e-11)
    assert math.isclose(res.v * C / 0.2, 4.12979406429, rel_tol=1e-11)


@pytest.mark.parametrize("r_s,a,r,r_t", [
    (0.009, 3.9, 6.37e7, 0.2),
    (3.0e4, 7.5e3, 3.0e5, 5.0),
    (1.0, 0.5, 2.5, 2.5),
])
def test_v_approx_drops_the_quadratic_term_under_the_root(r_s, a, r, r_t):
    source = GravSource(r_s=r_s, a=a)
    x = r_s * a / (r * r)
    metric = turntable.equivalence_velocity_metric(source, r)
    assert metric.v_approx == x / math.sqrt(1.0 - r_s / r)  # sqrt(1 - r_s/r + X^2) -> sqrt(1 - r_s/r)
    x = r_s * a / (r * r_t)
    shift = turntable.equivalence_velocity_timeshift(source, r, r_t)
    assert shift.v_approx == x  # X / sqrt(1 + X^2) -> X
    assert shift.v == x / math.sqrt(1.0 + x * x)


def test_ten_solar_mass_leading_vs_exact():
    source = GravSource.from_mass(1.989e31, 0.0)
    source = GravSource(r_s=source.r_s, a=source.r_s / 100.0)
    res = turntable.equivalence_velocity_metric(source, 10.0 * source.r_s)
    assert math.isclose(res.v_leading * C, 29979.2458, rel_tol=1e-9)
    assert math.isclose(res.v * C, 31600.8995785, rel_tol=1e-9)


def test_min_velocity_frozen():
    v, v_lead = turntable.min_velocity_for_visibility(5.0, 3.3e3)
    assert math.isclose(v * C, 2891.7243388, rel_tol=1e-9)
    v10, _ = turntable.min_velocity_for_visibility(5.0, 3.3e4)
    assert math.isclose(v10 * C, 289.172433893, rel_tol=1e-9)
    # leading form differs from the exact root only at O(v_min^2)
    assert math.isclose(v_lead, v, rel_tol=1e-9)


def test_g_force_frozen():
    v10, _ = turntable.min_velocity_for_visibility(5.0, 3.3e4)
    assert math.isclose(turntable.g_force(v10, 5.0),
                        1704.80522984, rel_tol=1e-9)


def test_windings_needed_default_turntable():
    v = 2.0 * math.pi * 5.0 / C
    assert turntable.windings_for_visibility_loss(5.0, 3.3e3, v) == 46


@pytest.mark.parametrize("v", [1e-310, 1e-160, 1e-156])  # v * v is 0, 0, subnormal
def test_windings_needed_names_its_overflow_at_tiny_speeds(v):
    with pytest.raises(OverflowError, match=r"^windings_for_visibility_loss overflows at v = "):
        turntable.windings_for_visibility_loss(5.0, 3.3e3, v)


def test_min_velocity_names_an_underflowed_radius_times_width():
    with pytest.raises(OverflowError, match=r"^min_velocity_for_visibility 1/\(2 pi r sigma\)"):
        turntable.min_velocity_for_visibility(1e-200, 1e-200)


def test_timeshift_names_an_underflowed_radius_product():
    # r r_t = 1e-350 is 0 in float64; r_s a / 0 used to raise a bare ZeroDivisionError
    with pytest.raises(OverflowError, match=r"^equivalence_velocity_timeshift r_s a/\(r r_t\) "
                                            r"overflows at r = 1e-100, r_t = 1e-250$"):
        turntable.equivalence_velocity_timeshift(EARTH, 1e-100, 1e-250)


@pytest.mark.parametrize("metric_time", [False, True])
def test_timeshift_names_an_overflowed_square(metric_time):
    # X ~ 5.5e291: X * X is inf, so X/sqrt(1 + X^2) used to return v = 0
    with pytest.raises(OverflowError, match=r"^equivalence_velocity_timeshift X\^2 overflows"):
        turntable.equivalence_velocity_timeshift(EARTH, 6.37e6, 1e-300, metric_time=metric_time)


# --- structure and invariants ------------------------------------------------

@given(speeds, st.floats(1e-3, 1e3), st.floats(1.0, 1e7))
@settings(max_examples=150, deadline=None)
def test_two_way_phase_difference_is_exactly_zero(v, r_t, omega):
    phi_a, phi_b, diff = turntable.two_way_phase_turntable(v, r_t, omega)
    assert diff == 0.0
    assert phi_a == phi_b
    assert phi_a > 0.0


@given(speeds, st.floats(1e-3, 1e3))
@settings(max_examples=150, deadline=None)
def test_roundtrip_shift_positive_and_scales(v, r_t):
    shift = turntable.turntable_roundtrip_shift(v, r_t)
    assert shift > 0.0
    assert turntable.turntable_roundtrip_shift(v, 2.0 * r_t) == pytest.approx(
        2.0 * shift, rel=1e-12)


@given(st.floats(1e-8, 0.4), st.floats(0.01, 100.0))
@settings(max_examples=150, deadline=None)
def test_metric_equivalence_matches_rotating_metric(rs_over_r, r):
    # sub-extremal spin so both metric routes are defined
    source = GravSource(r_s=rs_over_r * r, a=0.4 * rs_over_r * r)
    res = turntable.equivalence_velocity_metric(source, r)
    rotating = turntable.metric_components_rotating(res.v, r)
    scale = turntable.time_rescale_factor(source, r, res.v)
    from framedrag.kerr import KerrPoint, metric_components_kerr
    kerr_comps = metric_components_kerr(KerrPoint(source=source, r=r))
    assert rotating.g_tt == pytest.approx(kerr_comps.g_tt * scale**2, rel=1e-12)
    assert rotating.g_tphi == pytest.approx(kerr_comps.g_tphi * scale, rel=1e-12)
    assert rotating.g_phiphi == kerr_comps.g_phiphi


@given(st.floats(1e-10, 1e-2), st.floats(0.05, 20.0), st.floats(0.05, 20.0))
@settings(max_examples=150, deadline=None)
def test_timeshift_leading_order(x_scale, r, r_t):
    source = GravSource(r_s=x_scale * r, a=1e-3 * x_scale * r)
    res = turntable.equivalence_velocity_timeshift(source, r, r_t)
    lead = source.r_s * source.a / (r * r_t)
    assert res.v_leading == pytest.approx(lead, rel=1e-12)
    assert res.v <= res.v_leading  # X/sqrt(1+X^2) <= X


def test_min_velocity_windings_reduce_threshold():
    v0, _ = turntable.min_velocity_for_visibility(5.0, 3.3e3, windings=0)
    v3, _ = turntable.min_velocity_for_visibility(5.0, 3.3e3, windings=3)
    assert v3 == pytest.approx(v0 / 7.0, rel=1e-6)  # (2N+1) scaling


def test_winding_exponent_is_two_at_threshold():
    for windings in (0, 2, 7):
        v_min, _ = turntable.min_velocity_for_visibility(0.4, 2.0e4, windings)
        expo = turntable.winding_hom_exponent(2.0e4, v_min, 0.4, windings)
        assert expo == pytest.approx(2.0, rel=1e-12)


def test_winding_arm_length():
    assert turntable.winding_arm_length(5.0, 0.0, 0) == pytest.approx(
        math.pi * 5.0)
    assert turntable.winding_arm_length(5.0, 0.6, 1) == pytest.approx(
        3.0 * math.pi * 5.0 * 0.8)


def test_turntable_config_builders():
    cfg = turntable.TurntableConfig.from_angular_frequency(0.2, 2.0 * math.pi)
    assert math.isclose(cfg.v, 4.1916900439033636e-9, rel_tol=1e-12)
    cfg2 = turntable.TurntableConfig.from_velocity(0.2, cfg.v)
    assert cfg2.omega_rot == pytest.approx(2.0 * math.pi, rel=1e-12)


def test_speed_validation():
    with pytest.raises(ValueError):
        turntable.turntable_roundtrip_shift(-0.1, 1.0)
    with pytest.raises(ValueError):
        turntable.TurntableConfig.from_velocity(0.2, 1.5)
