"""Moving dispersive medium: velocity notions, dispersion chain, dip bookkeeping."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framedrag.fiber import (
    DispersionCoefficients,
    FiberArms,
    RefractiveModel,
    coherence_length_required,
    corrected_group_phase,
    dispersion_coefficients,
    downconverted_coincidence,
    downconverted_coincidence_closed,
    effective_lab_velocity,
    fiber_phase_difference,
    group_velocity_moving,
    gvd_moving,
    hom_dip_shift,
    phase_velocity_moving,
)
from framedrag.turntable import fiber_loop_delay, sagnac_phase

C = 299792458.0
V_LOOP = 2.0 * math.pi * 0.2 / C  # tabletop loop: Omega = 2pi rad/s, R = 0.2 m
SILICA = RefractiveModel(A=1.0e5, B=1.44, k0=8.0e6)


def loop_arms(model, delta_length=0.01):
    return FiberArms(length=1.0e4, delta_length=delta_length, model=model, v=V_LOOP)


# --- refractive model ---------------------------------------------------------

def test_silica_reference_values_exact():
    assert SILICA.n == pytest.approx(1.4525, rel=1e-12)
    assert SILICA.n_prime == pytest.approx(-1.5625e-9, rel=1e-12)
    assert SILICA.n_double_prime == pytest.approx(3.90625e-16, rel=1e-12)


def test_constant_model_is_dispersionless():
    model = RefractiveModel.constant(1.453)
    assert model.n == 1.453
    assert model.n_prime == 0.0
    assert model.n_double_prime == 0.0


def test_model_validation():
    with pytest.raises(ValueError, match="A"):
        RefractiveModel(A=-1.0, B=1.44, k0=8.0e6)
    with pytest.raises(ValueError, match="B"):
        RefractiveModel(A=0.0, B=0.99, k0=8.0e6)
    with pytest.raises(ValueError, match="k0"):
        RefractiveModel(A=0.0, B=1.5, k0=0.0)


def test_model_rejects_an_infinite_index():
    # n(k0) = A/k0 + B overflows although A, B and k0 are each finite
    with pytest.raises(ValueError, match=r"^A / k0 must be finite and >= 0, got inf$"):
        RefractiveModel(A=1e300, B=1.44, k0=1e-10)


def test_model_rejects_a_k0_whose_derivatives_divide_by_zero():
    # k0^3 underflows to 0 below about 1.7e-108, where d2n/dk2 = 2A/k0^3 divides by zero
    for k0 in (1e-250, 1e-108):
        with pytest.raises(ValueError,
                           match=rf"^k0 must be large enough that k0\^3 > 0, got {k0!r}$"):
            RefractiveModel(A=0.0, B=1.5, k0=k0)
    model = RefractiveModel(A=1e-300, B=1.5, k0=2e-108)  # the cube is still > 0
    assert 0.0 < model.n_double_prime < math.inf


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["A", "B", "k0"])
def test_model_rejects_non_finite(name, value):
    fields = {"A": 0.0, "B": 1.5, "k0": 1.0e6}
    fields[name] = value
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        RefractiveModel(**fields)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["length", "delta_length"])
def test_arms_reject_non_finite(name, value):
    fields = {"length": 10.0, "delta_length": 0.0, "model": SILICA, "v": 0.0}
    fields[name] = value
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        FiberArms(**fields)


def test_arms_validation():
    with pytest.raises(ValueError, match="length"):
        FiberArms(length=0.0, delta_length=0.0, model=SILICA, v=0.0)
    with pytest.raises(ValueError, match="delta_length"):
        FiberArms(length=10.0, delta_length=2.0, model=SILICA, v=0.0)
    with pytest.raises(ValueError, match="speed"):
        FiberArms(length=10.0, delta_length=0.0, model=SILICA, v=1.0)


# --- the two velocity notions ---------------------------------------------------

@given(st.floats(0.0, 0.999))
@settings(max_examples=100, deadline=None)
def test_vacuum_composition_is_exactly_one(v):
    assert phase_velocity_moving(1.0, v, "co") == 1.0
    assert phase_velocity_moving(1.0, v, "counter") == 1.0


def test_vacuum_lab_velocity_is_sagnac():
    v = 0.3
    assert effective_lab_velocity(1.0, v, "co") == pytest.approx(1.0 + v, rel=1e-15)
    assert effective_lab_velocity(1.0, v, "counter") == pytest.approx(1.0 - v, rel=1e-15)


def test_fresnel_drag_leading_order():
    n, v = 1.5, 1.0e-6
    drag = phase_velocity_moving(n, v, "co") - 1.0 / n
    assert drag == pytest.approx(v * (1.0 - 1.0 / n**2), rel=1e-5)


def test_velocity_notions_agree_only_at_rest():
    n = 1.4525
    assert phase_velocity_moving(n, 0.0, "co") == effective_lab_velocity(n, 0.0, "co")
    assert phase_velocity_moving(n, 0.1, "co") != effective_lab_velocity(n, 0.1, "co")


def test_velocity_validation():
    with pytest.raises(ValueError, match="index"):
        phase_velocity_moving(0.9, 0.1, "co")
    with pytest.raises(ValueError, match="speed"):
        effective_lab_velocity(1.5, -0.1, "co")
    with pytest.raises(ValueError, match="direction"):
        phase_velocity_moving(1.5, 0.1, "up")


# --- dispersion chain ---------------------------------------------------------

def test_constant_model_group_equals_lab_velocity():
    model = RefractiveModel.constant(1.453)
    for direction in ("co", "counter"):
        assert group_velocity_moving(model, 0.2, direction) == \
            effective_lab_velocity(1.453, 0.2, direction)
        assert gvd_moving(model, 0.2, direction) == 0.0


@pytest.mark.parametrize("v", [0.0, 1.0e-4])
@pytest.mark.parametrize("direction", ["co", "counter"])
def test_group_velocity_matches_finite_difference(v, direction):
    def omega(k):
        return k * effective_lab_velocity(SILICA.A / k + SILICA.B, v, direction)

    k0, h = SILICA.k0, 1.0
    fd = (omega(k0 + h) - omega(k0 - h)) / (2.0 * h)
    assert group_velocity_moving(SILICA, v, direction) == pytest.approx(fd, rel=1e-8)


@pytest.mark.parametrize("v", [0.0, 0.1])
@pytest.mark.parametrize("direction,sign", [("co", -1.0), ("counter", +1.0)])
def test_gvd_matches_rational_form(v, direction, sign):
    # for n = A/k + B the curvature collapses to 2 A^2 (1-v^2)/(A + (B -+ v) k)^3
    k = SILICA.k0
    closed = 2.0 * SILICA.A**2 * (1.0 - v * v) / (SILICA.A + (SILICA.B + sign * v) * k) ** 3
    assert gvd_moving(SILICA, v, direction) == pytest.approx(closed, rel=1e-12)


def test_gvd_true_curvature_value():
    # the naive -n'/n^2 reading would give ~7.4e-10 here; the curvature of
    # omega(k) = k v_p(k) is two orders of magnitude smaller
    assert gvd_moving(SILICA, 0.0, "co") == pytest.approx(1.2747106418315242e-11,
                                                         rel=1e-12)


def test_dispersion_coefficients_at_loop_speed():
    coeffs = dispersion_coefficients(SILICA, V_LOOP)
    assert coeffs.alpha_plus == pytest.approx(1.4401066510987173, rel=1e-12)
    assert coeffs.alpha_minus == pytest.approx(1.4401066594814873, rel=1e-12)
    assert coeffs.delta_alpha == pytest.approx(-8.382770033676934e-9, rel=1e-7)
    assert coeffs.beta_sum == pytest.approx(-3.807111390364261e-11, rel=1e-12)


def test_dispersion_coefficients_symmetric_at_rest():
    coeffs = dispersion_coefficients(SILICA, 0.0)
    assert coeffs.delta_alpha == 0.0
    assert coeffs.beta_plus == coeffs.beta_minus


def test_delta_alpha_leading_order():
    # d(alpha)/dv at v = 0 is -n (n - 2 k n')/(n - k n')^2 per direction
    v = 1.0e-3
    n, knp = SILICA.n, SILICA.k0 * SILICA.n_prime
    slope = -n * (n - 2.0 * knp) / (n - knp) ** 2
    coeffs = dispersion_coefficients(SILICA, v)
    assert coeffs.delta_alpha == pytest.approx(2.0 * v * slope, rel=3e-6)


# --- interferometer phases and dip bookkeeping ----------------------------------

def test_fiber_phase_frozen():
    assert fiber_phase_difference(loop_arms(SILICA), 8.0e6) == pytest.approx(
        116870.67040702452, rel=1e-12)
    assert fiber_phase_difference(loop_arms(RefractiveModel.constant(1.453)),
                                  8.0e6) == pytest.approx(116910.67040702453, rel=1e-12)


def test_equal_arms_phase_is_vacuum_sagnac():
    # the index cancels out of the balanced loop entirely
    silica = FiberArms(length=1.0e4, delta_length=0.0, model=SILICA, v=V_LOOP)
    vacuum = FiberArms(length=1.0e4, delta_length=0.0,
                       model=RefractiveModel.constant(1.0), v=V_LOOP)
    phase = fiber_phase_difference(silica, 8.0e6)
    assert phase == fiber_phase_difference(vacuum, 8.0e6)
    assert phase == sagnac_phase(8.0e6, 1.0e4, V_LOOP)


def test_static_arms_phase_is_pure_mismatch():
    arms = FiberArms(length=1.0e4, delta_length=0.01, model=SILICA, v=0.0)
    assert fiber_phase_difference(arms, 8.0e6) == pytest.approx(116200.0, rel=1e-12)
    with pytest.raises(ValueError, match="omega0"):
        fiber_phase_difference(arms, 0.0)


def test_dip_shift_frozen():
    dip = hom_dip_shift(loop_arms(SILICA))
    assert dip.delta_t_total == pytest.approx(1.6766760175613432e-4, rel=1e-12)
    assert dip.center_shift == pytest.approx(5.104162105718069e-19, rel=1e-12)
    assert dip.center_shift_approx == pytest.approx(dip.center_shift, rel=1e-12)


def test_balanced_dip_delay_is_sagnac_delay():
    arms = FiberArms(length=1.0e4, delta_length=0.0, model=SILICA, v=V_LOOP)
    dip = hom_dip_shift(arms)
    assert math.isclose(dip.delta_t_total, sagnac_phase(1.0, 2.0e4, V_LOOP),
                        rel_tol=1e-15)
    assert dip.delta_t_total == fiber_loop_delay(V_LOOP, 1.0e4)
    assert dip.center_shift == 0.0


def test_corrected_group_phase_frozen():
    phase, corr = corrected_group_phase(8.0e6, V_LOOP, 1.0e4, SILICA)
    assert phase == pytest.approx(1341.3408140490765, rel=1e-12)
    assert corr == pytest.approx(-6.549515693599005e-18, rel=1e-12)
    _, corr0 = corrected_group_phase(8.0e6, 0.3, 1.0e4, RefractiveModel.constant(1.5))
    assert corr0 == 0.0
    with pytest.raises(ValueError):
        corrected_group_phase(8.0e6, V_LOOP, -1.0, SILICA)


# --- coherence budget -----------------------------------------------------------

def test_coherence_length_frozen_and_inverses():
    omega_rot = 2.0 * math.pi
    needed = coherence_length_required(1.0e4, omega_rot, 0.2)
    assert needed == pytest.approx(5.2674330592209146e-4, rel=1e-12)
    # dx = 4 pi L' Omega R / c solved back for L' and Omega
    assert needed * C / (4.0 * math.pi * omega_rot * 0.2) == pytest.approx(1.0e4, rel=1e-12)
    assert needed * C / (4.0 * math.pi * 1.0e4 * 0.2) == pytest.approx(omega_rot, rel=1e-12)


def test_coherence_validation():
    with pytest.raises(ValueError):
        coherence_length_required(0.0, 1.0, 0.2)
    with pytest.raises(ValueError):
        coherence_length_required(1.0e4, -1.0, 0.2)


# --- down-converted coincidence --------------------------------------------------

def test_downconverted_rejects_an_infinite_phase_bound():
    # sigma 1e300 makes (|da| 12 sigma + |bs| (12 sigma)^2) L overflow: cos(inf)
    # inside the integrand would be a bare math domain error
    coeffs = dispersion_coefficients(SILICA, V_LOOP)
    with pytest.raises(ValueError, match="phase bound inf rad"):
        downconverted_coincidence(1.0e300, coeffs, 1.0e4)


def test_downconverted_frozen_at_loop_defaults():
    coeffs = dispersion_coefficients(SILICA, V_LOOP)
    sigma = 4000.0 * math.pi
    closed = downconverted_coincidence_closed(sigma, coeffs.delta_alpha, 1.0e4)
    ruled = downconverted_coincidence(sigma, coeffs, 1.0e4)
    assert closed == pytest.approx(0.3351665491591506, rel=1e-12)
    assert ruled == pytest.approx(closed, abs=1e-9)


def test_quadratic_phase_cancels_out():
    base = DispersionCoefficients(alpha_plus=1.44 + 5.0e-10, alpha_minus=1.44 - 5.0e-10,
                                  beta_plus=-1.9e-11, beta_minus=-1.9e-11)
    bent = DispersionCoefficients(alpha_plus=base.alpha_plus,
                                  alpha_minus=base.alpha_minus,
                                  beta_plus=-2.85e-11, beta_minus=-0.95e-11)
    assert base.delta_alpha == pytest.approx(1.0e-9, rel=1e-6)
    p_base = downconverted_coincidence(3.0e3, base, 1.0e4)
    p_bent = downconverted_coincidence(3.0e3, bent, 1.0e4)
    assert p_bent == pytest.approx(p_base, rel=1e-12)
    assert p_base == pytest.approx(
        downconverted_coincidence_closed(3.0e3, base.delta_alpha, 1.0e4), abs=1e-9)


def test_downconverted_validation():
    with pytest.raises(ValueError):
        downconverted_coincidence_closed(0.0, 1.0e-9, 1.0e4)
    coeffs = dispersion_coefficients(SILICA, 0.0)
    with pytest.raises(ValueError):
        downconverted_coincidence(3.0e3, coeffs, -1.0)
