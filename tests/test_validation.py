"""One argument rule: every checked argument rejects NaN, +inf and its boundary by name.

Each row names a public function, valid keyword arguments for it, the
checked argument and its kind.  Passing NaN, +inf or the first value past
the allowed range must raise ``ValueError`` whose message begins with the
argument's name (``<name> must be ...``).
"""

import math

import pytest

from framedrag import constants, fiber, interference, kerr, turntable
from framedrag.constants import GravSource
from framedrag.fiber import FiberArms, RefractiveModel
from framedrag.interference import Wavepacket
from framedrag.kerr import KerrPoint
from framedrag.turntable import TurntableConfig

SOURCE = GravSource(r_s=0.009, a=3.9)
HOLE = GravSource(r_s=3.0e4, a=7.5e3)
POINT = KerrPoint(source=SOURCE, r=6.37e6)
SILICA = RefractiveModel.fused_silica()
ARMS = FiberArms(length=1.0e4, delta_length=0.01, model=SILICA, v=4.2e-9)
COEFFS = fiber.dispersion_coefficients(SILICA, 8.0e6, 4.2e-9)
PACKET = Wavepacket.gaussian(2.0e6, 3.5e3)

BAD = {
    "positive": (math.nan, math.inf, 0.0),
    "non-negative": (math.nan, math.inf, -1.0),
    "at-least-1": (math.nan, math.inf, 0.0),
    "at-least-2": (math.nan, math.inf, 1),
    "speed": (math.nan, math.inf, 1.0),
    "finite": (math.nan, math.inf, -math.inf),
}
LABELS = {"n": "refractive index n"}  # the index is named with its meaning

CASES = [
    (constants.schwarzschild_radius, dict(mass=1.0), "mass", "non-negative"),
    (constants.spin_parameter, dict(mass=1.0, angular_momentum=1.0), "mass", "positive"),
    (constants.spin_parameter, dict(mass=1.0, angular_momentum=1.0), "angular_momentum",
     "finite"),
    (GravSource, dict(r_s=1.0, a=0.1), "r_s", "non-negative"),
    (GravSource, dict(r_s=1.0, a=0.1), "a", "non-negative"),
    (KerrPoint, dict(source=SOURCE, r=1.0e6), "r", "positive"),
    (kerr.kerr_time_delay, dict(point=POINT, length=1.0), "length", "positive"),
    (kerr.kerr_time_delay_full, dict(point=POINT, length=1.0), "length", "positive"),
    (kerr.kerr_phase_difference, dict(point=POINT, length=1.0, omega=2.0e6), "length",
     "positive"),
    (kerr.kerr_phase_difference, dict(point=POINT, length=1.0, omega=2.0e6), "omega",
     "positive"),
    (kerr.blackhole_scan, dict(source=HOLE, omega=2.0e6, sigma=3.5e3, n_points=8), "omega",
     "positive"),
    (kerr.blackhole_scan, dict(source=HOLE, omega=2.0e6, sigma=3.5e3, n_points=8), "sigma",
     "positive"),
    (kerr.blackhole_scan, dict(source=HOLE, omega=2.0e6, sigma=3.5e3, n_points=8), "r_max",
     "positive"),
    (kerr.blackhole_scan, dict(source=HOLE, omega=2.0e6, sigma=3.5e3, n_points=8),
     "n_points", "at-least-2"),
    (TurntableConfig, dict(r_t=0.2, v=0.1, omega_rot=1.0), "r_t", "positive"),
    (TurntableConfig, dict(r_t=0.2, v=0.1, omega_rot=1.0), "v", "speed"),
    (TurntableConfig, dict(r_t=0.2, v=0.1, omega_rot=1.0, windings=0), "windings",
     "non-negative"),
    (TurntableConfig.from_velocity, dict(r_t=0.2, v=0.1), "v", "speed"),
    (TurntableConfig.from_angular_frequency, dict(r_t=0.2, omega_rot=1.0), "omega_rot",
     "non-negative"),
    (turntable.metric_components_rotating, dict(v=0.1, r_t=0.2), "v", "speed"),
    (turntable.metric_components_rotating, dict(v=0.1, r_t=0.2), "r_t", "positive"),
    (turntable.time_rescale_factor, dict(source=SOURCE, r=6.37e6, v=0.1), "r", "positive"),
    (turntable.time_rescale_factor, dict(source=SOURCE, r=6.37e6, v=0.1), "v", "speed"),
    (turntable.equivalence_velocity_metric, dict(source=SOURCE, r=6.37e6), "r", "positive"),
    (turntable.equivalence_velocity_timeshift, dict(source=SOURCE, r=6.37e6, r_t=0.2), "r",
     "positive"),
    (turntable.equivalence_velocity_timeshift, dict(source=SOURCE, r=6.37e6, r_t=0.2),
     "r_t", "positive"),
    (turntable.turntable_roundtrip_shift, dict(v=0.1, r_t=0.2), "v", "speed"),
    (turntable.kerr_roundtrip_shift, dict(source=SOURCE, r=6.37e6), "r", "positive"),
    (turntable.sagnac_phase, dict(omega=1.0, length=1.0, v=0.1), "omega", "positive"),
    (turntable.sagnac_phase, dict(omega=1.0, length=1.0, v=0.1), "length", "positive"),
    (turntable.sagnac_phase, dict(omega=1.0, length=1.0, v=0.1), "v", "speed"),
    (turntable.min_velocity_for_visibility, dict(radius=5.0, sigma=3.3e3), "radius",
     "positive"),
    (turntable.min_velocity_for_visibility, dict(radius=5.0, sigma=3.3e3), "sigma",
     "positive"),
    (turntable.min_velocity_for_visibility, dict(radius=5.0, sigma=3.3e3, windings=0),
     "windings", "non-negative"),
    (turntable.windings_for_visibility_loss, dict(radius=5.0, sigma=3.3e3, v=0.1), "radius",
     "positive"),
    (turntable.windings_for_visibility_loss, dict(radius=5.0, sigma=3.3e3, v=0.1), "sigma",
     "positive"),
    (turntable.windings_for_visibility_loss, dict(radius=5.0, sigma=3.3e3, v=0.1), "v",
     "speed"),
    (turntable.winding_arm_length, dict(r_t=0.2, v=0.1), "r_t", "positive"),
    (turntable.winding_arm_length, dict(r_t=0.2, v=0.1), "v", "speed"),
    (turntable.winding_arm_length, dict(r_t=0.2, v=0.1, windings=0), "windings",
     "non-negative"),
    (turntable.winding_hom_exponent, dict(sigma=3.3e3, v=0.1, r_t=0.2), "v", "speed"),
    (turntable.winding_hom_exponent, dict(sigma=3.3e3, v=0.1, r_t=0.2), "r_t", "positive"),
    (turntable.two_way_phase_turntable, dict(v=0.1, r_t=0.2, omega=1.0), "v", "speed"),
    (turntable.two_way_phase_turntable, dict(v=0.1, r_t=0.2, omega=1.0), "r_t", "positive"),
    (turntable.two_way_phase_turntable, dict(v=0.1, r_t=0.2, omega=1.0), "omega",
     "positive"),
    (turntable.g_force, dict(v=0.1, r_t=0.2), "v", "speed"),
    (turntable.g_force, dict(v=0.1, r_t=0.2), "r_t", "positive"),
    (RefractiveModel, dict(A=1.0e5, B=1.44, k0=8.0e6), "A", "non-negative"),
    (RefractiveModel, dict(A=1.0e5, B=1.44, k0=8.0e6), "B", "at-least-1"),
    (RefractiveModel, dict(A=1.0e5, B=1.44, k0=8.0e6), "k0", "positive"),
    (FiberArms, dict(length=10.0, delta_length=0.0, model=SILICA, v=0.0), "length",
     "positive"),
    (FiberArms, dict(length=10.0, delta_length=0.0, model=SILICA, v=0.0), "delta_length",
     "finite"),
    (FiberArms, dict(length=10.0, delta_length=0.0, model=SILICA, v=0.0), "v", "speed"),
    (fiber.phase_velocity_moving, dict(n=1.5, v=0.1, direction="co"), "n", "at-least-1"),
    (fiber.phase_velocity_moving, dict(n=1.5, v=0.1, direction="co"), "v", "speed"),
    (fiber.effective_lab_velocity, dict(n=1.5, v=0.1, direction="co"), "n", "at-least-1"),
    (fiber.effective_lab_velocity, dict(n=1.5, v=0.1, direction="co"), "v", "speed"),
    (fiber.group_velocity_moving, dict(model=SILICA, k=8.0e6, v=0.1, direction="co"), "v",
     "speed"),
    (fiber.gvd_moving, dict(model=SILICA, k=8.0e6, v=0.1, direction="co"), "v", "speed"),
    (fiber.dispersion_coefficients, dict(model=SILICA, k=8.0e6, v=0.1), "v", "speed"),
    (fiber.fiber_phase_difference, dict(arms=ARMS, omega0=8.0e6), "omega0", "positive"),
    (fiber.coherence_length_required, dict(loop_length=1.0, omega_rot=1.0, radius=1.0),
     "loop_length", "positive"),
    (fiber.coherence_length_required, dict(loop_length=1.0, omega_rot=1.0, radius=1.0),
     "omega_rot", "non-negative"),
    (fiber.coherence_length_required, dict(loop_length=1.0, omega_rot=1.0, radius=1.0),
     "radius", "positive"),
    (fiber.corrected_group_phase, dict(omega0=8.0e6, v=0.1, length=1.0, model=SILICA),
     "omega0", "positive"),
    (fiber.corrected_group_phase, dict(omega0=8.0e6, v=0.1, length=1.0, model=SILICA), "v",
     "speed"),
    (fiber.corrected_group_phase, dict(omega0=8.0e6, v=0.1, length=1.0, model=SILICA),
     "length", "positive"),
    (fiber.downconverted_coincidence, dict(sigma=1.0e4, coeffs=COEFFS, length=1.0e4),
     "sigma", "positive"),
    (fiber.downconverted_coincidence, dict(sigma=1.0e4, coeffs=COEFFS, length=1.0e4),
     "length", "positive"),
    (fiber.downconverted_coincidence_closed, dict(sigma=1.0e4, delta_alpha=1e-8,
                                                  length=1.0e4), "sigma", "positive"),
    (fiber.downconverted_coincidence_closed, dict(sigma=1.0e4, delta_alpha=1e-8,
                                                  length=1.0e4), "length", "positive"),
    (Wavepacket, dict(omega0=2.0e6, sigma=3.5e3), "omega0", "positive"),
    (Wavepacket, dict(omega0=2.0e6, sigma=3.5e3), "sigma", "positive"),
    (interference.gaussian_visibility, dict(delta_t=1.0, sigma=1.0), "sigma", "positive"),
    (interference.single_photon_prob_gaussian, dict(delta_phi=1.0, omega0=2.0e6,
                                                    sigma=3.5e3), "omega0", "positive"),
    (interference.single_photon_prob_gaussian, dict(delta_phi=1.0, omega0=2.0e6,
                                                    sigma=3.5e3), "sigma", "positive"),
    (interference.hom_coincidence_gaussian, dict(sigma=1.0, delta_t=1.0), "sigma",
     "positive"),
    (interference.fock_grid, dict(packet=PACKET, bins=16), "bins", "at-least-2"),
    (interference.fock_oracle_hom, dict(packet=PACKET, delta_t=1e-4, bins=16), "bins",
     "at-least-2"),
]


@pytest.mark.parametrize("fn, kwargs, name, value", [
    pytest.param(fn, kwargs, name, value, id=f"{fn.__qualname__}-{name}-{value!r}")
    for fn, kwargs, name, kind in CASES for value in BAD[kind]
])
def test_checked_argument_rejects_non_finite_and_boundary_by_name(fn, kwargs, name, value):
    fn(**kwargs)  # the row's valid arguments pass
    with pytest.raises(ValueError) as info:
        fn(**{**kwargs, name: value})
    assert str(info.value).startswith(f"{LABELS.get(name, name)} must be "), str(info.value)


@pytest.mark.parametrize("fn, args", [
    (kerr.light_speed_full, (POINT,)),
    (kerr.light_speed_weak, (POINT,)),
    (kerr.null_residual, (POINT,)),
    (fiber.phase_velocity_moving, (1.5, 0.1)),
    (fiber.effective_lab_velocity, (1.5, 0.1)),
    (fiber.group_velocity_moving, (SILICA, 8.0e6, 0.1)),
    (fiber.gvd_moving, (SILICA, 8.0e6, 0.1)),
], ids=lambda item: getattr(item, "__name__", ""))
def test_direction_is_co_or_counter(fn, args):
    fn(*args, "counter")
    with pytest.raises(ValueError, match="^direction must be 'co' or 'counter', got 'up'$"):
        fn(*args, "up")
