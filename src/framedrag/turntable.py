"""Turntable kinematics and the rotating-mass equivalence.

Two independent matching procedures fix the turntable speed that mimics a
rotating mass of Schwarzschild radius r_s and spin parameter a at radius r:

* metric matching — rescale the Kerr time coordinate by
  sqrt((1-v^2)/(1-r_s/r)) and equate the off-diagonal metric components,
  giving v = (r_s a / r^2) / sqrt(1 - r_s/r + r_s^2 a^2 / r^4);
* time-shift matching — equate the co/counter round-trip arrival-time
  splits of the two settings, giving v = X / sqrt(1 + X^2) with
  X = r_s a / (r r_t) for a turntable of radius r_t.

All velocities are fractions of c; lengths are metres.
"""

from __future__ import annotations

import math

from ._record import frozen
from .constants import CONSTANTS, GravSource
from .errors import check_at_least, check_positive, check_speed
from .kerr import KerrPoint, MetricComponents

__all__ = [
    "TurntableConfig",
    "EquivalenceResult",
    "metric_components_rotating",
    "time_rescale_factor",
    "equivalence_velocity_metric",
    "equivalence_velocity_timeshift",
    "turntable_roundtrip_shift",
    "kerr_roundtrip_shift",
    "sagnac_phase",
    "min_velocity_for_visibility",
    "windings_for_visibility_loss",
    "winding_arm_length",
    "fiber_loop_delay",
    "winding_hom_exponent",
    "two_way_phase_turntable",
    "g_force",
]

STANDARD_GRAVITY = 9.81  # m/s^2, as used for the quoted g-force figures


@frozen
class TurntableConfig:
    """A spinning platform carrying the interferometer.

    Exactly one of ``omega_rot`` (rad/s) or ``v`` (fraction of c) is given;
    the other is derived through v = Omega r_t / c.  ``windings`` counts
    extra fiber loops per arm.
    """

    r_t: float
    v: float
    omega_rot: float
    windings: int = 0

    def __post_init__(self) -> None:
        check_positive(self.r_t, "r_t")
        check_speed(self.v)
        check_at_least(self.omega_rot, 0.0, "omega_rot")  # v c / r_t overflows for tiny r_t
        check_at_least(self.windings, 0, "windings")

    @classmethod
    def from_velocity(cls, r_t: float, v: float, *, windings: int = 0) -> "TurntableConfig":
        check_speed(v)
        omega = v * CONSTANTS.c / r_t
        return cls(r_t=r_t, v=v, omega_rot=omega, windings=windings)

    @classmethod
    def from_angular_frequency(cls, r_t: float, omega_rot: float, *,
                               windings: int = 0) -> "TurntableConfig":
        check_at_least(omega_rot, 0.0, "omega_rot")
        v = omega_rot * r_t / CONSTANTS.c
        return cls(r_t=r_t, v=v, omega_rot=omega_rot, windings=windings)


@frozen
class EquivalenceResult:
    """Turntable velocity matching a rotating-mass scenario.

    ``v`` is the exact closed form of the selected method, ``v_approx``
    drops the small quadratic term under the square root, and ``v_leading``
    is the first-order value r_s a / (r^2 or r r_t).  All are fractions of
    c, signed non-negative.
    """

    v: float
    v_approx: float
    v_leading: float


def metric_components_rotating(v: float, r_t: float) -> MetricComponents:
    """(1+1) rotating-frame metric components (1-v^2, -v r_t, -r_t^2)."""
    check_speed(v)
    check_positive(r_t, "r_t")
    return MetricComponents(g_tt=1.0 - v * v, g_tphi=-v * r_t, g_phiphi=-r_t * r_t)


def time_rescale_factor(source: GravSource, r: float, v: float) -> float:
    """Time rescaling sqrt((1-v^2)/(1-r_s/r)) that aligns the two metrics."""
    check_speed(v)
    check_positive(r, "r")
    if r <= source.r_s:
        raise ValueError(
            f"time rescaling needs r > r_s, got r = {r!r}, r_s = {source.r_s!r}"
        )
    return math.sqrt((1.0 - v * v) / (1.0 - source.r_s / r))


def equivalence_velocity_metric(source: GravSource, r: float) -> EquivalenceResult:
    """Turntable speed that reproduces the rotating-mass metric at radius r.

    Exact form (r_s a / r^2) / sqrt(1 - r_s/r + r_s^2 a^2 / r^4); the
    ``v_approx`` variant keeps only (1 - r_s/r) under the root and
    ``v_leading`` is the first-order r_s a / r^2.
    """
    KerrPoint(source=source, r=r)  # validates r against the horizon
    r_s, a = source.r_s, source.a
    if r <= r_s:
        raise ValueError(f"metric matching needs r > r_s, got r = {r!r}")
    x = r_s * a / (r * r)
    v = x / math.sqrt(1.0 - r_s / r + x * x)
    v_approx = x / math.sqrt(1.0 - r_s / r)
    return EquivalenceResult(v=v, v_approx=v_approx, v_leading=x)


def equivalence_velocity_timeshift(source: GravSource, r: float, r_t: float, *,
                                   metric_time: bool = False) -> EquivalenceResult:
    """Turntable speed equating round-trip time shifts at turntable radius r_t.

    Solving turntable shift = rotating-mass shift gives v = X/sqrt(1+X^2)
    with X = r_s a / (r r_t); the small-X limit is the quoted
    v = +-r_s a / (r r_t).  With ``metric_time=True`` the mass-side shift
    is measured against the rescaled time coordinate (X divided by
    sqrt(1-r_s/r)), which for r_t = r reproduces the metric-matching
    velocity.
    """
    KerrPoint(source=source, r=r)  # validates r against the horizon
    check_positive(r_t, "r_t")
    r_s, a = source.r_s, source.a
    radii = r * r_t
    if radii == 0.0:  # r r_t below ~1e-324 underflows
        raise OverflowError(f"equivalence_velocity_timeshift r_s a/(r r_t) overflows at "
                            f"r = {r!r}, r_t = {r_t!r}")
    x = r_s * a / radii
    if metric_time:
        if r <= r_s:
            raise ValueError(f"metric-time matching needs r > r_s, got r = {r!r}")
        x /= math.sqrt(1.0 - r_s / r)
    if math.isinf(x * x):  # X/sqrt(1+X^2) would read 0 (or nan) instead of ~1
        raise OverflowError(f"equivalence_velocity_timeshift X^2 overflows at X = {x!r}")
    return EquivalenceResult(v=x / math.sqrt(1.0 + x * x), v_approx=x, v_leading=x)


def turntable_roundtrip_shift(v: float, r_t: float) -> float:
    """Arrival-time split 2 pi r_t v / (sqrt(1-v^2) (1-v)) per revolution.

    Uses the dilated circumference L = 2 pi r_t / sqrt(1-v^2) and the
    co-rotating closing time L/(1-v) - L.
    """
    check_speed(v)
    check_positive(r_t, "r_t")
    circumference = 2.0 * math.pi * r_t / math.sqrt(1.0 - v * v)
    return circumference / (1.0 - v) - circumference


def kerr_roundtrip_shift(source: GravSource, r: float) -> float:
    """Rotating-mass round-trip arrival split 2 pi r_s a / r."""
    check_positive(r, "r")
    return 2.0 * math.pi * source.r_s * source.a / r


def sagnac_phase(omega: float, length: float, v: float) -> float:
    """Sagnac phase difference 2 omega v L / (1 - v^2) around a loop L."""
    check_speed(v)
    check_positive(length, "length")
    check_positive(omega, "omega")
    return 2.0 * omega * v * length / (1.0 - v * v)


def min_velocity_for_visibility(radius: float, sigma: float, windings: int = 0) -> tuple[float, float]:
    """Speed where fringe loss becomes significant on a platform of given radius.

    Returns (exact, leading) with exact = 1/sqrt(4 pi^2 r_eff^2 sigma^2 + 1)
    and leading = 1/(2 pi r_eff sigma), where r_eff = (2N+1) r accounts for
    N extra fiber windings.
    """
    check_positive(radius, "radius")
    check_positive(sigma, "sigma")
    check_at_least(windings, 0, "windings")
    r_eff = (2 * windings + 1) * radius
    scale = 2.0 * math.pi * r_eff * sigma
    if scale == 0.0:  # r sigma below ~1e-324 underflows
        raise OverflowError(f"min_velocity_for_visibility 1/(2 pi r sigma) overflows at "
                            f"radius = {radius!r}, sigma = {sigma!r}")
    # above 2^27, fl(scale^2 + 1) = fl(scale^2) and sqrt(fl(scale^2)) = scale, so
    # 1/scale is the root's own value, and stays finite where scale^2 overflows
    exact = 1.0 / scale if scale > 2.0**27 else 1.0 / math.sqrt(scale * scale + 1.0)
    return exact, 1.0 / scale


def windings_for_visibility_loss(radius: float, sigma: float, v: float) -> int:
    """Smallest winding count N with min_velocity(..., N) <= v."""
    check_speed(v)
    if v == 0.0:
        raise ValueError("v = 0 cannot reach significant visibility loss")
    check_positive(radius, "radius")
    check_positive(sigma, "sigma")
    # exact >= condition: 4 pi^2 ((2N+1) r)^2 sigma^2 >= 1/v^2 - 1
    try:  # 1/v^2 leaves float64 for v below ~1e-154, as 1/(r sigma) can
        needed = math.sqrt(max(1.0 / (v * v) - 1.0, 0.0)) / (2.0 * math.pi * radius * sigma)
        n = math.ceil((needed - 1.0) / 2.0)
    except (ZeroDivisionError, OverflowError):
        raise OverflowError(f"windings_for_visibility_loss overflows at v = {v!r}, "
                            f"radius = {radius!r}, sigma = {sigma!r}") from None
    return max(n, 0)


def winding_arm_length(r_t: float, v: float, windings: int = 0) -> float:
    """Arm length (2N+1) pi r_t sqrt(1-v^2) of the half-way meeting layout."""
    check_speed(v)
    check_positive(r_t, "r_t")
    check_at_least(windings, 0, "windings")
    return (2 * windings + 1) * math.pi * r_t * math.sqrt(1.0 - v * v)


def fiber_loop_delay(v: float, length: float) -> float:
    """HOM delay 4 v L / (1 - v^2) between the arms of a rotating loop [hom-delay-fiber-loop].

    No speed check: callers validate v once (a sweep checks its fastest rim).
    """
    return 4.0 * v * length / (1.0 - v * v)


def winding_hom_exponent(sigma: float, v: float, r_t: float, windings: int = 0) -> float:
    """Coincidence-dip exponent sigma^2 dt^2 / 2 for the wound-fiber layout.

    Equals 8 sigma^2 v^2 (2N+1)^2 pi^2 r_t^2 / (1 - v^2); crossing 2 marks
    the significant-loss threshold used by min_velocity_for_visibility.
    """
    check_positive(sigma, "sigma")
    delta_t = fiber_loop_delay(v, winding_arm_length(r_t, v, windings))
    try:
        return 0.5 * (sigma * delta_t) ** 2
    except OverflowError:
        raise OverflowError(f"winding_hom_exponent (sigma * delta_t)^2 / 2 overflows at "
                            f"sigma = {sigma!r}, delta_t = {delta_t!r}") from None


def two_way_phase_turntable(v: float, r_t: float, omega: float) -> tuple[float, float, float]:
    """Round-trip phases of the two arms and their difference.

    Each arm sends light out and back over the same fiber of length
    L = pi r_t sqrt(1-v^2), one leg co-rotating at 1+v and one
    counter-rotating at 1-v; phases are accumulated against on-platform
    proper time.  The out/back legs commute, so the difference vanishes
    identically — the round-trip speed of light on the platform is
    isotropic.
    """
    check_speed(v)
    check_positive(r_t, "r_t")
    check_positive(omega, "omega")
    length = math.pi * r_t * math.sqrt(1.0 - v * v)
    proper = math.sqrt(1.0 - v * v)
    t_a = length / (1.0 + v) + length / (1.0 - v)
    t_b = length / (1.0 - v) + length / (1.0 + v)
    phi_a = omega * t_a * proper
    phi_b = omega * t_b * proper
    return phi_a, phi_b, phi_a - phi_b


def g_force(v: float, r_t: float) -> float:
    """Centripetal acceleration (v c)^2 / r_t in units of 9.81 m/s^2."""
    check_speed(v)
    check_positive(r_t, "r_t")
    v_si = v * CONSTANTS.c
    return v_si * v_si / r_t / STANDARD_GRAVITY
