"""Equatorial light propagation around a rotating mass.

The (1+1)-dimensional line element used throughout restricts the rotating
body's exterior metric to the equatorial plane and azimuthal motion,

    ds^2 = (1 - r_s/r) dt^2 - (2 r_s a / r) dt dphi - r^2 dphi^2,

with the dphi^2 coefficient truncated at O(a^2/r^2).  Coordinate light
speeds come from the null condition of the untruncated equatorial metric
(dphi^2 coefficient r^2 + a^2 (1 + r_s/r)), expressed as tangential proper
distance per coordinate time:

    dx/dt = r_s a / (r sqrt(P)) +- sqrt(r_s^2 a^2 / (r^2 P) + 1 - r_s/r),
    P     = r^2 + a^2 (1 + r_s/r).

The ``co`` branch takes the plus sign and is the direction favoured by
frame dragging; the ``counter`` branch takes the minus sign and is signed
negative outside the ergosphere (r > r_s).  Between horizon and ergosphere
both branches are dragged forward and come out positive.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from ._record import frozen
from .constants import GravSource
from .errors import GuardViolation, check_at_least, check_positive, direction_sign

__all__ = [
    "KerrPoint",
    "MetricComponents",
    "metric_components_kerr",
    "light_speed_full",
    "light_speed_weak",
    "null_residual",
    "kerr_phase_difference",
    "kerr_time_delay",
    "kerr_time_delay_full",
    "roundtrip_mean_speed",
    "local_two_way_speed",
    "horizon_radius",
    "blackhole_scan",
]

WEAK_FIELD_GUARD = 0.01


@frozen
class MetricComponents:
    """(1+1) metric components (g_tt, g_tphi, g_phiphi).

    ``g_tphi`` stores half the dt-dphi coefficient of the line element, so
    the quadratic form reads g_tt dt^2 + 2 g_tphi dt dphi + g_phiphi dphi^2.
    """

    g_tt: float
    g_tphi: float
    g_phiphi: float


@frozen
class KerrPoint:
    """An equatorial field point at Boyer-Lindquist radius ``r`` (metres).

    For sub-extremal sources the point must lie outside the horizon.
    """

    source: GravSource
    r: float

    def __post_init__(self) -> None:
        check_positive(self.r, "r")
        if not self.r * self.r > 0.0:  # the metric and the light speeds divide by r^2
            raise ValueError(f"r must be large enough that r^2 > 0, got {self.r!r}")
        if self.source.sub_extremal and self.source.r_s > 0.0:
            r_plus = horizon_radius(self.source)
            if self.r <= r_plus:
                raise ValueError(
                    f"r = {self.r!r} m is not outside the horizon r+ = {r_plus!r} m"
                )


def _speed_terms(r_s: float, a: float, r: float) -> tuple[float, float]:
    """Drag term D and root term S of the coordinate light speeds.

    Returns (D, S) with c_co = D + S and c_counter = D - S.  S^2 equals
    Delta / P, so the root argument going negative is exactly the point
    crossing inside the horizon.
    """
    big_p = r * r + a * a * (1.0 + r_s / r)
    drag = r_s * a / (r * math.sqrt(big_p))
    arg = drag * drag + (1.0 - r_s / r)
    if arg < 0.0:
        raise ValueError(
            f"light-speed root argument {arg!r} < 0 at r = {r!r} m "
            "(point is inside the horizon)"
        )
    return drag, math.sqrt(arg)


def _light_speed_full_raw(r_s: float, a: float, r: float, direction: str) -> float:
    drag, root = _speed_terms(r_s, a, r)
    # Combining drag and root with the same sign is cancellation-free; the
    # opposite branch loses ~half the mantissa near the ergosphere where
    # |D| ~ S, so recover it from the root product (D + S)(D - S) = -g_tt.
    big = drag + root if drag >= 0.0 else drag - root
    small = -(1.0 - r_s / r) / big if big != 0.0 else 0.0
    if direction == "co":
        return big if drag >= 0.0 else small
    return small if drag >= 0.0 else big


def metric_components_kerr(point: KerrPoint) -> MetricComponents:
    """(1+1) metric components (1 - r_s/r, -r_s a/r, -r^2) at a point."""
    r_s, a, r = point.source.r_s, point.source.a, point.r
    return MetricComponents(
        g_tt=1.0 - r_s / r,
        g_tphi=-r_s * a / r,
        g_phiphi=-r * r,
    )


def light_speed_full(point: KerrPoint, direction: str) -> float:
    """Signed coordinate light speed from the full null condition.

    Parameters
    ----------
    point : KerrPoint
        Field point; must be outside the horizon.
    direction : {"co", "counter"}
        Branch of the null condition.  ``counter`` is negative outside the
        ergosphere and positive (dragged forward) inside it.
    """
    direction_sign(direction)
    return _light_speed_full_raw(point.source.r_s, point.source.a, point.r, direction)


def light_speed_weak(point: KerrPoint, direction: str, *, force: bool = False) -> float:
    """Signed weak-field light speed +-(1 - r_s/(2r) +- r_s a/r^2).

    Valid only for r_s/r and a/r below WEAK_FIELD_GUARD (0.01); pass
    ``force=True`` to evaluate the truncation anyway.
    """
    direction_sign(direction)
    r_s, a, r = point.source.r_s, point.source.a, point.r
    _apply_weak_guard(r_s, a, r, force)
    drag = r_s * a / (r * r)
    radial = 1.0 - r_s / (2.0 * r)
    return radial + drag if direction == "co" else -(radial - drag)


def _apply_weak_guard(r_s: float, a: float, r: float, force: bool) -> None:
    if force:
        return
    if r_s / r >= WEAK_FIELD_GUARD or a / r >= WEAK_FIELD_GUARD:
        raise GuardViolation(
            f"weak-field expansion invalid: r_s/r = {r_s / r:.3e}, "
            f"a/r = {a / r:.3e}, guard = {WEAK_FIELD_GUARD:g} (use force/--override-guards)"
        )


def null_residual(point: KerrPoint, direction: str) -> float:
    """Relative residual of ds^2/dt^2 for a full-mode light speed.

    The returned speed u is tangential proper distance per coordinate
    time, so dphi/dt = -u/sqrt(P) in the sign convention of
    ``metric_components_kerr`` (whose cross term makes the favoured
    direction negative dphi).  Substituting into the untruncated
    equatorial line element must annihilate it; the residual is
    normalised by the largest term entering the cancellation.
    """
    u = light_speed_full(point, direction)
    r_s, a, r = point.source.r_s, point.source.a, point.r
    big_p = r * r + a * a * (1.0 + r_s / r)
    omega = -u / math.sqrt(big_p)
    metric = metric_components_kerr(point)
    g_tt, g_pp = metric.g_tt, -big_p  # untruncated: g_phiphi = -P
    residual = g_tt + 2.0 * metric.g_tphi * omega + g_pp * omega * omega
    scale = max(abs(g_tt), abs(g_pp) * omega * omega)
    if scale == 0.0:
        # counter branch exactly on the ergosphere boundary: u = 0 and
        # every term vanishes, so the null condition holds identically
        return abs(residual)
    return abs(residual) / scale


def kerr_time_delay(point: KerrPoint, length: float) -> float:
    """Weak-field arrival-time difference 2 L r_s a / r^2 over a path L."""
    check_positive(length, "length")
    r_s, a, r = point.source.r_s, point.source.a, point.r
    return 2.0 * length * r_s * a / (r * r)


def kerr_time_delay_full(point: KerrPoint, length: float) -> float:
    """Arrival-time difference L (1/|c_counter| - 1/c_co) from the full speeds.

    Evaluated through the algebraic identity

        1/|c_counter| - 1/c_co = 2 min(D, S) / |1 - r_s/r|,

    which avoids the catastrophic cancellation of subtracting two nearly
    equal inverse speeds in the weak-field regime (D and S as in
    ``_speed_terms``).  Diverges at the ergosphere radius r = r_s, where
    the counter branch has zero coordinate speed.
    """
    check_positive(length, "length")
    r_s, a, r = point.source.r_s, point.source.a, point.r
    drag, root = _speed_terms(r_s, a, r)
    denom = 1.0 - r_s / r
    if denom == 0.0:
        return math.inf
    return length * 2.0 * min(drag, root) / abs(denom)


def kerr_phase_difference(point: KerrPoint, length: float, omega: float, *,
                          force: bool = False) -> float:
    """Weak-field counter-minus-co phase difference 2 omega L (r_s a / r^2)(1 + r_s/r).

    The full-speed phase is omega times ``kerr_time_delay_full``.

    Parameters
    ----------
    point : KerrPoint
    length : float
        One-way path length in metres (pi r for a half loop, 2 pi r for a
        full loop).
    omega : float
        Angular frequency of the light in inverse metres.
    force : bool
        Evaluate outside the weak-field guard.
    """
    check_positive(length, "length")
    check_positive(omega, "omega")
    r_s, a, r = point.source.r_s, point.source.a, point.r
    _apply_weak_guard(r_s, a, r, force)
    return 2.0 * omega * length * (r_s * a / (r * r)) * (1.0 + r_s / r)


def roundtrip_mean_speed(point: KerrPoint, *, force: bool = False) -> float:
    """Two-way coordinate light speed 1/(1 + r_s/r) over a closed tangential path."""
    r_s, a, r = point.source.r_s, point.source.a, point.r
    _apply_weak_guard(r_s, a, r, force)
    return 1.0 / (1.0 + r_s / r)


def local_two_way_speed(point: KerrPoint, *, force: bool = False) -> float:
    """Two-way speed measured by a static local observer.

    Rescales the coordinate mean speed by dt/dtau = (1 - r_s/r)^(-1);
    equals 1/(1 - (r_s/r)^2), i.e. unity up to O((r_s/r)^2).
    """
    r_s, r = point.source.r_s, point.r
    mean = roundtrip_mean_speed(point, force=force)
    return mean / (1.0 - r_s / r)


def horizon_radius(source: GravSource) -> float:
    """Outer horizon r+ = r_s/2 + sqrt((r_s/2)^2 - a^2).

    Errors for super-extremal sources (a > r_s/2), which have no horizon.
    """
    if not source.sub_extremal:
        raise ValueError(
            f"no horizon: source is super-extremal (a = {source.a!r} > r_s/2 = {source.r_s / 2.0!r})"
        )
    # below r_s = 2^-499, (r_s/2)^2 underflows, so r+ is taken on r_s and a
    # scaled by 2^600; scaling by a power of two is exact either way
    shift = 600 if source.r_s < 2.0**-499 else 0
    half, a = math.ldexp(source.r_s, shift - 1), math.ldexp(source.a, shift)
    try:
        return math.ldexp(half + math.sqrt(half * half - a**2), -shift)
    except OverflowError:
        raise OverflowError(f"horizon_radius a^2 overflows at a = {source.a!r}") from None


def blackhole_scan(source: GravSource, omega: float, sigma: float, *, r_max: float = 1.0e3,
                   n_points: int = 512) -> tuple[int, Callable[[int, int], list]]:
    """Phase difference and visibility versus radius around a black hole.

    At each radius r = r' r_s a closed tangential loop L = 2 pi r is
    traversed in both directions; the full-mode arrival-time difference
    Delta t sets the phase omega * Delta t and the Gaussian fringe
    visibility exp(-(Delta t * sigma)^2).

    Parameters
    ----------
    source : GravSource
        Must be sub-extremal (the scan is anchored to the horizon).
    omega, sigma : float
        Carrier frequency and spectral width, inverse metres.
    r_max, n_points : float, int
        The radii are a logarithmic grid of ``n_points`` samples from
        1.05 r+/r_s to ``r_max``, in units of r_s, so every sample lies
        outside the horizon.

    Returns ``(rows, block)``, ``cli._write_table``'s protocol: ``block(start,
    stop)`` gives the columns [r_over_rs, phase_rad, visibility] of rows
    [start, stop) as lists of Python floats.  Every row is computed before
    the return, and the first whose phase is not finite (r = r_s, or inputs
    that leave float64) raises OverflowError, so ``block`` cannot fail.
    """
    import numpy as np

    check_positive(omega, "omega")
    check_positive(sigma, "sigma")
    check_positive(source.r_s, "r_s")
    r_plus = horizon_radius(source)  # errors for super-extremal sources
    check_at_least(n_points, 2, "n_points")
    check_positive(r_max, "r_max")
    lo = 1.05 * r_plus / source.r_s
    if lo >= r_max:
        raise ValueError(f"empty radial range [{lo!r}, {r_max!r}]")
    grid = np.geomspace(lo, r_max, n_points)

    r_s, a = source.r_s, source.a
    # r = r_s and overflowing inputs give inf or nan, caught below
    with np.errstate(all="ignore"):
        r = grid * r_s
        big_p = r * r + a * a * (1.0 + r_s / r)
        drag = r_s * a / (r * np.sqrt(big_p))
        root = np.sqrt(drag * drag + (1.0 - r_s / r))
        length = 2.0 * np.pi * r
        delta_t = length * 2.0 * np.minimum(drag, root) / np.abs(1.0 - r_s / r)
        phase = omega * delta_t
        visibility = np.exp(-np.square(delta_t * sigma))
    bad = np.flatnonzero(~np.isfinite(phase))  # a nan delay makes the visibility nan too
    if bad.size:
        raise OverflowError(f"phase_rad = {float(phase[bad[0]])!r} is not finite "
                            f"at r/r_s = {float(grid[bad[0]])!r}")
    columns = (grid, phase, visibility)
    return len(grid), lambda start, stop: [column[start:stop].tolist() for column in columns]
