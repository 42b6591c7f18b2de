"""The built-in verification suite.

Every check here re-derives a package result through an independent route
(extended-precision arithmetic, adaptive quadrature, the discretized Fock
oracle) or asserts a structural identity.  The checks are callables so
tests can inject tampered implementations and confirm the suite actually
catches them.

``CHECKS`` is the table of checks, in the order ``verify`` prints them.  A
check's name, bound and margin label are written once, in the ``_check``
line above its ``check_*`` function, which returns its deviations.  Only
``verify`` imports this module; the quoted figures it also prints are
``scenario.QUOTED``.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Sequence

from . import fiber, interference, kerr, turntable
from ._record import frozen
from .constants import GravSource
from .interference import Wavepacket
from .scenario import BLACK_HOLE_DEFAULTS, FIBER_LOOP_DEFAULTS, Scenario

__all__ = ["Check", "CHECKS", "CheckResult", "run_all_checks", "fig1_crossover_radius"]


@frozen
class CheckResult:
    """One check: its worst deviation, the bound it must not exceed, and the margin line."""

    name: str
    worst: float
    bound: float
    detail: str

    @property
    def passed(self) -> bool:
        return self.worst <= self.bound  # a NaN worst fails


_FORM = "{label} {worst:.3e} vs bound {bound:.3e} over {count} points"


def _worst(values) -> float:
    """The largest value, or NaN if any value is NaN (``max`` would skip it)."""
    values = [float(value) for value in values]
    return math.nan if any(map(math.isnan, values)) else max(values)


@frozen
class Check:
    """One row of ``CHECKS``: what ``verify`` prints for the ``function`` attribute's deviations."""

    name: str
    bound: float
    label: str
    form: str
    function: str  # the check_* attribute of this module that run_all_checks calls

    def result(self, deviations: list) -> CheckResult:
        """The one reducer: a check passes when its worst deviation is <= bound."""
        worst = _worst(deviations)
        return CheckResult(self.name, worst, self.bound, self.form.format(
            label=self.label, worst=worst, bound=self.bound, count=len(deviations)))


CHECKS: list[Check] = []  # filled by _check in definition order, which is verify's order


def _check(name: str, bound: float, label: str = "max", form: str = _FORM):
    """Add a ``CHECKS`` row for the decorated function, which returns its deviations."""
    def register(deviations_of):
        row = Check(name, bound, label, form, deviations_of.__name__)
        CHECKS.append(row)
        return functools.wraps(deviations_of)(
            lambda *args, **kwargs: row.result(deviations_of(*args, **kwargs)))
    return register


def run_all_checks() -> list[CheckResult]:
    # each check by its module attribute, so a wrapped check_* is the one that runs
    return [globals()[row.function]() for row in CHECKS]


# Fixed inputs of the checks below.
_FOCK_BINS = 1024  # the Fock-oracle grid checked against quadrature
_UNITARITY_BINS = 512  # the grid whose pair probabilities must sum to one
_TWO_WAY_SAMPLES, _TWO_WAY_SEED = 100, 20250814  # random draws per two-way check


# --- Kerr light speeds ------------------------------------------------------

_NULL_GRID: Sequence[tuple[float, float, float]] = (
    # (r_s, a, r) spanning weak field, strong field, ergosphere interior,
    # extremal spin, and a spinless control.
    (3.0e4, 7.5e3, 6.0e4),
    (3.0e4, 7.5e3, 2.95e4),   # inside the ergosphere, outside the horizon
    (3.0e4, 1.5e4, 3.2e4),    # extremal
    (3.0e4, 0.0, 7.5e4),
    (0.009, 3.9, 6.37e6),     # super-extremal planet-like source
    (1.0, 0.45, 2.7),
    (2.0, 0.2, 1.0e6),
)


@_check("null-residual", 1.0e-12)
def check_null_residual() -> list[float]:
    points = [kerr.KerrPoint(source=GravSource(r_s=r_s, a=a), r=r) for r_s, a, r in _NULL_GRID]
    return [kerr.null_residual(point, direction)
            for point in points for direction in ("co", "counter")]


@_check("weak-vs-full-envelope", 1.0, label="max error/envelope",
        form="{label} {worst:.3e} (K=1) over {count} points")
def check_weak_vs_full(weak_fn: Callable[..., float] = kerr.light_speed_weak) -> list:
    """Weak-field truncation error over the quadratic envelope; the bound is its constant K.

    ``weak_fn`` (the shipped double-precision formula unless a test injects
    a tampered one) runs against the full speed in 50-digit arithmetic on a
    log grid of (r_s/r, a/r) in [1e-5, 1e-3]^2, where the envelope stays
    clear of double rounding.
    """
    import mpmath as mp

    deviations = []
    with mp.workdps(50):
        for rs_over_r in mp.linspace(-5, -3, 5):
            for a_over_r in mp.linspace(-5, -3, 5):
                r_s, a = mp.power(10, rs_over_r), mp.power(10, a_over_r)  # at r = 1
                envelope = r_s ** 2 + a ** 2 + r_s * a * r_s
                drag = r_s * a / mp.sqrt(1 + a * a * (1 + r_s))  # full speed = drag +- root
                root = mp.sqrt(drag * drag + 1 - r_s)
                point = kerr.KerrPoint(source=GravSource(r_s=float(r_s), a=float(a)), r=1.0)
                for direction, sign in (("co", 1), ("counter", -1)):
                    weak = mp.mpf(weak_fn(point, direction, force=True))
                    deviations.append(abs(weak - (drag + sign * root)) / envelope)
    return deviations


@_check("frame-drag-asymmetry", 0.01, label="max rel dev")
def check_frame_drag_asymmetry() -> list[float]:
    """c_co - |c_counter| equals 2 r_s a / r^2 to leading order in the weak field."""
    deviations = []
    for rs_over_r in (1.0e-8, 1.0e-7, 9.0e-7):
        for a_over_r in (1.0e-5, 1.0e-4, 1.0e-3):
            point = kerr.KerrPoint(source=GravSource(r_s=rs_over_r, a=a_over_r), r=1.0)
            c_co = kerr.light_speed_full(point, "co")
            c_counter = abs(kerr.light_speed_full(point, "counter"))
            expected = 2.0 * rs_over_r * a_over_r
            deviations.append(abs(c_co - c_counter - expected) / expected)
    return deviations


# --- two-way isotropy -------------------------------------------------------

@_check("two-way-kerr-local", 1.0, label="max |dev|/bound")
def check_two_way_kerr() -> list[float]:
    import numpy as np

    rng = np.random.default_rng(_TWO_WAY_SEED)
    deviations = []
    for _ in range(_TWO_WAY_SAMPLES):
        rs_over_r = float(10.0 ** rng.uniform(-12.0, math.log10(0.0099)))
        a_over_r = float(10.0 ** rng.uniform(-12.0, math.log10(0.0099)))
        point = kerr.KerrPoint(source=GravSource(r_s=rs_over_r, a=a_over_r), r=1.0)
        local = kerr.local_two_way_speed(point)
        # |c_two_way - 1| is quadratic in r_s/r; allow rounding headroom
        bound = 2.0 * rs_over_r * rs_over_r + 8.0 * np.finfo(float).eps
        deviations.append(abs(local - 1.0) / bound)
    return deviations


@_check("two-way-turntable", 1.0e-12, label="max rel diff")
def check_two_way_turntable() -> list[float]:
    import numpy as np

    rng = np.random.default_rng(_TWO_WAY_SEED)
    deviations = []
    for _ in range(_TWO_WAY_SAMPLES):
        v = float(rng.uniform(0.0, 0.99))
        r_t = float(rng.uniform(1.0e-2, 1.0e3))
        omega = float(rng.uniform(1.0, 1.0e7))
        phi_a, _, diff = turntable.two_way_phase_turntable(v, r_t, omega)
        deviations.append(abs(diff) / abs(phi_a))
    return deviations


# --- turntable equivalence --------------------------------------------------

_EQUIV_GRID: Sequence[tuple[float, float, float]] = (
    (3.0e4, 7.5e3, 3.0e5),
    (3.0e4, 300.0, 3.0e5),
    (0.009, 0.0044, 6.37e6),
    (1.0, 0.5, 2.5),
)


@_check("equivalence-closure", 1.0e-12, label="max rel dev")
def check_equivalence_closure() -> list[float]:
    deviations = []
    for r_s, a, r in _EQUIV_GRID:
        source = GravSource(r_s=r_s, a=a)
        v = turntable.equivalence_velocity_metric(source, r).v
        scale = turntable.time_rescale_factor(source, r, v)
        point = kerr.KerrPoint(source=source, r=r)
        kerr_metric = kerr.metric_components_kerr(point)
        rotating = turntable.metric_components_rotating(v, r)
        pairs = (
            (kerr_metric.g_tt * scale**2, rotating.g_tt),
            (kerr_metric.g_tphi * scale, rotating.g_tphi),
            (kerr_metric.g_phiphi, rotating.g_phiphi),
        )
        deviations += [abs(ours - target) / abs(target) for ours, target in pairs]
    return deviations


@_check("timeshift-metric-consistency", 1.0e-12, label="max rel dev")
def check_timeshift_metric_consistency() -> list[float]:
    deviations = []
    for r_s, a, r in _EQUIV_GRID:
        source = GravSource(r_s=r_s, a=a)
        v_metric = turntable.equivalence_velocity_metric(source, r).v
        v_shift = turntable.equivalence_velocity_timeshift(
            source, r, r_t=r, metric_time=True).v
        deviations.append(abs(v_shift - v_metric) / v_metric)
    return deviations


@_check("sagnac-hom-delay-consistency", 1.0e-12, label="max rel dev")
def check_sagnac_hom_delay_consistency() -> list[float]:
    """sagnac_phase/omega equals the loop delay 2vL/(1-v^2) used by the dip."""
    deviations = []
    model = fiber.RefractiveModel.constant(1.0)
    for v, length in ((4.19e-9, 1.0e4), (1.0e-6, 2.0e3), (0.3, 12.0)):
        delay = turntable.sagnac_phase(1.0, 2.0 * length, v)  # omega = 1
        arms = fiber.FiberArms(length=length, delta_length=0.0, model=model, v=v)
        dip = fiber.hom_dip_shift(arms)
        deviations.append(abs(dip.delta_t_total - delay) / delay)
    return deviations


# --- interference -----------------------------------------------------------

@_check("wavepacket-normalization", 1.0e-10)
def check_wavepacket_normalization() -> list[float]:
    from ._quadrature import GAUSS_WINDOW, integrate

    deviations = []
    for omega0, sigma in ((2.0e6, 3.5e3), (8.0e6, 4000.0 * math.pi), (1.0e6, 1.0e5)):
        packet = Wavepacket.gaussian(omega0, sigma)
        total = integrate(lambda w: float(packet.density(w)),
                          omega0 - GAUSS_WINDOW * sigma, omega0 + GAUSS_WINDOW * sigma)
        deviations.append(abs(total - 1.0))
    return deviations


@_check("hom-closed-vs-quadrature", 1.0e-9)
def check_hom_closed_vs_quadrature() -> list[float]:
    import numpy as np

    sigma = 3.5e3
    packet = Wavepacket.gaussian(2.0e6, sigma)
    delays = np.linspace(0.0, 10.0, 21) / sigma
    return [abs(interference.hom_coincidence_gaussian(sigma, delta_t)
                - interference.hom_coincidence_general(packet, delta_t))
            for delta_t in delays]


@_check("single-photon-closed-vs-quadrature", 1.0e-9)
def check_single_photon_closed_vs_quadrature() -> list[float]:
    omega0, sigma = 2.0e6, 3.5e3
    packet = Wavepacket.gaussian(omega0, sigma)
    return [abs(interference.single_photon_prob_gaussian(delta_phi, omega0, sigma)
                - interference.single_photon_prob_quadrature(delta_phi, packet))
            for delta_phi in (0.0, 7.0e-3, 0.05)]


@_check("fock-vs-quadrature", 1.0e-6)
def check_fock_vs_quadrature() -> list[float]:
    sigma = 3.5e3
    packet = Wavepacket.gaussian(2.0e6, sigma)
    delays = [x / sigma for x in (0.0, 0.5, 1.0, 2.0, 5.0)]
    return [abs(interference.fock_oracle_hom(packet, delta_t, bins=_FOCK_BINS)
                - interference.hom_coincidence_general(packet, delta_t))
            for delta_t in delays]


@_check("fock-unitarity", 1.0e-12)
def check_fock_unitarity() -> list[float]:
    from ._kernels import hom_pair_probabilities

    packet = Wavepacket.gaussian(2.0e6, 3.5e3)
    omegas, weights = interference.fock_grid(packet, _UNITARITY_BINS)
    return [abs(sum(hom_pair_probabilities(weights, omegas, delta_t)) - 1.0)
            for delta_t in (0.0, 2.0e-4, 1.0e-3)]


@_check("visibility-exponent-ratio", 1.0e-12, label="max |ratio-2|")
def check_visibility_exponent_ratio() -> list[float]:
    """-ln(V_single) is exactly twice -ln(1 - 2 P_coincidence) for Gaussians."""
    sigma = 3.5e3
    deviations = []
    for x in (0.5, 1.0, 2.0):
        delta_t = x / sigma
        vis = interference.gaussian_visibility(delta_t, sigma)
        coin = interference.hom_coincidence_gaussian(sigma, delta_t)
        deviations.append(abs(math.log(vis) / math.log(1.0 - 2.0 * coin) - 2.0))
    return deviations


# --- moving medium ----------------------------------------------------------

def _grid_coeffs(delta_alpha: float, beta: float,
                 factor: float = 1.0) -> fiber.DispersionCoefficients:
    """Coefficients with beta_+ = beta * factor and beta_- = beta / factor."""
    alpha = 1.0 / 0.69
    return fiber.DispersionCoefficients(
        alpha_plus=alpha + 0.5 * delta_alpha,
        alpha_minus=alpha - 0.5 * delta_alpha,
        beta_plus=beta * factor,
        beta_minus=beta / factor,
    )


@_check("dispersion-cancellation", 1.0e-12, label="max rel change")
def check_dispersion_cancellation(
    coincidence_fn: Callable[..., float] = fiber.downconverted_coincidence,
) -> list[float]:
    """Perturbing beta_+- by +-50% must not move the coincidence probability.

    One deviation per grid point: the larger relative change of its two perturbations.
    """
    length = 1.0e4
    beta = -1.9e-11
    deviations = []
    # sigma capped at 5e3: beyond that the common quadratic phase
    # beta*w^2*L exceeds ~1e4 rad and its double rounding alone moves the
    # probability by more than the bound being asserted
    for sigma in (1.0e3, 2.0e3, 3.5e3, 5.0e3):
        for x in (0.05, 0.3, 1.0, 2.0, 3.0):
            delta_alpha = x / (sigma * length)
            base = coincidence_fn(sigma, _grid_coeffs(delta_alpha, beta), length)
            deviations.append(_worst(
                [abs(coincidence_fn(sigma, _grid_coeffs(delta_alpha, beta, factor), length)
                     - base) / base for factor in (1.5, 0.5)]))
    return deviations


@_check("downconverted-closed-vs-quadrature", 1.0e-9)
def check_downconverted_closed_vs_quadrature() -> list[float]:
    length = 1.0e4
    beta = -1.9e-11
    sigma = 3.5e3
    deviations = []
    for x in (0.1, 0.25, 1.0, 2.0):
        coeffs = _grid_coeffs(x / (sigma * length), beta)
        quadrature = fiber.downconverted_coincidence(sigma, coeffs, length)
        closed = fiber.downconverted_coincidence_closed(sigma, coeffs.delta_alpha, length)
        deviations.append(abs(quadrature - closed))
    return deviations


@_check("silica-derivatives", 1.0, label="max dev/tolerance",
        form="{label} {worst:.3e} over {count} derivatives")
def check_silica_derivatives() -> list[float]:
    """Analytic n', n'' and the moving-medium GVD against extended-precision differences."""
    import mpmath as mp

    model = Scenario.assemble(FIBER_LOOP_DEFAULTS).refractive_model()
    # (relative deviation, tolerance) pairs; first derivative gets 1e-8,
    # curvature-based quantities 1e-6
    ratios: list[float] = []
    with mp.workdps(40):
        a_mp, b_mp, k_mp = mp.mpf(model.A), mp.mpf(model.B), mp.mpf(model.k0)

        def n_mp(k):
            return a_mp / k + b_mp

        h = mp.mpf(1.0)
        fd1 = (n_mp(k_mp + h) - n_mp(k_mp - h)) / (2 * h)
        ratios.append(float(abs(fd1 - model.n_prime) / abs(fd1)) / 1.0e-8)

        h2 = mp.mpf(1.0e3)
        fd2 = (n_mp(k_mp + h2) - 2 * n_mp(k_mp) + n_mp(k_mp - h2)) / (h2 * h2)
        ratios.append(float(abs(fd2 - model.n_double_prime) / abs(fd2)) / 1.0e-6)

        for v, sign in ((0.0, 1), (4.1916900439033636e-9, 1), (1.0e-4, -1)):
            v_mp = mp.mpf(v)

            def omega_mp(k):
                return k * (1 - v_mp * v_mp) / (n_mp(k) - sign * v_mp)

            fd_curv = (omega_mp(k_mp + h2) - 2 * omega_mp(k_mp)
                       + omega_mp(k_mp - h2)) / (h2 * h2)
            direction = "co" if sign > 0 else "counter"
            analytic = fiber.gvd_moving(model, v, direction)
            ratios.append(float(abs(fd_curv - analytic) / abs(fd_curv)) / 1.0e-6)
    return ratios


def fig1_crossover_radius() -> float:
    """Radius (in units of r_s) where the default scan visibility crosses 1/2.

    The full-mode delay of one 2 pi r loop is the closed-loop delay
    4 pi r_s a/(r - r_s), so exp(-(sigma dt)^2) = 1/2 at
    r/r_s = 1 + 4 pi a sigma/sqrt(ln 2); at the default source this equals
    the root of the 2 pi r scan's visibility minus 1/2 to the bit.  Frozen
    as a regression anchor because the crossover sits far outside the
    default grid (the quoted near-horizon visibility shape is unreproduced
    with the stated spectral width).
    """
    a, sigma = BLACK_HOLE_DEFAULTS["source.a"], BLACK_HOLE_DEFAULTS["light.sigma"]
    return 1.0 + 4.0 * math.pi * a * sigma / math.sqrt(math.log(2.0))
