"""Built-in verification suite and documented-delta bookkeeping.

Every check here re-derives a package result through an independent route
(extended-precision arithmetic, adaptive quadrature, the discretized Fock
oracle) or asserts a structural identity.  The checks are callables so
tests can inject tampered implementations and confirm the suite actually
catches them.

``unreproduced_targets`` returns the quoted figures that direct evaluation
of the printed formulas does not reproduce; the verify command flags them
instead of silently dropping or "fixing" them.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence

from . import fiber, interference, kerr, turntable
from ._record import frozen
from .constants import CONSTANTS, GravSource
from .interference import Wavepacket

__all__ = [
    "CheckResult",
    "UnreproducedTarget",
    "run_all_checks",
    "unreproduced_targets",
    "fig1_crossover_radius",
    "check_null_residual",
    "check_weak_vs_full",
    "check_frame_drag_asymmetry",
    "check_dispersion_cancellation",
    "check_hom_closed_vs_quadrature",
    "check_single_photon_closed_vs_quadrature",
    "check_fock_vs_quadrature",
    "check_fock_unitarity",
    "check_visibility_exponent_ratio",
    "check_two_way_turntable",
    "check_two_way_kerr",
    "check_equivalence_closure",
    "check_timeshift_metric_consistency",
    "check_downconverted_closed_vs_quadrature",
    "check_silica_derivatives",
    "check_sagnac_hom_delay_consistency",
    "check_wavepacket_normalization",
]


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


@frozen
class UnreproducedTarget:
    name: str
    quoted: str
    computed: float
    unit: str
    context: str


_FORM = "{label} {worst:.3e} vs bound {bound:.3e} over {count} points"

# Fixed inputs of the checks below.
_FOCK_BINS = 1024  # the Fock-oracle grid checked against quadrature
_UNITARITY_BINS = 512  # the grid whose pair probabilities must sum to one
_TWO_WAY_SAMPLES, _TWO_WAY_SEED = 100, 20250814  # random draws per two-way check
_FIG1_SIGMA = 3.5e3  # rad/m, the width of the default fig1 scan


def _worst(values) -> float:
    """The largest value, or NaN if any value is NaN (``max`` would skip it)."""
    values = [float(value) for value in values]
    return math.nan if any(map(math.isnan, values)) else max(values)


def _result(name: str, deviations: list, bound: float, label: str = "max",
            form: str = _FORM) -> CheckResult:
    """The one reducer: a check passes when its worst deviation is <= bound."""
    worst = _worst(deviations)
    detail = form.format(label=label, worst=worst, bound=bound, count=len(deviations))
    return CheckResult(name=name, worst=worst, bound=bound, detail=detail)


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


def check_null_residual() -> CheckResult:
    points = [kerr.KerrPoint(source=GravSource(r_s=r_s, a=a), r=r) for r_s, a, r in _NULL_GRID]
    return _result("null-residual", [kerr.null_residual(point, direction)
                                     for point in points for direction in ("co", "counter")],
                   1.0e-12)


def check_weak_vs_full(weak_fn: Callable[..., float] = kerr.light_speed_weak) -> CheckResult:
    """Weak-field truncation error against the quadratic envelope (K = 1).

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
    return _result("weak-vs-full-envelope", deviations, 1.0, label="max error/envelope",
                   form="{label} {worst:.3e} (K=1) over {count} points")


def check_frame_drag_asymmetry() -> CheckResult:
    """c_co - |c_counter| equals 2 r_s a / r^2 within 1% in the weak field."""
    deviations = []
    for rs_over_r in (1.0e-8, 1.0e-7, 9.0e-7):
        for a_over_r in (1.0e-5, 1.0e-4, 1.0e-3):
            point = kerr.KerrPoint(source=GravSource(r_s=rs_over_r, a=a_over_r), r=1.0)
            c_co = kerr.light_speed_full(point, "co")
            c_counter = abs(kerr.light_speed_full(point, "counter"))
            expected = 2.0 * rs_over_r * a_over_r
            deviations.append(abs(c_co - c_counter - expected) / expected)
    return _result("frame-drag-asymmetry", deviations, 0.01, label="max rel dev")


# --- interference -----------------------------------------------------------

def check_hom_closed_vs_quadrature() -> CheckResult:
    import numpy as np

    sigma = 3.5e3
    packet = Wavepacket.gaussian(2.0e6, sigma)
    delays = np.linspace(0.0, 10.0, 21) / sigma
    return _result("hom-closed-vs-quadrature",
                   [abs(interference.hom_coincidence_gaussian(sigma, delta_t)
                        - interference.hom_coincidence_general(packet, delta_t))
                    for delta_t in delays], 1.0e-9)


def check_single_photon_closed_vs_quadrature() -> CheckResult:
    omega0, sigma = 2.0e6, 3.5e3
    packet = Wavepacket.gaussian(omega0, sigma)
    return _result("single-photon-closed-vs-quadrature",
                   [abs(interference.single_photon_prob_gaussian(delta_phi, omega0, sigma)
                        - interference.single_photon_prob_quadrature(delta_phi, packet))
                    for delta_phi in (0.0, 7.0e-3, 0.05)], 1.0e-9)


def check_fock_vs_quadrature() -> CheckResult:
    sigma = 3.5e3
    packet = Wavepacket.gaussian(2.0e6, sigma)
    delays = [x / sigma for x in (0.0, 0.5, 1.0, 2.0, 5.0)]
    return _result("fock-vs-quadrature",
                   [abs(interference.fock_oracle_hom(packet, delta_t, bins=_FOCK_BINS)
                        - interference.hom_coincidence_general(packet, delta_t))
                    for delta_t in delays], 1.0e-6)


def check_fock_unitarity() -> CheckResult:
    from ._kernels import hom_pair_probabilities

    packet = Wavepacket.gaussian(2.0e6, 3.5e3)
    omegas, weights = interference.fock_grid(packet, _UNITARITY_BINS)
    return _result("fock-unitarity",
                   [abs(sum(hom_pair_probabilities(weights, omegas, delta_t)) - 1.0)
                    for delta_t in (0.0, 2.0e-4, 1.0e-3)], 1.0e-12)


def check_visibility_exponent_ratio() -> CheckResult:
    """-ln(V_single) is exactly twice -ln(1 - 2 P_coincidence) for Gaussians."""
    sigma = 3.5e3
    deviations = []
    for x in (0.5, 1.0, 2.0):
        delta_t = x / sigma
        vis = interference.gaussian_visibility(delta_t, sigma)
        coin = interference.hom_coincidence_gaussian(sigma, delta_t)
        deviations.append(abs(math.log(vis) / math.log(1.0 - 2.0 * coin) - 2.0))
    return _result("visibility-exponent-ratio", deviations, 1.0e-12, label="max |ratio-2|")


def check_wavepacket_normalization() -> CheckResult:
    from ._quadrature import integrate

    deviations = []
    for omega0, sigma in ((2.0e6, 3.5e3), (8.0e6, 4000.0 * math.pi), (1.0e6, 1.0e5)):
        packet = Wavepacket.gaussian(omega0, sigma)
        total = integrate(lambda w: float(packet.density(w)),
                          omega0 - 12.0 * sigma, omega0 + 12.0 * sigma)
        deviations.append(abs(total - 1.0))
    return _result("wavepacket-normalization", deviations, 1.0e-10)


# --- two-way isotropy -------------------------------------------------------

def check_two_way_turntable() -> CheckResult:
    import numpy as np

    rng = np.random.default_rng(_TWO_WAY_SEED)
    deviations = []
    for _ in range(_TWO_WAY_SAMPLES):
        v = float(rng.uniform(0.0, 0.99))
        r_t = float(rng.uniform(1.0e-2, 1.0e3))
        omega = float(rng.uniform(1.0, 1.0e7))
        phi_a, _, diff = turntable.two_way_phase_turntable(v, r_t, omega)
        deviations.append(abs(diff) / abs(phi_a))
    return _result("two-way-turntable", deviations, 1.0e-12, label="max rel diff")


def check_two_way_kerr() -> CheckResult:
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
    return _result("two-way-kerr-local", deviations, 1.0, label="max |dev|/bound")


# --- turntable equivalence --------------------------------------------------

_EQUIV_GRID: Sequence[tuple[float, float, float]] = (
    (3.0e4, 7.5e3, 3.0e5),
    (3.0e4, 300.0, 3.0e5),
    (0.009, 0.0044, 6.37e6),
    (1.0, 0.5, 2.5),
)


def check_equivalence_closure() -> CheckResult:
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
    return _result("equivalence-closure", deviations, 1.0e-12, label="max rel dev")


def check_timeshift_metric_consistency() -> CheckResult:
    deviations = []
    for r_s, a, r in _EQUIV_GRID:
        source = GravSource(r_s=r_s, a=a)
        v_metric = turntable.equivalence_velocity_metric(source, r).v
        v_shift = turntable.equivalence_velocity_timeshift(
            source, r, r_t=r, metric_time=True).v
        deviations.append(abs(v_shift - v_metric) / v_metric)
    return _result("timeshift-metric-consistency", deviations, 1.0e-12, label="max rel dev")


def check_sagnac_hom_delay_consistency() -> CheckResult:
    """sagnac_phase/omega equals the loop delay 2vL/(1-v^2) used by the dip."""
    deviations = []
    model = fiber.RefractiveModel.constant(1.0)
    for v, length in ((4.19e-9, 1.0e4), (1.0e-6, 2.0e3), (0.3, 12.0)):
        delay = turntable.sagnac_phase(1.0, 2.0 * length, v)  # omega = 1
        arms = fiber.FiberArms(length=length, delta_length=0.0, model=model, v=v)
        dip = fiber.hom_dip_shift(arms)
        deviations.append(abs(dip.delta_t_total - delay) / delay)
    return _result("sagnac-hom-delay-consistency", deviations, 1.0e-12, label="max rel dev")


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


def check_dispersion_cancellation(
    coincidence_fn: Callable[..., float] = fiber.downconverted_coincidence,
) -> CheckResult:
    """Perturbing beta_+- by +-50% must not move the coincidence probability.

    One deviation per grid point: the larger relative change of its two perturbations.
    """
    length = 1.0e4
    beta = -1.9e-11
    deviations = []
    # sigma capped at 5e3: beyond that the common quadratic phase
    # beta*w^2*L exceeds ~1e4 rad and its double rounding alone moves the
    # probability by more than the 1e-12 budget being asserted
    for sigma in (1.0e3, 2.0e3, 3.5e3, 5.0e3):
        for x in (0.05, 0.3, 1.0, 2.0, 3.0):
            delta_alpha = x / (sigma * length)
            base = coincidence_fn(sigma, _grid_coeffs(delta_alpha, beta), length)
            deviations.append(_worst(
                [abs(coincidence_fn(sigma, _grid_coeffs(delta_alpha, beta, factor), length)
                     - base) / base for factor in (1.5, 0.5)]))
    return _result("dispersion-cancellation", deviations, 1.0e-12, label="max rel change")


def check_downconverted_closed_vs_quadrature() -> CheckResult:
    length = 1.0e4
    beta = -1.9e-11
    sigma = 3.5e3
    deviations = []
    for x in (0.1, 0.25, 1.0, 2.0):
        coeffs = _grid_coeffs(x / (sigma * length), beta)
        quadrature = fiber.downconverted_coincidence(sigma, coeffs, length)
        closed = fiber.downconverted_coincidence_closed(sigma, coeffs.delta_alpha, length)
        deviations.append(abs(quadrature - closed))
    return _result("downconverted-closed-vs-quadrature", deviations, 1.0e-9)


def check_silica_derivatives() -> CheckResult:
    """Analytic n', n'' and the moving-medium GVD against extended-precision differences."""
    import mpmath as mp

    model = fiber.RefractiveModel.fused_silica()
    k0 = model.k0
    # (relative deviation, tolerance) pairs; first derivative gets 1e-8,
    # curvature-based quantities 1e-6
    ratios: list[float] = []
    with mp.workdps(40):
        a_mp, b_mp, k_mp = mp.mpf(model.A), mp.mpf(model.B), mp.mpf(k0)

        def n_mp(k):
            return a_mp / k + b_mp

        h = mp.mpf(1.0)
        fd1 = (n_mp(k_mp + h) - n_mp(k_mp - h)) / (2 * h)
        ratios.append(float(abs(fd1 - model.n_prime(k0)) / abs(fd1)) / 1.0e-8)

        h2 = mp.mpf(1.0e3)
        fd2 = (n_mp(k_mp + h2) - 2 * n_mp(k_mp) + n_mp(k_mp - h2)) / (h2 * h2)
        ratios.append(float(abs(fd2 - model.n_double_prime(k0)) / abs(fd2)) / 1.0e-6)

        for v, sign in ((0.0, 1), (4.1916900439033636e-9, 1), (1.0e-4, -1)):
            v_mp = mp.mpf(v)

            def omega_mp(k):
                return k * (1 - v_mp * v_mp) / (n_mp(k) - sign * v_mp)

            fd_curv = (omega_mp(k_mp + h2) - 2 * omega_mp(k_mp)
                       + omega_mp(k_mp - h2)) / (h2 * h2)
            direction = "co" if sign > 0 else "counter"
            analytic = fiber.gvd_moving(model, k0, v, direction)
            ratios.append(float(abs(fd_curv - analytic) / abs(fd_curv)) / 1.0e-6)
    return _result("silica-derivatives", ratios, 1.0, label="max dev/tolerance",
                   form="{label} {worst:.3e} over {count} derivatives")


# --- suite ------------------------------------------------------------------

def run_all_checks() -> list[CheckResult]:
    return [
        check_null_residual(),
        check_weak_vs_full(),
        check_frame_drag_asymmetry(),
        check_two_way_kerr(),
        check_two_way_turntable(),
        check_equivalence_closure(),
        check_timeshift_metric_consistency(),
        check_sagnac_hom_delay_consistency(),
        check_wavepacket_normalization(),
        check_hom_closed_vs_quadrature(),
        check_single_photon_closed_vs_quadrature(),
        check_fock_vs_quadrature(),
        check_fock_unitarity(),
        check_visibility_exponent_ratio(),
        check_dispersion_cancellation(),
        check_downconverted_closed_vs_quadrature(),
        check_silica_derivatives(),
    ]


def unreproduced_targets() -> list[UnreproducedTarget]:
    """Quoted figures that the printed formulas do not reproduce.

    These are reported as warnings wherever the surrounding numbers are
    computed; dropping them silently is treated as a defect.
    """
    source = GravSource(r_s=0.009, a=3.9)
    equiv = turntable.equivalence_velocity_metric(source, r=100.0)
    v_si = equiv.v * CONSTANTS.c

    table = turntable.TurntableConfig.from_angular_frequency(0.2, 2.0 * math.pi)
    arms = fiber.FiberArms(length=1.0e4, delta_length=0.01,
                           model=fiber.RefractiveModel.constant(1.453), v=table.v)
    dip = fiber.hom_dip_shift(arms)
    shift_seconds = dip.center_shift / CONSTANTS.c

    return [
        UnreproducedTarget(
            name="small-source-equivalence-velocity",
            quoted="110 m/s",
            computed=v_si,
            unit="m/s",
            context="metric matching at r_s=0.009 m, a=3.9 m, r=100 m",
        ),
        UnreproducedTarget(
            name="dip-residual-timescale",
            quoted="3e-11 s",
            computed=shift_seconds,
            unit="s",
            context=("residual dip-center shift at Omega=2*pi rad/s, R=0.2 m, "
                     "delta_L=0.01 m, n=1.453, L=1e4 m"),
        ),
    ]


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
    a = 7.5e3  # m, the default fig1 source's a (r_s = 3.0e4 m)
    return 1.0 + 4.0 * math.pi * a * _FIG1_SIGMA / math.sqrt(math.log(2.0))
