"""Light in a moving dispersive medium: the fiber-guided turntable loop.

Two distinct "phase velocity" notions coexist and are kept apart:

* ``phase_velocity_moving`` — the relativistic composition of the
  medium-frame speed 1/n with the medium speed v, (1/n +- v)/(1 +- v/n);
  exactly 1 when n = 1 for any v.
* ``effective_lab_velocity`` — the effective speed (1-v^2)/(n -+ v) seen
  by a far-away observer for light guided along the moving fiber; reduces
  to the vacuum Sagnac speeds 1 +- v when n = 1.

The dispersion chain (group velocity, group-velocity dispersion, the
alpha/beta expansion coefficients) is built on the effective lab velocity
with omega(k) = k (1-v^2)/(n(k) -+ v); its curvature in k is

    d2omega/dk2 = (1-v^2) [ -(2 n' + k n'')/(n -+ v)^2
                            + 2 k n'^2/(n -+ v)^3 ].

Wavenumbers k and widths sigma are inverse metres; delays are metres;
v is a fraction of c.
"""

from __future__ import annotations

import math

from ._record import frozen
from .constants import CONSTANTS
from .errors import check_at_least, check_positive, check_speed, direction_sign
from .turntable import fiber_loop_delay, sagnac_phase

__all__ = [
    "RefractiveModel",
    "FiberArms",
    "DispersionCoefficients",
    "DipShift",
    "phase_velocity_moving",
    "effective_lab_velocity",
    "group_velocity_moving",
    "gvd_moving",
    "dispersion_coefficients",
    "fiber_phase_difference",
    "hom_dip_shift",
    "coherence_length_required",
    "corrected_group_phase",
    "downconverted_coincidence",
    "downconverted_coincidence_closed",
]

@frozen
class RefractiveModel:
    """Index model n(k) = A/k + B with analytic derivatives.

    ``k0`` is the reference wavenumber; the model is valid on the window
    [k0/10, 10 k0], a decade either side of it.
    """

    A: float
    B: float
    k0: float

    def __post_init__(self) -> None:
        check_at_least(self.A, 0.0, "A")
        check_at_least(self.B, 1.0, "B")
        check_positive(self.k0, "k0")
        check_at_least(self.A / self.k0, 0.0, "A / k0")  # n(k0) = A/k0 + B stays finite
        low = self.k0 / 10.0  # the derivatives divide by k^2 and k^3 down to k0/10
        if not low * low * low > 0.0:
            raise ValueError(f"k0 must be large enough that (k0/10)^3 > 0, got {self.k0!r}")

    @classmethod
    def fused_silica(cls) -> "RefractiveModel":
        """Built-in fused-silica model: n(k) = 1e5/k + 1.44 around k0 = 8e6 m^-1."""
        return cls(A=1.0e5, B=1.44, k0=8.0e6)

    @classmethod
    def constant(cls, n: float, k0: float = 8.0e6) -> "RefractiveModel":
        """Dispersionless model n(k) = n."""
        return cls(A=0.0, B=n, k0=k0)

    def _check_window(self, k: float) -> None:
        k_min, k_max = self.k0 / 10.0, self.k0 * 10.0
        if not k_min <= k <= k_max:
            raise ValueError(f"k = {k!r} outside the model validity window [{k_min!r}, {k_max!r}]")

    def n(self, k: float) -> float:
        self._check_window(k)
        return self.A / k + self.B

    def n_prime(self, k: float) -> float:
        """dn/dk = -A/k^2 (metres)."""
        self._check_window(k)
        return -self.A / (k * k)

    def n_double_prime(self, k: float) -> float:
        """d2n/dk2 = 2A/k^3 (metres squared)."""
        self._check_window(k)
        return 2.0 * self.A / (k * k * k)


@frozen
class FiberArms:
    """Two fiber arms of nominal length L and mismatch delta_L on a platform at speed v."""

    length: float
    delta_length: float
    model: RefractiveModel
    v: float

    def __post_init__(self) -> None:
        check_positive(self.length, "length")
        if not abs(self.delta_length) < 0.1 * self.length:  # also rejects NaN and inf
            raise ValueError(f"delta_length must be finite with |delta_length| < 0.1 L = "
                             f"{0.1 * self.length!r}, got {self.delta_length!r}")
        check_speed(self.v)


def phase_velocity_moving(n: float, v: float, direction: str) -> float:
    """Relativistic composition (1/n +- v)/(1 +- v/n) of light with the medium.

    ``co`` means the medium moves along the propagation direction.  Expands
    to the Fresnel drag 1/n +- v (1 - 1/n^2) at first order in v.
    """
    check_at_least(n, 1.0, "refractive index n")
    check_speed(v)
    s = direction_sign(direction)
    return (1.0 / n + s * v) / (1.0 + s * v / n)


def effective_lab_velocity(n: float, v: float, direction: str) -> float:
    """Far-away-observer speed (1-v^2)/(n -+ v) of fiber-guided light."""
    check_at_least(n, 1.0, "refractive index n")
    check_speed(v)
    s = direction_sign(direction)
    return (1.0 - v * v) / (n - s * v)


def group_velocity_moving(model: RefractiveModel, k: float, v: float, direction: str) -> float:
    """Group velocity v_p (1 - k n'(k)/(n -+ v)) in the moving medium.

    The dispersive factor multiplies k n'(k) (dimensionless), so a
    constant-index model returns the phase velocity exactly and a central
    difference of omega(k) = k v_p(k) reproduces the closed form.
    """
    s = direction_sign(direction)
    n = model.n(k)
    v_p = effective_lab_velocity(n, v, direction)
    return v_p * (1.0 - k * model.n_prime(k) / (n - s * v))


def gvd_moving(model: RefractiveModel, k: float, v: float, direction: str) -> float:
    """Group-velocity dispersion d2omega/dk2 in the moving medium.

    Evaluates (1-v^2) [-(2n' + k n'')/(n -+ v)^2 + 2 k n'^2/(n -+ v)^3],
    the exact curvature of omega(k) = k (1-v^2)/(n(k) -+ v); vanishes for
    a constant index.
    """
    s = direction_sign(direction)
    check_speed(v)
    n = model.n(k)
    n_p = model.n_prime(k)
    n_pp = model.n_double_prime(k)
    denom = n - s * v
    try:
        return (1.0 - v * v) * (
            -(2.0 * n_p + k * n_pp) / denom**2 + 2.0 * k * n_p * n_p / denom**3
        )
    except OverflowError:
        raise OverflowError(f"gvd_moving overflows in the powers of n -+ v = {denom!r}") from None


@frozen
class DispersionCoefficients:
    """Direction-resolved expansion coefficients of k(omega) about the carrier.

    alpha = 1/v_g is the inverse group velocity and beta = (1/2) d2k/domega2
    the quadratic (broadening) coefficient; the coincidence kernel depends
    on delta_alpha = alpha_+ - alpha_- while beta_sum = beta_+ + beta_-
    cancels out of it.
    """

    alpha_plus: float
    alpha_minus: float
    beta_plus: float
    beta_minus: float

    @property
    def delta_alpha(self) -> float:
        return self.alpha_plus - self.alpha_minus

    @property
    def beta_sum(self) -> float:
        return self.beta_plus + self.beta_minus


def dispersion_coefficients(model: RefractiveModel, k: float, v: float) -> DispersionCoefficients:
    """alpha/beta coefficients for both directions at wavenumber k.

    beta = -(1/2) (d2omega/dk2) / v_g^3, the standard inversion of the
    omega(k) expansion.
    """
    def alpha_beta(direction: str) -> tuple[float, float]:
        v_g = group_velocity_moving(model, k, v, direction)
        return 1.0 / v_g, -0.5 * gvd_moving(model, k, v, direction) / v_g**3

    (alpha_plus, beta_plus), (alpha_minus, beta_minus) = alpha_beta("co"), alpha_beta("counter")
    return DispersionCoefficients(alpha_plus, alpha_minus, beta_plus, beta_minus)


def fiber_phase_difference(arms: FiberArms, omega0: float) -> float:
    """Interferometer phase split 2 v L omega0/(1-v^2) + omega0 dL n/(1-v^2).

    With equal arms (dL = 0) the refractive index cancels and the result
    is exactly the vacuum Sagnac phase for loop length L.
    """
    check_positive(omega0, "omega0")
    n = arms.model.n(arms.model.k0)
    mismatch = omega0 * arms.delta_length * n / (1.0 - arms.v**2)
    return sagnac_phase(omega0, arms.length, arms.v) + mismatch


@frozen
class DipShift:
    """Coincidence-dip delay bookkeeping after control-arm calibration."""

    delta_t_total: float
    center_shift: float
    center_shift_approx: float


def hom_dip_shift(arms: FiberArms) -> DipShift:
    """Total two-photon delay and residual dip-center shift for mismatched arms.

    The raw delay is 4 v L/(1-v^2) + 2 dL n/(1-v^2); the control arm,
    calibrated at standstill, adds -2 dL n and cancels the static
    mismatch, leaving the residual center shift 2 dL n v^2/(1-v^2), whose
    small-v form 2 dL n v^2 is reported alongside.
    """
    v = arms.v
    n = arms.model.n(arms.model.k0)
    static = 2.0 * arms.delta_length * n
    gamma2 = 1.0 - v * v
    total = fiber_loop_delay(v, arms.length) + static / gamma2 - static
    shift = static * v * v / gamma2
    return DipShift(
        delta_t_total=total,
        center_shift=shift,
        center_shift_approx=static * v * v,
    )


def coherence_length_required(loop_length: float, omega_rot: float, radius: float) -> float:
    """Coherence length 4 pi L' Omega R / c for significant dip visibility loss."""
    check_positive(loop_length, "loop_length")
    check_positive(radius, "radius")
    check_at_least(omega_rot, 0.0, "omega_rot")
    return 4.0 * math.pi * loop_length * omega_rot * radius / CONSTANTS.c


def corrected_group_phase(omega0: float, v: float, length: float,
                          model: RefractiveModel) -> tuple[float, float]:
    """Group-delay phase 4 omega0 v L/(1-v^2) (1 + n'(k0) v/(1-v^2)).

    Returns (phase, correction) with the dimensionless reading of the
    correction term n'(k0) v/(1-v^2) exposed separately; it vanishes for a
    dispersionless model and is odd in v.
    """
    check_positive(omega0, "omega0")
    check_positive(length, "length")
    check_speed(v)
    gamma2 = 1.0 - v * v
    correction = model.n_prime(model.k0) * v / gamma2 + 0.0  # v = 0 gives 0, not -0
    phase = 4.0 * omega0 * v * length / gamma2 * (1.0 + correction)
    return phase, correction


def _downconverted_integrand(w: float, sigma: float, norm: float, da: float, bs: float,
                             length: float) -> float:
    """The two-route interference of ``downconverted_coincidence`` at detuning w.

    Even in w bit for bit: -w gives da*(-w) = -(da*w) and (-w)^2 = w^2
    exactly, so it swaps the two route phases, and the complex difference
    only changes sign.
    """
    rho = norm * math.exp(-(w / sigma) ** 2)
    quadratic = bs * w * w
    phase_a = (da * w + quadratic) * length
    phase_b = (-da * w + quadratic) * length
    # |e^{i a} - e^{i b}|, as complex abs evaluates it (libm hypot, which
    # math.hypot does not match to the last bit)
    return rho * 0.5 * abs(complex(math.cos(phase_a) - math.cos(phase_b),
                                   math.sin(phase_a) - math.sin(phase_b))) ** 2


def downconverted_coincidence(sigma: float, coeffs: DispersionCoefficients,
                              length: float) -> float:
    """Coincidence probability of an anti-correlated down-converted pair.

    Quadrature over the pair detuning omega' of the two-route interference

        (1/2) rho(omega') (1/2) | e^{i(da w' + bs w'^2) L}
                                 - e^{i(-da w' + bs w'^2) L} |^2,

    with rho the Gaussian detuning density of width sigma, da = delta_alpha
    and bs = beta_sum.  The quadratic phase is carried through the
    integrand and cancels in the modulus — the dispersion-cancellation
    property checked by perturbing beta.  The integrand is even in w bit
    for bit and QUADPACK's nodes come in mirror pairs, so each call
    evaluates it once per |w|.
    """
    from ._quadrature import integrate

    check_positive(sigma, "sigma")
    check_positive(length, "length")
    da = coeffs.delta_alpha
    bs = coeffs.beta_sum
    half = 12.0 * sigma
    bound = (abs(da) * half + abs(bs) * half * half) * length
    if not math.isfinite(bound):
        raise ValueError(f"integrand phase bound {bound!r} rad over +-12 sigma is not finite")
    norm = 1.0 / (math.sqrt(math.pi) * sigma)
    seen: dict[float, float] = {}

    def integrand(w: float) -> float:
        value = seen.get(abs(w))
        if value is None:
            value = seen[abs(w)] = _downconverted_integrand(w, sigma, norm, da, bs, length)
        return value

    return 0.5 * integrate(integrand, -half, half)


def downconverted_coincidence_closed(sigma: float, delta_alpha: float, length: float) -> float:
    """Gaussian closed form (1 - exp(-sigma^2 delta_alpha^2 L^2))/2."""
    check_positive(sigma, "sigma")
    check_positive(length, "length")
    if not math.isfinite(delta_alpha):  # signed, so no range check
        raise ValueError(f"delta_alpha must be finite, got {delta_alpha!r}")
    x = sigma * delta_alpha * length
    return 0.5 * (1.0 - math.exp(-x * x))
