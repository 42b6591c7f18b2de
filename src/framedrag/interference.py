"""Single-photon and two-photon interference observables.

Delays are lengths (metres) and spectra live on inverse-metre grids, so a
"time" delay Δt multiplies a wavenumber directly to give phase.  The
two-photon (Hong-Ou-Mandel) coincidence comes in three independent routes:
a Gaussian closed form, a characteristic function for any spectrum, and a
discretized Fock-state oracle that does explicit beamsplitter mode
bookkeeping (used to cross-check the other two).
"""

from __future__ import annotations

import math
import warnings
from functools import cached_property

from ._record import frozen
from .errors import GuardViolation, check_at_least, check_positive

__all__ = [
    "Wavepacket",
    "SpectrumNormalizationWarning",
    "load_spectrum",
    "single_photon_prob",
    "single_photon_prob_gaussian",
    "single_photon_prob_quadrature",
    "gaussian_visibility",
    "hom_coincidence_gaussian",
    "hom_coincidence_general",
    "hom_visibility",
    "fock_grid",
    "fock_oracle_hom",
]

NARROWBAND_GUARD = 0.2  # sigma/omega0 bound for the closed-form detection probability
MAX_FOCK_BINS = 2048

_GAUSS_WINDOW = 12.0  # integration half-width in units of sigma
_SQRT_PI = math.sqrt(math.pi)


class SpectrumNormalizationWarning(UserWarning):
    """A tabulated spectrum needed renormalization on construction."""


@frozen
class Wavepacket:
    """Photon spectral density |f(omega)|^2.

    A packet without grids is Gaussian, defined by center ``omega0`` and
    width ``sigma`` (density (1/(pi sigma^2))^(1/2) exp(-(omega-omega0)^2/sigma^2)).
    A packet with grids is tabulated: it carries an explicit (omega, density)
    grid, is renormalized on construction, and is its trapezoid-weighted
    spectral atoms in every route (``density`` interpolates the grid for
    inspection only).  For tabulated packets omega0 is the grid mean and
    sigma is sqrt(2) times the grid standard deviation, matching the
    exp(-(omega-omega0)^2/sigma^2) width convention above (for which sigma
    is sqrt(2) times the spectral std).

    A Gaussian packet integrates its normalization chi(0) = integral of the
    density once, on first use of ``_chi0``; every zero-delay transform of
    the packet returns that value.
    """

    omega0: float
    sigma: float
    grid_omega: np.ndarray | None = None
    grid_density: np.ndarray | None = None

    def __post_init__(self) -> None:
        check_positive(self.omega0, "omega0")
        check_positive(self.sigma, "sigma")
        if (self.grid_omega is None) != (self.grid_density is None):
            raise ValueError("tabulated packets need both grid_omega and grid_density")

    @classmethod
    def gaussian(cls, omega0: float, sigma: float) -> "Wavepacket":
        return cls(omega0=omega0, sigma=sigma)

    @classmethod
    def tabulated(cls, omegas, density) -> "Wavepacket":
        import numpy as np

        omegas = np.array(omegas, dtype=float)  # a copy: the grid is frozen below
        density = np.asarray(density, dtype=float)
        if omegas.ndim != 1 or omegas.shape != density.shape or omegas.size < 2:
            raise ValueError("tabulated spectrum needs matching 1-d arrays of length >= 2")
        if not np.all(np.diff(omegas) > 0.0):
            raise ValueError("tabulated frequencies must be strictly increasing")
        if np.any(density < 0.0) or not np.any(density > 0.0):
            raise ValueError("tabulated density must be non-negative and not all zero")
        if np.any(omegas <= 0.0):
            raise ValueError("tabulated frequencies must be positive")
        norm = float(_trapz_weights(omegas) @ density)
        if not math.isfinite(norm) or norm <= 0.0:
            raise ValueError(f"spectrum is not normalizable (integral {norm!r})")
        if abs(norm - 1.0) > 1.0e-10:
            warnings.warn(
                f"input spectrum integrated to {norm!r}; renormalized to 1",
                SpectrumNormalizationWarning,
                stacklevel=2,
            )
        density = density / norm
        weights = _trapz_weights(omegas) * density
        weights /= weights.sum()
        mean = float(weights @ omegas)
        var = float(weights @ (omegas - mean) ** 2)
        width = math.sqrt(2.0 * var) if var > 0.0 else np.spacing(mean)
        omegas.flags.writeable = False
        density.flags.writeable = False
        return cls(omega0=mean, sigma=width, grid_omega=omegas, grid_density=density)

    def density(self, omega):
        """Spectral density at ``omega``, a float or an array (zero outside a tabulated grid)."""
        import numpy as np

        return _density(np, self, omega)

    @cached_property
    def _chi0(self) -> float:
        """chi(0), the density integrated over the transform's window by QUADPACK QAGS."""
        return _centered_quad(self)


def _density(np, packet: Wavepacket, omega):
    """``packet.density(omega)`` with numpy passed in, so a quadrature imports it once.

    Floats and arrays evaluate one formula: a float stays a Python float up
    to ``np.exp``, so ``float(density(x))`` equals the array path's element
    for x bit for bit.
    """
    if packet.grid_omega is None:
        u = (omega - packet.omega0) / packet.sigma
        return np.exp(-u * u) / (_SQRT_PI * packet.sigma)
    return np.interp(omega, packet.grid_omega, packet.grid_density, left=0.0, right=0.0)


def _trapz_weights(grid: np.ndarray) -> np.ndarray:
    import numpy as np

    w = np.empty_like(grid)
    w[1:-1] = 0.5 * (grid[2:] - grid[:-2])
    w[0] = 0.5 * (grid[1] - grid[0])
    w[-1] = 0.5 * (grid[-1] - grid[-2])
    return w


def load_spectrum(path) -> Wavepacket:
    """Load a tabulated spectrum from two-column text (omega_inv_m, density).

    Lines starting with '#' are comments; the density is renormalized on
    load (with a warning if it was off).
    """
    import numpy as np

    if str(path) == "":
        raise ValueError("spectrum file path is empty")
    data = np.loadtxt(path, comments="#", ndmin=2)
    if data.shape[1] != 2:
        raise ValueError(f"spectrum file must have two columns, got {data.shape[1]}")
    return Wavepacket.tabulated(data[:, 0], data[:, 1])


def single_photon_prob(delta_phi: float) -> float:
    """Monochromatic detection probability (1 + sin(delta_phi)) / 2."""
    return 0.5 * (1.0 + math.sin(delta_phi))


def gaussian_visibility(delta_t: float, sigma: float) -> float:
    """Single-photon fringe visibility exp(-(delta_t sigma)^2)."""
    check_positive(sigma, "sigma")
    x = delta_t * sigma
    return math.exp(-x * x)


def single_photon_prob_gaussian(delta_phi: float, omega0: float, sigma: float, *,
                                force: bool = False) -> float:
    """Closed-form detection probability (1 + exp(-(dPhi sigma/omega0)^2) sin dPhi)/2.

    Valid for narrowband packets; the guard rejects sigma/omega0 >=
    NARROWBAND_GUARD (0.2) unless ``force=True``.  The independent
    quadrature route is ``single_photon_prob_quadrature``.
    """
    check_positive(omega0, "omega0")
    check_positive(sigma, "sigma")
    if not force and sigma >= NARROWBAND_GUARD * omega0:
        raise GuardViolation(
            f"narrowband assumption invalid: sigma/omega0 = {sigma / omega0:.3e}, "
            f"guard = {NARROWBAND_GUARD:g} (use force/--override-guards)"
        )
    x = delta_phi * sigma / omega0
    return 0.5 * (1.0 + math.exp(-x * x) * math.sin(delta_phi))


def _centered_quad(packet: Wavepacket, cos: float | None = None) -> float:
    """Integral of a Gaussian density(omega0 + u) over [-half, 0] plus [0, half].

    ``cos`` is None for plain QAGS, or dt for QAWO's cos(u dt) weight.
    """
    import numpy as np

    from ._quadrature import integrate

    omega0 = packet.omega0

    def centered(u: float) -> float:
        return float(_density(np, packet, omega0 + u))

    half = _GAUSS_WINDOW * packet.sigma
    return integrate(centered, -half, 0.0, cos) + integrate(centered, 0.0, half, cos)


def _centered_cosine_transform(packet: Wavepacket, delta_t: float) -> float:
    """integral of a Gaussian density(omega) cos((omega - omega0) dt) d omega by quadrature.

    At dt = 0 this is the packet's ``_chi0``, integrated once per packet;
    any other dt is one QAWO integral per half-window.
    """
    if delta_t == 0.0:
        return packet._chi0
    return _centered_quad(packet, delta_t)


def _atoms_chi(packet: Wavepacket, delta_t: float) -> complex:
    """chi(dt)/chi(0) of a tabulated packet, summed over its trapezoid atoms."""
    import numpy as np

    weights = _trapz_weights(packet.grid_omega) * packet.grid_density
    phases = np.exp(-1j * packet.grid_omega * delta_t)
    # chi(0) is the same dot with unit phases, so the ratio is exactly 1 at dt = 0
    return (weights @ phases) / (weights @ np.ones_like(phases))


def single_photon_prob_quadrature(delta_phi: float, packet: Wavepacket) -> float:
    """Detection probability (1 + <sin(omega dt)>)/2 over the spectrum, dt = delta_phi/omega0.

    A tabulated packet sums its atoms: <sin(omega dt)> = -Im chi(dt)/chi(0).
    A Gaussian density is even about omega0, so <sin(omega dt)> is
    sin(omega0 dt) times its cosine transform by adaptive quadrature.  Serves
    as the independent check of ``single_photon_prob_gaussian`` in its
    narrowband regime.
    """
    delta_t = delta_phi / packet.omega0
    if packet.grid_omega is not None:
        return float(0.5 * (1.0 - _atoms_chi(packet, delta_t).imag))
    envelope = _centered_cosine_transform(packet, delta_t)
    return 0.5 * (1.0 + math.sin(packet.omega0 * delta_t) * envelope)


def hom_coincidence_gaussian(sigma: float, delta_t: float) -> float:
    """Gaussian-packet coincidence probability (1 - exp(-sigma^2 dt^2/2))/2."""
    check_positive(sigma, "sigma")
    try:
        return 0.5 - 0.5 * math.exp(-0.5 * (sigma * delta_t) ** 2)
    except OverflowError:  # exp(-x^2/2) is already 0.0 for |x| > 38.61
        return 0.5


def hom_coincidence_general(packet: Wavepacket, delta_t: float) -> float:
    """Coincidence probability (1 - |chi(dt)/chi(0)|^2)/2 for any spectrum.

    chi is the spectral characteristic function.  Gaussian packets are
    integrated by adaptive quadrature (independent of the closed form);
    tabulated packets are summed as their trapezoid atoms, so a
    symmetric two-point spectrum at omega0 +- d gives the
    (1 - cos^2(d dt))/2 beat pattern exactly.  The chi(0) normalization
    makes the coincidence vanish identically at zero delay.
    """
    if packet.grid_omega is not None:
        ratio2 = min(abs(_atoms_chi(packet, delta_t)), 1.0) ** 2  # |chi| <= chi0 up to rounding
    else:
        # |chi(dt)| reduces to the centered cosine transform because the
        # density is even about omega0; the carrier phase drops in |.|.
        envelope = _centered_cosine_transform(packet, delta_t)
        ratio2 = (envelope / packet._chi0) ** 2
    return 0.5 - 0.5 * ratio2


def hom_visibility(p0: float, pmax: float) -> float:
    """Dip visibility 1 - p0/pmax."""
    if pmax == 0.0:
        raise ValueError("visibility undefined for pmax = 0")
    if not 0.0 <= p0 <= pmax <= 0.5:
        raise ValueError(f"need 0 <= p0 <= pmax <= 0.5, got p0={p0!r}, pmax={pmax!r}")
    return 1.0 - p0 / pmax


def fock_grid(packet: Wavepacket, bins: int = 1024) -> tuple[np.ndarray, np.ndarray]:
    """Discretize a spectrum into (frequencies, normalized weights) for the Fock oracle.

    Tabulated packets use their own grid (``bins`` ignored); Gaussian
    packets are sampled on a uniform grid spanning +-6 sigma.
    """
    import numpy as np

    if packet.grid_omega is not None:
        omegas = np.asarray(packet.grid_omega, dtype=float)
        weights = _trapz_weights(omegas) * packet.grid_density
    else:
        check_at_least(bins, 2, "bins")
        omegas = np.linspace(packet.omega0 - 6.0 * packet.sigma,
                             packet.omega0 + 6.0 * packet.sigma, bins)
        weights = _trapz_weights(omegas) * packet.density(omegas)
    if omegas.size > MAX_FOCK_BINS:
        raise ValueError(f"Fock oracle capped at {MAX_FOCK_BINS} bins, got {omegas.size}")
    total = weights.sum()
    if not 0.0 < total < math.inf:  # bins narrower than the float64 spacing at omega0
        raise ValueError(f"Fock grid weights sum to {float(total)!r}: the grid does not "
                         f"resolve sigma = {packet.sigma!r} at omega0 = {packet.omega0!r}")
    return omegas, weights / total


def fock_oracle_hom(packet: Wavepacket, delta_t: float, bins: int = 1024) -> float:
    """Coincidence probability from the discretized two-photon Fock state.

    Builds the post-beamsplitter state by explicit mode-operator
    bookkeeping on a ``bins``-point grid and sums coincidence amplitudes
    pairwise — an O(bins^2) route independent of the characteristic-
    function formulas it is used to test.  It sums only the coincidence
    total, in one pass of ``_kernels.hom_coincidence_probability``; the
    ``fock-unitarity`` check sums the bunching total in a pass of its own.
    """
    from . import _kernels

    omegas, weights = fock_grid(packet, bins)
    return _kernels.hom_coincidence_probability(weights, omegas, delta_t)
