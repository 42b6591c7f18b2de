"""Physical constants, geometric units, and gravitating-source parameters.

Everything downstream works in geometric units (c = G = 1): lengths and
times in metres, wavenumbers and angular frequencies in inverse metres,
velocities as fractions of c.  SI masses and spins enter only through
``GravSource.from_mass``; SI speeds and rates scale by ``CONSTANTS.c``.
"""

from __future__ import annotations

import math

from ._record import frozen
from .errors import check_at_least, check_positive

__all__ = [
    "PhysicalConstants",
    "CONSTANTS",
    "GravSource",
    "schwarzschild_radius",
    "spin_parameter",
]


@frozen
class PhysicalConstants:
    """SI constants used for unit conversion.

    c is exact by definition; G is the CODATA value rounded to the digits
    the rest of the pipeline is sensitive to.  The Earth entries are the
    canonical mass and spin angular momentum used for the stock Earth
    scenarios.
    """

    c: float = 299_792_458.0          # m/s, exact
    G: float = 6.674e-11              # m^3 kg^-1 s^-2
    earth_mass: float = 5.972e24      # kg
    earth_angular_momentum: float = 7.07e33  # kg m^2 / s


CONSTANTS = PhysicalConstants()


def schwarzschild_radius(mass: float) -> float:
    """Schwarzschild radius r_s = 2 G M / c^2 of a mass in kg, in metres."""
    check_at_least(mass, 0.0, "mass")
    return 2.0 * CONSTANTS.G * mass / CONSTANTS.c**2


def spin_parameter(mass: float, angular_momentum: float) -> float:
    """Spin parameter a = J / (M c) in metres.

    ``angular_momentum`` is the SI spin angular momentum in kg m^2/s.
    """
    check_positive(mass, "mass")
    if not math.isfinite(angular_momentum):
        raise ValueError(f"angular_momentum must be finite, got {angular_momentum!r}")
    return angular_momentum / (mass * CONSTANTS.c)


@frozen
class GravSource:
    """A rotating gravitating body, described by r_s and a (both metres).

    ``r_s`` is the Schwarzschild radius, ``a = J/(Mc)`` the spin parameter.
    ``r_s = 0`` is allowed and gives flat space.  A source with a <= r_s/2
    is sub-extremal and has a real horizon.
    """

    r_s: float
    a: float

    def __post_init__(self) -> None:
        check_at_least(self.r_s, 0.0, "r_s")
        check_at_least(self.a, 0.0, "a")

    @property
    def sub_extremal(self) -> bool:
        """True when a <= r_s/2, i.e. the source has a real horizon."""
        return self.a <= 0.5 * self.r_s

    @classmethod
    def from_mass(cls, mass: float, angular_momentum: float) -> "GravSource":
        """Build a source from SI mass (kg) and spin angular momentum (kg m^2/s)."""
        return cls(
            r_s=schwarzschild_radius(mass),
            a=spin_parameter(mass, angular_momentum),
        )
