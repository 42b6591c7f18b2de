"""Frame-dragging optics toolkit.

Light propagation around rotating masses reduced to the equatorial
plane, the laboratory turntable analogue, single-photon and
Hong-Ou-Mandel interference of the induced arrival-time splits, and
co/counter-propagation in a moving dispersive fiber.  Geometric units
throughout: G = c = 1, lengths in meters, angular frequencies in rad/m
unless a function says otherwise.
"""

from .constants import (
    CONSTANTS,
    GravSource,
    PhysicalConstants,
    schwarzschild_radius,
    spin_parameter,
)
from .errors import GuardViolation
from .fiber import DispersionCoefficients, FiberArms, RefractiveModel
from .interference import Wavepacket
from .kerr import KerrPoint, MetricComponents, ScanResult
from .turntable import EquivalenceResult, TurntableConfig

__version__ = "0.1.0"

__all__ = [
    "CONSTANTS",
    "GravSource",
    "PhysicalConstants",
    "schwarzschild_radius",
    "spin_parameter",
    "GuardViolation",
    "DispersionCoefficients",
    "FiberArms",
    "RefractiveModel",
    "Wavepacket",
    "KerrPoint",
    "MetricComponents",
    "ScanResult",
    "EquivalenceResult",
    "TurntableConfig",
    "__version__",
]
