"""Frame-dragging optics toolkit.

Light propagation around rotating masses reduced to the equatorial
plane, the laboratory turntable analogue, single-photon and
Hong-Ou-Mandel interference of the induced arrival-time splits, and
co/counter-propagation in a moving dispersive fiber.  Geometric units
throughout: G = c = 1, lengths in meters, angular frequencies in rad/m
unless a function says otherwise.  The package namespace holds only
``__version__``: import the modules themselves (``framedrag.kerr``, ...).
"""

__version__ = "0.1.0"
