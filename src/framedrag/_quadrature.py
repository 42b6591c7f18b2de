"""The one seam to adaptive quadrature: QUADPACK, through scipy.

scipy is imported by the first ``integrate`` call, not with this module,
so a command that integrates nothing never loads it.
"""

from __future__ import annotations

import sys

_QUAD_OPTS = dict(epsabs=1.0e-13, epsrel=1.0e-11, limit=500)
GAUSS_WINDOW = 12.0  # half-width, in units of sigma, of every Gaussian integration window


def integrate(f, a: float, b: float, cos: float | None = None) -> float:
    """Integral of f over [a, b]: QAGS, or QAWO with the weight cos(cos x).

    ``quad`` is looked up per call, so a patched ``scipy.integrate.quad`` sees every call.
    """
    from scipy.integrate import quad

    weight = {} if cos is None else {"weight": "cos", "wvar": cos}
    return quad(f, a, b, **weight, **_QUAD_OPTS)[0]


def unconverged(category: type) -> bool:
    """Whether a warning category is ``integrate``'s warning that it did not converge."""
    # a process that never loaded scipy ran no quadrature
    return issubclass(category, getattr(sys.modules.get("scipy.integrate"),
                                        "IntegrationWarning", ()))
