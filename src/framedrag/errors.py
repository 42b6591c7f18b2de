"""Error types and the argument checks shared across the package.

One rule covers every physical argument: it is a finite number inside
its allowed range, and NaN or +-inf is never allowed.  The range is one
of four kinds:

* ``check_positive`` — finite and > 0 (radii, lengths, widths, rates);
* ``check_at_least`` — finite and >= a bound (non-negative values,
  ``B >= 1``, an index ``n >= 1``, point counts ``>= 2``);
* ``check_speed`` — a speed 0 <= v < 1 as a fraction of c;
* ``direction_sign`` — ``"co"`` or ``"counter"``, returned as +1 or -1.

A violation raises ``ValueError`` whose message starts with the
parameter's name (``<name> must be ...``); the command line prints it as
``ERROR validation: <name> must be ...`` and exits 2.  ``scenario.PARAMETERS``
applies the same checks to each config value, named by its key.  Checks
that belong to one formula (a horizon) stay with it.
"""

from math import inf


class GuardViolation(ValueError):
    """An approximation was requested outside its guarded range.

    Raised by operations that implement truncated expansions (weak-field
    light speeds, narrowband detection probabilities).  Callers that know
    what they are doing can pass ``force=True`` to the guarded operation,
    or ``--override-guards`` on the command line.
    """


def check_positive(value: float, name: str) -> None:
    if not 0.0 < value < inf:  # NaN fails every comparison
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


def check_at_least(value: float, bound: float, name: str) -> None:
    if not bound <= value < inf:
        raise ValueError(f"{name} must be finite and >= {bound:g}, got {value!r}")


def check_speed(v: float, name: str = "v") -> None:
    if not 0.0 <= v < 1.0:
        raise ValueError(f"{name} must be a speed 0 <= v < 1 (fraction of c), got {v!r}")


def direction_sign(direction: str) -> float:
    if direction == "co":
        return 1.0
    if direction == "counter":
        return -1.0
    raise ValueError(f"direction must be 'co' or 'counter', got {direction!r}")
