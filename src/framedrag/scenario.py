"""Scenario configuration: flat key=value files, defaults, and overrides.

Config files are plain text, one ``section.key = value`` per line, with
``#`` comments.  Command-line ``--set`` flags override file values, which
override per-command defaults.  ``_ALTERNATIVES`` lists the keys that give
one quantity two ways: the source as ``source.rs``/``source.a`` or as
``source.mass``/``source.angular_momentum``, the turntable rate as
``turntable.omega`` or ``turntable.velocity``.  A user value on one side
drops the defaults of the other; user values on both sides are refused.
Every value must be finite and inside the range ``PARAMETERS`` gives its
key; an error names the key.  ``Scenario.values`` is the one resolved
map a run reads; the input echo lists exactly that map, so a dropped
default never appears in it.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping

from ._record import frozen
from .constants import CONSTANTS, GravSource
from .errors import check_at_least, check_positive, check_speed
from .fiber import FiberArms, RefractiveModel
from .interference import Wavepacket
from .kerr import KerrPoint
from .turntable import TurntableConfig

__all__ = [
    "Scenario",
    "PARAMETERS",
    "load_config",
    "parse_config",
    "parse_override",
    "EARTH_SURFACE_DEFAULTS",
    "BLACK_HOLE_DEFAULTS",
    "EQUIVALENCE_DEFAULTS",
    "FEASIBILITY_DEFAULTS",
    "FIBER_LOOP_DEFAULTS",
    "HOM_DEFAULTS",
]

# Every config key: its value type, the unit its input echo prints, and its
# range -- an errors.py check, a lower bound for check_at_least, or None for
# any finite value.  Scenario.assemble checks every value against it by key.
PARAMETERS: Mapping[str, tuple[type, str | None, Callable[[float, str], None] | float | None]] = {
    "source.rs": (float, "m", 0.0),
    "source.a": (float, "m", 0.0),
    "source.mass": (float, "kg", check_positive),
    "source.angular_momentum": (float, "kg m^2/s", 0.0),
    "point.r": (float, "m", check_positive),
    "path.length": (float, "m", check_positive),
    "light.omega0": (float, "rad/m", check_positive),
    "light.sigma": (float, "rad/m", check_positive),
    "turntable.radius": (float, "m", check_positive),
    "turntable.omega": (float, "rad/s", 0.0),
    "turntable.velocity": (float, "c", check_speed),
    "turntable.windings": (int, None, 0),
    "arms.length": (float, "m", check_positive),
    "arms.delta_length": (float, "m", None),
    "medium.a": (float, "rad/m", 0.0),
    "medium.b": (float, None, 1.0),
    "medium.k0": (float, "rad/m", check_positive),
    "interference.delta_t": (float, "m", None),
    "interference.bins": (int, None, 2),
    "scan.r_max": (float, None, check_positive),
    "scan.points": (int, None, 2),
    "sweep.omega_max": (float, "rad/s", None),
    "sweep.points": (int, None, 2),
}


def _check_value(key: str, value: object, shown: object) -> float | int:
    """``value`` as the type of ``key`` if finite and in range; parse errors quote ``shown``."""
    kind, _, allowed = PARAMETERS[key]
    if not isinstance(value, int if kind is int else (int, float)):
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"config key {key!r} expects {noun}, got {shown!r}")
    if kind is float and not math.isfinite(value):
        raise ValueError(f"config key {key!r} must be finite, got {shown!r}")
    value = kind(value)
    if callable(allowed):
        allowed(value, key)
    elif allowed is not None:
        check_at_least(value, allowed, key)
    return value


def _parse_value(key: str, raw: str) -> float | int:
    raw = raw.strip()
    try:
        value = PARAMETERS[key][0](raw)
    except ValueError:
        value = raw  # a string: _check_value names the expected type
    return _check_value(key, value, raw)


def parse_override(item: str) -> tuple[str, float | int]:
    """Parse one ``key=value`` override (the --set flag payload)."""
    if "=" not in item:
        raise ValueError(f"override must look like key=value, got {item!r}")
    key, raw = item.split("=", 1)
    key = key.strip()
    if key not in PARAMETERS:
        raise ValueError(f"unknown config key {key!r}")
    return key, _parse_value(key, raw)


def parse_config(text: str, origin: str = "<config>") -> dict[str, float | int]:
    values: dict[str, float | int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        try:
            key, value = parse_override(body)
        except ValueError as exc:
            raise ValueError(f"{origin}:{lineno}: {exc}") from None
        values[key] = value
    return values


def load_config(path) -> dict[str, float | int]:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config(handle.read(), origin=str(path))


# Default parameter bundles, one per command.  Values are the worked
# scenarios the reports are meant to reproduce out of the box.
EARTH_SURFACE_DEFAULTS: Mapping[str, float | int] = {
    "source.rs": 0.009,
    "source.a": 3.9,
    "point.r": 6.37e7,
    "light.omega0": 2.0e6,
    "light.sigma": 3.5e3,
}

BLACK_HOLE_DEFAULTS: Mapping[str, float | int] = {
    "source.rs": 3.0e4,
    "source.a": 7.5e3,
    "light.omega0": 2.0e6,
    "light.sigma": 3.5e3,
    "scan.r_max": 1.0e3,
    "scan.points": 512,
}

EQUIVALENCE_DEFAULTS: Mapping[str, float | int] = {
    "source.rs": 0.009,
    "source.a": 3.9,
    "point.r": 6.37e6,
    "turntable.radius": 0.2,
}

FEASIBILITY_DEFAULTS: Mapping[str, float | int] = {
    "light.sigma": 3.3e3,
    "turntable.radius": 5.0,
    "turntable.omega": 2.0 * math.pi,
    "turntable.windings": 0,
    "arms.length": 1.0e4,
    "arms.delta_length": 0.01,
    "medium.a": 1.0e5,
    "medium.b": 1.44,
    "medium.k0": 8.0e6,
}

FIBER_LOOP_DEFAULTS: Mapping[str, float | int] = {
    "turntable.radius": 0.2,
    "turntable.omega": 2.0 * math.pi,
    "arms.length": 1.0e4,
    "arms.delta_length": 0.01,
    "medium.a": 1.0e5,
    "medium.b": 1.44,
    "medium.k0": 8.0e6,
    "light.omega0": 8.0e6,
    "light.sigma": 4000.0 * math.pi,
    "sweep.omega_max": 20.0,
    "sweep.points": 512,
}

HOM_DEFAULTS: Mapping[str, float | int] = {
    "light.omega0": 2.0e6,
    "light.sigma": 3.5e3,
    "interference.bins": 1024,
}


# The keys that give one quantity two ways: a user value on one side drops
# the defaults of the other, and user values on both sides are refused.
_ALTERNATIVES = (
    (("source.rs", "source.a"), ("source.mass", "source.angular_momentum")),
    (("turntable.omega",), ("turntable.velocity",)),
)


@frozen
class Scenario:
    """The resolved parameters of one run: each key once, checked by its range."""

    values: Mapping[str, float | int]

    @classmethod
    def assemble(cls, defaults: Mapping[str, float | int],
                 config: Mapping[str, float | int] | None = None,
                 overrides: Mapping[str, float | int] | None = None) -> "Scenario":
        """Defaults under user values, resolved by ``_ALTERNATIVES`` and checked by key."""
        user = {**(config or {}), **(overrides or {})}
        values = {key: val for key, val in defaults.items() if key not in user}
        for left, right in _ALTERNATIVES:
            if user.keys() & left and user.keys() & right:
                raise ValueError(f"give either {'/'.join(left)} or {'/'.join(right)}, not both")
            for side, other in ((left, right), (right, left)):
                if user.keys() & side:
                    values = {key: val for key, val in values.items() if key not in other}
        values.update(user)
        for key in values:
            if key not in PARAMETERS:
                raise ValueError(f"unknown config key {key!r}")
        return cls({key: _check_value(key, val, val) for key, val in values.items()})

    def get(self, key: str, fallback: float | int | None = None) -> float | int | None:
        return self.values.get(key, fallback)

    def require(self, key: str) -> float | int:
        value = self.get(key)
        if value is None:
            raise ValueError(f"missing required config key {key!r}")
        return value

    # --- domain-object builders (each value was checked by key in assemble) ---

    def source(self) -> GravSource:
        """From source.mass/source.angular_momentum if given, else source.rs/source.a."""
        if "source.mass" in self.values:
            return GravSource.from_mass(self.values["source.mass"],
                                        self.get("source.angular_momentum", 0.0))
        if "source.rs" in self.values:
            return GravSource(r_s=self.values["source.rs"], a=self.get("source.a", 0.0))
        raise ValueError("missing source parameters (source.rs/source.a or source.mass)")

    def point(self) -> KerrPoint:
        return KerrPoint(source=self.source(), r=self.require("point.r"))

    def path_length(self) -> float:
        return self.get("path.length", math.pi * self.require("point.r"))

    def wavepacket(self) -> Wavepacket:
        return Wavepacket.gaussian(self.require("light.omega0"), self.require("light.sigma"))

    def turntable(self) -> TurntableConfig:
        """The platform; a rate that overflows with the radius is named by its config keys."""
        r_t = self.require("turntable.radius")
        windings = self.get("turntable.windings", 0)
        if "turntable.velocity" in self.values:
            v = self.values["turntable.velocity"] + 0.0  # -0.0 -> 0.0, so no output prints -0
            check_at_least(v * CONSTANTS.c / r_t, 0.0, "turntable.velocity * c / turntable.radius")
            return TurntableConfig.from_velocity(r_t, v, windings=windings)
        if "turntable.omega" in self.values:
            omega = self.values["turntable.omega"] + 0.0  # -0.0 -> 0.0, as for the velocity
            check_speed(omega * r_t / CONSTANTS.c, "turntable.omega * turntable.radius / c")
            return TurntableConfig.from_angular_frequency(r_t, omega, windings=windings)
        raise ValueError("missing turntable.omega or turntable.velocity")

    def refractive_model(self) -> RefractiveModel:
        return RefractiveModel(A=self.require("medium.a"), B=self.require("medium.b"),
                               k0=self.require("medium.k0"))

    def fiber_arms(self) -> FiberArms:
        v = self.turntable().v
        return FiberArms(
            length=self.require("arms.length"),
            delta_length=self.get("arms.delta_length", 0.0),
            model=self.refractive_model(),
            v=v,
        )
