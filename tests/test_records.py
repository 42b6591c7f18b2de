"""The package's value classes behave as frozen records.

Every class decorated with ``_record.frozen`` is built here from the kind
of arguments its module passes it, and must construct by position and by
keyword, refuse a missing, unknown, repeated or surplus argument, refuse
assignment and deletion, compare and hash by its field tuple, and print
``Name(field=value, ...)``.
"""

import numpy as np
import pytest

from framedrag import interference
from framedrag.constants import CONSTANTS, GravSource, PhysicalConstants
from framedrag.fiber import DipShift, DispersionCoefficients, FiberArms, RefractiveModel
from framedrag.interference import Wavepacket
from framedrag.kerr import KerrPoint, MetricComponents, ScanResult
from framedrag.reference import CheckResult, UnreproducedTarget
from framedrag.scenario import Scenario
from framedrag.turntable import EquivalenceResult, TurntableConfig

SILICA = RefractiveModel(A=1.0e5, B=1.44, k0=8.0e6)
HOLE = GravSource(r_s=3.0e4, a=7.5e3)
RADII = np.array([1.5, 3.0])

# (class, fields in declaration order, repr, hashable); arrays and dicts are unhashable
CASES = [
    (PhysicalConstants,
     dict(c=299_792_458.0, G=6.674e-11, earth_mass=5.972e24, earth_angular_momentum=7.07e33),
     "PhysicalConstants(c=299792458.0, G=6.674e-11, earth_mass=5.972e+24, "
     "earth_angular_momentum=7.07e+33)", True),
    (GravSource, dict(r_s=3.0e4, a=7.5e3), "GravSource(r_s=30000.0, a=7500.0)", True),
    (RefractiveModel, dict(A=1.0e5, B=1.44, k0=8.0e6),
     "RefractiveModel(A=100000.0, B=1.44, k0=8000000.0)", True),
    (FiberArms, dict(length=100.0, delta_length=1.0e-3, model=SILICA, v=1.0e-6),
     "FiberArms(length=100.0, delta_length=0.001, "
     "model=RefractiveModel(A=100000.0, B=1.44, k0=8000000.0), v=1e-06)", True),
    (DispersionCoefficients, dict(alpha_plus=1.5, alpha_minus=1.25, beta_plus=-2e-20,
                                  beta_minus=-3e-20),
     "DispersionCoefficients(alpha_plus=1.5, alpha_minus=1.25, beta_plus=-2e-20, "
     "beta_minus=-3e-20)", True),
    (DipShift, dict(delta_t_total=4e-4, center_shift=2e-15, center_shift_approx=2e-15),
     "DipShift(delta_t_total=0.0004, center_shift=2e-15, center_shift_approx=2e-15)", True),
    (Wavepacket, dict(omega0=1.2e7, sigma=3.5e3, grid_omega=None, grid_density=None),
     "Wavepacket(omega0=12000000.0, sigma=3500.0, grid_omega=None, grid_density=None)", True),
    (Wavepacket, dict(omega0=1.5, sigma=0.5, grid_omega=RADII, grid_density=RADII),
     "Wavepacket(omega0=1.5, sigma=0.5, grid_omega=array([1.5, 3. ]), "
     "grid_density=array([1.5, 3. ]))", False),
    (MetricComponents, dict(g_tt=0.75, g_tphi=-1.875, g_phiphi=-1.44e10),
     "MetricComponents(g_tt=0.75, g_tphi=-1.875, g_phiphi=-14400000000.0)", True),
    (KerrPoint, dict(source=HOLE, r=1.2e5),
     "KerrPoint(source=GravSource(r_s=30000.0, a=7500.0), r=120000.0)", True),
    (ScanResult, dict(r_over_rs=RADII, phase_rad=RADII, visibility=RADII),
     "ScanResult(r_over_rs=array([1.5, 3. ]), phase_rad=array([1.5, 3. ]), "
     "visibility=array([1.5, 3. ]))", False),
    (TurntableConfig, dict(r_t=0.5, v=1.0e-7, omega_rot=59.9584916, windings=3),
     "TurntableConfig(r_t=0.5, v=1e-07, omega_rot=59.9584916, windings=3)", True),
    (EquivalenceResult, dict(v=2.5e-9, v_approx=2.5e-9, v_leading=2.25e-9),
     "EquivalenceResult(v=2.5e-09, v_approx=2.5e-09, v_leading=2.25e-09)", True),
    (CheckResult, dict(name="null-residual", worst=1e-16, bound=1e-12, detail="max 1e-16"),
     "CheckResult(name='null-residual', worst=1e-16, bound=1e-12, detail='max 1e-16')", True),
    (UnreproducedTarget, dict(name="speed", quoted="110 m/s", computed=55.0, unit="m/s",
                              context="fig. 2"),
     "UnreproducedTarget(name='speed', quoted='110 m/s', computed=55.0, unit='m/s', "
     "context='fig. 2')", True),
    (Scenario, dict(values={"point.r": 6.37e6}), "Scenario(values={'point.r': 6370000.0})",
     False),
]
IDS = [cls.__name__ + ("-tabulated" if cls is Wavepacket and fields["grid_omega"] is not None
                       else "") for cls, fields, _, _ in CASES]


def test_every_record_class_is_covered():
    assert len({case[0] for case in CASES}) == 15


@pytest.mark.parametrize("cls,fields,text,hashable", CASES, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, fields, text, hashable):
    by_keyword, by_position = cls(**fields), cls(*fields.values())
    assert by_keyword == by_position
    assert [getattr(by_position, name) for name in fields] == list(fields.values())
    assert repr(by_keyword) == repr(by_position) == text


@pytest.mark.parametrize("cls,fields,text,hashable", CASES, ids=IDS)
def test_bad_argument_lists_are_type_errors(cls, fields, text, hashable):
    first, *rest = fields
    if first not in vars(cls):  # a field without a default
        with pytest.raises(TypeError, match=f"'{first}'"):
            cls(**{name: fields[name] for name in rest})
    with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
        cls(**fields, bogus=1.0)
    with pytest.raises(TypeError, match=f"multiple values for argument '{first}'"):
        cls(fields[first], **fields)
    with pytest.raises(TypeError):
        cls(*fields.values(), 1.0)


@pytest.mark.parametrize("cls,fields,text,hashable", CASES, ids=IDS)
def test_instances_are_frozen(cls, fields, text, hashable):
    record = cls(**fields)
    first = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(record, first, fields[first])
    with pytest.raises(AttributeError):
        delattr(record, first)
    with pytest.raises(AttributeError):
        record.extra = 1.0
    assert getattr(record, first) is fields[first]


@pytest.mark.parametrize("cls,fields,text,hashable", CASES, ids=IDS)
def test_equality_and_hash_follow_the_field_tuple(cls, fields, text, hashable):
    record, twin = cls(**fields), cls(**fields)
    assert record == twin and not record != twin
    if hashable:
        assert hash(record) == hash(twin)
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    other = type("Other", (cls,), {})(**fields)  # the same fields in another class
    assert record != other and other != record
    assert record.__eq__(other) is NotImplemented
    assert record.__eq__(tuple(fields.values())) is NotImplemented


def test_defaults_fill_missing_fields():
    assert PhysicalConstants() == CONSTANTS == PhysicalConstants(*CASES[0][1].values())
    assert TurntableConfig(r_t=0.5, v=0.0, omega_rot=0.0).windings == 0
    packet = Wavepacket(1.2e7, 3.5e3)
    assert packet.grid_omega is None and packet.grid_density is None
    assert PhysicalConstants(c=1.0) != CONSTANTS


def test_unequal_fields_are_unequal():
    assert GravSource(r_s=3.0e4, a=7.5e3) != GravSource(r_s=3.0e4, a=7.4e3)
    assert KerrPoint(source=HOLE, r=1.2e5) != KerrPoint(source=GravSource(3.0e4, 0.0), r=1.2e5)


@pytest.mark.parametrize("build,message", [
    (lambda: GravSource(r_s=-1.0, a=0.0), "r_s must be finite and >= 0"),
    (lambda: GravSource(3.0e4, float("nan")), "a must be finite and >= 0"),
    (lambda: Wavepacket(omega0=0.0, sigma=1.0), "omega0 must be finite and positive"),
    (lambda: Wavepacket(1.0, 1.0, grid_omega=RADII), "need both grid_omega and grid_density"),
    (lambda: KerrPoint(source=HOLE, r=2.5e4), "is not outside the horizon"),
    (lambda: TurntableConfig(r_t=0.5, v=1.5, omega_rot=0.0), "v must be a speed"),
    (lambda: TurntableConfig(0.5, 0.0, 0.0, -1), "windings must be finite and >= 0"),
    (lambda: RefractiveModel(A=1.0e5, B=0.5, k0=8.0e6), "B must be finite and >= 1"),
    (lambda: FiberArms(length=1.0, delta_length=0.5, model=SILICA, v=0.0), "delta_length"),
], ids=["negative-r_s", "nan-a", "zero-omega0", "one-grid", "inside-horizon", "superluminal",
        "negative-windings", "b-below-one", "long-mismatch"])
def test_post_init_checks_still_run(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_chi0_is_computed_once_and_cached(monkeypatch):
    calls = []
    quad = interference._centered_quad

    def counted(packet, **weight):
        calls.append(packet)
        return quad(packet, **weight)

    monkeypatch.setattr(interference, "_centered_quad", counted)
    packet = Wavepacket.gaussian(1.2e7, 3.5e3)
    first = packet._chi0
    assert packet._chi0 == first and calls == [packet]
    assert first == pytest.approx(1.0, abs=1e-12)
    # the cached value is not a field: equality, hash and repr ignore it
    fresh = Wavepacket.gaussian(1.2e7, 3.5e3)
    assert packet == fresh and hash(packet) == hash(fresh) and repr(packet) == repr(fresh)
