import math

import pytest

from framedrag.constants import (
    CONSTANTS,
    GravSource,
    schwarzschild_radius,
    spin_parameter,
)


def test_earth_schwarzschild_radius():
    r_s = schwarzschild_radius(CONSTANTS.earth_mass)
    assert math.isclose(r_s, 0.00886940714067, rel_tol=1e-9)


def test_earth_spin_parameter():
    a = spin_parameter(CONSTANTS.earth_mass, CONSTANTS.earth_angular_momentum)
    assert math.isclose(a, 3.94892523954, rel_tol=1e-9)


def test_from_mass_matches_helpers():
    src = GravSource.from_mass(CONSTANTS.earth_mass, CONSTANTS.earth_angular_momentum)
    assert src.r_s == schwarzschild_radius(CONSTANTS.earth_mass)
    assert src.a == spin_parameter(CONSTANTS.earth_mass, CONSTANTS.earth_angular_momentum)
    # Earth's a is vastly super-extremal (a >> r_s/2): no horizon
    assert not src.sub_extremal


@pytest.mark.parametrize("r_s,a,expected", [
    (3.0e4, 7.5e3, True),
    (3.0e4, 1.5e4, True),    # exactly extremal counts as sub-extremal
    (3.0e4, 1.5001e4, False),
    (0.0, 0.0, True),
])
def test_sub_extremal_flag(r_s, a, expected):
    assert GravSource(r_s=r_s, a=a).sub_extremal is expected


def test_grav_source_rejects_negative():
    with pytest.raises(ValueError):
        GravSource(r_s=-1.0, a=0.0)
    with pytest.raises(ValueError):
        GravSource(r_s=1.0, a=-0.1)
    with pytest.raises(ValueError):
        GravSource(r_s=float("nan"), a=0.0)


def test_mass_validation():
    with pytest.raises(ValueError):
        schwarzschild_radius(-1.0)
    with pytest.raises(ValueError):
        spin_parameter(0.0, 1.0)
