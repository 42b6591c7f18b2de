"""Config parsing, default/override precedence, and domain-object assembly."""

import math

import pytest

from framedrag.constants import GravSource
from framedrag.interference import MAX_FOCK_BINS
from framedrag.scenario import (
    EARTH_SURFACE_DEFAULTS,
    FIBER_LOOP_DEFAULTS,
    Scenario,
    load_config,
    parse_config,
    parse_override,
)


# --- parsing -------------------------------------------------------------------

def test_parse_override_types():
    assert parse_override("point.r=6.37e6") == ("point.r", 6.37e6)
    key, value = parse_override("scan.points=128")
    assert value == 128 and isinstance(value, int)
    assert parse_override(" light.sigma = 3500 ") == ("light.sigma", 3500.0)
    for key in ("turntable.windings", "interference.bins", "scan.points", "sweep.points"):
        assert isinstance(parse_override(f"{key}=3")[1], int), key
        with pytest.raises(ValueError, match="an integer"):
            parse_override(f"{key}=3.5")


def test_fock_bins_stop_at_the_oracle_cap_by_key():
    # refused by key when the scenario is assembled, before hom computes any line
    assert parse_override(f"interference.bins={MAX_FOCK_BINS}")[1] == MAX_FOCK_BINS
    with pytest.raises(ValueError, match=rf"^interference.bins must be <= {MAX_FOCK_BINS}, "
                                         rf"got {MAX_FOCK_BINS + 1}$"):
        parse_override(f"interference.bins={MAX_FOCK_BINS + 1}")


@pytest.mark.parametrize("item,match", [
    ("point.r", "key=value"),
    ("nope.r=1.0", "unknown config key"),
    ("point.r=abc", "a number"),
    ("scan.points=1.5", "an integer"),
    ("point.r=inf", "finite"),
])
def test_parse_override_rejects(item, match):
    with pytest.raises(ValueError, match=match):
        parse_override(item)


def test_parse_config_comments_and_duplicates():
    values = parse_config(
        "# full-line comment\n"
        "\n"
        "point.r = 1.0e3  # trailing comment\n"
        "light.omega0 = 2e6\n"
        "point.r = 2.0e3\n")
    assert values == {"point.r": 2.0e3, "light.omega0": 2.0e6}


def test_parse_config_reports_line_numbers():
    with pytest.raises(ValueError, match="<config>:3"):
        parse_config("point.r = 1.0\n\nbogus line\n")
    with pytest.raises(ValueError, match="custom.cfg:1"):
        parse_config("nope = 2\n", origin="custom.cfg")


def test_load_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("point.r = 6.37e6\nsource.rs = 0.009\n")
    values = load_config(path)
    assert values["point.r"] == 6.37e6
    assert values["source.rs"] == 0.009


# --- precedence ------------------------------------------------------------------

def test_assemble_precedence():
    scenario = Scenario.assemble(
        EARTH_SURFACE_DEFAULTS,
        config={"point.r": 1.0e3, "light.sigma": 1.0e3},
        overrides={"point.r": 2.0e3},
    )
    assert scenario.get("point.r") == 2.0e3       # --set beats config
    assert scenario.get("light.sigma") == 1.0e3   # config beats defaults
    assert scenario.get("light.omega0") == 2.0e6  # default survives
    assert scenario.values == {**EARTH_SURFACE_DEFAULTS, "point.r": 2.0e3, "light.sigma": 1.0e3}


def test_assemble_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config key"):
        Scenario.assemble({}, config={"typo.key": 1.0})


@pytest.mark.parametrize("key,value,match", [
    ("turntable.windings", 2.7, "'turntable.windings' expects an integer, got 2.7"),
    ("interference.bins", "64", "'interference.bins' expects an integer, got '64'"),
    ("light.sigma", math.nan, "'light.sigma' must be finite, got nan"),
    ("scan.r_max", -math.inf, "'scan.r_max' must be finite, got -inf"),
    ("light.sigma", "3e3", "'light.sigma' expects a number, got '3e3'"),
])
def test_assemble_checks_user_values_like_the_parser(key, value, match):
    for user in ({"config": {key: value}}, {"overrides": {key: value}}):
        with pytest.raises(ValueError, match=match):
            Scenario.assemble(EARTH_SURFACE_DEFAULTS, **user)
    # an integer is a valid float value, as "--set light.sigma=3000" parses
    assert Scenario.assemble({}, overrides={"light.sigma": 3000}).get("light.sigma") == 3000


@pytest.mark.parametrize("key,value,match", [
    ("light.sigma", 0.0, "light.sigma must be finite and positive, got 0.0"),
    ("turntable.velocity", 1, r"turntable.velocity must be a speed 0 <= v < 1 .*, got 1.0"),
    ("medium.b", 0.5, "medium.b must be finite and >= 1, got 0.5"),
    ("scan.points", 1, "scan.points must be finite and >= 2, got 1"),
])
def test_assemble_checks_each_value_against_the_range_of_its_key(key, value, match):
    for user in ({"config": {key: value}}, {"overrides": {key: value}}):
        with pytest.raises(ValueError, match=f"^{match}$"):
            Scenario.assemble({}, **user)
    with pytest.raises(ValueError, match=f"^{match}$"):
        Scenario.assemble({key: value})


def test_assemble_holds_each_value_as_the_type_of_its_key():
    scenario = Scenario.assemble({"light.sigma": 3000}, overrides={"point.r": 5})
    assert type(scenario.get("light.sigma")) is float
    assert type(scenario.get("point.r")) is float


def test_require_and_get():
    scenario = Scenario.assemble({}, overrides={"point.r": 5.0})
    assert scenario.require("point.r") == 5.0
    assert scenario.get("light.sigma", 42.0) == 42.0
    assert scenario.values == {"point.r": 5.0}
    with pytest.raises(ValueError, match="missing required"):
        scenario.require("light.sigma")


# --- domain-object builders --------------------------------------------------------

@pytest.mark.parametrize("geometric,si", [
    ("source.rs", "source.mass"),
    ("source.a", "source.mass"),
    ("source.rs", "source.angular_momentum"),
])
def test_source_from_both_sides_is_refused(geometric, si):
    message = "give either source.rs/source.a or source.mass/source.angular_momentum, not both"
    for user in ({"overrides": {geometric: 1.0, si: 1.0}},
                 {"config": {geometric: 1.0}, "overrides": {si: 1.0}},
                 {"config": {si: 1.0}, "overrides": {geometric: 1.0}}):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Scenario.assemble(EARTH_SURFACE_DEFAULTS, **user)


def test_source_from_mass():
    scenario = Scenario.assemble(
        {}, overrides={"source.mass": 5.972e24,
                       "source.angular_momentum": 7.07e33})
    source = scenario.source()
    reference = GravSource.from_mass(5.972e24, 7.07e33)
    assert source.r_s == reference.r_s
    assert source.a == reference.a


def test_source_si_keys_drop_the_geometric_defaults():
    scenario = Scenario.assemble(EARTH_SURFACE_DEFAULTS, overrides={"source.mass": 5.972e24})
    assert "source.rs" not in scenario.values and "source.a" not in scenario.values
    assert scenario.source() == GravSource.from_mass(5.972e24, 0.0)
    # a geometric key keeps the other geometric default
    spin = Scenario.assemble(EARTH_SURFACE_DEFAULTS, overrides={"source.a": 1.0})
    assert spin.source() == GravSource(r_s=0.009, a=1.0)


def test_source_missing():
    with pytest.raises(ValueError, match="missing source"):
        Scenario.assemble({}).source()
    # the angular momentum alone drops the geometric defaults and gives no mass
    lone_spin = Scenario.assemble(EARTH_SURFACE_DEFAULTS,
                                  overrides={"source.angular_momentum": 1.0e40})
    assert lone_spin.values.keys() == {"point.r", "light.omega0", "light.sigma",
                                       "source.angular_momentum"}
    with pytest.raises(ValueError, match="missing source"):
        lone_spin.source()


def test_point_and_path_length():
    scenario = Scenario.assemble(EARTH_SURFACE_DEFAULTS)
    assert scenario.point().r == 6.37e7
    assert scenario.path_length() == math.pi * 6.37e7
    explicit = Scenario.assemble(EARTH_SURFACE_DEFAULTS,
                                 overrides={"path.length": 123.0})
    assert explicit.path_length() == 123.0


def test_wavepacket_builder():
    packet = Scenario.assemble(EARTH_SURFACE_DEFAULTS).wavepacket()
    assert packet.omega0 == 2.0e6
    assert packet.sigma == 3.5e3


def test_turntable_exclusivity():
    message = "^give either turntable.omega or turntable.velocity, not both$"
    for user in ({"overrides": {"turntable.omega": 1.0, "turntable.velocity": 1.0e-9}},
                 {"config": {"turntable.omega": 1.0}, "overrides": {"turntable.velocity": 0.0}}):
        for defaults in ({}, EARTH_SURFACE_DEFAULTS, FIBER_LOOP_DEFAULTS):
            with pytest.raises(ValueError, match=message):
                Scenario.assemble(defaults, **user)


def test_turntable_user_velocity_suppresses_default_omega():
    scenario = Scenario.assemble(FIBER_LOOP_DEFAULTS,
                                 overrides={"turntable.velocity": 2.0e-9})
    table = scenario.turntable()
    assert table.v == 2.0e-9
    assert "turntable.omega" not in scenario.values
    # and the defaults path still resolves omega when nothing is given
    table_default = Scenario.assemble(FIBER_LOOP_DEFAULTS).turntable()
    assert table_default.omega_rot == 2.0 * math.pi


@pytest.mark.parametrize("rate", ["turntable.omega", "turntable.velocity"])
def test_turntable_negative_zero_rate_is_zero(rate):
    # the sign of a zero is left to the report, which prints every zero as 0
    table = Scenario.assemble(FIBER_LOOP_DEFAULTS, overrides={rate: -0.0}).turntable()
    assert table.v == 0.0
    assert table.omega_rot == 0.0


def test_turntable_missing_rate():
    with pytest.raises(ValueError, match="turntable.omega or turntable.velocity"):
        Scenario.assemble({}, overrides={"turntable.radius": 0.2}).turntable()


def test_turntable_windings_and_arm():
    scenario = Scenario.assemble(
        FIBER_LOOP_DEFAULTS, overrides={"turntable.windings": 3})
    table = scenario.turntable()
    assert table.windings == 3


def test_fiber_arms_builder():
    arms = Scenario.assemble(FIBER_LOOP_DEFAULTS).fiber_arms()
    assert arms.length == 1.0e4
    assert arms.delta_length == 0.01
    assert arms.model.n == pytest.approx(1.4525, rel=1e-12)
    assert arms.v == pytest.approx(2.0 * math.pi * 0.2 / 299792458.0, rel=1e-15)
