"""End-to-end command-line runs: exit codes, determinism, warnings, CSV."""

import contextlib
import io
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _cli_helpers import parse_report, run_cli
from framedrag import cli, kerr
from framedrag.constants import CONSTANTS, GravSource
from framedrag.interference import Wavepacket, hom_coincidence_gaussian
from framedrag.reference import CheckResult
from framedrag.scenario import BLACK_HOLE_DEFAULTS, FIBER_LOOP_DEFAULTS, PARAMETERS, Scenario


# --- default reports -----------------------------------------------------------

def test_kerr_defaults(capsys):
    code, out, err = run_cli(capsys, "kerr")
    assert code == 0 and err == ""
    assert "input point.r = 63700000 m" in out
    values = parse_report(out)
    assert values["phase_weak"] == pytest.approx(0.0069243266660333738, rel=1e-12)
    assert values["delay_weak"] == pytest.approx(3.4621633325275272e-9, rel=1e-12)
    assert 1.0 - values["visibility"] == pytest.approx(1.4683554372396657e-10, rel=1e-4)
    # the pair outputs are magnitudes; the Earth-scale drag asymmetry
    # (~1e-17 c) is below double resolution on the speeds themselves
    assert values["c_co_weak"] >= values["c_counter_weak"] > 0.0
    assert values["c_co_weak"] == pytest.approx(1.0 - 0.009 / (2.0 * 6.37e7),
                                                rel=1e-12)
    assert "WARN earth-radius-convention" in out
    assert "[kerr-phase-weak]" in out


def test_kerr_output_is_byte_deterministic(capsys):
    _, first, _ = run_cli(capsys, "kerr")
    _, second, _ = run_cli(capsys, "kerr")
    assert first == second


def test_kerr_near_horizon_degrades_weak_block(capsys):
    code, out, err = run_cli(
        capsys, "kerr", "--set", "source.rs=3e4", "--set", "source.a=7.5e3",
        "--set", "point.r=6e4")
    assert code == 0
    assert "WARN weak-field-guard" in out
    values = parse_report(out)
    assert "c_co_full" in values and "c_co_weak" not in values
    assert values["c_co_full"] == pytest.approx(0.77158073738157209, rel=1e-14)


def test_kerr_forced_weak_block_in_strong_field(capsys):
    # r_s/r = 0.05 is past the weak-field guard; --override-guards evaluates
    # the seven weak-expansion lines anyway, each from the forced formula.
    code, out, err = run_cli(
        capsys, "kerr", "--override-guards", "--set", "source.rs=3e4",
        "--set", "source.a=7.5e3", "--set", "point.r=6e5")
    assert code == 0 and err == ""
    assert "weak-field-guard" not in out
    values = parse_report(out)
    for name in ("c_co_weak", "c_counter_weak", "delay_weak", "phase_weak",
                 "phase_weak_mod_2pi", "roundtrip_mean_speed", "local_two_way_speed"):
        assert name in values
    point = kerr.KerrPoint(source=GravSource(r_s=3e4, a=7.5e3), r=6e5)
    assert values["c_co_weak"] == kerr.light_speed_weak(point, "co", force=True)
    assert values["c_counter_weak"] == abs(kerr.light_speed_weak(point, "counter", force=True))
    assert values["phase_full"] == 2.0e6 * values["delay_full"]  # omega0 * delay_full


def test_equivalence_metric_defaults(capsys):
    code, out, _ = run_cli(capsys, "equivalence")
    assert code == 0
    values = parse_report(out)
    assert values["v_equiv_si"] == pytest.approx(2.5932772792520474e-7, rel=1e-11)
    assert values["omega_equiv"] == pytest.approx(4.0710789313162426e-14, rel=1e-11)
    assert "WARN earth-radius-convention" in out
    assert "110 m/s" not in out


def test_equivalence_timeshift(capsys):
    code, out, _ = run_cli(capsys, "equivalence", "--method", "timeshift",
                           "--set", "point.r=6.37e7")
    assert code == 0
    values = parse_report(out)
    assert values["v_equiv_si"] == pytest.approx(0.82595881285714279, rel=1e-11)
    assert values["omega_equiv"] == pytest.approx(4.1297940642857141, rel=1e-11)
    assert values["kerr_roundtrip_shift"] == pytest.approx(
        values["turntable_roundtrip_shift"], rel=1e-9)


def test_equivalence_small_source_warns(capsys):
    code, out, _ = run_cli(capsys, "equivalence", "--set", "point.r=100")
    assert code == 0
    assert "WARN target-value-unreproduced" in out
    assert "1052.3188829887727 m/s" in out


def test_feasibility_defaults(capsys):
    code, out, _ = run_cli(capsys, "feasibility")
    assert code == 0
    values = parse_report(out)
    assert values["v_min_si"] == pytest.approx(2891.7243387969561, rel=1e-10)
    assert values["windings_needed"] == 46
    assert values["coherence_length"] == pytest.approx(0.013168582648052284, rel=1e-10)
    assert values["winding_hom_exponent"] > 2.0


def test_hom_defaults(capsys):
    code, out, _ = run_cli(capsys, "hom")
    assert code == 0
    values = parse_report(out)
    assert values["delta_t"] == pytest.approx(1.0 / 3.5e3, rel=1e-15)
    assert values["hom_prob_general"] == pytest.approx(values["hom_prob_gaussian"],
                                                       abs=1e-9)
    assert values["hom_prob_fock"] == pytest.approx(values["hom_prob_gaussian"],
                                                    abs=1e-6)
    assert values["hom_visibility"] == 1.0


def test_hom_explicit_delay(capsys):
    code, out, _ = run_cli(capsys, "hom", "--set", "interference.delta_t=0.0002")
    assert code == 0
    values = parse_report(out)
    assert values["hom_prob_gaussian"] == pytest.approx(
        hom_coincidence_gaussian(3.5e3, 2.0e-4), rel=1e-12)


def test_fiber_defaults(capsys):
    code, out, _ = run_cli(capsys, "fiber")
    assert code == 0
    values = parse_report(out)
    assert values["n"] == pytest.approx(1.4525, rel=1e-12)
    assert values["sagnac_phase"] == pytest.approx(670.67040702453824, rel=1e-12)
    assert values["fiber_phase_difference"] == pytest.approx(116870.67040702452,
                                                             rel=1e-12)
    assert values["downconverted_quadrature"] == pytest.approx(
        values["downconverted_closed"], abs=1e-9)
    assert "WARN target-value-unreproduced" in out
    assert "1.7025652145385422e-27 s" in out


def test_unconverged_quadrature_is_one_report_warning(capsys):
    # the down-converted integrand oscillates too fast for 500 subdivisions
    code, out, err = run_cli(capsys, "fiber", "--set", "turntable.omega=1514")
    assert code == 0 and err == ""
    assert len(re.findall(r"^WARN quadrature-unconverged: .+$", out, re.M)) == 1


def test_overflow_after_a_quadrature_warning_is_one_error_line():
    # a fresh process, so no warning registry from earlier tests hides the warning
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get(
        "PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "framedrag.cli", "fiber",
                           "--set", "arms.length=1e308"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2 and proc.stdout == ""
    assert re.fullmatch(r"ERROR overflow: [^\n]+\n", proc.stderr), proc.stderr


# --- spectra, configs, CSV -------------------------------------------------------

def test_hom_spectrum_file(capsys, tmp_path):
    path = tmp_path / "spectrum.txt"
    path.write_text("# omega density\n"
                    "1.95e6 1.0\n"
                    "2.0e6  2.0\n"
                    "2.05e6 1.0\n")
    code, out, _ = run_cli(capsys, "hom", "--spectrum", str(path))
    assert code == 0
    assert "WARN spectrum-renormalized" in out
    values = parse_report(out)
    assert values["spectrum_omega0"] == pytest.approx(2.0e6, rel=1e-12)
    var = (5.0e4) ** 2 / 3.0  # atom weights 1/6, 2/3, 1/6 about the center
    assert values["spectrum_sigma"] == pytest.approx(math.sqrt(2.0 * var), rel=1e-9)


def test_hom_spectrum_whose_sums_round_apart_has_full_visibility(capsys, tmp_path):
    # chi(0) and the weight sum differ in the last bit here, which made p(0) = -2.2e-16
    path = tmp_path / "spectrum.txt"
    path.write_text("1997015 0.268\n1998903 0.510\n1998996 0.864\n1999632 0.745\n"
                    "2000249 0.611\n2001503 0.612\n2002335 0.335\n2002364 0.485\n")
    code, out, _ = run_cli(capsys, "hom", "--spectrum", str(path))
    assert code == 0
    assert "hom_visibility = 1 [hom-visibility] (~1)" in out


@pytest.mark.parametrize("shape", ["gaussian-25", "skewed-801"])
def test_hom_spectrum_makes_no_unconverged_quadrature(capsys, tmp_path, shape):
    # every route sums the table's trapezoid atoms, so nothing is left to converge
    packet = Wavepacket.gaussian(2.0e6, 3.5e3)
    if shape == "gaussian-25":
        omegas = np.linspace(2.0e6 - 6.0 * 3.5e3, 2.0e6 + 6.0 * 3.5e3, 25)
        density = packet.density(omegas)
    else:
        omegas = np.linspace(1.99e6, 2.03e6, 801)
        x = (omegas - omegas[0]) / 4.0e3
        density = x * x * np.exp(-x)
    path = tmp_path / "spectrum.txt"
    np.savetxt(path, np.column_stack([omegas, density]))
    code, out, err = run_cli(capsys, "hom", "--spectrum", str(path))
    assert code == 0 and err == ""
    assert "WARN quadrature-unconverged" not in out
    assert 0.0 <= parse_report(out)["photon_prob_quadrature"] <= 1.0


def test_empty_spectrum_path_is_one_validation_error(capsys):
    code, out, err = run_cli(capsys, "hom", "--spectrum", "")
    assert code == 2 and out == ""
    assert err == "ERROR validation: spectrum file path is empty\n"


def test_config_file_and_set_precedence(capsys, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("point.r = 1.0e3\nlight.sigma = 9.9e3 # overridden below\n")
    code, out, _ = run_cli(capsys, "kerr", "--config", str(config),
                           "--set", "point.r=6.37e7")
    assert code == 0
    assert "input point.r = 63700000 m" in out
    assert "input light.sigma = 9900 rad/m" in out


def test_input_echo_units_of_keys_outside_the_golden_set(capsys):
    code, out, _ = run_cli(capsys, "kerr", "--set", "source.mass=5.97e24",
                           "--set", "source.angular_momentum=7.07e33",
                           "--set", "turntable.velocity=1e-9")
    assert code == 0
    assert "input source.mass = 5.9700000000000003e+24 kg\n" in out
    assert "input source.angular_momentum = 7.0699999999999999e+33 kg m^2/s\n" in out
    assert "input turntable.velocity = 1.0000000000000001e-09 c\n" in out


@pytest.mark.parametrize("argv, echoed", [
    # the source.rs/source.a defaults used to be echoed though the run used the mass
    (["kerr", "--set", "source.mass=5.972e24", "--set", "source.angular_momentum=7.07e33"],
     ["light.omega0", "light.sigma", "point.r", "source.angular_momentum", "source.mass"]),
    # the turntable.omega default used to be echoed beside the velocity the run used
    (["fiber", "--set", "turntable.velocity=1e-9"],
     sorted({*FIBER_LOOP_DEFAULTS, "turntable.velocity"} - {"turntable.omega"})),
], ids=["source-mass", "turntable-velocity"])
def test_input_echo_lists_exactly_the_values_used(capsys, argv, echoed):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert [line.split()[1] for line in out.splitlines() if line.startswith("input ")] == echoed


COMMANDS = ("kerr", "equivalence", "feasibility", "hom", "fiber", "fig1", "fig3")
BOTH_RATES = ["--set", "turntable.omega=1", "--set", "turntable.velocity=1e-9"]


@pytest.mark.parametrize("argv, message", [
    # used to exit 0 and print the default-source delay
    (["kerr", "--set", "source.angular_momentum=1e40"],
     "missing source parameters (source.rs/source.a or source.mass)"),
    (["kerr", "--set", "source.rs=0.009", "--set", "source.mass=5.972e24"],
     "give either source.rs/source.a or source.mass/source.angular_momentum, not both"),
    # only the commands that read a rate refused both; kerr exited 0
    *[([command, *BOTH_RATES], "give either turntable.omega or turntable.velocity, not both")
      for command in COMMANDS],
], ids=["lone-angular-momentum", "rs-and-mass", *(f"both-rates-{c}" for c in COMMANDS)])
def test_alternative_keys_are_refused_unless_they_resolve(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"ERROR validation: {message}\n"


def test_report_csv(capsys, tmp_path):
    path = tmp_path / "fiber.csv"
    code, out, _ = run_cli(capsys, "fiber", "--csv", str(path))
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "name,value"
    assert "n,1.4524999999999999" in lines  # 17 significant digits
    assert len(lines) - 1 == len(parse_report(out))


def test_fig3_csv_matches_stdout(capsys, tmp_path):
    _, stdout_text, _ = run_cli(capsys, "fig3")
    path = tmp_path / "fig3.csv"
    code, out, _ = run_cli(capsys, "fig3", "--csv", str(path))
    assert code == 0 and out == ""
    assert path.read_text() == stdout_text
    lines = stdout_text.splitlines()
    assert lines[0] == "omega_rad_s,coincidence_probability"
    assert len(lines) == 1 + 512
    last_omega, last_prob = lines[-1].split(",")
    assert float(last_omega) == 20.0
    assert float(last_prob) == pytest.approx(0.49999999991454974, rel=1e-12)


def test_fig3_sugar_flags(capsys):
    code, out, _ = run_cli(capsys, "fig3", "--points", "5", "--omega-max", "10")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6
    assert lines[-1].startswith("10,")


def test_fig3_negative_sweep_starts_at_positive_zero(capsys):
    code, out, _ = run_cli(capsys, "fig3", "--omega-max", "-5", "--points", "3")
    assert code == 0
    assert out.splitlines()[1] == "0,0"
    assert out.splitlines()[-1].startswith("-5,")


@pytest.mark.parametrize("argv, message", [
    (["--points", "0"], "sweep.points must be finite and >= 2, got 0"),
    (["--points", "-2"], "sweep.points must be finite and >= 2, got -2"),
    (["--omega-max", "3e9"],
     "|sweep.omega_max| * turntable.radius / c must be a speed 0 <= v < 1"),
    (["--set", "arms.length=-1", "--points", "3"],
     "arms.length must be finite and positive, got -1.0"),
    (["--set", "arms.length=0"], "arms.length must be finite and positive, got 0.0"),
    (["--set", "turntable.radius=-0.2"],
     "turntable.radius must be finite and positive, got -0.2"),
    # omega_max's rim is just under c, but the last row's rate rounds one ulp up to v = 1
    (["--set", "turntable.radius=0.37", "--omega-max", "810249886.4864863", "--points", "44"],
     "|sweep.omega_max| * turntable.radius / c must be a speed 0 <= v < 1"),
], ids=["points-0", "points-negative", "superluminal-rim", "arm-negative", "arm-zero",
        "radius-negative", "last-row-rim-rounds-to-c"])
def test_fig3_rejects_bad_sweep(capsys, tmp_path, argv, message):
    path = tmp_path / "fig3.csv"
    for extra in ([], ["--csv", str(path)]):
        code, out, err = run_cli(capsys, "fig3", *argv, *extra)
        assert code == 2 and out == ""
        assert err.count("\n") == 1
        assert err.startswith(f"ERROR validation: {message}")
    assert not path.exists()


def test_fig1_reports_unmet_visibility_target(capsys):
    code, out, err = run_cli(capsys, "fig1")
    assert code == 0
    assert "WARN target-value-unreproduced" in err
    assert "sigma <=" in err
    lines = out.splitlines()
    assert lines[0] == "r_over_rs,phase_rad,visibility"
    assert len(lines) == 1 + 512
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(0.97966333698683039, rel=1e-12)
    assert float(first[2]) == 0.0


@pytest.mark.parametrize("argv, message", [
    (["--points", "1"], "scan.points must be finite and >= 2, got 1"),
    (["--r-max", "-5"], "scan.r_max must be finite and positive, got -5.0"),
    (["--set", "light.sigma=-1"], "light.sigma must be finite and positive, got -1.0"),
    # used to name the library argument: r_s must be finite and positive
    (["--set", "source.rs=0"], "source.rs must be finite and positive, got 0.0"),
], ids=["points-1", "negative-r-max", "negative-sigma", "zero-rs"])
def test_fig1_rejects_bad_scan(capsys, tmp_path, argv, message):
    path = tmp_path / "fig1.csv"
    for extra in ([], ["--csv", str(path)]):
        code, out, err = run_cli(capsys, "fig1", *argv, *extra)
        assert code == 2 and out == ""
        assert err == f"ERROR validation: {message}\n"
    assert not path.exists()


def _fig1_rows(points):
    # the scan arrays rendered one numpy scalar at a time
    scenario = Scenario.assemble(BLACK_HOLE_DEFAULTS, {}, {"scan.points": points})
    scan = kerr.blackhole_scan(
        scenario.source(), scenario.require("light.omega0"),
        scenario.require("light.sigma"), r_max=scenario.require("scan.r_max"),
        n_points=points)
    return [f"{r:.17g},{phase:.17g},{vis:.17g}"
            for r, phase, vis in zip(scan.r_over_rs, scan.phase_rad, scan.visibility)]


def _fig3_rows(points):
    # the sweep from the scalar formulas, delay 4 v L / (1 - v^2) written out
    d = FIBER_LOOP_DEFAULTS
    rows = []
    for i in range(points):
        omega = d["sweep.omega_max"] * i / (points - 1)
        v = omega * d["turntable.radius"] / CONSTANTS.c
        delta_t = 4.0 * v * d["arms.length"] / (1.0 - v * v)
        rows.append(f"{omega:.17g},{hom_coincidence_gaussian(d['light.sigma'], delta_t):.17g}")
    return rows


@pytest.mark.parametrize("command, header, rows", [
    ("fig1", "r_over_rs,phase_rad,visibility", _fig1_rows),
    ("fig3", "omega_rad_s,coincidence_probability", _fig3_rows),
])
@pytest.mark.parametrize("points", [
    cli._CSV_BLOCK - 1, cli._CSV_BLOCK, cli._CSV_BLOCK + 1, 2 * cli._CSV_BLOCK + 3,
], ids=["block-1", "block", "block+1", "2block+3"])
def test_figure_table_is_byte_exact_across_block_edges(capsys, tmp_path, command,
                                                       header, rows, points):
    expected = "\n".join([header, *rows(points)]) + "\n"
    code, out, _ = run_cli(capsys, command, "--points", str(points))
    assert code == 0 and out == expected
    path = tmp_path / f"{command}.csv"
    code, out, _ = run_cli(capsys, command, "--points", str(points), "--csv", str(path))
    assert code == 0 and out == ""
    assert path.read_bytes() == expected.encode()


def _export_peak(command, points, path):
    """The tracemalloc peak of one ``--csv`` export, after a 64-point run warms the imports."""
    assert cli.main([command, "--points", "64", "--csv", str(path)]) == 0
    tracemalloc.start()
    try:
        code = cli.main([command, "--points", str(points), "--csv", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    return peak


@pytest.mark.parametrize("command, limit_mb", [("fig1", 12.0), ("fig3", 1.5)])
def test_figure_export_peak_allocation(capsys, tmp_path, command, limit_mb):
    # one 1e5-point table is ~6 MB of text; streaming it in blocks keeps the
    # peak near fig1's scan arrays, and near one block of rows for fig3,
    # which computes its rows during the write
    peak = _export_peak(command, 100000, tmp_path / f"{command}.csv")
    capsys.readouterr()
    assert peak <= limit_mb * 1e6


def test_fig3_export_peak_does_not_grow_with_points(capsys, tmp_path):
    path = tmp_path / "fig3.csv"
    peaks = [_export_peak("fig3", points, path) for points in (100000, 200000)]
    capsys.readouterr()
    assert abs(peaks[1] - peaks[0]) <= 0.1 * 2**20


def test_fig3_rows_whose_exponent_overflows_are_one_half(capsys):
    # (sigma dt)^2 overflows on every row but the first; the rows are computed
    # during the write, outside main's warning capture, so none may raise or warn
    code, out, err = run_cli(capsys, "fig3", "--set", "light.sigma=1e300")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[1] == "0,0"
    assert len(lines) == 1 + 512
    assert all(line.split(",")[1] == "0.5" for line in lines[2:])


@pytest.mark.parametrize("command", COMMANDS + ("verify",))
def test_csv_path_that_cannot_be_opened_leaves_stdout_empty(capsys, tmp_path, command):
    # the destination is opened before the first stdout byte
    code, out, err = run_cli(capsys, command, "--csv", str(tmp_path))
    assert code == 2 and out == ""
    assert err.startswith("ERROR validation: ") and err.count("\n") == 1


def test_fig1_sugar_flags(capsys):
    code, out, _ = run_cli(capsys, "fig1", "--points", "64", "--r-max", "500")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1 + 64
    assert float(lines[-1].split(",")[0]) == pytest.approx(500.0, rel=1e-12)


@pytest.mark.parametrize("argv,key", [
    (["fig1", "--r-max", "nan"], "scan.r_max"),
    (["fig1", "--r-max", "inf"], "scan.r_max"),
    (["fig3", "--omega-max", "nan"], "sweep.omega_max"),
])
def test_figure_sugar_flags_reject_non_finite(capsys, argv, key):
    # the flags bypass the --set parser, so Scenario.assemble checks them
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"ERROR validation: config key {key!r} must be finite, got {argv[2]}\n"


# --- exit codes -------------------------------------------------------------------

def test_unknown_key_exits_2(capsys):
    code, _, err = run_cli(capsys, "kerr", "--set", "bogus=1")
    assert code == 2
    assert err.startswith("ERROR validation: unknown config key")


def test_missing_config_exits_2(capsys):
    code, _, err = run_cli(capsys, "kerr", "--config", "/nonexistent/path.cfg")
    assert code == 2
    assert err.startswith("ERROR validation:")


@pytest.mark.parametrize("argv", [
    ["verify", "--set", "light.sigma=1"],
    ["verify", "--config", "x.cfg"],
    ["fig1", "--override-guards"],
    ["fiber", "--override-guards"],
], ids=["verify-set", "verify-config", "fig1-override-guards", "fiber-override-guards"])
def test_unused_option_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "unrecognized arguments" in err


def test_guard_violation_exits_2_and_can_be_forced(capsys):
    code, _, err = run_cli(capsys, "hom", "--set", "light.sigma=1e6")
    assert code == 2
    assert err.startswith("ERROR guard: narrowband")
    code, out, _ = run_cli(capsys, "hom", "--set", "light.sigma=1e6",
                           "--override-guards")
    assert code == 0
    assert "photon_prob_gaussian" in out


def test_kerr_ergosphere_boundary_is_a_named_guard(capsys, tmp_path):
    # r = r_s puts the point on the equatorial ergosphere (g_tt = 0), where
    # the full-mode delay diverges; no flag can force a finite answer.
    path = tmp_path / "kerr.csv"
    argv = ["kerr", "--set", "source.rs=3e4", "--set", "source.a=7.5e3",
            "--set", "point.r=3e4", "--csv", str(path)]
    for extra in ([], ["--override-guards"]):
        code, out, err = run_cli(capsys, *argv, *extra)
        assert code == 2 and out == ""
        assert err.count("\n") == 1
        assert err.startswith("ERROR guard: divergent delay at g_tt = 0")
    assert not path.exists()


def test_kerr_phase_beyond_float_resolution_is_a_named_guard(capsys):
    # 1e-6 m outside r = r_s the full-mode phase is 2.67e21 rad, where one
    # float64 step is 5.2e5 rad, so sin(phase) carries no information.
    code, out, err = run_cli(
        capsys, "kerr", "--set", "source.rs=3e4", "--set", "source.a=7.5e3",
        "--set", "point.r=3.0000000001e4")
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    assert err.startswith("ERROR guard: phase 2.6657295422550526e+21 rad")


def test_kerr_phase_just_under_float_resolution_still_reports(capsys):
    code, out, err = run_cli(
        capsys, "kerr", "--set", "source.rs=3e4", "--set", "source.a=7.5e3",
        "--set", "point.r=30000.6")
    assert code == 0 and err == ""
    phase = parse_report(out)["phase_full"]
    assert 0.9 / sys.float_info.epsilon < phase < 1.0 / sys.float_info.epsilon
    assert "photon_prob_mono" in out


def test_hom_phase_beyond_float_resolution_is_a_named_guard(capsys, tmp_path):
    # delta_phi = 2e18 rad, where one float64 step is 256 rad
    path = tmp_path / "hom.csv"
    code, out, err = run_cli(capsys, "hom", "--set", "interference.delta_t=1e12",
                             "--csv", str(path))
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    assert err.startswith("ERROR guard: phase 2e+18 rad has a float64 spacing of 256.0 rad")
    assert not path.exists()


def test_hom_phase_just_under_float_resolution_still_reports(capsys):
    code, out, err = run_cli(capsys, "hom", "--set", "interference.delta_t=2.2e9")
    assert code == 0 and err == ""
    phase = parse_report(out)["delta_phi"]
    assert 0.9 / sys.float_info.epsilon < phase < 1.0 / sys.float_info.epsilon
    assert "photon_prob_mono" in out


def test_kerr_overflowed_delay_is_not_blamed_on_the_ergosphere(capsys):
    # r = 6.37e7 m is far outside r_s: the delay overflowed, g_tt is not 0
    code, out, err = run_cli(capsys, "kerr", "--set", "path.length=1e308")
    assert code == 2 and out == ""
    assert err == ("ERROR overflow: these inputs leave the float64 range: "
                   "delay_full = inf is not finite\n")


@pytest.mark.parametrize("overrides,message", [
    # used to exit 2 with a bare "float division by zero"
    (["point.r=1e-100", "turntable.radius=1e-250"],
     "equivalence_velocity_timeshift r_s a/(r r_t) overflows at r = 1e-100, r_t = 1e-250"),
    # used to exit 0 printing v_equiv = 0 c beside v_equiv_leading = 5.51e+291 c
    (["turntable.radius=1e-300"],
     "equivalence_velocity_timeshift X^2 overflows at X = 5.510204081632653e+291"),
], ids=["underflowed-radii", "overflowed-square"])
def test_timeshift_equivalence_names_its_float_failures(capsys, overrides, message):
    argv = ["equivalence", "--method", "timeshift"]
    code, out, err = run_cli(capsys, *argv, *(arg for item in overrides for arg in ("--set", item)))
    assert code == 2 and out == ""
    assert err == f"ERROR overflow: these inputs leave the float64 range: {message}\n"


@pytest.mark.parametrize("overrides,key", [
    (["turntable.velocity=0.5", "turntable.radius=1e-310"],
     "turntable.velocity * c / turntable.radius"),
    (["turntable.omega=2e9"], "turntable.omega * turntable.radius / c"),
    (["turntable.velocity=1.5"], "turntable.velocity"),
    (["turntable.radius=-1"], "turntable.radius"),
    (["turntable.windings=-1"], "turntable.windings"),
])
def test_feasibility_names_bad_turntable_keys(capsys, overrides, key):
    argv = ["feasibility"] + [arg for item in overrides for arg in ("--set", item)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    assert err.startswith(f"ERROR validation: {key} must be ")


# One out-of-range value per ranged key, on a command that reads it.
RANGE_CASES = [
    ("kerr", ["source.rs=-1"]),
    ("kerr", ["source.a=-1"]),
    ("equivalence", ["source.mass=0"]),
    ("equivalence", ["source.mass=5.972e24", "source.angular_momentum=-1"]),
    ("kerr", ["point.r=0"]),
    ("kerr", ["path.length=-1"]),
    ("kerr", ["light.omega0=0"]),
    ("hom", ["light.sigma=-1"]),
    ("feasibility", ["turntable.radius=0"]),
    ("fiber", ["turntable.omega=-1"]),
    ("fiber", ["turntable.velocity=1.5"]),
    ("feasibility", ["turntable.windings=-1"]),
    ("fiber", ["arms.length=0"]),
    ("fiber", ["medium.a=-1"]),
    ("fiber", ["medium.b=0.5"]),
    ("fiber", ["medium.k0=0"]),
    ("hom", ["interference.bins=1"]),
    ("fig1", ["scan.r_max=-5"]),
    ("fig1", ["scan.points=1"]),
    ("fig3", ["sweep.points=0"]),
]


def test_range_cases_cover_every_ranged_key():
    covered = {overrides[-1].split("=")[0] for _, overrides in RANGE_CASES}
    assert covered == {key for key, (*_, allowed) in PARAMETERS.items() if allowed is not None}


@pytest.mark.parametrize("command,overrides", RANGE_CASES,
                         ids=[overrides[-1] for _, overrides in RANGE_CASES])
def test_out_of_range_value_is_named_by_its_key(capsys, command, overrides):
    argv = [command] + [arg for item in overrides for arg in ("--set", item)]
    code, out, err = run_cli(capsys, *argv)
    key = overrides[-1].split("=")[0]
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    assert err.startswith(f"ERROR validation: {key} must be "), err


def test_out_of_range_config_line_is_named_by_path_line_and_key(capsys, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("light.omega0 = 2e6\nlight.sigma = -1\n")
    code, out, err = run_cli(capsys, "hom", "--config", str(config))
    assert code == 2 and out == ""
    assert err == (f"ERROR validation: {config}:2: light.sigma must be finite and positive, "
                   "got -1.0\n")


@pytest.mark.parametrize("argv,message", [
    # the metric method never reads the radius; it used to exit 0 and echo it
    (["equivalence", "--set", "turntable.radius=-1"],
     "turntable.radius must be finite and positive, got -1.0"),
    # used to name the library's spin parameter: a must be finite and >= 0
    (["kerr", "--set", "source.mass=5.972e24", "--set", "source.angular_momentum=-1e33"],
     "source.angular_momentum must be finite and >= 0, got -1e+33"),
    # out of range for a key the command does not read
    (["hom", "--set", "turntable.velocity=1"],
     "turntable.velocity must be a speed 0 <= v < 1 (fraction of c), got 1.0"),
], ids=["unread-radius", "angular-momentum", "unread-velocity"])
def test_out_of_range_value_is_refused_wherever_it_is_read(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"ERROR validation: {message}\n"


def test_negative_zero_rate_reports_like_zero(capsys):
    reports = []
    for rate in ("turntable.omega=0", "turntable.omega=-0", "turntable.velocity=-0.0"):
        code, out, _ = run_cli(capsys, "fiber", "--set", rate)
        assert code == 0
        reports.append([line for line in out.splitlines() if not line.startswith("input ")])
    assert reports[0] == reports[1] == reports[2]
    assert not [line for line in reports[0] if " = -0 " in line]
    assert "sagnac_phase = 0 rad [sagnac-phase] (~0)" in reports[0]


# --- random overrides: finite values at exit 0, a named error at exit 2 ----------

OVERFLOW_PREFIX = "these inputs leave the float64 range: "
BARE_MESSAGES = ("math domain error", "math range error", "float division by zero",
                 "division by zero", "integer division or modulo by zero",
                 "(34, 'Numerical result out of range')")
FLOAT_KEYS = sorted(key for key, (kind, *_) in PARAMETERS.items() if kind is float)
MAGNITUDES = st.floats(min_value=1e-310, max_value=1e308, allow_subnormal=True)


def _in_range_values(key):
    """Values the key's range mostly admits, so the draws reach the report code."""
    if key == "turntable.velocity":
        return st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
    if PARAMETERS[key][2] is None:  # any finite value
        return st.builds(lambda magnitude, sign: sign * magnitude, MAGNITUDES,
                         st.sampled_from((1.0, -1.0)))
    return MAGNITUDES


OVERRIDES = st.sampled_from(FLOAT_KEYS).flatmap(
    lambda key: st.tuples(st.just(key), _in_range_values(key)))
FUZZ_COMMANDS = COMMANDS + ("equivalence --method timeshift",)


@given(st.sampled_from(FUZZ_COMMANDS), st.lists(OVERRIDES, min_size=1, max_size=3))
@example("kerr", [("point.r", -1.0)])  # out of range, each kind: > 0,
@example("equivalence", [("source.a", -1.0)])  # >= a bound,
@example("fiber", [("turntable.velocity", 1.5)])  # and a speed
@example("feasibility", [("light.sigma", 1e300)])  # OverflowError traceback
@example("fiber", [("medium.b", 1e308)])  # OverflowError traceback
@example("kerr", [("point.r", 1.3e250)])  # g_phiphi = -inf at exit 0
@example("fig1", [("scan.r_max", 1e308)])  # a nan row at exit 0
@example("kerr", [("light.omega0", 1e308)])  # fmod of an infinite phase
@example("fiber", [("light.sigma", 1e300)])  # cos(inf) in the down-converted integrand
@example("kerr", [("path.length", 1e308)])  # overflow blamed on the ergosphere
@example("hom", [("light.sigma", 5e-125), ("interference.delta_t", 1e-113)])  # nan Fock weights
@example("fig3", [("turntable.radius", 1e-300), ("sweep.omega_max", 1e308)])  # inf rows
@example("fig3", [("light.sigma", 1e300)])  # errno tuple from (sigma dt)**2
@example("fig3", [("arms.length", 1e308)])  # infinite delays, computed during the write
@example("feasibility", [("light.sigma", 1e200), ("turntable.windings", 3)])  # same, winding exponent
@example("fiber", [("medium.a", 1e300)])  # same, (n -+ v)**2 in the GVD
@example("kerr", [("source.rs", 1e200), ("source.a", 1e199), ("point.r", 1e201)])  # same, a**2
@example("feasibility", [("turntable.omega", 1e-310)])  # 1/v**2 divides by an underflowed 0
@example("feasibility", [("turntable.radius", 1e-200), ("light.sigma", 1e-200)])  # r sigma is 0
@example("fiber", [("medium.k0", 1.135303464291261e-250)])  # dn/dk = -A/k^2 divides by 0
@example("equivalence", [("point.r", 1e-310), ("source.mass", 1e-310)])  # same, r_s a / r^2
@example("equivalence --method timeshift",
         [("point.r", 1e-100), ("turntable.radius", 1e-250)])  # same, r_s a / (r r_t)
@example("equivalence --method timeshift", [("turntable.radius", 1e-300)])  # v = 0 at exit 0
@settings(max_examples=200, deadline=None)
def test_random_overrides_give_finite_values_or_a_named_error(command, overrides):
    argv = command.split() + [arg for key, value in overrides
                              for arg in ("--set", f"{key}={value!r}")]
    if command in ("fig1", "fig3"):
        argv += ["--points", "5"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2), argv
    if code == 0:
        if command in ("fig1", "fig3"):
            values = [float(cell) for row in out.splitlines()[1:] for cell in row.split(",")]
        else:
            values = list(parse_report(out).values())
        assert values and all(math.isfinite(value) for value in values), argv
    else:
        assert out == "", argv
        match = re.fullmatch(r"ERROR [\w-]+: (.+)\n", err)
        assert match is not None, (argv, err)
        assert match.group(1).removeprefix(OVERFLOW_PREFIX) not in BARE_MESSAGES, (argv, err)


@pytest.mark.parametrize("message,shown", [
    ("Unable to allocate 745. GiB for an array", "Unable to allocate 745. GiB for an array"),
    ("", "allocation failed"),
], ids=["numpy-message", "bare"])
def test_out_of_memory_is_one_named_error_line(capsys, monkeypatch, message, shown):
    # a huge --points used to end in numpy's bare _ArrayMemoryError traceback, exit 1;
    # the real allocation is never made here, since an overcommitting host pages it in
    def no_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(kerr, "blackhole_scan", no_memory)
    code, out, err = run_cli(capsys, "fig1", "--points", "100000000000")
    assert code == 2 and out == ""
    assert err == f"ERROR memory: these inputs need more memory than is free: {shown}\n"


def test_verify_failure_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(cli.reference, "run_all_checks", lambda: [
        CheckResult(name="broken-check", worst=1.0, bound=0.0, detail="max 1 vs bound 0")])
    code, out, _ = run_cli(capsys, "verify")
    assert code == 3
    assert "FAIL broken-check: max 1 vs bound 0" in out
    assert "verify: 0/1 checks passed" in out
