"""Command-line interface.

Every run echoes its effective inputs, prints one line per derived
quantity with its ``docs/formulas.md`` anchor in brackets, and
keeps the output byte-deterministic (values at 17 significant digits,
LF line endings).  Exit codes: 0 success, 2 invalid input, guard
violation or float64 overflow, 3 verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
import warnings
from collections.abc import Callable

from . import fiber, interference, kerr, reference, turntable
from ._quadrature import unconverged
from .constants import CONSTANTS, GravSource
from .errors import GuardViolation, check_positive, check_speed
from .interference import SpectrumNormalizationWarning
from .scenario import (
    BLACK_HOLE_DEFAULTS,
    EARTH_SURFACE_DEFAULTS,
    EQUIVALENCE_DEFAULTS,
    FEASIBILITY_DEFAULTS,
    FIBER_LOOP_DEFAULTS,
    HOM_DEFAULTS,
    PARAMETERS,
    Scenario,
    load_config,
    parse_override,
)

_C = CONSTANTS.c
_CSV_BLOCK = 4096  # rows rendered per write by _write_table

def _fmt(value) -> str:
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".17g")


def _near(value: float, target: float, rel: float = 0.01) -> bool:
    return abs(value - target) <= rel * abs(target)


class RunReport:
    """Accumulates input echoes, output lines, and warnings for one run.

    A figure sets ``table`` to ``(header, rows, block)``, where
    ``block(start, stop)`` returns the columns of rows [start, stop).  ``write``
    then streams that table instead of the text report, with the warnings on
    stderr, so the rows are computed during the write, one block at a time.
    """

    def __init__(self) -> None:
        self.lines: list[str] = []
        self._warnings: list[str] = []
        self._rows: list[tuple[str, float]] = []
        self.table: tuple[str, int, Callable[[int, int], list]] | None = None

    def echo_inputs(self, scenario: Scenario) -> None:
        for key, value in sorted(scenario.values.items()):
            unit = PARAMETERS[key][1]
            suffix = f" {unit}" if unit else ""
            self.lines.append(f"input {key} = {_fmt(value)}{suffix}")

    def output(self, name: str, value: float, unit: str | None, anchor_name: str) -> None:
        if not math.isfinite(value):
            raise OverflowError(f"{name} = {value!r} is not finite")
        suffix = f" {unit}" if unit else ""
        self.lines.append(
            f"{name} = {_fmt(value)}{suffix} [{anchor_name}] (~{float(value):.4g})")
        self._rows.append((name, float(value)))

    def warn(self, tag: str, message: str) -> None:
        self._warnings.append(f"WARN {tag}: {message}")

    def render(self) -> str:
        return "\n".join(self.lines + self._warnings) + "\n"

    def to_csv(self) -> str:
        rows = [f"{name},{format(value, '.17g')}" for name, value in self._rows]
        return "\n".join(["name,value"] + rows) + "\n"

    def write(self, csv: str | None) -> None:
        """Text report to stdout and its CSV to ``csv``; or the table to ``csv`` or stdout.

        ``csv`` is opened before the first byte goes out, so a path that cannot
        be opened leaves stdout empty.
        """
        with _open_csv(csv) as handle:
            if self.table is None:
                sys.stdout.write(self.render())
                if handle is not None:
                    handle.write(self.to_csv())
                return
            for line in self._warnings:
                sys.stderr.write(line + "\n")
            _write_table(sys.stdout if handle is None else handle, *self.table)


def _open_csv(path: str | None):
    """``path`` opened for LF-terminated writing, or a null context for no path."""
    if path is None:
        return contextlib.nullcontext()
    return open(path, "w", newline="\n")


def _write_table(stream, header: str, rows: int,
                 block: Callable[[int, int], list]) -> None:
    """Write ``rows`` rows of float columns as %.17g CSV, _CSV_BLOCK rows per write.

    ``block(start, stop)`` returns the equal-length columns (numpy arrays or
    lists) of rows [start, stop); it is called once per block, so a figure
    whose rows are computed there never holds more than one block of them.
    Each block is turned into Python floats (``tolist`` for arrays),
    interleaved row-major and formatted by one ``%`` over a repeated row
    template, so no whole-table text is ever held either.
    """
    stream.write(header + "\n")
    width = header.count(",") + 1
    row = ",".join(["%.17g"] * width) + "\n"
    for start in range(0, rows, _CSV_BLOCK):
        stop = min(start + _CSV_BLOCK, rows)
        cells = [None] * (width * (stop - start))
        for j, part in enumerate(block(start, stop)):
            cells[j::width] = part.tolist() if hasattr(part, "tolist") else part
        stream.write(row * (stop - start) % tuple(cells))


def _guard_phase_resolution(phase: float) -> None:
    """Stop when one float64 step of ``phase`` is >= 1 rad: sin(phase) is noise."""
    if abs(phase) * sys.float_info.epsilon >= 1.0:
        raise GuardViolation(
            f"phase {phase!r} rad has a float64 spacing of {math.ulp(phase)!r} "
            "rad: sin(phase) and the detection probabilities have no correct digit.")


def _warn_earth_radius(report: RunReport, source: GravSource, r: float) -> None:
    if _near(source.r_s, 0.009) and _near(source.a, 3.9) and (
            _near(r, 6.37e6) or _near(r, 6.37e7)):
        report.warn(
            "earth-radius-convention",
            "r_s = 0.009 m with a = 3.9 m is quoted against both r = 6.37e6 m "
            "and r = 6.37e7 m; the headline splitting figures assume "
            "r = 6.37e7 m. Outputs above use the echoed inputs verbatim.")


def _report_dip(report: RunReport, arms: fiber.FiberArms, omega_rot: float,
                radius: float) -> None:
    """The three dip-shift lines, and the quoted 3e-11 s target for its stock inputs."""
    dip = fiber.hom_dip_shift(arms)
    report.output("dip_delta_t_total", dip.delta_t_total, "m", "dip-shift-total")
    report.output("dip_center_shift", dip.center_shift, "m", "dip-center-shift")
    report.output("dip_center_shift_approx", dip.center_shift_approx, "m",
                  "dip-center-shift-approx")
    if (_near(omega_rot, 2.0 * math.pi) and _near(radius, 0.2)
            and _near(arms.delta_length, 0.01)):
        report.warn(
            "target-value-unreproduced",
            "quoted residual dip-center timescale 3e-11 s; the shift formula "
            f"gives {format(dip.center_shift / _C, '.17g')} s "
            f"({format(dip.center_shift, '.17g')} m) for these inputs.")


def _report_warnings(report: RunReport, caught: list) -> None:
    """One WARN line per distinct quadrature or spectrum warning; other categories passed on.

    ``_quadrature.unconverged`` matches the quadrature's warning without
    importing scipy, so the closed-form commands never load it.  Passed-on
    warnings are warned again, to be shown or filtered as they would have
    been without the capture.
    """
    found: dict[tuple[str, str], None] = {}
    registry: dict = {}
    for item in caught:
        if unconverged(item.category):
            first = " ".join(str(item.message).split()).split(". ")[0].rstrip(".")
            found[("quadrature-unconverged",
                   f"{first}; a quadrature value above may be inaccurate.")] = None
        elif issubclass(item.category, SpectrumNormalizationWarning):
            found[("spectrum-renormalized", str(item.message))] = None
        else:
            warnings.warn_explicit(item.message, item.category, item.filename,
                                   item.lineno, registry=registry)
    for tag, message in found:
        report.warn(tag, message)


# --- commands ---------------------------------------------------------------

def cmd_kerr(scenario: Scenario, args: argparse.Namespace) -> RunReport:
    report = RunReport()
    report.echo_inputs(scenario)
    point = scenario.point()
    source = point.source
    length = scenario.path_length()
    omega0 = scenario.require("light.omega0")
    sigma = scenario.require("light.sigma")
    force = args.override_guards

    if source.sub_extremal and source.r_s > 0.0:
        report.output("horizon_radius", kerr.horizon_radius(source), "m",
                      "horizon-radius")
    metric = kerr.metric_components_kerr(point)
    report.output("g_tt", metric.g_tt, None, "metric-kerr")
    report.output("g_tphi", metric.g_tphi, "m", "metric-kerr")
    report.output("g_phiphi", metric.g_phiphi, "m^2", "metric-kerr")

    c_co_full = kerr.light_speed_full(point, "co")
    c_counter_full = kerr.light_speed_full(point, "counter")
    report.output("c_co_full", c_co_full, "c", "light-speed-full")
    report.output("c_counter_full", abs(c_counter_full), "c", "light-speed-full")
    if c_counter_full > 0.0:
        report.warn("frame-drag", "inside the ergosphere: the counter branch "
                                  "is dragged into co-rotation (both signed "
                                  "speeds are positive).")

    if metric.g_tt == 0.0:
        raise GuardViolation(
            f"divergent delay at g_tt = 0 (ergosphere boundary r = {point.r!r} m): "
            "the full-mode delay, phase and detection probability are undefined.")
    delay_full = kerr.kerr_time_delay_full(point, length)
    report.output("delay_full", delay_full, "m", "kerr-delay-full")
    phase_full = omega0 * delay_full
    report.output("phase_full", phase_full, "rad", "kerr-phase-full")

    try:
        c_co_weak = kerr.light_speed_weak(point, "co", force=force)
        c_counter_weak = kerr.light_speed_weak(point, "counter", force=force)
    except GuardViolation as exc:
        report.warn("weak-field-guard", f"{exc} Weak-expansion outputs are "
                                        "omitted (pass --override-guards to force).")
        delay, phase = delay_full, phase_full
    else:
        report.output("c_co_weak", c_co_weak, "c", "light-speed-weak")
        report.output("c_counter_weak", abs(c_counter_weak), "c", "light-speed-weak")
        delay = kerr.kerr_time_delay(point, length)
        report.output("delay_weak", delay, "m", "kerr-delay-weak")
        phase = kerr.kerr_phase_difference(point, length, omega0, force=force)
        report.output("phase_weak", phase, "rad", "kerr-phase-weak")
        report.output("phase_weak_mod_2pi", math.fmod(phase, 2.0 * math.pi),
                      "rad", "kerr-phase-weak")
        report.output("roundtrip_mean_speed",
                      kerr.roundtrip_mean_speed(point, force=force), "c",
                      "roundtrip-mean-speed")
        report.output("local_two_way_speed",
                      kerr.local_two_way_speed(point, force=force), "c",
                      "local-two-way-speed")

    report.output("visibility", interference.gaussian_visibility(delay, sigma),
                  None, "gaussian-visibility")
    _guard_phase_resolution(phase)
    report.output("photon_prob_mono", interference.single_photon_prob(phase),
                  None, "single-photon-prob")
    report.output("photon_prob_gaussian",
                  interference.single_photon_prob_gaussian(phase, omega0, sigma, force=force),
                  None, "single-photon-gaussian")

    _warn_earth_radius(report, source, point.r)
    return report


def cmd_equivalence(scenario: Scenario, args: argparse.Namespace) -> RunReport:
    report = RunReport()
    report.echo_inputs(scenario)
    source = scenario.source()
    r = scenario.require("point.r")

    if args.method == "metric":
        # the matching happens at the field point itself, so the
        # turntable radius is r
        r_t = r
        result = turntable.equivalence_velocity_metric(source, r)
        report.output("v_equiv", result.v, "c", "equivalence-metric")
        report.output("v_equiv_approx", result.v_approx, "c", "equivalence-metric-approx")
    else:
        r_t = scenario.require("turntable.radius")
        result = turntable.equivalence_velocity_timeshift(source, r, r_t)
        report.output("v_equiv", result.v, "c", "equivalence-timeshift")
        metric_time = turntable.equivalence_velocity_timeshift(
            source, r, r_t, metric_time=True)
        report.output("v_equiv_metric_time", metric_time.v, "c",
                      "equivalence-timeshift")
        report.output("kerr_roundtrip_shift",
                      turntable.kerr_roundtrip_shift(source, r), "m",
                      "kerr-roundtrip-shift")
        report.output("turntable_roundtrip_shift",
                      turntable.turntable_roundtrip_shift(result.v, r_t), "m",
                      "turntable-roundtrip-shift")
    report.output("v_equiv_leading", result.v_leading, "c", "equivalence-leading")
    report.output("v_equiv_si", result.v * _C, "m/s", "equivalence-leading")
    report.output("omega_equiv", result.v * _C / r_t, "rad/s", "angular-frequency")
    report.output("g_force", turntable.g_force(result.v, r_t), "g0", "g-force")

    if _near(source.r_s, 0.009) and _near(source.a, 3.9) and _near(r, 100.0):
        report.warn(
            "target-value-unreproduced",
            "quoted equivalence velocity 110 m/s for r_s = 0.009 m, a = 3.9 m, "
            f"r = 100 m; the matching formula gives {format(result.v * _C, '.17g')} m/s.")
    _warn_earth_radius(report, source, r)
    return report


def cmd_feasibility(scenario: Scenario, args: argparse.Namespace) -> RunReport:
    report = RunReport()
    report.echo_inputs(scenario)
    sigma = scenario.require("light.sigma")
    table = scenario.turntable()
    radius = table.r_t

    v_min, v_min_leading = turntable.min_velocity_for_visibility(
        radius, sigma, table.windings)
    report.output("v_min", v_min, "c", "min-velocity")
    report.output("v_min_si", v_min * _C, "m/s", "min-velocity")
    report.output("v_min_leading", v_min_leading, "c", "min-velocity-leading")
    report.output("omega_min", v_min * _C / radius, "rad/s", "angular-frequency")
    report.output("g_force_min", turntable.g_force(v_min, radius), "g0", "g-force")

    v_short, _ = turntable.min_velocity_for_visibility(radius, 10.0 * sigma,
                                                       table.windings)
    report.output("v_min_short_pulse", v_short * _C, "m/s", "min-velocity")
    report.output("g_force_short_pulse", turntable.g_force(v_short, radius), "g0",
                  "g-force")

    needed = turntable.windings_for_visibility_loss(radius, sigma, table.v)
    report.output("windings_needed", needed, None, "windings-needed")
    report.output("winding_arm_length",
                  turntable.winding_arm_length(radius, table.v, needed), "m",
                  "winding-arm-length")
    report.output("winding_hom_exponent",
                  turntable.winding_hom_exponent(sigma, table.v, radius, needed),
                  None, "winding-hom-exponent")

    arms = scenario.fiber_arms()
    report.output("coherence_length",
                  fiber.coherence_length_required(arms.length, table.omega_rot, radius),
                  "m", "coherence-length")
    _report_dip(report, arms, table.omega_rot, radius)
    return report


def cmd_hom(scenario: Scenario, args: argparse.Namespace) -> RunReport:
    report = RunReport()
    report.echo_inputs(scenario)
    if args.spectrum is not None:
        packet = interference.load_spectrum(args.spectrum)
        report.output("spectrum_omega0", packet.omega0, "rad/m", "single-photon-prob")
        report.output("spectrum_sigma", packet.sigma, "rad/m", "gaussian-visibility")
    else:
        packet = scenario.wavepacket()
    bins = scenario.require("interference.bins")
    delta_t = scenario.get("interference.delta_t", 1.0 / packet.sigma)
    force = args.override_guards

    report.output("delta_t", delta_t, "m", "hom-delay-fiber-loop")
    delta_phi = packet.omega0 * delta_t
    _guard_phase_resolution(delta_phi)
    report.output("delta_phi", delta_phi, "rad", "single-photon-prob")
    report.output("photon_prob_mono", interference.single_photon_prob(delta_phi),
                  None, "single-photon-prob")
    report.output("photon_prob_gaussian",
                  interference.single_photon_prob_gaussian(
                      delta_phi, packet.omega0, packet.sigma, force=force),
                  None, "single-photon-gaussian")
    report.output("photon_prob_quadrature",
                  interference.single_photon_prob_quadrature(delta_phi, packet),
                  None, "single-photon-quadrature")
    report.output("visibility", interference.gaussian_visibility(delta_t, packet.sigma),
                  None, "gaussian-visibility")
    report.output("hom_prob_gaussian",
                  interference.hom_coincidence_gaussian(packet.sigma, delta_t),
                  None, "hom-coincidence-gaussian")
    general = interference.hom_coincidence_general(packet, delta_t)
    report.output("hom_prob_general", general, None, "hom-coincidence-general")
    report.output("hom_prob_fock",
                  interference.fock_oracle_hom(packet, delta_t, bins=bins),
                  None, "hom-fock-oracle")
    p_zero = interference.hom_coincidence_general(packet, 0.0)
    report.output("hom_visibility", interference.hom_visibility(p_zero, 0.5),
                  None, "hom-visibility")
    return report


def cmd_fiber(scenario: Scenario, args: argparse.Namespace) -> RunReport:
    report = RunReport()
    report.echo_inputs(scenario)
    model = scenario.refractive_model()
    arms = scenario.fiber_arms()
    table = scenario.turntable()
    omega0 = scenario.require("light.omega0")
    sigma = scenario.require("light.sigma")
    k0, v = model.k0, arms.v

    report.output("n", model.n(k0), None, "refractive-index")
    report.output("n_prime", model.n_prime(k0), "m", "refractive-index-slope")
    report.output("n_double_prime", model.n_double_prime(k0), "m^2",
                  "refractive-index-curvature")
    n0 = model.n(k0)
    for direction, tag in (("co", "co"), ("counter", "counter")):
        report.output(f"phase_velocity_{tag}",
                      fiber.phase_velocity_moving(n0, v, direction), "c",
                      "phase-velocity-composition")
        report.output(f"lab_velocity_{tag}",
                      fiber.effective_lab_velocity(n0, v, direction), "c",
                      "effective-lab-velocity")
        report.output(f"group_velocity_{tag}",
                      fiber.group_velocity_moving(model, k0, v, direction), "c",
                      "group-velocity-moving")
        report.output(f"gvd_{tag}", fiber.gvd_moving(model, k0, v, direction), "m",
                      "gvd-moving")
    coeffs = fiber.dispersion_coefficients(model, k0, v)
    report.output("alpha_co", coeffs.alpha_plus, None, "inverse-group-velocity")
    report.output("alpha_counter", coeffs.alpha_minus, None, "inverse-group-velocity")
    report.output("beta_co", coeffs.beta_plus, "m", "beta-coefficient")
    report.output("beta_counter", coeffs.beta_minus, "m", "beta-coefficient")
    report.output("delta_alpha", coeffs.delta_alpha, None, "delta-alpha")
    report.output("beta_sum", coeffs.beta_sum, "m", "beta-sum")

    report.output("sagnac_phase", turntable.sagnac_phase(omega0, arms.length, v),
                  "rad", "sagnac-phase")
    report.output("fiber_phase_difference",
                  fiber.fiber_phase_difference(arms, omega0), "rad",
                  "fiber-phase-difference")
    group_phase, correction = fiber.corrected_group_phase(omega0, v, arms.length, model)
    report.output("corrected_group_phase", group_phase, "rad",
                  "corrected-group-phase")
    report.output("group_phase_correction", correction, "rad",
                  "group-phase-correction")

    _report_dip(report, arms, table.omega_rot, table.r_t)
    report.output("downconverted_closed",
                  fiber.downconverted_coincidence_closed(
                      sigma, coeffs.delta_alpha, arms.length),
                  None, "downconverted-closed")
    report.output("downconverted_quadrature",
                  fiber.downconverted_coincidence(sigma, coeffs, arms.length),
                  None, "downconverted-quadrature")
    report.output("coherence_length",
                  fiber.coherence_length_required(arms.length, table.omega_rot, table.r_t),
                  "m", "coherence-length")
    return report


def cmd_fig1(scenario: Scenario, args: argparse.Namespace) -> RunReport:
    import numpy as np

    report = RunReport()
    source = scenario.source()
    check_positive(source.r_s, "source.rs")  # the scan's unit of radius
    omega0 = scenario.require("light.omega0")
    sigma = scenario.require("light.sigma")
    r_max = scenario.require("scan.r_max")
    points = scenario.require("scan.points")
    scan = kerr.blackhole_scan(source, omega0, sigma, r_max=r_max, n_points=points)
    bad = ~np.isfinite(scan.phase_rad)  # a nan delay makes the visibility nan too
    if bad.any():
        r = float(scan.r_over_rs[bad][0])
        raise OverflowError(f"phase_rad = {float(scan.phase_rad[bad][0])!r} is not finite "
                            f"at r/r_s = {r!r}")
    probe = kerr.KerrPoint(source=source, r=100.0 * source.r_s)
    delay = kerr.kerr_time_delay_full(probe, 2.0 * math.pi * probe.r)
    vis_probe = interference.gaussian_visibility(delay, sigma)
    if vis_probe < 0.99:
        sigma_needed = math.sqrt(-math.log(0.99)) / delay
        report.warn(
            "target-value-unreproduced", "quoted visibility >= 0.99 at "
            f"r/r_s = 100 is not reproduced: these inputs give {vis_probe:.4g} "
            f"(would need sigma <= {sigma_needed:.4g} rad/m).")
    columns = (scan.r_over_rs, scan.phase_rad, scan.visibility)
    report.table = ("r_over_rs,phase_rad,visibility", len(scan.r_over_rs),
                    lambda start, stop: [column[start:stop] for column in columns])
    return report


def cmd_fig3(scenario: Scenario, args: argparse.Namespace) -> RunReport:
    report = RunReport()
    sigma = scenario.require("light.sigma")
    radius = scenario.require("turntable.radius")
    length = scenario.require("arms.length")
    omega_max = scenario.require("sweep.omega_max")
    points = scenario.require("sweep.points")
    if not math.isfinite(omega_max * (points - 1)):  # the largest product the rows form
        raise OverflowError(f"sweep.omega_max * (sweep.points - 1) overflows: {omega_max!r}")
    # the fastest rim the rows form: the last row's rate, which can round one
    # ulp past omega_max and so reach v = 1 where omega_max itself does not
    omega_last = omega_max * (points - 1) / (points - 1)
    check_speed(abs(omega_last) * radius / _C, "|sweep.omega_max| * turntable.radius / c")
    check_positive(sigma, "light.sigma")
    # past these checks a row can neither raise nor warn: an infinite delay
    # gives 0.5, and hom_coincidence_gaussian catches the (sigma dt)^2 overflow

    def block(start: int, stop: int) -> list:
        omegas = [omega_max * i / (points - 1) + 0.0  # -0.0 -> 0.0 on the first row
                  for i in range(start, stop)]
        return [omegas, [interference.hom_coincidence_gaussian(
            sigma, turntable.fiber_loop_delay(omega_rot * radius / _C, length))
            for omega_rot in omegas]]

    report.table = ("omega_rad_s,coincidence_probability", points, block)
    return report


def _run_verify() -> tuple[str, bool]:
    """The verify text (one PASS/FAIL line per check, WARN lines, summary) and its verdict."""
    report = RunReport()
    results = reference.run_all_checks()
    report.lines = [f"{'PASS' if res.passed else 'FAIL'} {res.name}: {res.detail}"
                    for res in results]
    for target in reference.unreproduced_targets():
        report.warn("target-value-unreproduced",
                    f"{target.name}: quoted {target.quoted}, formula gives "
                    f"{format(target.computed, '.17g')} {target.unit} ({target.context}).")
    passed = sum(res.passed for res in results)
    summary = f"verify: {passed}/{len(results)} checks passed\n"
    return report.render() + summary, passed == len(results)


# scenario command -> (defaults, runner)
_COMMANDS = {
    "kerr": (EARTH_SURFACE_DEFAULTS, cmd_kerr),
    "equivalence": (EQUIVALENCE_DEFAULTS, cmd_equivalence),
    "feasibility": (FEASIBILITY_DEFAULTS, cmd_feasibility),
    "hom": (HOM_DEFAULTS, cmd_hom),
    "fiber": (FIBER_LOOP_DEFAULTS, cmd_fiber),
    "fig1": (BLACK_HOLE_DEFAULTS, cmd_fig1),
    "fig3": (FIBER_LOOP_DEFAULTS, cmd_fig3),
}


def build_parser() -> argparse.ArgumentParser:
    """Each command takes only the options it reads.

    A shorthand flag's ``dest`` is the scenario key it sets (``--points`` ->
    ``scan.points``), so ``main`` folds it into the overrides by name.
    """
    csv = argparse.ArgumentParser(add_help=False)
    csv.add_argument("--csv", type=str, metavar="PATH",
                     help="also write the results as CSV to this path")
    common = argparse.ArgumentParser(add_help=False, parents=[csv])
    common.add_argument("--config", type=str, metavar="PATH",
                        help="flat key=value parameter file ('#' comments)")
    common.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="override one parameter (repeatable; wins over --config)")
    guarded = argparse.ArgumentParser(add_help=False, parents=[common])
    guarded.add_argument("--override-guards", action="store_true",
                         help="force guarded approximations outside their domain")

    parser = argparse.ArgumentParser(
        prog="framedrag",
        description="Frame-dragging optics: split light speeds, turntable "
                    "analogues, and photon interference.")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("kerr", parents=[guarded],
                   help="light speeds, delays, phases near a rotating mass")
    fig1 = sub.add_parser("fig1", parents=[common],
                          help="visibility scan outside a rotating compact source (CSV)")
    fig1.add_argument("--r-max", type=float, dest="scan.r_max", metavar="R_MAX",
                      help="outer radius of the scan in units of r_s")
    fig1.add_argument("--points", type=int, dest="scan.points", metavar="POINTS",
                      help="number of scan points")
    fig3 = sub.add_parser("fig3", parents=[common],
                          help="coincidence probability vs rotation rate (CSV)")
    fig3.add_argument("--omega-max", type=float, dest="sweep.omega_max",
                      metavar="OMEGA_MAX", help="largest rotation rate in rad/s")
    fig3.add_argument("--points", type=int, dest="sweep.points", metavar="POINTS",
                      help="number of sweep points")
    equiv = sub.add_parser("equivalence", parents=[common],
                           help="turntable velocity equivalent to a rotating mass")
    equiv.add_argument("--method", choices=("metric", "timeshift"),
                       default="metric")
    sub.add_parser("feasibility", parents=[common],
                   help="minimum speeds, windings, g-forces, coherence lengths")
    hom = sub.add_parser("hom", parents=[guarded],
                         help="single-photon and two-photon interference for a delay")
    hom.add_argument("--spectrum", type=str, metavar="PATH",
                     help="file of two whitespace-separated columns, omega and density, "
                          "replacing the Gaussian")
    sub.add_parser("fiber", parents=[common],
                   help="moving dispersive fiber loop: velocities, phases, dip shifts")
    sub.add_parser("verify", parents=[csv],
                   help="run the built-in cross-validation suite")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        if args.command == "verify":
            text, ok = _run_verify()
            with _open_csv(args.csv) as handle:  # before stdout: a bad path prints nothing
                sys.stdout.write(text)
                if handle is not None:
                    handle.write(text)
            return 0 if ok else 3

        config = load_config(args.config) if args.config is not None else {}
        overrides = dict(parse_override(item) for item in args.overrides)
        overrides.update((key, value) for key, value in vars(args).items()
                         if "." in key and value is not None)  # shorthand flags win
        defaults, runner = _COMMANDS[args.command]
        scenario = Scenario.assemble(defaults, config, overrides)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            # validates everything before any output; a figure's rows are
            # computed during report.write, outside this block, and cannot warn
            report = runner(scenario, args)
        _report_warnings(report, caught)
        report.write(args.csv)
        return 0
    except GuardViolation as exc:
        sys.stderr.write(f"ERROR guard: {exc}\n")
        return 2
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"ERROR validation: {exc}\n")
        return 2
    except ArithmeticError as exc:
        sys.stderr.write(f"ERROR overflow: these inputs leave the float64 range: {exc}\n")
        return 2
    except MemoryError as exc:
        sys.stderr.write(f"ERROR memory: these inputs need more memory than is free: "
                         f"{str(exc) or 'allocation failed'}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
