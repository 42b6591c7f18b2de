"""Command-line interface.

Every run echoes its effective inputs, prints one line per derived
quantity with its ``docs/formulas.md`` anchor in brackets, and
keeps the output byte-deterministic (values at 17 significant digits,
LF line endings).  Exit codes: 0 success, 2 invalid input, guard
violation or float64 overflow, 3 verification failure.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from pathlib import Path

from . import fiber, interference, kerr, reference, turntable
from .constants import CONSTANTS, GravSource
from .errors import GuardViolation, check_at_least, check_positive, check_speed
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
    """Accumulates input echoes, output lines, and warnings for one run."""

    def __init__(self) -> None:
        self._lines: list[str] = []
        self._warnings: list[str] = []
        self._rows: list[tuple[str, float]] = []

    def echo_inputs(self, scenario: Scenario) -> None:
        for key, value in sorted(scenario.effective().items()):
            unit = PARAMETERS[key][1]
            suffix = f" {unit}" if unit else ""
            self._lines.append(f"input {key} = {_fmt(value)}{suffix}")

    def output(self, name: str, value: float, unit: str | None, anchor_name: str) -> None:
        if not math.isfinite(value):
            raise OverflowError(f"{name} = {value!r} is not finite")
        suffix = f" {unit}" if unit else ""
        self._lines.append(
            f"{name} = {_fmt(value)}{suffix} [{anchor_name}] (~{float(value):.4g})")
        self._rows.append((name, float(value)))

    def warn(self, tag: str, message: str) -> None:
        self._warnings.append(f"WARN {tag}: {message}")

    def render(self) -> str:
        return "\n".join(self._lines + self._warnings) + "\n"

    def to_csv(self) -> str:
        rows = [f"{name},{format(value, '.17g')}" for name, value in self._rows]
        return "\n".join(["name,value"] + rows) + "\n"


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", newline="\n") as handle:
        handle.write(text)


def _write_table(stream, header: str, columns: list) -> None:
    """Write equal-length float columns as %.17g CSV rows, _CSV_BLOCK rows per write.

    Columns are numpy arrays or lists.  Each block is sliced to Python floats
    (``tolist`` for arrays), interleaved row-major and formatted by one ``%``
    over a repeated row template, so no whole-table text is ever held.
    """
    stream.write(header + "\n")
    width = len(columns)
    row = ",".join(["%.17g"] * width) + "\n"
    for start in range(0, len(columns[0]), _CSV_BLOCK):
        parts = [col[start:start + _CSV_BLOCK] for col in columns]
        rows = len(parts[0])
        cells = [None] * (width * rows)
        for j, part in enumerate(parts):
            cells[j::width] = part.tolist() if hasattr(part, "tolist") else part
        stream.write(row * rows % tuple(cells))


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

    scipy's ``IntegrationWarning`` is matched without importing scipy, so the
    closed-form commands never load it.  Passed-on warnings are warned again,
    to be shown or filtered as they would have been without the capture.
    """
    integration = getattr(sys.modules.get("scipy.integrate"), "IntegrationWarning", ())
    found: dict[tuple[str, str], None] = {}
    registry: dict = {}
    for item in caught:
        if issubclass(item.category, integration):
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
    omega0 = float(scenario.require("light.omega0"))
    sigma = float(scenario.require("light.sigma"))
    force = args.override_guards

    if source.sub_extremal and source.r_s > 0.0:
        report.output("horizon_radius", kerr.horizon_radius(source), "m",
                      "horizon-radius")
    metric = kerr.metric_components_kerr(point)
    report.output("g_tt", metric.g_tt, None, "metric-kerr")
    report.output("g_tphi", metric.g_tphi, "m", "metric-kerr")
    report.output("g_phiphi", metric.g_phiphi, "m^2", "metric-kerr")

    pair_full = kerr.light_speed_pair(point, mode="full")
    report.output("c_co_full", pair_full.c_co, "c", "light-speed-full")
    report.output("c_counter_full", pair_full.c_counter, "c", "light-speed-full")
    if pair_full.counter_dragged_forward:
        report.warn("frame-drag", "inside the ergosphere: the counter branch "
                                  "is dragged into co-rotation (both signed "
                                  "speeds are positive).")

    if metric.g_tt == 0.0:
        raise GuardViolation(
            f"divergent delay at g_tt = 0 (ergosphere boundary r = {point.r!r} m): "
            "the full-mode delay, phase and detection probability are undefined.")
    delay_full = kerr.kerr_time_delay_full(point, length)
    report.output("delay_full", delay_full, "m", "kerr-delay-full")
    phase_full = kerr.kerr_phase_difference(point, length, omega0, mode="full")
    report.output("phase_full", phase_full, "rad", "kerr-phase-full")

    weak_ok = True
    try:
        pair_weak = kerr.light_speed_pair(point, mode="weak", force=force)
    except GuardViolation as exc:
        weak_ok = False
        report.warn("weak-field-guard", f"{exc} Weak-expansion outputs are "
                                        "omitted (pass --override-guards to force).")
    if weak_ok:
        report.output("c_co_weak", pair_weak.c_co, "c", "light-speed-weak")
        report.output("c_counter_weak", pair_weak.c_counter, "c", "light-speed-weak")
        delay_weak = kerr.kerr_time_delay(point, length)
        report.output("delay_weak", delay_weak, "m", "kerr-delay-weak")
        phase_weak = kerr.kerr_phase_difference(point, length, omega0,
                                                mode="weak", force=force)
        report.output("phase_weak", phase_weak, "rad", "kerr-phase-weak")
        report.output("phase_weak_mod_2pi", math.fmod(phase_weak, 2.0 * math.pi),
                      "rad", "kerr-phase-weak")
        report.output("roundtrip_mean_speed",
                      kerr.roundtrip_mean_speed(point, force=force), "c",
                      "roundtrip-mean-speed")
        report.output("local_two_way_speed",
                      kerr.local_two_way_speed(point, force=force), "c",
                      "local-two-way-speed")

    delay_for_vis = delay_weak if weak_ok else delay_full
    report.output("visibility", interference.gaussian_visibility(delay_for_vis, sigma),
                  None, "gaussian-visibility")
    phase_for_prob = phase_weak if weak_ok else phase_full
    _guard_phase_resolution(phase_for_prob)
    report.output("photon_prob_mono", interference.single_photon_prob(phase_for_prob),
                  None, "single-photon-prob")
    report.output("photon_prob_gaussian",
                  interference.single_photon_prob_gaussian(
                      phase_for_prob, omega0, sigma, force=force),
                  None, "single-photon-gaussian")

    _warn_earth_radius(report, source, point.r)
    return report


def cmd_equivalence(scenario: Scenario, args: argparse.Namespace) -> RunReport:
    report = RunReport()
    report.echo_inputs(scenario)
    source = scenario.source()
    r = float(scenario.require("point.r"))

    if args.method == "metric":
        # the matching happens at the field point itself, so the
        # turntable radius is r
        r_t = r
        result = turntable.equivalence_velocity_metric(source, r)
        report.output("v_equiv", result.v, "c", "equivalence-metric")
        report.output("v_equiv_approx", result.v_approx, "c", "equivalence-metric-approx")
    else:
        r_t = float(scenario.require("turntable.radius"))
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
    sigma = float(scenario.require("light.sigma"))
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
    loop_length = float(scenario.require("arms.length"))
    report.output("coherence_length",
                  fiber.coherence_length_required(loop_length, table.omega_rot, radius),
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
    bins = int(scenario.require("interference.bins"))
    delta_t = scenario.get("interference.delta_t")
    delta_t = float(delta_t) if delta_t is not None else 1.0 / packet.sigma
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
    omega0 = float(scenario.require("light.omega0"))
    sigma = float(scenario.require("light.sigma"))
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


def _run_fig1(scenario: Scenario) -> tuple[str, list, list[str]]:
    import numpy as np

    source = scenario.source()
    omega0 = float(scenario.require("light.omega0"))
    sigma = float(scenario.require("light.sigma"))
    scan = kerr.blackhole_scan(
        source, omega0, sigma,
        r_max=float(scenario.require("scan.r_max")),
        n_points=int(scenario.require("scan.points")))
    bad = ~np.isfinite(scan.phase_rad)  # a nan delay makes the visibility nan too
    if bad.any():
        r = float(scan.r_over_rs[bad][0])
        raise OverflowError(f"phase_rad = {float(scan.phase_rad[bad][0])!r} is not finite "
                            f"at r/r_s = {r!r}")
    warns = []
    probe = kerr.KerrPoint(source=source, r=100.0 * source.r_s)
    delay = kerr.kerr_time_delay_full(probe, 2.0 * math.pi * probe.r)
    vis_probe = interference.gaussian_visibility(delay, sigma)
    if vis_probe < 0.99:
        sigma_needed = math.sqrt(-math.log(0.99)) / delay
        warns.append(
            "WARN target-value-unreproduced: quoted visibility >= 0.99 at "
            f"r/r_s = 100 is not reproduced: these inputs give {vis_probe:.4g} "
            f"(would need sigma <= {sigma_needed:.4g} rad/m).")
    return ("r_over_rs,phase_rad,visibility",
            [scan.r_over_rs, scan.phase_rad, scan.visibility], warns)


def _run_fig3(scenario: Scenario) -> tuple[str, list, list[str]]:
    sigma = float(scenario.require("light.sigma"))
    radius = float(scenario.require("turntable.radius"))
    length = float(scenario.require("arms.length"))
    omega_max = float(scenario.require("sweep.omega_max"))
    points = int(scenario.require("sweep.points"))
    check_at_least(points, 2, "sweep.points")
    check_positive(radius, "turntable.radius")
    check_positive(length, "arms.length")
    check_speed(abs(omega_max) * radius / _C,  # the fastest rim of the sweep
                "|sweep.omega_max| * turntable.radius / c")
    if not math.isfinite(omega_max * (points - 1)):  # the largest product the rows form
        raise OverflowError(f"sweep.omega_max * (sweep.points - 1) overflows: {omega_max!r}")
    omegas, probs = [], []
    for i in range(points):
        omega_rot = omega_max * i / (points - 1) + 0.0  # -0.0 -> 0.0 on the first row
        delta_t = turntable.fiber_loop_delay(omega_rot * radius / _C, length)
        omegas.append(omega_rot)
        probs.append(interference.hom_coincidence_gaussian(sigma, delta_t))
    return "omega_rad_s,coincidence_probability", [omegas, probs], []


def _run_verify() -> tuple[str, bool]:
    lines = []
    results = reference.run_all_checks()
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        lines.append(f"{status} {res.name}: {res.detail}")
    for target in reference.unreproduced_targets():
        lines.append(
            f"WARN target-value-unreproduced: {target.name}: quoted "
            f"{target.quoted}, formula gives {format(target.computed, '.17g')} "
            f"{target.unit} ({target.context}).")
    passed = sum(1 for res in results if res.passed)
    lines.append(f"verify: {passed}/{len(results)} checks passed")
    return "\n".join(lines) + "\n", passed == len(results)


# command -> (defaults, runner, {parsed flag: scenario key})
_FIGURES = {
    "fig1": (BLACK_HOLE_DEFAULTS, _run_fig1,
             {"r_max": "scan.r_max", "points": "scan.points"}),
    "fig3": (FIBER_LOOP_DEFAULTS, _run_fig3,
             {"omega_max": "sweep.omega_max", "points": "sweep.points"}),
}

_COMMANDS = {
    "kerr": (EARTH_SURFACE_DEFAULTS, cmd_kerr),
    "equivalence": (EQUIVALENCE_DEFAULTS, cmd_equivalence),
    "feasibility": (FEASIBILITY_DEFAULTS, cmd_feasibility),
    "hom": (HOM_DEFAULTS, cmd_hom),
    "fiber": (FIBER_LOOP_DEFAULTS, cmd_fiber),
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, metavar="PATH",
                        help="flat key=value parameter file ('#' comments)")
    common.add_argument("--csv", type=Path, metavar="PATH",
                        help="also write the results as CSV to this path")
    common.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="override one parameter (repeatable; wins over --config)")
    common.add_argument("--override-guards", action="store_true",
                        help="force guarded approximations outside their domain")

    parser = argparse.ArgumentParser(
        prog="framedrag",
        description="Frame-dragging optics: split light speeds, turntable "
                    "analogues, and photon interference.")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("kerr", parents=[common],
                   help="light speeds, delays, phases near a rotating mass")
    fig1 = sub.add_parser("fig1", parents=[common],
                          help="visibility scan outside a rotating compact source (CSV)")
    fig1.add_argument("--r-max", type=float, dest="r_max",
                      help="outer radius of the scan in units of r_s")
    fig1.add_argument("--points", type=int, help="number of scan points")
    fig3 = sub.add_parser("fig3", parents=[common],
                          help="coincidence probability vs rotation rate (CSV)")
    fig3.add_argument("--omega-max", type=float, dest="omega_max",
                      help="largest rotation rate in rad/s")
    fig3.add_argument("--points", type=int, help="number of sweep points")
    equiv = sub.add_parser("equivalence", parents=[common],
                           help="turntable velocity equivalent to a rotating mass")
    equiv.add_argument("--method", choices=("metric", "timeshift"),
                       default="metric")
    sub.add_parser("feasibility", parents=[common],
                   help="minimum speeds, windings, g-forces, coherence lengths")
    hom = sub.add_parser("hom", parents=[common],
                         help="single-photon and two-photon interference for a delay")
    hom.add_argument("--spectrum", type=Path, metavar="PATH",
                     help="two-column omega,density file replacing the Gaussian")
    sub.add_parser("fiber", parents=[common],
                   help="moving dispersive fiber loop: velocities, phases, dip shifts")
    sub.add_parser("verify", parents=[common],
                   help="run the built-in cross-validation suite")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        if args.command == "verify":
            text, ok = _run_verify()
            sys.stdout.write(text)
            if args.csv is not None:
                _write_text(args.csv, text)
            return 0 if ok else 3

        config = load_config(args.config) if args.config is not None else {}
        overrides = dict(parse_override(item) for item in args.overrides)
        if args.command in _FIGURES:
            defaults, runner, flags = _FIGURES[args.command]
            for flag, key in flags.items():
                if getattr(args, flag) is not None:
                    overrides[key] = getattr(args, flag)
            scenario = Scenario.assemble(defaults, config, overrides)
            header, columns, warns = runner(scenario)  # validates before any file opens
            for line in warns:
                sys.stderr.write(line + "\n")
            if args.csv is None:
                _write_table(sys.stdout, header, columns)
            else:
                with open(args.csv, "w", newline="\n") as handle:
                    _write_table(handle, header, columns)
            return 0

        defaults, runner = _COMMANDS[args.command]
        scenario = Scenario.assemble(defaults, config, overrides)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = runner(scenario, args)
        _report_warnings(report, caught)
        sys.stdout.write(report.render())
        if args.csv is not None:
            _write_text(args.csv, report.to_csv())
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


if __name__ == "__main__":
    sys.exit(main())
