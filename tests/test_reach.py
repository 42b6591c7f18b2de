"""Every library function a command enters is also entered by ``verify``, or is listed.

A ``sys.setprofile`` probe records the functions and methods of the library
modules in ``MODULES`` that Python enters while ``cli.main`` runs: once over
every input of ``golden_cli.json`` but ``verify`` (each command at its
defaults and at the recorded pool inputs), and once for ``verify``.  A function
the commands enter and ``verify`` does not is one that no ``verify`` check
exercises.  ``UNREACHED`` lists those; it may only shrink, so a function that
joins it fails, and so does a listed one that ``verify`` now enters.  Lambdas
and comprehensions count as part of the function that defines them.

Entering a function is necessary for a check to cover it, not sufficient:
the check still needs a route independent of the function it checks.
"""

import json
import sys
from pathlib import Path

import pytest

from _cli_helpers import run

pytestmark = pytest.mark.skipif(sys.version_info < (3, 11), reason="needs code.co_qualname")

MODULES = ("kerr", "turntable", "fiber", "interference", "_kernels")
GOLDEN = json.loads(Path(__file__).with_name("golden_cli.json").read_text(encoding="utf-8"))

UNREACHED = frozenset({
    "fiber.coherence_length_required",
    "fiber.corrected_group_phase",
    "fiber.dispersion_coefficients",
    "fiber.dispersion_coefficients.<locals>.alpha_beta",
    "fiber.effective_lab_velocity",
    "fiber.fiber_phase_difference",
    "fiber.group_velocity_moving",
    "fiber.phase_velocity_moving",
    "interference.hom_visibility",
    "interference.single_photon_prob",
    "kerr.blackhole_scan",
    "kerr.kerr_phase_difference",
    "kerr.kerr_time_delay",
    "kerr.kerr_time_delay_full",
    "turntable.g_force",
    "turntable.kerr_roundtrip_shift",
    "turntable.min_velocity_for_visibility",
    "turntable.turntable_roundtrip_shift",
    "turntable.winding_arm_length",
    "turntable.winding_hom_exponent",
    "turntable.windings_for_visibility_loss",
})


def _entered(argvs: list[list[str]]) -> set[str]:
    """``module.qualname`` of each ``MODULES`` function entered while the argvs run."""
    watched = {f"framedrag.{name}": name for name in MODULES}
    seen = set()

    def probe(frame, event, arg):
        module = watched.get(frame.f_globals.get("__name__"))
        if event == "call" and module and not frame.f_code.co_name.startswith("<"):
            seen.add(f"{module}.{frame.f_code.co_qualname}")

    for argv in argvs:
        sys.setprofile(probe)
        try:
            run(argv)
        finally:
            sys.setprofile(None)
    return seen


def test_verify_enters_every_function_the_commands_enter():
    commands = _entered([case["argv"] for case in GOLDEN if case["argv"][0] != "verify"])
    verify = _entered([["verify"]])
    assert len(commands) > 50  # the probe saw the library
    unreached = commands - verify
    assert unreached - UNREACHED == set(), "functions no verify check enters"
    assert UNREACHED - unreached == set(), "entered by verify or by no command now: drop them"
