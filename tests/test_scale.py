"""Dimensional homogeneity: every printed value scales exactly with the length unit.

The library works in geometric units: times are lengths (m), frequencies
inverse lengths (rad/m).  Scaling every length by LAMBDA = 4 -- keys in m
times 4, rad/m and rad/s keys divided by 4, ``source.mass`` times 4 and
``source.angular_momentum`` times 16, speeds in c, counts and
``scan.r_max`` (in units of r_s) unchanged -- must scale each printed
value by 4**d, where d is the length power of its printed unit.  A power
of two commutes with float rounding, so this holds bit for bit, with no
tolerance.

Each command runs in process at its defaults and at the golden pool
inputs (``golden_cli.json``), before and after the scaling, with equal
exit codes.  Input echoes, report lines and figure table columns are
compared; WARN lines by their tags.
"""

import json
import re
from pathlib import Path

import pytest

from _cli_helpers import run
from framedrag import cli
from framedrag.scenario import PARAMETERS

LAMBDA = 4.0
# length power of each unit a key, a report line or a table column prints
POWER = {"m": 1, "m^2": 2, "rad/m": -1, "rad/s": -1, "g0": -1, "kg": 1, "kg m^2/s": 2,
         "c": 0, "rad": 0, "m/s": 0, None: 0}
COLUMN_UNIT = {"omega_rad_s": "rad/s"}  # every other figure column is dimensionless
LINE = re.compile(r"(?P<input>input )?(?P<name>\S+) = (?P<value>\S+)"
                  r"(?: (?P<unit>[^\[(]+?))?(?: \[[^\]]+\] \(~\S+\))?")

# Printed values that do not scale, each a flagged finding:
# group_phase_correction adds n'(k0), a length, to 1 in corrected_group_phase.
FLAGGED = {"default-fiber": {"group_phase_correction"}}
# Warnings that compare a quoted figure with its stock inputs.  The scaled
# inputs are another scenario, so these do not fire there.
STOCK_WARNINGS = {
    "default-equivalence": {"earth-radius-convention"},
    "default-kerr": {"earth-radius-convention"},
    "default-fiber": {"target-value-unreproduced"},
}

GOLDEN = json.loads(Path(__file__).with_name("golden_cli.json").read_text(encoding="utf-8"))
CASES = [case for case in GOLDEN if case["argv"][0] != "verify"]


def _scaled_argv(argv: list[str]) -> list[str]:
    """The same command with every resolved input given by --set, lengths times LAMBDA."""
    args = cli.build_parser().parse_args(argv)
    scenario = cli.scenario_of(args)
    scaled = [args.command] + (["--method", args.method] if args.command == "equivalence" else [])
    for key, value in scenario.values.items():
        if isinstance(value, float):
            value *= LAMBDA ** POWER[PARAMETERS[key][1]]
        scaled += ["--set", f"{key}={value!r}"]
    return scaled


def _values(stdout: str) -> dict[str, tuple[list[float], str | None]]:
    """name -> ([value], unit) of every input echo and report line."""
    values = {}
    for line in stdout.splitlines():
        if line.startswith("WARN "):
            continue
        match = LINE.fullmatch(line)
        assert match, line
        name = ("input " if match["input"] else "") + match["name"]
        values[name] = ([float(match["value"])], match["unit"])
    return values


def _columns(stdout: str) -> dict[str, tuple[list[float], str | None]]:
    """name -> (column, unit) of a figure table."""
    header, *rows = stdout.splitlines()
    names = header.split(",")
    cells = [[float(cell) for cell in row.split(",")] for row in rows]
    return {name: ([row[j] for row in cells], COLUMN_UNIT.get(name))
            for j, name in enumerate(names)}


def _tags(*texts: str) -> set[str]:
    return {line.split(":", 1)[0][len("WARN "):]
            for text in texts for line in text.splitlines() if line.startswith("WARN ")}


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_printed_values_scale_with_the_length_unit(case):
    rc, out, err = run(case["argv"])
    scaled_rc, scaled_out, scaled_err = run(_scaled_argv(case["argv"]))
    assert rc == scaled_rc == case["plain"]["rc"], (err, scaled_err)
    parse = _columns if case["argv"][0] in ("fig1", "fig3") else _values
    before, after = parse(out), parse(scaled_out)
    assert before.keys() == after.keys()
    mismatched = set()
    for name, (values, unit) in before.items():
        assert after[name][1] == unit, name
        factor = LAMBDA ** POWER[unit]
        if after[name][0] != [value * factor for value in values]:
            mismatched.add(name)
    assert mismatched == FLAGGED.get(case["name"], set())
    tags, scaled_tags = _tags(out, err), _tags(scaled_out, scaled_err)
    assert tags - scaled_tags == STOCK_WARNINGS.get(case["name"], set())
    assert scaled_tags <= tags
