"""Import budget: the closed-form commands never load numpy, scipy or mpmath.

Each case runs in a fresh interpreter, because the test session itself
has long since imported all three.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# Prints [exit code or null, sorted heavy top-level packages in sys.modules].
PROBE = """
import contextlib, io, json, sys
from framedrag import cli
argv = json.loads(sys.argv[1])
code = None
if argv is not None:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
heavy = sorted({name.split(".")[0] for name in sys.modules} & {"numpy", "scipy", "mpmath"})
print(json.dumps([code, heavy]))
"""


def _probe(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", PROBE, json.dumps(argv)],
                          capture_output=True, text=True, env=env, check=True)
    code, heavy = json.loads(proc.stdout.splitlines()[-1])
    return code, heavy


def test_importing_cli_loads_no_heavy_module():
    assert _probe(None) == (None, [])


@pytest.mark.parametrize("argv", [
    ["kerr"],
    ["equivalence", "--method", "metric"],
    ["equivalence", "--method", "timeshift"],
    ["feasibility"],
    ["fig1", "--points", "64"],
    ["fig3"],
])
def test_closed_form_commands_load_no_heavy_module(argv):
    # fig1 builds its radial grid with numpy; nothing else here touches an array
    expected = ["numpy"] if argv[0] == "fig1" else []
    assert _probe(argv) == (0, expected)


@pytest.mark.parametrize("argv", [
    ["fig1", "--points", "64"],
    ["fig3"],
])
def test_figure_csv_export_loads_no_further_heavy_module(argv, tmp_path):
    # the table writer turns array blocks into floats with their own tolist(),
    # so writing fig3's plain lists to a file must not pull numpy in
    expected = ["numpy"] if argv[0] == "fig1" else []
    path = tmp_path / "table.csv"
    assert _probe([*argv, "--csv", str(path)]) == (0, expected)
    assert path.stat().st_size > 0


def test_verify_still_loads_scipy_and_mpmath():
    assert _probe(["verify"]) == (0, ["mpmath", "numpy", "scipy"])
