"""Import budget of the command line, each case in a fresh interpreter.

``kerr``, ``equivalence``, ``feasibility`` and ``fig3`` load none of
numpy, scipy and mpmath; ``fig1`` (for its radial grid) and ``hom
--spectrum`` (for its table) load only numpy, and ``verify`` loads all
three.  Nor do those four closed-form commands, or a rejected input,
load the pure-Python modules ``dataclasses``, ``inspect``, ``pathlib``
and ``typing``: that check runs under ``python -S``, since a ``.pth``
file of an installed package may import ``typing`` at startup.  Only
``verify`` loads the verify suite ``framedrag.reference``, and ``import
framedrag`` loads no submodule at all.
The cases need fresh interpreters because the test session itself has
long since imported all of these.  Two more checks read the source:
``_quadrature`` is the only module that imports scipy, and ``cli``
imports no numpy (fig1's scan hands it lists, as fig3's sweep does).
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent  # holds _cli_helpers
SRC = TESTS.parent / "src"
HEAVY = ("numpy", "scipy", "mpmath")
STDLIB_HEAVY = ("dataclasses", "inspect", "pathlib", "typing")

# Prints [exit code or null, the sorted watched modules or packages in sys.modules].
PROBE = """
import json, sys
from _cli_helpers import run
argv, watched = json.loads(sys.argv[1]), json.loads(sys.argv[2])
code = None if argv is None else run(argv)[0]
loaded = sorted(w for w in watched if any(n == w or n.startswith(w + ".") for n in sys.modules))
print(json.dumps([code, loaded]))
"""


def _python(*args):
    """The last stdout line of ``python <args>``, with the sources and tests on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), str(TESTS),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def _probe(argv, *flags, watched=HEAVY):
    """Run ``argv`` through ``cli.main`` in ``python <flags>``; its code and loaded ``watched``."""
    return tuple(_python(*flags, "-c", PROBE, json.dumps(argv), json.dumps(watched)))


def test_importing_the_package_loads_no_submodule():
    # the namespace re-exports nothing
    assert _python("-c", "import framedrag, json, sys; print(json.dumps("
                         "[name for name in sys.modules if name.startswith('framedrag.')]))") == []


@pytest.mark.parametrize("command", ["kerr", "equivalence", "feasibility", "hom", "fiber",
                                     "fig1", "fig3", "verify"])
def test_only_verify_loads_the_verify_suite(command):
    # the quoted figures the reports warn about are scenario.QUOTED, not the suite's
    expected = ["framedrag.reference"] if command == "verify" else []
    assert _probe([command], watched=["framedrag.reference"]) == (0, expected)


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
    # the table writer takes lists only (the scan's block turns its array slices
    # into lists), so writing fig3's plain lists to a file must not pull numpy in
    expected = ["numpy"] if argv[0] == "fig1" else []
    path = tmp_path / "table.csv"
    assert _probe([*argv, "--csv", str(path)]) == (0, expected)
    assert path.stat().st_size > 0


def test_hom_with_a_tabulated_spectrum_loads_no_scipy(tmp_path):
    # every route sums the table's trapezoid atoms; nothing calls the quadrature
    path = tmp_path / "spectrum.txt"
    path.write_text("1.95e6 0.25\n2.0e6 0.5\n2.05e6 0.25\n")
    assert _probe(["hom", "--spectrum", str(path)]) == (0, ["numpy"])


def test_verify_still_loads_scipy_and_mpmath():
    assert _probe(["verify"]) == (0, ["mpmath", "numpy", "scipy"])


@pytest.mark.parametrize("argv,code", [
    (None, None),
    (["kerr"], 0),
    (["equivalence", "--method", "metric"], 0),
    (["equivalence", "--method", "timeshift"], 0),
    (["feasibility"], 0),
    (["fig3"], 0),
    (["fig3", "--points", "0"], 2),
])
def test_closed_form_commands_load_no_stdlib_heavy_module(argv, code):
    # -S: without site, no .pth file of the host's packages imports typing first
    assert _probe(argv, "-S", watched=STDLIB_HEAVY) == (code, [])


def _scipy_seams(path: Path):
    """Each import of scipy in ``path``, and each use of ``_QUAD_OPTS`` by import or attribute."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names if alias.name.split(".")[0] == "scipy")
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
            if (node.module or "").split(".")[0] == "scipy" or "_QUAD_OPTS" in names:
                yield f"from {node.module or '.'} import {', '.join(names)}"
        elif isinstance(node, ast.Attribute) and node.attr == "_QUAD_OPTS":
            yield "._QUAD_OPTS"


def test_only_the_quadrature_module_imports_scipy():
    # one seam: swapping the quadrature rewrites _quadrature.py and nothing else
    seen = {path.name: list(_scipy_seams(path))
            for path in sorted((SRC / "framedrag").glob("*.py"))}
    assert {name: found for name, found in seen.items() if found} == {
        "_quadrature.py": ["from scipy.integrate import quad"]}


def test_the_command_line_imports_no_numpy():
    # only kerr knows that fig1's scan is an array
    tree = ast.parse((SRC / "framedrag" / "cli.py").read_text(encoding="utf-8"))
    found = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names if alias.name.split(".")[0] == "numpy"]
    found += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              and (node.module or "").split(".")[0] == "numpy"]
    assert found == []
