"""Import budget of the command line, each case in a fresh interpreter.

``kerr``, ``equivalence``, ``feasibility`` and ``fig3`` load none of
numpy, scipy and mpmath; ``fig1`` (for its radial grid) and ``hom
--spectrum`` (for its table) load only numpy, and ``verify`` loads all
three.  Nor do those four closed-form commands, or a rejected input,
load the pure-Python modules ``dataclasses``, ``inspect``, ``pathlib``
and ``typing``: that check runs under ``python -S``, since a ``.pth``
file of an installed package may import ``typing`` at startup.
The cases need fresh interpreters because the test session itself has
long since imported all of these.  One more check reads the source:
``_quadrature`` is the only module that imports scipy.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("numpy", "scipy", "mpmath")
STDLIB_HEAVY = ("dataclasses", "inspect", "pathlib", "typing")

# Prints [exit code or null, sorted watched top-level packages in sys.modules].
PROBE = """
import contextlib, io, json, sys
from framedrag import cli
argv, watched = json.loads(sys.argv[1]), json.loads(sys.argv[2])
code = None
if argv is not None:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
loaded = sorted({name.split(".")[0] for name in sys.modules} & set(watched))
print(json.dumps([code, loaded]))
"""


def _probe(argv, *flags, watched=HEAVY):
    """Run ``argv`` through ``cli.main`` in ``python <flags>``; its code and loaded ``watched``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *flags, "-c", PROBE, json.dumps(argv),
                           json.dumps(watched)],
                          capture_output=True, text=True, env=env, check=True)
    code, loaded = json.loads(proc.stdout.splitlines()[-1])
    return code, loaded


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
