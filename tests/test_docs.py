"""Anchors, documentation, and report lines stay in sync.

``docs/formulas.md`` is the anchor registry: each backticked ``[anchor]``
tag there documents one formula.
"""

import ast
import re
from pathlib import Path

import pytest

from framedrag import cli
from framedrag.errors import check_positive, check_speed
from framedrag.scenario import PARAMETERS, QUOTED

ROOT = Path(__file__).resolve().parents[1]
DOCS = ROOT / "docs" / "formulas.md"
README = ROOT / "README.md"
CLI_SOURCE = ROOT / "src" / "framedrag" / "cli.py"
ANCHOR_RE = re.compile(r"\[([a-z0-9-]+)\]")
DOCUMENTED = set(re.findall(r"`\[([a-z0-9-]+)\]`", DOCS.read_text()))


def _cli_output_anchors() -> set[str]:
    """The 4th argument of every ``.output(...)`` call in cli.py, on any branch."""
    anchors = set()
    for node in ast.walk(ast.parse(CLI_SOURCE.read_text())):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "output"):
            tag = node.args[3]
            assert isinstance(tag, ast.Constant), f"line {node.lineno}: anchor is not a literal"
            anchors.add(tag.value)
    return anchors


def _cli_warning_tags() -> set[str]:
    """Every literal tag in cli.py: the 1st argument of ``.warn(...)`` calls, and the 1st
    item of the ``(tag, message)`` keys ``_report_warnings`` collects before warning."""
    tags = set()
    for node in ast.walk(ast.parse(CLI_SOURCE.read_text())):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "warn"):
            first = node.args[0]
        elif isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Tuple):
            first = node.slice.elts[0]
        else:
            continue
        if isinstance(first, ast.Constant):
            tags.add(first.value)
    return tags


def _range_text(allowed) -> str:
    """How the README's range column writes a PARAMETERS range."""
    if allowed is None:
        return "any"
    if allowed is check_positive:
        return "> 0"
    if allowed is check_speed:
        return "0 ≤ v < 1"
    if isinstance(allowed, tuple):
        return "–".join(map(str, allowed))
    return f"≥ {allowed:g}"


def test_readme_parameter_table_lists_every_key():
    section = README.read_text().split("### Parameters", 1)[1].split("\n#", 1)[0]
    rows = [line.split("|") for line in section.splitlines() if line.startswith("| `")]
    documented = {re.fullmatch(r" `([a-z0-9_]+\.[a-z0-9_]+)` ", row[1]).group(1): row[3].strip()
                  for row in rows}
    assert len(documented) == len(rows)  # one row per key
    assert documented == {key: _range_text(allowed)
                          for key, (*_, allowed) in PARAMETERS.items()}


def test_every_cli_anchor_is_documented():
    anchors = _cli_output_anchors()
    assert len(anchors) > 40  # the walk found the report calls
    assert anchors - DOCUMENTED == set()


def test_every_warning_tag_is_documented():
    section = DOCS.read_text().split("## Reported warnings", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"^- `([a-z0-9-]+)` —", section, re.M))
    tags = _cli_warning_tags()
    assert len(tags) >= 5  # the walk found the literal tags
    assert (tags | {row.tag for row in QUOTED}) - documented == set()


@pytest.mark.parametrize("argv", [
    ["kerr"],
    ["equivalence"],
    ["equivalence", "--method", "timeshift"],
    ["feasibility"],
    ["hom"],
    ["fiber"],
])
def test_report_anchors_are_registered(argv, capsys):
    assert cli.main(argv) == 0
    out, _ = capsys.readouterr()
    seen = set()
    for line in out.splitlines():
        if line.startswith(("input ", "WARN ")):
            continue
        tags = ANCHOR_RE.findall(line)
        assert len(tags) == 1, f"expected exactly one anchor: {line!r}"
        seen.add(tags[0])
    assert seen <= DOCUMENTED
