"""Anchors, documentation, and report lines stay in sync."""

import re
from pathlib import Path

import pytest

from framedrag import cli
from framedrag.formulary import ANCHORS, anchor
from framedrag.scenario import PARAMETERS

ROOT = Path(__file__).resolve().parents[1]
DOCS = ROOT / "docs" / "formulas.md"
README = ROOT / "README.md"
ANCHOR_RE = re.compile(r"\[([a-z0-9-]+)\]")


def test_anchor_lookup():
    assert anchor("sagnac-phase").startswith("dPhi")
    with pytest.raises(KeyError, match="unregistered"):
        anchor("made-up-tag")


def test_readme_parameter_table_lists_every_key():
    section = README.read_text().split("### Parameters", 1)[1].split("\n#", 1)[0]
    rows = [line.split("|")[1] for line in section.splitlines() if line.startswith("| `")]
    documented = re.findall(r"`([a-z0-9_]+\.[a-z0-9_]+)`", "".join(rows))
    assert sorted(documented) == sorted(PARAMETERS)


def test_every_anchor_is_documented():
    text = DOCS.read_text()
    missing = [name for name in ANCHORS if f"[{name}]" not in text]
    assert missing == []


def test_documented_anchors_are_registered():
    text = DOCS.read_text()
    # only look at the backticked anchor tags the doc declares per entry
    declared = set(re.findall(r"`\[([a-z0-9-]+)\]`", text))
    unknown = declared - set(ANCHORS)
    assert unknown == set()


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
    assert seen <= set(ANCHORS)
