"""Byte-exact CLI golden: exit code, stdout, stderr and CSV for recorded inputs.

The inputs are the default, main and hold-out inputs of
``layerbench/reference.json``, less the ``scan-fig*`` inputs at 1e5 points
(the block-edge test in ``test_cli.py`` covers that render).  Each input
runs twice, without and with ``--csv``.  Report text and stderr are stored
verbatim; figure tables, CSV files and the stdout of the ``--csv`` run (a
repeat of the report) as SHA-256 digests.  ``verify`` output is compared
with its ``%.3e`` margin digits masked, as ``layerbench/check.py`` does:
check names, PASS/FAIL, the WARN lines and the summary stay exact.

Re-record, only at a commit whose outputs are known to be right:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import re
import sys
from pathlib import Path

import pytest

from _cli_helpers import run

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden_cli.json"
SOURCE = ROOT / "layerbench" / "reference.json"
SKIPPED_POOLS = ("scan-fig1", "scan-fig3")
FIGURES = ("fig1", "fig3")
MARGIN = re.compile(r"\d\.\d{3}e[-+]\d{2,3}")  # the %.3e digits of a verify check line


def _digest(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def _mask(text: str) -> str:
    return MARGIN.sub("#.###e###", text)


def _run(argv: list[str], csv_path: Path | None) -> dict:
    extra = [] if csv_path is None else ["--csv", str(csv_path)]
    rc, stdout, stderr = run(argv + extra)
    masked = argv[0] == "verify"
    if masked:
        stdout = _mask(stdout)
    verbatim = argv[0] not in FIGURES and csv_path is None  # report text, once
    result = {"rc": rc, "stdout": stdout if verbatim else _digest(stdout.encode("utf-8")),
              "stderr": stderr}
    if csv_path is not None:
        data = csv_path.read_bytes() if csv_path.exists() else None
        if masked and data is not None:
            data = _mask(data.decode("utf-8")).encode("utf-8")
        result["csv"] = None if data is None else _digest(data)
    return result


def _inputs() -> list[tuple[str, list[str]]]:
    reference = json.loads(SOURCE.read_text(encoding="utf-8"))
    cases = [(f"default-{cmd}", entry["argv"])
             for cmd, entry in sorted(reference["defaults"].items())]
    for kind, pool in sorted(reference["pools"].items()):
        if kind in SKIPPED_POOLS:
            continue
        for split in ("main", "holdout"):
            cases += [(f"{kind}-{split}-{i}", entry["argv"])
                      for i, entry in enumerate(pool[split])]
    return cases


def record(csv_path: Path) -> list[dict]:
    golden = []
    for name, argv in _inputs():
        golden.append({"name": name, "argv": argv,
                       "plain": _run(argv, None), "csv": _run(argv, csv_path)})
        csv_path.unlink(missing_ok=True)
    return golden


# A missing file leaves no cases, which the coverage test below reports.
CASES = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else []


def test_golden_covers_the_recorded_inputs():
    assert [(case["name"], case["argv"]) for case in CASES] == _inputs()


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_cli_output_is_byte_identical(case, tmp_path):
    argv = case["argv"]
    assert _run(argv, None) == case["plain"], f"argv {argv} without --csv"
    assert _run(argv, tmp_path / "out.csv") == case["csv"], f"argv {argv} with --csv"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        data = record(Path(scratch) / "out.csv")
    with open(GOLDEN, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"{GOLDEN}: {len(data)} inputs", file=sys.stderr)
