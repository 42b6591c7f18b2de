"""Output checks against the outputs recorded in ``reference.json``.

Tolerances are chosen so that a change of summation order passes and a
change of formula fails:

* report values: 1e-12 relative (a reordered sum moves them ~1e-15; the weak
  and full Kerr formulas differ by ~1e-10 at Earth parameters);
* values reduced modulo 2 pi: 1e-12 of the unreduced phase, compared on
  the circle;
* values that are zero in the reference: 1e-15 absolute;
* numbers printed with few digits inside WARN lines: 2e-3 relative, one
  unit in the fourth digit;
* ``verify``: check names and PASS/FAIL only, never the ``%.3e`` digits.
"""

from __future__ import annotations

import math
import re

import numpy as np

RTOL = 1.0e-12
ATOL = 1.0e-15
SHORT_RTOL = 2.0e-3
SAMPLES = 33

_REPORT = re.compile(r"^(\S+) = (\S+)(.*) \[([^\]]+)\] \(~[^)]*\)$")
_NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")
_VERIFY = re.compile(r"^(PASS|FAIL) ([\w-]+): ")
_ERROR = re.compile(r"^ERROR [\w-]+: (.+)$")
# Messages Python itself raises; an error carrying only these is not named.
_BARE = ("math domain error", "math range error", "float division by zero",
         "division by zero", "integer division or modulo by zero")


def close(value: float, ref: float, rtol: float = RTOL) -> bool:
    if not math.isfinite(value):
        return value == ref or (math.isnan(value) and math.isnan(ref))
    if ref == 0.0:
        return abs(value) <= ATOL
    return abs(value - ref) <= rtol * abs(ref)


def _significant_digits(token: str) -> int:
    mantissa = re.split(r"[eE]", token)[0].lstrip("+-").replace(".", "")
    return len(mantissa.lstrip("0")) or 1


def _compare_tokens(line: str, ref: str) -> str | None:
    """Non-numeric text must match exactly; numbers within tolerance."""
    if _NUMBER.split(line) != _NUMBER.split(ref):
        return f"text differs: {line!r} vs {ref!r}"
    for got, want in zip(_NUMBER.findall(line), _NUMBER.findall(ref)):
        if re.fullmatch(r"[-+]?\d+", want):
            ok = got == want
        else:
            rtol = RTOL if _significant_digits(want) >= 12 else SHORT_RTOL
            ok = close(float(got), float(want), rtol)
        if not ok:
            return f"number {got} vs {want} in {ref!r}"
    return None


def _circular_close(value: float, ref: float, scale: float) -> bool:
    diff = abs(value - ref) % (2.0 * math.pi)
    return min(diff, 2.0 * math.pi - diff) <= RTOL * max(1.0, scale)


def compare_report(text: str, ref: str) -> list[str]:
    """Compare a report command's stdout with the recorded one."""
    lines, refs = text.splitlines(), ref.splitlines()
    if len(lines) != len(refs):
        return [f"{len(lines)} lines vs {len(refs)} recorded"]
    unreduced = {}
    for line in refs:
        match = _REPORT.match(line)
        if match:
            unreduced[match.group(1)] = abs(float(match.group(2)))
    problems = []
    for line, want in zip(lines, refs):
        got_m, want_m = _REPORT.match(line), _REPORT.match(want)
        if want_m is None or got_m is None:
            if line.startswith("input ") or want.startswith("input "):
                problem = None if line == want else f"input echo {line!r} vs {want!r}"
            else:
                problem = _compare_tokens(line, want)
        elif (got_m.group(1, 3, 4) != want_m.group(1, 3, 4)):
            problem = f"name/unit/anchor {line!r} vs {want!r}"
        else:
            name = want_m.group(1)
            got, ref_value = float(got_m.group(2)), float(want_m.group(2))
            if name.endswith("_mod_2pi"):
                scale = unreduced.get(name[: -len("_mod_2pi")], 1.0)
                ok = _circular_close(got, ref_value, scale)
            else:
                ok = close(got, ref_value)
            problem = None if ok else f"{name} = {got!r} vs recorded {ref_value!r}"
        if problem:
            problems.append(problem)
    return problems


def compare_verify(text: str, ref: str) -> list[str]:
    """Compare check names, PASS/FAIL, WARN lines and the summary of ``verify``."""
    lines, refs = text.splitlines(), ref.splitlines()
    if len(lines) != len(refs):
        return [f"{len(lines)} lines vs {len(refs)} recorded"]
    problems = []
    for line, want in zip(lines, refs):
        want_m = _VERIFY.match(want)
        if want_m:
            got_m = _VERIFY.match(line)
            if got_m is None or got_m.group(1, 2) != want_m.group(1, 2):
                problems.append(f"check {line[:60]!r} vs {want[:60]!r}")
        else:
            problem = _compare_tokens(line, want)
            if problem:
                problems.append(problem)
    return problems


def verify_margins(text: str) -> dict[str, float]:
    """worst/bound of each check, parsed from the ``%.3e`` detail."""
    margins = {}
    for line in text.splitlines():
        match = _VERIFY.match(line)
        if not match:
            continue
        numbers = [float(tok) for tok in _NUMBER.findall(line[match.end():])
                   if re.search(r"[eE.]", tok)]
        if "vs bound" in line:
            worst, bound = numbers[0], numbers[1]
        else:  # "max error/envelope W (K=1)" and "max dev/tolerance W": bound 1
            worst, bound = numbers[0], 1.0
        margins[match.group(2)] = worst / bound
    return margins


# --- CSV tables -------------------------------------------------------------

def parse_csv(text: str) -> tuple[str, np.ndarray]:
    header, _, body = text.partition("\n")
    cols = header.count(",") + 1
    values = np.fromstring(body.replace("\n", ","), sep=",") if body else np.empty(0)
    if values.size % cols:
        raise ValueError("ragged CSV body")
    return header, values.reshape(-1, cols)


def csv_digest(text: str) -> dict:
    """What the reference keeps of a table: shape, sampled rows, column sums."""
    header, table = parse_csv(text)
    lines = text.splitlines()[1:]
    picks = sorted(set(np.linspace(0, len(lines) - 1, SAMPLES).astype(int).tolist()))
    return {
        "header": header,
        "rows": len(lines),
        "samples": {str(i): lines[i] for i in picks},
        "sums": [math.fsum(col) for col in table.T],
        "abs_sums": [math.fsum(np.abs(col)) for col in table.T],
    }


def compare_csv(text: str, digest: dict, kind: str) -> list[str]:
    """Check a fig1/fig3 table against its digest, and every row for validity."""
    try:
        header, table = parse_csv(text)
    except ValueError as exc:
        return [str(exc)]
    if header != digest["header"]:
        return [f"header {header!r} vs {digest['header']!r}"]
    if table.shape[0] != digest["rows"]:
        return [f"{table.shape[0]} rows vs {digest['rows']} recorded"]
    problems = []
    if not np.all(np.isfinite(table)):
        problems.append("non-finite value in table")
    for index, want in digest["samples"].items():
        row = table[int(index)]
        if not all(close(got, float(ref)) for got, ref in zip(row, want.split(","))):
            problems.append(f"row {index}: {row.tolist()} vs {want}")
    for col, (want, scale) in enumerate(zip(digest["sums"], digest["abs_sums"])):
        got = math.fsum(table[:, col])
        if abs(got - want) > RTOL * scale + ATOL * table.shape[0]:
            problems.append(f"column {col} sum {got!r} vs {want!r}")
    first, last = table[:, 0], table[:, -1]
    if kind == "fig1":
        valid = np.all(np.diff(first) > 0) and np.all((last >= 0) & (last <= 1))
    else:
        valid = np.all(np.diff(first) >= 0) and np.all((last >= 0) & (last <= 0.5))
    if not valid:
        problems.append(f"{kind} rows out of order or out of range")
    return problems


NOT_REJECTED = "known-bad input not rejected with a named error"


def check_reject(rc: int, stdout: str, stderr: str) -> list[str]:
    """A known-bad input must exit 2, print nothing, and name its error."""
    lines = stderr.strip().splitlines()
    match = _ERROR.match(lines[-1]) if len(lines) == 1 else None
    if rc != 2 or stdout or match is None or match.group(1).strip() in _BARE:
        return [f"{NOT_REJECTED} (exit {rc}, "
                f"{len(stdout)} stdout bytes, stderr {stderr.strip()[:80]!r})"]
    return []
