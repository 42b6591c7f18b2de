"""Re-record ``reference.json``: the op pools and the outputs they must give.

    python3 layerbench/record_reference.py

Run it only at a commit whose outputs are known to be right: every later
run is checked against what this writes.  Pool inputs are drawn from
physically allowed ranges with a fixed generator seed, so re-recording at
an unchanged commit reproduces the file.  An input is kept only if the
command accepts it (exit 0) and its phases stay below ``MAX_PHASE`` rad,
so that a 1e-15 relative change of a phase cannot move sin(phase) past the
1e-12 check.
"""

from __future__ import annotations

import functools
import json
import math
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
import workloads as wl  # noqa: E402

GENERATOR_SEED = 20221011
MAIN, HOLDOUT = 16, 4
MAX_PHASE = 1.0e3
C = 299_792_458.0


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _sets(**values) -> list[str]:
    return [arg for key, value in values.items()
            for arg in ("--set", f"{key.replace('__', '.')}={value!r}")]


def draw_kerr(rng):
    if rng.random() < 0.5:  # Earth-like source and radius
        return ["kerr", *_sets(source__rs=0.009 * rng.uniform(0.5, 2.0),
                               source__a=3.9 * rng.uniform(0.5, 2.0),
                               point__r=_log_uniform(rng, 6.37e6, 6.37e7),
                               light__omega0=_log_uniform(rng, 1e6, 8e6),
                               light__sigma=_log_uniform(rng, 1e3, 1.5e4))]
    r_s = 3.0e4 * rng.uniform(0.5, 2.0)  # compact source, weak-field radius
    return ["kerr", *_sets(source__rs=r_s, source__a=r_s * rng.uniform(0.01, 0.5),
                           point__r=r_s * _log_uniform(rng, 200.0, 1e5),
                           path__length=_log_uniform(rng, 1.0, 100.0),
                           light__omega0=_log_uniform(rng, 1e6, 8e6),
                           light__sigma=_log_uniform(rng, 1e3, 1.5e4))]


def _source(rng):
    if rng.random() < 0.5:
        return dict(source__rs=0.009 * rng.uniform(0.5, 2.0), source__a=3.9 * rng.uniform(0.5, 2.0))
    r_s = 3.0e4 * rng.uniform(0.5, 2.0)
    return dict(source__rs=r_s, source__a=r_s * rng.uniform(0.01, 0.5))


def draw_equivalence_metric(rng):
    source = _source(rng)
    r = source["source__rs"] * _log_uniform(rng, 10.0, 1e9)
    return ["equivalence", "--method", "metric", *_sets(**source, point__r=r)]


def draw_equivalence_timeshift(rng):
    source = _source(rng)
    r = source["source__rs"] * _log_uniform(rng, 10.0, 1e9)
    return ["equivalence", "--method", "timeshift",
            *_sets(**source, point__r=r, turntable__radius=_log_uniform(rng, 0.05, 5.0))]


def draw_feasibility(rng):
    radius = _log_uniform(rng, 0.1, 10.0)
    return ["feasibility", *_sets(light__sigma=_log_uniform(rng, 1e3, 1e4),
                                  turntable__radius=radius,
                                  turntable__omega=_log_uniform(rng, 1.0, 100.0),
                                  arms__length=_log_uniform(rng, 1e3, 1e5),
                                  arms__delta_length=_log_uniform(rng, 1e-3, 0.1))]


def draw_fig1(rng):
    r_s = 3.0e4 * rng.uniform(0.5, 2.0)
    return ["fig1", "--r-max", repr(_log_uniform(rng, 50.0, 1e4)),
            *_sets(source__rs=r_s, source__a=r_s * rng.uniform(0.01, 0.5))]


def draw_fig3(rng):
    # rim speed omega * R / c stays below 0.01 c at the default R = 0.2 m
    return ["fig3", "--omega-max", repr(_log_uniform(rng, 1.0, 0.01 * C / 0.2))]


def draw_hom(rng):
    sigma = _log_uniform(rng, 1e3, 1.5e4)
    return ["hom", *_sets(light__omega0=_log_uniform(rng, 1e6, 8e6), light__sigma=sigma,
                          interference__delta_t=rng.uniform(0.2, 3.0) / sigma),
            "--set", f"interference.bins={wl.HOM_BINS}"]


def draw_scan(draw):
    def scan(rng):
        return [*draw(rng), "--points", str(wl.SCAN_POINTS)]
    return scan


DRAWS = {
    "kerr": draw_kerr,
    "equivalence-metric": draw_equivalence_metric,
    "equivalence-timeshift": draw_equivalence_timeshift,
    "feasibility": draw_feasibility,
    "fig1": draw_fig1,
    "fig3": draw_fig3,
    "hom": draw_hom,
    "scan-fig1": draw_scan(draw_fig1),
    "scan-fig3": draw_scan(draw_fig3),
}


def record(call, argv: list[str]) -> dict | None:
    """Run ``argv`` in process and keep its outputs, or None if it is unusable."""
    csv_path = wl.OUT / "record.csv"
    scan = "--points" in argv  # scan-export entries; they write their table to a file
    rc, out, err = call([*argv, "--csv", str(csv_path)] if scan else argv)
    if rc != 0:
        return None
    if scan:
        out = csv_path.read_text(encoding="ascii")
    entry = {"argv": argv, "rc": rc, "stderr": err}
    if argv[0] in ("fig1", "fig3"):
        entry["csv"] = check.csv_digest(out)
    else:
        phases = [abs(float(line.split(" = ")[1].split()[0])) for line in out.splitlines()
                  if line.startswith(("phase_", "delta_phi"))]
        if any(p > MAX_PHASE for p in phases):
            return None
        entry["stdout"] = out
    return entry


def main() -> int:
    wl.use_repo_sources()
    wl.OUT.mkdir(exist_ok=True)
    from framedrag import cli
    from worker import call_cli

    call = functools.partial(call_cli, cli.main)
    rng = random.Random(GENERATOR_SEED)
    reference = {"defaults": {}, "pools": {}}
    for cmd in wl.COMMANDS:
        entry = record(call, [cmd])
        if entry is None:
            raise SystemExit(f"default {cmd} does not run cleanly")
        reference["defaults"][cmd] = entry
    for kind, draw in DRAWS.items():
        entries = []
        while len(entries) < MAIN + HOLDOUT:
            entry = record(call, draw(rng))
            if entry is not None:
                entries.append(entry)
        reference["pools"][kind] = {"main": entries[:MAIN], "holdout": entries[MAIN:]}
        print(f"{kind}: {len(entries)} entries", file=sys.stderr)
    with open(wl.REFERENCE, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
