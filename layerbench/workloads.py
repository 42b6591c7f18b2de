"""Workload definitions shared by the runner, the client worker and the recorder.

Three closed-loop workloads, each driven by one client in one process:

* ``cli-oneshot``: every op is a fresh ``python -m framedrag.cli`` process
  running one closed-form command; the kinds follow a fixed 10-slot cycle
  whose last slot is a known-bad input the CLI must reject.
* ``oracle-verify``: in-process ``cli.main(["verify"])`` followed by a
  seeded in-process ``hom`` at 2048 Fock bins.
* ``scan-export``: in-process ``fig1`` then ``fig3``, each at 1e5 points
  written with ``--csv`` to a file.

Op inputs come from a fixed pool recorded in ``reference.json`` together
with the outputs this commit produced for them; the seed only picks which
pool entries are used and in which order.
"""

from __future__ import annotations

import json
import os
import random
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
REFERENCE = BENCH_DIR / "reference.json"

WORKLOADS = ("cli-oneshot", "oracle-verify", "scan-export")
COMMANDS = ("kerr", "equivalence", "feasibility", "hom", "fiber", "fig1", "fig3", "verify")

# BLAS/OpenMP pools pinned to one thread in every process the benchmark starts.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

SCAN_POINTS = 100_000
HOM_BINS = 2048

# cli-oneshot: fixed kind order; "reject" takes the next known-bad input.
CLI_CYCLE = ("kerr", "equivalence-metric", "feasibility", "fig1", "kerr",
             "equivalence-timeshift", "fig3", "kerr", "feasibility", "reject")

# Inputs the CLI must refuse with exit 2 and a named error.  At the commit
# that recorded reference.json none of them does, so each reject slot is a
# failed op until the CLI is fixed.
KNOWN_BAD = (
    ["fig3", "--omega-max", "3e9"],          # rim speed 2c
    ["fig3", "--points", "0"],               # empty table
    ["fig3", "--points", "-2"],              # empty table
    ["kerr", "--set", "source.rs=3e4", "--set", "source.a=7.5e3",
     "--set", "point.r=3e4"],                # ergosphere boundary
)


def child_env() -> dict[str, str]:
    """Environment for every benchmark child: repo sources first, one BLAS thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def use_repo_sources() -> None:
    """Make ``src/framedrag`` of this checkout importable in this process."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def kernel_backend() -> str:
    """framedrag's active Fock kernel backend, read without changing any setting."""
    from framedrag import _kernels

    probe = getattr(_kernels, "kernel_backend", None)
    return probe() if probe is not None else "single backend (no kernel_backend())"


def cli_command(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "framedrag.cli", *argv]


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as handle:
        return json.load(handle)


class Schedule:
    """Seeded op sequence for one workload over the recorded pool."""

    def __init__(self, seed: int, reference: dict) -> None:
        self.rng = random.Random(seed)
        self.pools = reference["pools"]
        self.reject_start = self.rng.randrange(len(KNOWN_BAD))

    def pick(self, kind: str) -> dict:
        return self.rng.choice(self.pools[kind]["main"])

    def cli_cycle(self, index: int) -> list[tuple[str, dict]]:
        """One whole cycle of (kind, pool entry); a reject slot carries a known-bad argv."""
        ops = []
        for kind in CLI_CYCLE:
            if kind == "reject":
                bad = KNOWN_BAD[(self.reject_start + index) % len(KNOWN_BAD)]
                ops.append(("reject", {"argv": bad}))
            else:
                ops.append((kind, self.pick(kind)))
        return ops
