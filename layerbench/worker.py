"""The benchmark client: one process, one closed loop.

    python3 layerbench/worker.py --workload W --seed N --seconds S [--setup-only]
    python3 layerbench/worker.py --layers --seed N

It sets up (imports, reference, one warm-up op), prints ``{"ready": true}``,
then sends one op at a time until ``--seconds`` have passed and prints one
JSON result line.  ``--layers`` instead runs the in-process part of the
traced run (see ``layers.py``).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
import workloads as wl  # noqa: E402


def vm_hwm_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


@dataclass
class Op:
    """One op: wall and CPU seconds, check problems, whether it was a reject slot."""

    latency: float
    cpu: float
    problems: list[str]
    reject: bool = False
    csv_bytes: int = 0


def call_cli(main, argv: list[str]) -> tuple[int, str, str]:
    """``main(argv)`` in this process, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


# --- how each kind of output is checked ------------------------------------

def check_entry(kind: str, entry: dict, rc: int, stdout: str, stderr: str) -> list[str]:
    """Compare one op's exit code, stdout (or CSV) and stderr with the recorded entry."""
    if rc != entry["rc"]:
        return [f"{kind}: exit {rc}, recorded {entry['rc']}: {stderr.strip()[:120]}"]
    if "csv" in entry:
        problems = check.compare_csv(stdout, entry["csv"], entry["argv"][0])
    elif entry["argv"][0] == "verify":
        problems = check.compare_verify(stdout, entry["stdout"])
    else:
        problems = check.compare_report(stdout, entry["stdout"])
    problems += [f"stderr: {p}" for p in check.compare_report(stderr, entry["stderr"])]
    return [f"{kind}: {p}" for p in problems]


# --- workloads ----------------------------------------------------------------

class CliOneshot:
    """Fresh ``python -m framedrag.cli`` processes, a fixed 10-slot cycle at a time."""

    def __init__(self, reference: dict, seed: int) -> None:
        self.schedule = wl.Schedule(seed, reference)
        self.env = wl.child_env()
        self.warm = reference["defaults"]["kerr"]
        self.cycle = 0

    def _spawn(self, argv: list[str]):
        before = cpu_seconds()
        start = time.perf_counter()
        proc = subprocess.run(wl.cli_command(argv), capture_output=True, text=True,
                              env=self.env, cwd=wl.ROOT, check=False)
        latency = time.perf_counter() - start
        return latency, cpu_seconds() - before, proc

    def warm_up(self) -> None:
        _, _, proc = self._spawn(self.warm["argv"])
        problems = check_entry("kerr", self.warm, proc.returncode, proc.stdout, proc.stderr)
        if problems:
            raise RuntimeError(f"warm-up op failed: {problems[:3]}")

    def batch(self) -> list[Op]:
        ops = []
        for kind, entry in self.schedule.cli_cycle(self.cycle):
            latency, cpu, proc = self._spawn(entry["argv"])
            if kind == "reject":
                problems = check.check_reject(proc.returncode, proc.stdout, proc.stderr)
                problems = [f"{p}: {' '.join(entry['argv'])}" for p in problems]
            else:
                problems = check_entry(kind, entry, proc.returncode, proc.stdout, proc.stderr)
            ops.append(Op(latency, cpu, problems, reject=kind == "reject"))
        self.cycle += 1
        return ops

    def peak_rss_mb(self) -> float:
        # the largest child; the client itself stays far below a CLI process
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


class InProcess:
    """Base for the workloads that call ``cli.main`` in this process."""

    def __init__(self, reference: dict, seed: int) -> None:
        from framedrag import cli

        self.main = cli.main
        self.reference = reference
        self.schedule = wl.Schedule(seed, reference)

    def call(self, argv: list[str]) -> tuple[int, str, str]:
        return call_cli(self.main, argv)

    def warm_up(self) -> None:
        op = self.batch()[0]
        if op.problems:
            raise RuntimeError(f"warm-up op failed: {op.problems[:3]}")

    def timed(self, steps):
        """Run ``steps`` (argv lists) back to back; return latency, CPU and results."""
        before = cpu_seconds()
        start = time.perf_counter()
        results = [self.call(argv) for argv in steps]
        latency = time.perf_counter() - start
        return latency, cpu_seconds() - before, results

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb()


class OracleVerify(InProcess):
    """``verify`` then a seeded ``hom`` at 2048 Fock bins, in process."""

    name = "oracle-verify"

    def batch(self) -> list[Op]:
        entry = self.schedule.pick("hom")
        latency, cpu, results = self.timed([["verify"], entry["argv"]])
        (rc_v, out_v, err_v), (rc_h, out_h, err_h) = results
        problems = check_entry("verify", self.reference["defaults"]["verify"], rc_v, out_v, err_v)
        problems += check_entry("hom", entry, rc_h, out_h, err_h)
        self.last_verify = out_v
        return [Op(latency, cpu, problems)]


class ScanExport(InProcess):
    """``fig1`` then ``fig3`` at 1e5 points each, written with ``--csv``."""

    name = "scan-export"

    def __init__(self, reference: dict, seed: int) -> None:
        super().__init__(reference, seed)
        wl.OUT.mkdir(exist_ok=True)
        self.paths = (wl.OUT / "scan-fig1.csv", wl.OUT / "scan-fig3.csv")

    def batch(self) -> list[Op]:
        entries = (self.schedule.pick("scan-fig1"), self.schedule.pick("scan-fig3"))
        steps = [[*e["argv"], "--csv", str(p)] for e, p in zip(entries, self.paths)]
        latency, cpu, results = self.timed(steps)
        problems, written = [], 0
        for kind, entry, path, (rc, out, err) in zip(
                ("scan-fig1", "scan-fig3"), entries, self.paths, results):
            text = path.read_text(encoding="ascii") if rc == 0 else ""
            written += len(text)
            problems += check_entry(kind, entry, rc, text + out, err)
        return [Op(latency, cpu, problems, csv_bytes=written)]


# Two whole cli-oneshot cycles: the median never rests on fewer ops.
MIN_OPS = 20

CLIENTS = {"cli-oneshot": CliOneshot, "oracle-verify": OracleVerify,
           "scan-export": ScanExport}


def closed_loop(client, seconds: float) -> dict:
    """Run whole batches until ``MIN_OPS`` ops are done and ``seconds`` have passed."""
    ops: list[Op] = []
    start = time.perf_counter()
    while len(ops) < MIN_OPS or time.perf_counter() - start < seconds:
        ops.extend(client.batch())
    latencies = [op.latency for op in ops]
    bad = [op for op in ops if op.problems]
    return {
        "latencies": latencies,
        "cpu": [op.cpu for op in ops],
        "attempted": len(ops),
        "failed": len(bad),
        "correct": all(op.reject for op in bad),  # only known-bad inputs may fail
        "rejects": sum(op.reject for op in ops),
        "problems": [p for op in bad for p in op.problems][:20],
        "peak_rss_mb": client.peak_rss_mb(),
        "wall_s": time.perf_counter() - start,
    }


def emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--layers", action="store_true")
    args = parser.parse_args()

    reference = wl.load_reference()
    if args.layers:
        import layers

        emit(layers.in_process(reference, args.seed))
        return 0
    client = CLIENTS[args.workload](reference, args.seed)
    client.warm_up()
    emit({"ready": True})
    if args.setup_only:
        return 0
    result = closed_loop(client, args.seconds)
    result["kernel_backend"] = wl.kernel_backend()  # after the loop: may import framedrag
    emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
