"""framedrag benchmark: three closed-loop workloads and a traced layer run.

    python3 layerbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root.  With ``--trace 0`` it sets up the client
three times (``setup_s`` is the median), runs the workload's closed loop
for ``S`` seconds with every op's output checked, and prints the
end-to-end metrics.  With ``--trace 1`` it runs the layer passes of
``layers.py`` instead and prints the per-layer metrics.  The last stdout
line is always one JSON object; a run record goes to ``layerbench/out``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
import layers  # noqa: E402
import numpy as np  # noqa: E402
import workloads as wl  # noqa: E402

SETUPS = 3
READY = json.dumps({"ready": True})
CALIB_LOOPS = 400_000


def calib_ms() -> float:
    """Median of three fixed pure-Python spins: how fast the host is right now."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(CALIB_LOOPS):
            total += i * i
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def harrell_davis(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of all order
    statistics, steadier than one or two of them for a few dozen samples."""
    from scipy.special import betainc

    n = len(values)
    edges = betainc(q * (n + 1), (1 - q) * (n + 1), np.arange(n + 1) / n)
    return float(np.diff(edges) @ np.sort(values))


def start_worker(args: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a client and wait for its ready line; return it and the set-up time."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(wl.BENCH_DIR / "worker.py"), *args],
                            stdout=subprocess.PIPE, text=True, env=wl.child_env(),
                            cwd=wl.ROOT)
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != READY:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"client failed during set-up (exit {proc.returncode})")
    return proc, setup


def finish_worker(proc: subprocess.Popen) -> dict:
    out = proc.stdout.read()
    if proc.wait() != 0:
        raise RuntimeError(f"client exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]) if out.strip() else {}


def end_to_end(args) -> tuple[dict, dict]:
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    for _ in range(SETUPS - 1):
        proc, setup = start_worker([*common, "--setup-only"])
        finish_worker(proc)
        setups.append(setup)
    proc, setup = start_worker([*common, "--seconds", str(args.seconds)])
    setups.append(setup)
    result = finish_worker(proc)

    lat_ms = sorted(1e3 * x for x in result["latencies"])
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "latency_p50_ms": (harrell_davis(lat_ms, 0.5), "ms"),
        "cpu_ms_per_op": (1e3 * sum(result["cpu"]) / len(lat_ms), "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    # Diagnostics only: a run has too few ops beyond its p90 for a steady tail,
    # and one client's throughput is 1/mean latency, moved by every host stall.
    p90 = harrell_davis(lat_ms, 0.9)
    record = {"kernel_backend": result["kernel_backend"], "setups_s": setups,
              "ops": len(lat_ms), "latencies_ms": lat_ms, "rejects": result["rejects"],
              "latency_p90_ms": p90, "samples_beyond_p90": sum(x > p90 for x in lat_ms),
              "ops_per_s": len(lat_ms) / (sum(lat_ms) / 1e3),
              "loop_wall_s": result["wall_s"], "problems": result["problems"]}
    summary = {"correct": result["correct"], "attempted": result["attempted"],
               "failed": result["failed"]}
    return metrics, summary | {"record": record}


def unit_of(name: str) -> str:
    for pattern, unit in ((r"_ms\b", "ms"), (r"_mb\b", "MB"), (r"_per_s\b", "1/s"),
                          (r"^(share|trace)\.|\.margin$", "ratio"), (r"bytes", "bytes")):
        if re.search(pattern, name):
            return unit
    return "count"


def per_layer(args) -> tuple[dict, dict]:
    reference = wl.load_reference()
    metrics, problems, ops, backend = layers.fresh_process(reference)
    proc = subprocess.run([sys.executable, str(wl.BENCH_DIR / "worker.py"), "--layers",
                           "--seed", str(args.seed)], stdout=subprocess.PIPE, text=True,
                          env=wl.child_env(), cwd=wl.ROOT, check=True)
    inproc = json.loads(proc.stdout.splitlines()[-1])
    metrics.update(inproc["metrics"])
    problems += inproc["problems"]
    ops += inproc["ops"]
    known_bad = [p for p in problems if p.startswith(check.NOT_REJECTED)]
    summary = {"correct": len(problems) == len(known_bad), "attempted": ops,
               "failed": len(problems),
               "record": {"kernel_backend": backend, "problems": problems[:20]}}
    return {name: (value, unit_of(name)) for name, value in metrics.items()}, summary


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "numba_present": importlib.util.find_spec("numba") is not None,
        "thread_vars": {var: "1" for var in wl.THREAD_VARS},
        "FRAMEDRAG_DISABLE_NUMBA": os.environ.get("FRAMEDRAG_DISABLE_NUMBA"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (wl.SRC / "framedrag" / "cli.py").is_file():
        print(f"error: no framedrag sources under {wl.SRC}; run from a checkout",
              file=sys.stderr)
        return 2

    calib_start = calib_ms()
    metrics, summary = (per_layer if args.trace else end_to_end)(args)
    calib_end = calib_ms()
    if args.trace:
        metrics["host.calib_ms"] = ((calib_start + calib_end) / 2, "ms")

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host.calib_ms": {"start": calib_start, "end": calib_end},
              **environment(), **summary.pop("record"),
              "metrics": {name: value for name, (value, _) in metrics.items()}}
    wl.OUT.mkdir(exist_ok=True)
    name = f"run-{args.workload}-{args.seed}-trace{args.trace}.json"
    (wl.OUT / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(summary | {
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
