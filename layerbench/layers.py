"""The traced run: per-layer metrics named after the framedrag modules.

Fresh-process passes (run from the runner):
  * ``interpreter.bare_ms``: ``python -c pass``;
  * ``import.<module>.cumulative_ms``: ``-X importtime``;
  * ``import.modules_loaded.<cmd>``, ``cli.<cmd>.p50_ms``, ``cli.reject.p50_ms``:
    each command as a fresh process, outputs checked;
  * ``kernels.*``: the Fock probe, one fresh process per size.

In-process pass (``worker.py --layers``): ``cli.<cmd>.inproc_ms``, then
oracle-verify and scan-export ops untraced and traced, with spans around
the public functions each layer exposes; then the hold-out pools.
"""

from __future__ import annotations

import json
import re
import statistics
import subprocess
import sys
import time

import check
import workloads as wl

# Modules whose -X importtime cumulative cost is reported.  The import line
# names every one of them, so each is listed wherever it first loads, even
# after an import moves into a function.
IMPORT_MODULES = ("framedrag", "framedrag.cli", "framedrag.reference", "framedrag.fiber",
                  "framedrag.interference", "framedrag.kerr", "scipy.integrate",
                  "scipy.optimize", "mpmath", "numpy")
IMPORT_LINE = "import framedrag.cli, framedrag.reference, scipy.integrate, scipy.optimize, mpmath"
CLOSED_FORM = ("kerr", "equivalence", "feasibility", "fig1", "fig3")
FOCK_SIZES = (256, 1024, 2048)
REPEATS = 3
TRACED_OPS = 2

# (span name, module, attribute) of every public function a traced op must hit.
TARGETS = [
    ("kernels.hom_pair_probabilities", "framedrag._kernels", "hom_pair_probabilities"),
    ("interference.hom_coincidence_general", "framedrag.interference", "hom_coincidence_general"),
    ("interference.single_photon_prob_quadrature", "framedrag.interference",
     "single_photon_prob_quadrature"),
    ("interference.fock_oracle_hom", "framedrag.interference", "fock_oracle_hom"),
    ("interference.hom_coincidence_gaussian", "framedrag.interference", "hom_coincidence_gaussian"),
    ("fiber.downconverted_coincidence", "framedrag.fiber", "downconverted_coincidence"),
    ("kerr.blackhole_scan", "framedrag.kerr", "blackhole_scan"),
    ("quad", "scipy.integrate", "quad"),
]
ORACLE_SPANS = ("kernels.hom_pair_probabilities", "interference.hom_coincidence_general",
                "interference.single_photon_prob_quadrature", "interference.fock_oracle_hom",
                "fiber.downconverted_coincidence", "quad")
SCAN_SPANS = ("kerr.blackhole_scan", "interference.hom_coincidence_gaussian")


def _run(cmd: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=wl.child_env(),
                          cwd=wl.ROOT, check=False)
    return time.perf_counter() - start, proc


def _importtime(stderr: str) -> dict[str, float]:
    """First cumulative time (ms) of each module in ``-X importtime`` output."""
    found: dict[str, float] = {}
    for line in stderr.splitlines():
        match = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)$", line)
        if match:
            found.setdefault(match.group(2), int(match.group(1)) / 1000.0)
    return found


def fresh_process(reference: dict) -> tuple[dict[str, float], list[str], int, str]:
    """Fresh-process layer metrics, the problems seen, the ops checked, the kernel backend."""
    from worker import check_entry

    metrics: dict[str, float] = {}
    problems: list[str] = []
    ops = 0

    metrics["interpreter.bare_ms"] = 1e3 * statistics.median(
        _run([sys.executable, "-c", "pass"])[0] for _ in range(5))

    samples: dict[str, list[float]] = {name: [] for name in IMPORT_MODULES}
    for _ in range(REPEATS):
        _, proc = _run([sys.executable, "-X", "importtime", "-c", IMPORT_LINE])
        if proc.returncode != 0:
            raise RuntimeError(f"import pass failed: {proc.stderr[-300:]}")
        times = _importtime(proc.stderr)
        for name in IMPORT_MODULES:
            if name not in times:
                raise RuntimeError(f"-X importtime never listed {name}")
            samples[name].append(times[name])
    for name, values in samples.items():
        metrics[f"import.{name}.cumulative_ms"] = statistics.median(values)

    for cmd in wl.COMMANDS:
        entry = reference["defaults"][cmd]
        _, proc = _run([sys.executable, "-X", "importtime", "-m", "framedrag.cli", cmd])
        metrics[f"import.modules_loaded.{cmd}"] = len(_importtime(proc.stderr))
        times = []
        for _ in range(REPEATS):
            latency, proc = _run(wl.cli_command(entry["argv"]))
            times.append(latency)
            ops += 1
            problems += check_entry(cmd, entry, proc.returncode, proc.stdout, proc.stderr)
        metrics[f"cli.{cmd}.p50_ms"] = 1e3 * statistics.median(times)
    rejects = []
    for argv in wl.KNOWN_BAD:
        latency, proc = _run(wl.cli_command(argv))
        rejects.append(latency)
        ops += 1
        problems += [f"{p}: {' '.join(argv)}"
                     for p in check.check_reject(proc.returncode, proc.stdout, proc.stderr)]
    metrics["cli.reject.p50_ms"] = 1e3 * statistics.median(rejects)
    metrics["share.cli-oneshot.import"] = statistics.median(
        metrics["import.framedrag.cli.cumulative_ms"] / metrics[f"cli.{cmd}.p50_ms"]
        for cmd in CLOSED_FORM)

    probe = str(wl.BENCH_DIR / "fock_probe.py")
    for size in FOCK_SIZES:
        _, proc = _run([sys.executable, probe, str(size)])
        if proc.returncode != 0:
            raise RuntimeError(f"Fock probe M={size} failed: {proc.stderr[-300:]}")
        result = json.loads(proc.stdout.splitlines()[-1])
        ops += 1
        problems += result["problems"]
        metrics[f"kernels.probe_ms.M{size}"] = result["median_ms"]
        metrics[f"kernels.pairs_per_s.M{size}"] = result["pairs_per_s"]
        metrics[f"kernels.peak_rss_mb.M{size}"] = result["peak_rss_mb"]
    return metrics, problems, ops, result["backend"]


# --- in-process pass (runs inside worker.py --layers) -----------------------

def in_process(reference: dict, seed: int) -> dict:
    import spans
    from worker import OracleVerify, ScanExport, check_entry

    oracle, scan = OracleVerify(reference, seed), ScanExport(reference, seed)
    metrics: dict[str, float] = {}
    problems: list[str] = []
    ops = 0

    for cmd in wl.COMMANDS:
        entry = reference["defaults"][cmd]
        times = []
        for _ in range(REPEATS + 1):
            latency, _, [(rc, out, err)] = oracle.timed([entry["argv"]])
            times.append(latency)
            ops += 1
            problems += check_entry(cmd, entry, rc, out, err)
        metrics[f"cli.{cmd}.inproc_ms"] = 1e3 * statistics.median(times[1:])

    untraced = 0.0
    for client in (oracle, scan):
        client.warm_up()
        for _ in range(TRACED_OPS):
            op = client.batch()[0]
            untraced += op.latency
            ops += 1
            problems += op.problems

    recorder = spans.Recorder()
    checks = [name for name in dir(sys.modules["framedrag.reference"])
              if name.startswith("check_")]
    labels = {f"reference.{name}": (lambda res, name=name: f"reference.{getattr(res, 'name', name)}")
              for name in checks}
    spans.install(recorder, TARGETS + [(f"reference.{name}", "framedrag.reference", name)
                                       for name in checks], labels)
    traced = 0.0
    segments = {}
    for client in (OracleVerify(reference, seed), ScanExport(reference, seed)):
        main = client.main
        client.main = lambda argv, main=main: recorder.wrap(f"cli.{argv[0]}", main)(argv)
        first = len(recorder.spans)
        csv_bytes = 0
        for _ in range(TRACED_OPS):
            op = client.batch()[0]
            traced += op.latency
            csv_bytes += op.csv_bytes
            ops += 1
            problems += op.problems
        segments[client.name] = (recorder.summary(first), client)
        if client.name == "scan-export":
            metrics["cli.csv_bytes_per_op"] = csv_bytes / TRACED_OPS
    metrics["trace.overhead_ratio"] = traced / untraced

    oracle_spans, oracle_client = segments["oracle-verify"]
    check_names = [m.group(1) for m in re.finditer(r"^(?:PASS|FAIL) ([\w-]+):",
                                                   reference["defaults"]["verify"]["stdout"], re.M)]
    required = [*ORACLE_SPANS, "cli.verify", "cli.hom",
                *(f"reference.{name}" for name in check_names)]
    _require(oracle_spans, required, "oracle-verify")
    per_op = 1e3 / TRACED_OPS
    for name in ORACLE_SPANS:
        metrics[f"{name}.calls"] = oracle_spans[name]["calls"] / TRACED_OPS
        metrics[f"{name}.busy_ms"] = oracle_spans[name]["busy_s"] * per_op
    for name in check_names:
        metrics[f"reference.{name}.busy_ms"] = oracle_spans[f"reference.{name}"]["busy_s"] * per_op
    op_busy = oracle_spans["cli.verify"]["busy_s"] + oracle_spans["cli.hom"]["busy_s"]
    metrics["share.oracle-verify.kernel"] = (
        oracle_spans["kernels.hom_pair_probabilities"]["busy_s"] / op_busy)
    margins = check.verify_margins(oracle_client.last_verify)
    for name in check_names:
        metrics[f"reference.{name}.margin"] = margins[name]
    metrics["reference.checks_passed"] = sum(
        line.startswith("PASS ") for line in oracle_client.last_verify.splitlines())

    scan_spans, _ = segments["scan-export"]
    _require(scan_spans, [*SCAN_SPANS, "cli.fig1", "cli.fig3"], "scan-export")
    for name in ("fig1", "fig3"):
        metrics[f"cli.{name}.self_ms"] = scan_spans[f"cli.{name}"]["self_s"] * per_op
    scan_busy = scan_spans["kerr.blackhole_scan"]["busy_s"]
    metrics["kerr.blackhole_scan.busy_ms"] = scan_busy * per_op
    metrics["kerr.blackhole_scan.points_per_s"] = (
        wl.SCAN_POINTS * scan_spans["kerr.blackhole_scan"]["calls"] / scan_busy)
    gaussian = scan_spans["interference.hom_coincidence_gaussian"]
    metrics["interference.hom_coincidence_gaussian.calls"] = gaussian["calls"] / TRACED_OPS
    metrics["interference.hom_coincidence_gaussian.busy_ms"] = gaussian["busy_s"] * per_op
    metrics["share.scan-export.render"] = (
        (scan_spans["cli.fig1"]["self_s"] + scan_spans["cli.fig3"]["self_s"])
        / (scan_spans["cli.fig1"]["busy_s"] + scan_spans["cli.fig3"]["busy_s"]))

    holdout_ops, holdout_problems = _holdout(reference, oracle, scan)
    return {"metrics": metrics, "problems": problems + holdout_problems,
            "ops": ops + holdout_ops}


def _require(summary: dict, names: list[str], workload: str) -> None:
    missing = [name for name in names if summary.get(name, {}).get("calls", 0) == 0]
    if missing:
        raise RuntimeError(f"traced {workload} ops recorded no calls for {missing}")


def _holdout(reference: dict, oracle, scan) -> tuple[int, list[str]]:
    """Check every hold-out entry once, in process."""
    from worker import check_entry

    ops, problems = 0, []
    for kind, pool in reference["pools"].items():
        for entry in pool["holdout"]:
            argv = entry["argv"]
            if kind.startswith("scan-"):
                path = wl.OUT / f"holdout-{kind}.csv"
                rc, out, err = scan.call([*argv, "--csv", str(path)])
                out = path.read_text(encoding="ascii") + out if rc == 0 else out
            else:
                rc, out, err = oracle.call(argv)
            ops += 1
            problems += check_entry(f"holdout {kind}", entry, rc, out, err)
    return ops, problems
