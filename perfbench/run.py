"""gammacert benchmark: closed-loop CLI workloads, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 20 --trace 0

Workloads (``workloads.py``): ``verify-all`` (the full claim catalog as JSON),
``scan-dense`` (one 41-cell y-row of the (alpha, y) plane) and
``catalog-csv`` (the certificate-free suites as CSV).  The seed fixes every
op's argv; the program sees only those argv.  The package is not installed:
every process runs with ``PYTHONPATH=src``.

``--trace 0`` reports the end-to-end metrics.  Every time among them is in
reference seconds: wall time scaled by a calibration task timed around it on
the same core (``hostclock.py``; the task includes an interpreter start for
the two metrics that start processes), so that the shared host's drift in
speed cancels.  The raw median op time is printed beside them.

- ``setup_s``: median time of a cold ``python -c "import gammacert.cli"``;
- ``process_s``: median time of one op run as fresh
  ``python -m gammacert.cli`` processes (one per CLI call of the op);
- ``op_p50_s``: median warm op time inside one long-lived process (``loop.py``)
  that runs whole op blocks back to back for ``--seconds``;
- ``items_per_s``: median over warm ops of result items (checks,
  certificates or scan cells) per reference second of the op;
- ``peak_rss_mb``: peak resident set of that process.

``--trace 1`` runs a fixed op set under ``tracing.Tracer`` and reports the
per-layer metrics of ``tracing.LAYER_METRICS``.  Every op's output is checked
(``workloads.check``); a failed check or an exception is a failed op.  The
last stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl
from hostclock import HostClock

SETUP_RUNS = 7
PROCESS_RUNS = 13
CHILD_TIMEOUT_S = 150

END_TO_END = {"setup_s": "s", "process_s": "s", "op_p50_s": "s",
              "items_per_s": "1/s", "peak_rss_mb": "MB"}


def _env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH="src" + (f":{path}" if path else ""))


def _timed(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    proc = subprocess.run(argv, env=_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - t0, proc


def setup_seconds() -> list[float]:
    """Reference seconds of cold imports of the CLI module in fresh interpreters."""
    times, clock = [], HostClock(processes=True)
    for _ in range(SETUP_RUNS):
        seconds, proc = _timed([sys.executable, "-c", "import gammacert.cli"])
        if proc.returncode != 0:
            raise RuntimeError(f"import gammacert.cli failed:\n{proc.stderr}")
        times.append(clock.scale(seconds))
    return times


def process_seconds(workload: str, seed: int, out: Path) -> tuple[list[float], list[str]]:
    """Reference seconds of ops run as fresh CLI processes, and their failures."""
    times, failures, clock = [], [], HostClock(processes=True)
    for op in next(wl.blocks(workload, seed, "process", size=PROCESS_RUNS)):
        seconds, outputs = 0.0, []
        for call in op.calls:
            out.unlink(missing_ok=True)
            t, proc = _timed([sys.executable, "-m", "gammacert.cli",
                              *wl.argv(call, out)])
            seconds += t
            outputs.append(wl.CallOutput(proc.returncode, proc.stdout,
                                         wl.read_out(call, out)))
        times.append(clock.scale(seconds))
        out.unlink(missing_ok=True)
        _, reason = wl.check(op, outputs)
        if reason is not None:
            failures.append(f"process: {reason}")
    return times, failures


def environment() -> str:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy  # the program's only dependency; reported, not used
    return (f"python {platform.python_version()}, numpy {numpy.__version__}, "
            f"nproc {len(os.sched_getaffinity(0))}, cpu {cpu}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not Path("src/gammacert/cli.py").is_file():
        print("perfbench: src/gammacert/cli.py not found; run from the "
              "repository root", file=sys.stderr)
        return 2

    print(f"environment: {environment()}")
    # One core for this process and every child it starts: the calibration
    # task then runs on the core that runs the timed work, and nothing
    # migrates between cores of different speed mid-measurement.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    metrics: dict[str, float] = {}
    failures: list[str] = []
    attempted = 0
    if not args.trace:
        setup = setup_seconds()
        wl.OUT_DIR.mkdir(exist_ok=True)
        process, failures = process_seconds(
            args.workload, args.seed, wl.OUT_DIR / f"process-{os.getpid()}.out")
        attempted += len(process)
        metrics["setup_s"] = statistics.median(setup)
        metrics["process_s"] = statistics.median(process)
        print(f"setup_s: median of {len(setup)} imports; "
              f"process_s: median of {len(process)} ops")

    _, proc = _timed([
        sys.executable, "perfbench/loop.py", "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace)])
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        print(f"perfbench: workload process exited {proc.returncode}",
              file=sys.stderr)
        return 1
    child = json.loads(proc.stdout.strip().splitlines()[-1])
    attempted += child["attempted"]
    failures += child["failures"]

    if args.trace:
        units = child["units"]
        metrics.update(child["layers"])
        ops = metrics["trace.ops"]
        print(f"traced {ops:g} ops; per op: " + ", ".join(
            f"{s} {metrics[f'cli.suite.{s}.s'] / ops:.4f} s"
            for s in ("lemmas", "thm1", "thm2", "thm3", "ball", "aux")))
    else:
        units = END_TO_END
        ops = child["op_ref_seconds"]
        metrics["op_p50_s"] = statistics.median(ops)
        metrics["items_per_s"] = statistics.median(
            items / t for items, t in zip(child["items"], ops))
        print(f"raw wall clock: op median {statistics.median(child['op_seconds']):.6g} s, "
              f"host factor median {statistics.median(child['host_factors']):.4g} "
              "(reference over measured time of the calibration task)")
        metrics["peak_rss_mb"] = child["peak_rss_mb"]
        print(f"op_p50_s: median of {len(ops)} ops; "
              f"{statistics.median(child['items']):g} items per op (median)")
    print(f"failed_frac {len(failures) / attempted:g} "
          f"({len(failures)} of {attempted} ops)")
    for reason in failures[:10]:
        print(f"  failed: {reason}")
    print(f"outputs_sha256 (first block, timestamps blanked) {child['sha256']}")
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
