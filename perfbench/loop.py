"""One workload's closed loop, run in a fresh process by ``run.py``.

One client and no threads: each op runs back to back in this process through
``gammacert.cli.main(argv)`` with stdout captured, and its outputs are
checked after its timer stops.  A warm-up op runs first, untimed, so lazy
first-call work does not land in the first sample.

Untraced, the loop runs whole stratified blocks until ``--seconds`` have
passed, and times the calibration kernel of ``hostclock.py`` after each op
(outside the op's timer) to scale op times to reference seconds.  Traced, it runs a fixed op set (``trace_blocks`` blocks) twice:
once untraced, for the overhead ratio, and once under ``tracing.Tracer``, so
that the counts of two traced runs of one seed repeat exactly.

The last stdout line is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import workloads as wl
from gammacert import cli
from hostclock import HostClock


def run_op(op: wl.Op, out: Path, main) -> tuple[float, list[wl.CallOutput]]:
    """Seconds spent inside main() and the outputs of each call of op."""
    seconds, outputs = 0.0, []
    for call in op.calls:
        args = wl.argv(call, out)
        out.unlink(missing_ok=True)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            t0 = time.perf_counter()
            code = main(args)
            seconds += time.perf_counter() - t0
        outputs.append(wl.CallOutput(code, buf.getvalue(), wl.read_out(call, out)))
    return seconds, outputs


class Tally:
    """Timings, items and failures of the ops run so far."""

    def __init__(self, clock: HostClock | None = None) -> None:
        self.clock = clock
        self.seconds: list[float] = []
        self.ref_seconds: list[float] = []  # seconds scaled by clock
        self.items: list[int] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.output_bytes = 0

    def run(self, ops, out: Path, main=None, digests: list | None = None) -> None:
        for op in ops:
            self.attempted += 1
            try:
                seconds, outputs = run_op(op, out, main or cli.main)
            except Exception as exc:  # an exception is a failed op
                self.failures.append(f"{op.calls[0]}: {type(exc).__name__}: {exc}")
                if self.clock:
                    self.clock.scale(0.0)  # keeps the calibration next to each op
                continue
            if self.clock:
                self.ref_seconds.append(self.clock.scale(seconds))
            items, reason = wl.check(op, outputs)
            self.seconds.append(seconds)
            self.items.append(items)
            self.output_bytes += sum(len(o.stdout) + len(o.file) for o in outputs)
            if reason is not None:
                self.failures.append(reason)
            if digests is not None:
                digests.append(wl.digest_text(outputs))


def untraced(workload: str, seed: int, seconds: float, out: Path) -> dict:
    warm, digests = Tally(), []
    warm.run(next(wl.blocks(workload, seed, "warmup", size=1)), out)
    loop = Tally(HostClock())
    blocks = wl.blocks(workload, seed, "loop")
    t0 = time.perf_counter()
    loop.run(next(blocks), out, digests=digests)
    while time.perf_counter() - t0 < seconds:
        loop.run(next(blocks), out)
    return {
        "attempted": warm.attempted + loop.attempted,
        "failures": warm.failures + loop.failures,
        "op_seconds": loop.seconds,
        "op_ref_seconds": loop.ref_seconds,
        "host_factors": loop.clock.factors,
        "items": loop.items,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sha256": wl.sha256(digests),
    }


def traced(workload: str, seed: int, out: Path, count: int | None = None) -> dict:
    """Layer metrics of the first count ops (default trace_blocks blocks)."""
    from tracing import LAYER_METRICS, Tracer  # only traced runs load it

    w = wl.WORKLOADS[workload]
    blocks = wl.blocks(workload, seed, "loop")
    ops = [op for _ in range(w.trace_blocks) for op in next(blocks)][:count]
    warm, plain, seen, digests = Tally(), Tally(), Tally(), []
    warm.run(next(wl.blocks(workload, seed, "warmup", size=1)), out)
    plain.run(ops, out)
    with Tracer() as tracer:
        main = tracer.wrap(cli.main, "cli.main")
        for i, op in enumerate(ops):
            tracer.op_id = i
            seen.run([op], out, main=main,
                     digests=digests if i < w.block else None)
    overhead = statistics.median(seen.seconds) / statistics.median(plain.seconds)
    tracer.write(wl.OUT_DIR / f"spans-{workload}.npz")
    return {
        "attempted": warm.attempted + plain.attempted + seen.attempted,
        "failures": warm.failures + plain.failures + seen.failures,
        "layers": tracer.metrics(len(ops), seen.output_bytes, overhead),
        "units": LAYER_METRICS,
        "sha256": wl.sha256(digests),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    wl.OUT_DIR.mkdir(exist_ok=True)
    out = wl.OUT_DIR / f"op-{os.getpid()}.out"
    try:
        if args.trace:
            result = traced(args.workload, args.seed, out)
        else:
            result = untraced(args.workload, args.seed, args.seconds, out)
    finally:
        out.unlink(missing_ok=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
