"""Layer spans for gammacert, recorded from outside the package.

``Tracer`` rebinds, in each consumer module, every function it imported from
another gammacert module (``hfamily`` binds the kernel, ``certify`` binds the
kernel and ``logh_derivs_with_scale``, ``cli`` binds ``certify``, ``ineq``,
``ballvol`` and ``report``, ...), plus the entry points a module calls
through its own globals (``certify.certify_lcm`` from ``scan_values``,
``cli.build_suite``, ``cli.verify_csv`` / ``cli.scan_csv``).  Each wrapper
records one span: name, start, end, parent span and op id.  Spans stay in
flat in-memory arrays until ``write`` saves them.  A span's self time is its
duration minus the time its direct children cover.  No file of the package
changes, and leaving the ``with`` block restores every original binding.
"""

from __future__ import annotations

import inspect
import time
from array import array
from collections import Counter

import numpy as np

from gammacert import ballvol, certify, cli, hfamily, ineq, report
from gammacert.certify import Verdict
from gammacert.ineq import CheckResult

CONSUMERS = (hfamily, ineq, certify, ballvol, report, cli)
KERNEL = ("lngamma", "digamma", "polygamma")
SURFACE = ("alpha_necessary_bound", "q_surface", "log_h")
SUITES = ("lemmas", "thm1", "thm2", "thm3", "ball", "aux")

#: Per-layer metrics of a traced run: name -> unit.  Counts and seconds are
#: totals over the run's fixed op set; per-call figures are means.
LAYER_METRICS = {
    **{f"gammakit.{f}.calls": "count" for f in KERNEL},
    **{f"gammakit.{f}.us_per_call": "us" for f in KERNEL},
    "gammakit.self_s": "s",
    "gammakit.us_per_call": "us",
    "hfamily.logh_derivs_with_scale.calls": "count",
    "hfamily.logh_derivs_with_scale.self_s": "s",
    "hfamily.us_per_point": "us",
    "hfamily.surface.calls": "count",
    "hfamily.surface.self_s": "s",
    "certify.certify_lcm.calls": "count",
    "certify.certify_lcm.pass": "count",
    "certify.certify_lcm.fail": "count",
    "certify.certify_lcm.self_s": "s",
    "certify.certify_lcm.pass_ms": "ms",
    "certify.certify_lcm.early_fail_ms": "ms",
    "certify.values_computed": "count",
    "certify.values_inspected": "count",
    "certify.useful_ratio": "ratio",
    "certify.undecided_points": "count",
    "certify.verify_thm3.calls": "count",
    "certify.verify_thm3.self_s": "s",
    "certify.scan_values.ms_per_cell": "ms",
    "ineq.calls": "count",
    "ineq.checks": "count",
    "ineq.self_s": "s",
    "ballvol.self_s": "s",
    "means.self_s": "s",
    "report.build_report.self_s": "s",
    "report.dumps.self_s": "s",
    "report.json_bytes": "bytes",
    **{f"cli.suite.{s}.s": "s" for s in SUITES},
    "cli.render.self_s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.ops": "count",
    "trace.spans": "count",
    "trace.overhead_ratio": "ratio",
}

#: Metrics that must repeat exactly between two traced runs of one seed.
EXACT = tuple(n for n, u in LAYER_METRICS.items()
              if u in ("count", "bytes") or n == "certify.useful_ratio")


def _layer(fn) -> str:
    return fn.__module__.rsplit(".", 1)[-1]


def _suite_name(suite, *args, **kwargs) -> str:
    return f"cli.suite.{suite}"


class Tracer:
    """Context manager that traces gammacert's layer boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.op_id = 0
        self.counts: Counter = Counter()
        self.certs: list = []  # (span index, Certificate)
        self._stack = [-1]
        self._saved: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, label=None):
        """fn recording a span per call; label(*args) renames it per call."""
        nid = self._id(name)
        hook = self._hook(name)
        name_id, parent, op, start, end = (
            self.name_id, self.parent, self.op, self.start, self.end)
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid if label is None else self._id(label(*args)))
            parent.append(stack[-1])
            op.append(self.op_id)
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            start[i] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if hook is not None:
                hook(i, result)
            return result

        return traced

    def _hook(self, name: str):
        counts = self.counts
        if name.startswith("ineq."):
            def hook(i, result):
                counts["ineq.checks"] += (len(result) if isinstance(result, list)
                                          else isinstance(result, CheckResult))
            return hook
        if name == "report.dumps":
            return lambda i, result: counts.update({"report.json_bytes": len(result)})
        if name == "certify.scan_values":
            return lambda i, result: counts.update({"certify.scan_values.cells": len(result)})
        if name == "certify.certify_lcm":
            return lambda i, result: self.certs.append((i, result))
        return None

    def __enter__(self) -> "Tracer":
        targets = [
            (mod, attr, f"{_layer(obj)}.{obj.__name__}", None)
            for mod in CONSUMERS for attr, obj in vars(mod).items()
            if inspect.isfunction(obj) and obj.__module__ != mod.__name__
            and obj.__module__.startswith("gammacert.")]
        targets += [(certify, "certify_lcm", "certify.certify_lcm", None),
                    (cli, "build_suite", "cli.suite", _suite_name),
                    (cli, "verify_csv", "cli.render", None),
                    (cli, "scan_csv", "cli.render", None)]
        for mod, attr, name, label in targets:
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self.wrap(original, name, label))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    # -- analysis ----------------------------------------------------------

    def _arrays(self):
        dur = np.array(self.end) - np.array(self.start)
        return np.array(self.name_id), np.array(self.parent), dur

    def write(self, path) -> None:
        nid, par, _ = self._arrays()
        np.savez(path, names=np.array(self.names), name_id=nid, parent=par,
                 op=np.array(self.op), start=np.array(self.start),
                 end=np.array(self.end))

    def metrics(self, ops: int, output_bytes: int, overhead_ratio: float) -> dict:
        """Every LAYER_METRICS value for the spans recorded so far."""
        nid, par, dur = self._arrays()
        n, k = dur.size, len(self.names)
        child = par >= 0
        own = dur - np.bincount(par[child], weights=dur[child], minlength=n)
        calls = np.bincount(nid, minlength=k)
        incl = np.bincount(nid, weights=dur, minlength=k)
        self_s = np.bincount(nid, weights=own, minlength=k)
        ids = self._ids

        def total(arr, names) -> float:
            return float(sum(arr[ids[x]] for x in names if x in ids))

        def prefixed(arr, prefix: str) -> float:
            return total(arr, [x for x in ids if x.startswith(prefix)])

        def per(num: float, den: float, scale: float) -> float:
            return num / den * scale if den else 0.0

        m: dict[str, float] = {}
        for f in KERNEL:
            name = f"gammakit.{f}"
            m[f"{name}.calls"] = total(calls, [name])
            m[f"{name}.us_per_call"] = per(total(incl, [name]), m[f"{name}.calls"], 1e6)
        m["gammakit.self_s"] = prefixed(self_s, "gammakit.")
        m["gammakit.us_per_call"] = per(prefixed(incl, "gammakit."),
                                        prefixed(calls, "gammakit."), 1e6)
        table = "hfamily.logh_derivs_with_scale"
        m[f"{table}.calls"] = total(calls, [table])
        m[f"{table}.self_s"] = total(self_s, [table])
        m["hfamily.us_per_point"] = per(total(incl, [table]), m[f"{table}.calls"], 1e6)
        surface = [f"hfamily.{f}" for f in SURFACE]
        m["hfamily.surface.calls"] = total(calls, surface)
        m["hfamily.surface.self_s"] = total(self_s, surface)

        m.update(self._certificate_metrics(nid, par, dur, ids.get(table)))
        lcm = "certify.certify_lcm"
        m[f"{lcm}.calls"] = total(calls, [lcm])
        m[f"{lcm}.self_s"] = total(self_s, [lcm])
        m["certify.verify_thm3.calls"] = total(calls, ["certify.verify_thm3"])
        m["certify.verify_thm3.self_s"] = total(self_s, ["certify.verify_thm3"])
        m["certify.scan_values.ms_per_cell"] = per(
            total(incl, ["certify.scan_values"]),
            self.counts["certify.scan_values.cells"], 1e3)

        m["ineq.calls"] = prefixed(calls, "ineq.")
        m["ineq.checks"] = float(self.counts["ineq.checks"])
        for layer in ("ineq", "ballvol", "means"):
            m[f"{layer}.self_s"] = prefixed(self_s, f"{layer}.")
        m["report.build_report.self_s"] = total(self_s, ["report.build_report"])
        m["report.dumps.self_s"] = total(self_s, ["report.dumps"])
        m["report.json_bytes"] = float(self.counts["report.json_bytes"])
        for s in SUITES:
            m[f"cli.suite.{s}.s"] = total(incl, [f"cli.suite.{s}"])
        m["cli.render.self_s"] = total(self_s, ["cli.render"])
        m["cli.self_s"] = prefixed(self_s, "cli.")
        m["cli.output_bytes"] = float(output_bytes)
        m["trace.ops"] = float(ops)
        m["trace.spans"] = float(n)
        m["trace.overhead_ratio"] = overhead_ratio
        return {name: int(m[name]) if unit in ("count", "bytes") else m[name]
                for name, unit in LAYER_METRICS.items()}

    def _certificate_metrics(self, nid, par, dur, table_id) -> dict:
        tables = (np.bincount(par[nid == table_id], minlength=dur.size)
                  if table_id is not None else np.zeros(dur.size, dtype=int))
        passed = failed = computed = inspected = undecided = 0
        pass_s, early = [], []
        for i, cert in self.certs:
            computed += int(tables[i]) * cert.k_max
            undecided += cert.undecided_points
            xs = certify.grid_points(cert.grid, cert.params.y)
            n = xs.size
            if cert.verdict is Verdict.PASS:
                passed += 1
                inspected += cert.k_max * n
                pass_s.append(dur[i])
            else:
                failed += 1
                index = int(np.flatnonzero(xs == cert.witness.x)[0])
                inspected += (cert.witness.k - 1) * n + index + 1
                if cert.witness.k == 1:
                    early.append(dur[i])
        return {
            "certify.certify_lcm.pass": float(passed),
            "certify.certify_lcm.fail": float(failed),
            "certify.certify_lcm.pass_ms": 1e3 * float(np.mean(pass_s)) if pass_s else 0.0,
            "certify.certify_lcm.early_fail_ms": 1e3 * float(np.mean(early)) if early else 0.0,
            "certify.values_computed": float(computed),
            "certify.values_inspected": float(inspected),
            "certify.useful_ratio": inspected / computed if computed else 0.0,
            "certify.undecided_points": float(undecided),
        }
