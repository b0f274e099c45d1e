"""Self-tests of the benchmark: repeatable trace counts and output checks.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import pytest

import loop
import workloads as wl
from tracing import EXACT

SCAN_Y1 = wl.Op((("scan", "--alpha=0.000000:2.000000:0.05", "--y=1:1:1",
                  "--out", wl.OUT),))


@pytest.mark.parametrize("workload,count", [
    ("verify-all", 1), ("scan-dense", 1), ("catalog-csv", 2)])
def test_two_traced_runs_give_identical_counts(workload, count, tmp_path):
    out = tmp_path / "op.out"
    first = loop.traced(workload, 7, out, count=count)
    second = loop.traced(workload, 7, out, count=count)
    assert first["failures"] == second["failures"] == []
    assert first["sha256"] == second["sha256"]
    assert {k: first["layers"][k] for k in EXACT} == {
        k: second["layers"][k] for k in EXACT}
    assert first["layers"]["gammakit.polygamma.calls"] > 0
    assert first["layers"]["trace.ops"] == count


def test_tracing_restores_every_binding(tmp_path):
    from gammacert import certify, cli, hfamily
    before = (cli.main, cli.certify_lcm, certify.certify_lcm,
              certify.logh_derivs_with_scale, hfamily.polygamma)
    loop.traced("scan-dense", 3, tmp_path / "op.out", count=1)
    assert before == (cli.main, cli.certify_lcm, certify.certify_lcm,
                      certify.logh_derivs_with_scale, hfamily.polygamma)


def test_seed_fixes_every_argv():
    def first_blocks(seed):
        gen = wl.blocks("verify-all", seed, "loop")
        return [next(gen) for _ in range(3)]

    assert first_blocks(1) == first_blocks(1)
    assert first_blocks(1) != first_blocks(2)
    # each block puts one op in each quarter of the grid-points range
    for block in first_blocks(5):
        points = sorted(int(op.calls[0][4]) - 150 for op in block)
        assert all(101 * i / 4 - 1 <= p <= 101 * (i + 1) / 4
                   for i, p in enumerate(points))


def test_checker_accepts_real_scan_and_flags_relabelled_cell(tmp_path):
    _, outputs = loop.run_op(SCAN_Y1, tmp_path / "op.out", loop.cli.main)
    assert wl.check(SCAN_Y1, outputs) == (wl.SCAN_CELLS, None)
    lines = outputs[0].file.splitlines()
    row = len(lines) - 1  # alpha = 2 > max{1, 1/(y+1)}: Theorem 1 says LCM
    assert lines[row].endswith(",LCM")
    lines[row] = lines[row][:-len("LCM")] + "NEITHER"
    doctored = wl.CallOutput(0, outputs[0].stdout, "\n".join(lines) + "\n")
    items, reason = wl.check(SCAN_Y1, [doctored])
    assert reason is not None and "expected LCM" in reason


def test_checker_flags_nonzero_exit_code(tmp_path):
    fault = wl.Op((("verify", "--suite", "selftest-fault", "--out", wl.OUT),))
    _, outputs = loop.run_op(fault, tmp_path / "op.out", loop.cli.main)
    assert outputs[0].code == 1
    assert "exit code 1" in wl.check(fault, outputs)[1]


def test_exception_is_a_failed_op(tmp_path):
    def broken(argv):
        raise ValueError("boom")

    tally = loop.Tally()
    tally.run([SCAN_Y1], tmp_path / "op.out", main=broken)
    assert tally.attempted == 1 and len(tally.failures) == 1
    assert tally.seconds == []


def test_untraced_loop_scales_every_timed_op(tmp_path):
    result = loop.untraced("catalog-csv", 4, 0.0, tmp_path / "op.out")
    ops = len(result["op_seconds"])
    assert ops == wl.WORKLOADS["catalog-csv"].block and result["failures"] == []
    assert len(result["op_ref_seconds"]) == len(result["items"]) == ops
    assert len(result["host_factors"]) == ops
    assert all(t > 0 for t in result["op_ref_seconds"])
