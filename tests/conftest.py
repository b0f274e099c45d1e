"""Shared test configuration.

Collects the outcome of every test in test_acceptance.py and prints a
one-line PASS/FAIL verdict per criterion at the end of the run.
"""

from __future__ import annotations

from hypothesis import settings

# print_blob: a failing draw prints its @reproduce_failure blob, so a rare
# draw seen in a CI log can be replayed
settings.register_profile("suite", deadline=None, print_blob=True)
settings.load_profile("suite")

_ACCEPTANCE: dict[str, str] = {}


def pytest_runtest_logreport(report) -> None:
    if "test_acceptance.py" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if report.failed:
        _ACCEPTANCE[name] = "FAIL"
    elif report.when == "call" and report.passed:
        # a later teardown failure would overwrite this via the branch above
        _ACCEPTANCE.setdefault(name, "PASS")


def pytest_terminal_summary(terminalreporter, exitstatus, config) -> None:
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(_ACCEPTANCE):
        terminalreporter.write_line(f"{_ACCEPTANCE[name]}  {name}")
