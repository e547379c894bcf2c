"""Shared fixtures plus a terminal summary of the acceptance criteria.

Tests marked ``@pytest.mark.acceptance(num, title)`` get one PASS/FAIL/SKIP
line each in a dedicated section at the end of the run (SKIP for a skip
raised in setup or in the test body).
"""

import pytest

_criteria = {}
_results = {}
_STATUS = {"passed": "PASS", "failed": "FAIL", "skipped": "SKIP"}


def pytest_collection_modifyitems(items):
    for item in items:
        marker = item.get_closest_marker("acceptance")
        if marker is not None:
            _criteria[item.nodeid] = (marker.args[0], marker.args[1])


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if item.nodeid not in _criteria:
        return
    if report.when == "call" or (report.when == "setup" and not report.passed):
        _results[item.nodeid] = _STATUS[report.outcome]


def pytest_terminal_summary(terminalreporter):
    if not _criteria:
        return
    terminalreporter.section("acceptance criteria")
    for nodeid, (num, title) in sorted(_criteria.items(), key=lambda kv: kv[1][0]):
        status = _results.get(nodeid, "NOT RUN")
        terminalreporter.write_line(f"[{status:>7}] criterion {num:2d}: {title}")
