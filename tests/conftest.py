import sys

import pytest

from sfsampler import metrics, samplers


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # surface the one-line acceptance verdicts, which are otherwise hidden
    # by output capture on passing tests
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "REPORT_LINES", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture
def blocks_of(monkeypatch):
    """blocks_of(n) makes run_ensemble and strong_error_curve cut ensembles into blocks
    of n chains, whatever their config and target."""

    def force(n):
        for module in (samplers, metrics):
            monkeypatch.setattr(module, "chains_per_block", lambda cfg, target: n)

    return force
