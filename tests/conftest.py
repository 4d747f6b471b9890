import os

import pytest


@pytest.fixture
def report_cores(monkeypatch):
    """``report_cores(k)`` shows the process an affinity mask of k cores,
    the one control of ``mc_estimate``'s worker count."""

    def report(k):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)), raising=False)

    return report
