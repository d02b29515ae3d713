"""A source whose reports wait for the test: holds a slot of the gate."""

import threading

import pytest

from repro.core.report import RecencyReporter


class HeldSource:
    """Coordinator-shaped (it has ``report``, so every slot shares it): each
    report announces itself on ``entered``, then waits for ``release``."""

    def __init__(self, backend):
        self.reporter = RecencyReporter(backend)
        self.entered = threading.Event()
        self.release = threading.Event()
        self.reports = 0

    def report(self, sql, method):
        self.reports += 1
        self.entered.set()
        assert self.release.wait(timeout=10.0), "the test never released the report"
        return self.reporter.report(sql, method=method)

    def close(self):
        pass


@pytest.fixture
def held_source(paper_memory_backend):
    source = HeldSource(paper_memory_backend)
    yield source
    source.release.set()
    source.reporter.close()
