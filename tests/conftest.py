import multiprocessing

import pytest


@pytest.fixture
def no_process(monkeypatch):
    """Fail the test at any attempt to start a process: sequences.pool_map
    starts every process of the package from the fork context's Process."""
    def refuse(*args, **kwargs):
        raise AssertionError("a process was started")

    if "fork" in multiprocessing.get_all_start_methods():
        monkeypatch.setattr(multiprocessing.get_context("fork"), "Process", refuse)
