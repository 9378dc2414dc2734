"""Checks that hold after every test of the suite."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process behind: the package starts none."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all: the only passing outcome
        return
    pytest.fail(f"the test left a child process behind ({pid or 'still running'})")
