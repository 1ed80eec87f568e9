"""Suite-wide checks."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test after which the test process still has a child, running
    or exited but not reaped: every process the program forks must be
    reaped before the call that forked it returns or raises."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    if pid:
        pytest.fail(f"child process {pid} was left unreaped (wait status {status})")
    pytest.fail("a child process is still running after the test")
