"""Session-wide checks of tier-1."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process unreaped, running or
    exited, as the warning filters fail one that leaves a file open."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process unreaped ({f'pid {pid}' if pid else 'still running'})")
