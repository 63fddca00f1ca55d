import os

import pytest


@pytest.fixture
def cpus(monkeypatch):
    """Set how many CPUs the process may use; on leaving, assert that no child process is left."""
    yield lambda k: monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)), raising=False)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
