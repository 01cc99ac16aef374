import signal

import pytest


@pytest.fixture
def deadline():
    """End a test that has run for 10 s with TimeoutError (SIGALRM), so a hang fails it."""
    def expire(signum, frame):
        raise TimeoutError("still running after 10 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(10)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
