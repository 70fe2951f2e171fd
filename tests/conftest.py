import threading
import tracemalloc

import pytest


@pytest.fixture(autouse=True)
def no_leftover_threads():
    """Fail a test that leaves a thread running that it started, such as a sampler's."""
    before = set(threading.enumerate())
    yield
    new = [thread for thread in threading.enumerate() if thread not in before]
    for thread in new:
        thread.join(timeout=1.0)  # a thread that was told to stop may still be ending
    alive = [thread.name for thread in new if thread.is_alive()]
    if alive:
        pytest.fail(f"test left live threads: {alive}")


@pytest.fixture
def traced_peak():
    """traced_peak(fn) calls fn() and returns the peak bytes tracemalloc saw meanwhile."""
    def measure(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return measure
