from concurrent.futures import ThreadPoolExecutor

import pytest

from substat import estimate


@pytest.fixture
def pools(monkeypatch):
    """The max_workers of each thread pool the package builds, in order."""
    built = []

    class CountingPool(ThreadPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            built.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(estimate, "ThreadPoolExecutor", CountingPool)
    return built


@pytest.fixture
def pool_at_any_size(monkeypatch):
    """Opens the thread pool to patterns of every size."""
    monkeypatch.setattr(estimate, "_POOL_MIN_POINTS", 0)
