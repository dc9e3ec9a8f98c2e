import multiprocessing
from types import SimpleNamespace

import pytest

from substat import estimate


@pytest.fixture
def pools(monkeypatch):
    """The workers of each map that forked, in order: its children plus the caller."""
    built = []
    get_context = multiprocessing.get_context

    def counting_context(method):
        ctx = get_context(method)
        built.append(1)

        class CountingProcess(ctx.Process):
            def start(self):
                built[-1] += 1
                super().start()

        return SimpleNamespace(Pipe=ctx.Pipe, Process=CountingProcess)

    monkeypatch.setattr(multiprocessing, "get_context", counting_context)
    return built


@pytest.fixture
def pool_at_any_size(monkeypatch):
    """Opens the worker pool to maps of every size."""
    monkeypatch.setattr(estimate, "_FORK_MIN_PAIRS", 0)
