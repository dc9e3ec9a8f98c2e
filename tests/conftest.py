import contextlib
import multiprocessing
import warnings
from types import SimpleNamespace

import pytest

# hypothesis's pytest plugin imports this module to report a failing example, and the import
# warns (DeprecationWarning, from mypy_extensions), which the suite's error filter would turn
# into an INTERNALERROR that hides the example; imported here once, the report finds it loaded.
# It needs libcst, an optional extra of hypothesis; without it the plugin skips the import too.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401


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
