"""Fixtures shared by the test modules."""

import pytest

from sinecast import autodiff


@pytest.fixture
def set_cpus(monkeypatch):
    """Set `autodiff._CPUS`, with a fresh pool sized from it, for the
    attention and scoring splits.

    Each call shuts down the pool the previous count created; the last one is
    shut down after the test, and the session's pool is restored.
    """
    monkeypatch.setattr(autodiff, "_pool", None)

    def set_to(n):
        if autodiff._pool is not None:
            autodiff._pool.shutdown()
            autodiff._pool = None
        monkeypatch.setattr(autodiff, "_CPUS", n)

    yield set_to
    set_to(1)
