"""Fixtures for testing where work runs (``repro.engine.batch.on_driver``)."""
import pytest

from repro.engine import batch


@pytest.fixture
def on_each_backend(monkeypatch):
    """``run(fn)`` calls ``fn()`` with the size rule's own limit (test inputs
    are small, so they run in the driver) and again with
    ``DRIVER_MAX_EDGES`` = 0 (Spark); returns ``{"driver": .., "spark": ..}``."""

    def run(fn):
        out = {}
        for name, limit in (("driver", batch.DRIVER_MAX_EDGES), ("spark", 0)):
            monkeypatch.setattr(batch, "DRIVER_MAX_EDGES", limit)
            out[name] = fn()
        return out

    return run


class _NoSpark:
    def __getattr__(self, name):
        raise AssertionError(f"Spark touched: {name}")


@pytest.fixture
def no_spark():
    """A session object that fails on any use: proves no Spark job starts."""
    return _NoSpark()
