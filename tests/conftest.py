import tracemalloc

import pytest

from qnormal3d.densities import ModelParams


@pytest.fixture
def params():
    """A generic interior parameter point used across suites."""
    return ModelParams(0.3, 0.4, 0.5, 0.5)


@pytest.fixture
def traced_peak():
    """Peak bytes traced while one call runs, and its result."""

    def run(fn):
        already = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            result = fn()
            return tracemalloc.get_traced_memory()[1], result
        finally:
            if not already:
                tracemalloc.stop()

    return run
