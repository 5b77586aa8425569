import pytest

from qnormal3d.densities import ModelParams


@pytest.fixture
def params():
    """A generic interior parameter point used across suites."""
    return ModelParams(0.3, 0.4, 0.5, 0.5)
