import numpy as np
import pytest

from mcpreamble import SystemConfig, design_prototype


@pytest.fixture(scope="session")
def desk():
    return SystemConfig(M=128, L_h=8)


@pytest.fixture(scope="session")
def proto(desk):
    return design_prototype(desk.M, 4)


@pytest.fixture(scope="session")
def small():
    return SystemConfig(M=32, L_h=4)


@pytest.fixture(scope="session")
def small_proto(small):
    return design_prototype(small.M, 4)


def cgauss(rng, *shape):
    """Unit-variance circular complex Gaussian samples."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)
