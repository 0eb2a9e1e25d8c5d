import numpy as np
import pytest

from remcr.channel import calibrate
from remcr.scenario import ScenarioConfig


@pytest.fixture(scope="session")
def base_cfg():
    return ScenarioConfig()


@pytest.fixture(scope="session")
def cr(base_cfg):
    return calibrate(base_cfg)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)
