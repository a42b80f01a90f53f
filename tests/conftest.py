import random

import pytest
from hypothesis import settings

from progmoney.crypto import KeyDirectory
from progmoney.registry import Registry

# property tests draw the same examples on every run and write no example
# database, so the suite's result depends on the code alone
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture
def rng():
    return random.Random(1234)


@pytest.fixture
def directory(rng):
    return KeyDirectory()


@pytest.fixture
def registry(directory, rng):
    reg = Registry(directory, rng=rng)
    return reg


@pytest.fixture
def bank(directory, registry, rng):
    registry.authorize_issuer("central", 10**12)
    return directory.create("central", rng)
