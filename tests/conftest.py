import tempfile

import pytest
from hypothesis.configuration import set_hypothesis_home_dir

import hypaction as H

_HYPOTHESIS_HOME = pytest.StashKey[tempfile.TemporaryDirectory]()


def pytest_configure(config):
    # hypothesis caches the constants it reads from the source under its home
    # directory, ./.hypothesis by default, while tests are collected; it gets a
    # temporary directory instead, removed when the run ends
    home = config.stash[_HYPOTHESIS_HOME] = tempfile.TemporaryDirectory(prefix="hypothesis-")
    set_hypothesis_home_dir(home.name)


def pytest_unconfigure(config):
    config.stash[_HYPOTHESIS_HOME].cleanup()


@pytest.fixture(scope="session")
def f2():
    return H.FreeGroupSpec(2)


@pytest.fixture(scope="session")
def z23():
    return H.FreeProductSpec((2, 3))


@pytest.fixture(scope="session")
def f2_engine(f2):
    return H.ChainEngine(f2)


@pytest.fixture(scope="session")
def z23_engine(z23):
    return H.ChainEngine(z23)


@pytest.fixture(scope="session")
def f2_ball3(f2):
    return H.build_ball(f2, 3)


@pytest.fixture(scope="session")
def f2_ball6(f2):
    return H.build_ball(f2, 6)


@pytest.fixture(scope="session")
def f2_ball10(f2):
    return H.build_ball(f2, 10)


@pytest.fixture(scope="session")
def z23_ball6(z23):
    return H.build_ball(z23, 6)


@pytest.fixture(scope="session")
def z23_ball8(z23):
    return H.build_ball(z23, 8)
