"""Shared fixtures: verified zero lists and toy resonator tables.

Zero lists are expensive to build, so they are session-scoped and the
tall one is shared by every suite that scans high.
"""

import pytest

from bsylab.acceptance import TOY_PARAMS, TRIVIAL_TABLE
from bsylab.config import DEFAULT
from bsylab.resonator import build_resonator
from bsylab.zeros import find_zeros_up_to, verify_zero_list


@pytest.fixture(scope="session")
def zeros_100():
    return verify_zero_list(find_zeros_up_to(100.0, DEFAULT), DEFAULT)


@pytest.fixture(scope="session")
def zeros_550():
    return verify_zero_list(find_zeros_up_to(550.0, DEFAULT), DEFAULT)


@pytest.fixture(scope="session")
def zeros_10k():
    return verify_zero_list(find_zeros_up_to(10_050.0, DEFAULT), DEFAULT)


@pytest.fixture(scope="session")
def toy_params():
    return TOY_PARAMS


@pytest.fixture(scope="session")
def toy_table(toy_params):
    return build_resonator(toy_params, "plus")


@pytest.fixture(scope="session")
def trivial_table():
    return TRIVIAL_TABLE
