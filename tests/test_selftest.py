"""Each `qchroma selftest` suite as its own test, on the command's default seed."""

import random

import pytest

from qchroma import selftest


@pytest.mark.parametrize("suite", [suite for _, suite in selftest.SUITES],
                         ids=lambda suite: suite.__name__)
def test_suite(suite):
    assert suite(random.Random(8128)) == ""
