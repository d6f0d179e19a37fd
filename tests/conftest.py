"""Every test starts with every package cache empty, so no verdict depends
on the tests that ran before it; scripts/mutants.py runs its copies of
these tests the same way."""

import pytest

from statements import clear_caches


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_caches()
