import pytest

from fermipin import fock


@pytest.fixture(autouse=True)
def fresh_spaces():
    """Start each test with no space held by ``fock.enumerate_space``, so a
    test that counts builds sees them on fresh spaces."""
    fock.clear_spaces()
