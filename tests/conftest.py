from __future__ import annotations

import pytest
from hypothesis import settings

from ringwaves.groups import dihedral_lattice, gamma_prime_lattice
from ringwaves.twisted import twisted_context

# the same examples on every run, and no per-example time limit on a loaded box
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def lat_d3():
    return dihedral_lattice(3)


@pytest.fixture(scope="session", params=None)
def lat3():
    return gamma_prime_lattice(3)


@pytest.fixture(scope="session")
def ctx3(lat3):
    return twisted_context(lat3)


@pytest.fixture(scope="session")
def lat7():
    return gamma_prime_lattice(7)


@pytest.fixture(scope="session")
def ctx7(lat7):
    return twisted_context(lat7)
