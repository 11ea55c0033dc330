import pytest

from qlcm.arith import build_tables


@pytest.fixture(scope="session")
def tables_big():
    # shared by the summatory envelopes and the acceptance run; ~0.3 s to build
    return build_tables(10**6)


@pytest.fixture(scope="session")
def tables_mid():
    # covers the n <= 16000 moment checks and the dense variance oracle
    # without the 10^6 footprint
    return build_tables(20000)


@pytest.fixture(scope="session")
def tables_small():
    return build_tables(1000)
