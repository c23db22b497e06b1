import sys

import pytest
from hypothesis import settings

from tribkit import SequenceKind, TermCache, binet_constants, compute_roots

settings.register_profile("tribkit", deadline=None)
settings.load_profile("tribkit")


@pytest.fixture(scope="session")
def roots256():
    return compute_roots(256)


@pytest.fixture(scope="session")
def constants256(roots256):
    return binet_constants(256, roots256)


@pytest.fixture()
def t_cache():
    return TermCache(SequenceKind.TRIBONACCI)


@pytest.fixture()
def k_cache():
    return TermCache(SequenceKind.TRIBONACCI_LUCAS)


@pytest.fixture()
def unlimited_str():
    """str() of an int with the int-to-str digit limit lifted for the call."""
    def convert(value: int) -> str:
        if not hasattr(sys, "set_int_max_str_digits"):  # no limit before 3.11
            return str(value)
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return str(value)
        finally:
            sys.set_int_max_str_digits(old)
    return convert
