import faulthandler
import os
import sys

import pytest
from hypothesis import settings

from tribkit import SequenceKind, TermCache, binet_constants, compute_roots

settings.register_profile("tribkit", deadline=None)
settings.load_profile("tribkit")

# A test that runs this long has hung (the slowest, acceptance criterion
# 8, takes about 40 s): every thread's traceback goes to stderr and the
# run ends, instead of holding its job until the job's own time limit.
TEST_TIME_LIMIT_S = 300
_stderr = {}


def pytest_configure(config):
    # a copy of stderr taken while pytest captures nothing: a traceback
    # written to the captured stream would end with the process, unread
    _stderr["fd"] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(_stderr.pop("fd"))


@pytest.fixture(autouse=True)
def time_limit():
    faulthandler.dump_traceback_later(TEST_TIME_LIMIT_S, exit=True,
                                      file=_stderr["fd"])
    yield
    faulthandler.cancel_dump_traceback_later()


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
