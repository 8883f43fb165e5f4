import pytest
from hypothesis import HealthCheck, settings

from cubebound import empirical
from cubebound import (
    AggregateConfig, RangeJob, count_cubic_roots, factor_range, final_constants, mertens_check,
)

from oracles import cubic_roots_enumerate, prime_sum_mpmath

settings.register_profile(
    "suite",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def default_report():
    """Full pipeline at the reference configuration; shared by many tests."""
    return final_constants(AggregateConfig())


@pytest.fixture(scope="session")
def mertens_1e6():
    return mertens_check(10**6)


@pytest.fixture(scope="session")
def mertens_oracle():
    """The prime-sum deviations in 30-digit mpmath at every checkpoint the
    tests use, up to 1e6 (821,641 is the last prime of the 4th block)."""
    return prime_sum_mpmath(
        [2, 3, 10, 100, 1000, 10**4, 10**5, 821_640, 821_641, 821_647, 10**6], count_cubic_roots
    )


@pytest.fixture(scope="session")
def roots_enum_1e5():
    """Enumerated roots of n^3+2 == 0 (mod p) for every prime p <= 1e5
    (independent oracle; nu(p) is the length of each entry)."""
    return {p: cubic_roots_enumerate(p) for p in empirical._prime_array(10**5).tolist()}


@pytest.fixture(scope="session")
def profiles_1e5():
    """Exact factorisations of n^3+2 for 1 <= n <= 1e5."""
    job = RangeJob(x_min=0, x_max=10**5, threshold=2, h=0)
    return list(factor_range(job))
