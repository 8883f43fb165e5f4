import math
import operator
from fractions import Fraction

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from cubebound import (
    ZERO,
    DomainError,
    LogNumber,
    from_fraction,
    from_real,
    ln_add,
    ln_div,
    ln_mul,
    ln_sub,
    ln_sum,
)


def assert_ln_close(a: LogNumber, b: LogNumber, rel: float) -> None:
    """Same sign and log magnitudes within rel (== relative value error)."""
    assert a.sign == b.sign
    if a.sign != 0:
        assert abs(a.log_mag - b.log_mag) <= rel


def test_canonical_zero():
    assert LogNumber(0, 123.0) == LogNumber(0, -5.0) == ZERO
    assert ZERO.to_real() == 0.0
    assert ZERO.sign == 0


def test_sign_validation():
    with pytest.raises(DomainError):
        LogNumber(2, 0.0)


def test_mul_log_additivity():
    got = ln_mul(from_real(2.0), from_real(3.0))
    assert_ln_close(got, from_real(6.0), 1e-15)


def test_mul_absorbing_zero():
    assert ln_mul(ZERO, from_real(7.0)) == ZERO
    assert ln_mul(LogNumber(-1, 400.0), ZERO) == ZERO


def test_mul_huge_exponents_stay_representable():
    got = ln_mul(LogNumber(1, 500.0), LogNumber(1, -900.0))
    assert got == LogNumber(1, -400.0)


def test_add_one_plus_one():
    got = ln_add(from_real(1.0), from_real(1.0))
    assert_ln_close(got, from_real(2.0), 1e-15)


def test_add_identity():
    a = LogNumber(1, 0.0)
    assert ln_add(a, ZERO) == a
    assert ln_add(ZERO, a) == a


def test_add_exact_cancellation():
    a = LogNumber(1, math.log(3.0))
    assert ln_sub(a, a) == ZERO


def test_sub_and_signs():
    got = ln_sub(from_real(2.0), from_real(5.0))
    assert got.sign == -1
    assert abs(got.to_real() - (-3.0)) < 1e-14


def test_div():
    got = ln_div(from_real(6.0), from_real(3.0))
    assert_ln_close(got, from_real(2.0), 1e-14)
    with pytest.raises(DomainError):
        ln_div(LogNumber(1, 0.0), ZERO)


def test_from_fraction_handles_huge_ratios():
    fr = Fraction(10**400, 3)
    got = from_fraction(fr)
    assert got.log_mag == pytest.approx(400 * math.log(10) - math.log(3), rel=1e-12)


@given(st.floats(min_value=-1e300, max_value=1e300), st.floats(min_value=-1e300, max_value=1e300))
@example(0.0, -0.0)
@example(-0.0, 1e-300)
@example(2.5, -2.5)
@example(-2.5, 2.5)
@example(-2.5, -2.5)
@example(-1e300, 1e-300)
def test_ordering(x, y):
    assert ZERO < LogNumber(1, 0.0)
    assert LogNumber(-1, 5.0) < LogNumber(-1, 1.0) < ZERO
    assert LogNumber(1, 1.0) < LogNumber(1, 5.0)
    assert LogNumber(-1, 700.0) < LogNumber(1, -700.0)
    # all five operators agree with the floats' own; only distinct floats
    # whose logs round to one double (adjacent ones) compare equal instead
    a, b = from_real(x), from_real(y)
    assume(x == y or a != b)
    ops = (operator.lt, operator.le, operator.gt, operator.ge, operator.eq)
    assert [op(a, b) for op in ops] == [op(x, y) for op in ops]


def test_to_sci():
    assert from_real(6.02e23).to_sci() == "6.02000000e+23"
    assert ZERO.to_sci() == "0"
    assert from_real(-1.5e-10).to_sci() == "-1.50000000e-10"
    # far outside float range
    tiny = LogNumber(1, -1266.0)  # about 1e-550
    assert tiny.to_sci().endswith("e-550")
    # a mantissa that rounds up to 10 carries into the exponent
    assert from_real(9.9999999996e5).to_sci() == "1.00000000e+06"


positive = st.floats(min_value=1e-300, max_value=1e300, allow_nan=False)


@given(positive)
def test_round_trip(x):
    assert from_real(x).to_real() == pytest.approx(x, rel=1e-12)


@given(positive, positive)
def test_add_matches_floats(x, y):
    # ratio below 1e300 by construction of the strategy bounds
    if x + y == math.inf:
        return
    got = ln_add(from_real(x), from_real(y)).to_real()
    assert got == pytest.approx(x + y, rel=1e-12)


@given(positive, positive)
def test_add_commutes(x, y):
    a, b = from_real(x), from_real(y)
    assert_ln_close(ln_add(a, b), ln_add(b, a), 0.0)


@given(st.lists(st.floats(min_value=-600.0, max_value=600.0), min_size=1, max_size=12),
       st.randoms(use_true_random=False))
def test_sum_order_stability(log_mags, rnd):
    terms = [LogNumber(1, m) for m in log_mags]
    shuffled = list(terms)
    rnd.shuffle(shuffled)
    assert_ln_close(ln_sum(terms), ln_sum(shuffled), 1e-9)


@given(st.floats(min_value=-300.0, max_value=300.0),
       st.floats(min_value=-300.0, max_value=300.0),
       st.floats(min_value=-300.0, max_value=300.0),
       st.sampled_from([-1, 1]),
       st.sampled_from([-1, 1]))
def test_distributivity_same_sign(la, lb, lc, sa, sbc):
    a = LogNumber(sa, la)
    b = LogNumber(sbc, lb)
    c = LogNumber(sbc, lc)
    lhs = ln_mul(a, ln_add(b, c))
    rhs = ln_add(ln_mul(a, b), ln_mul(a, c))
    assert_ln_close(lhs, rhs, 1e-9)
