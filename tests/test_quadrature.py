import math

import mpmath
import numpy as np
import pytest

from cubebound import (
    AggregateConfig,
    DomainError,
    PrecisionError,
    bounds,
    exp_integral,
    final_constants,
    quadrature,
)

from oracles import ei_series, exp_integral_oracle

# frozen via the Ei series oracle (and cross-checked against mpmath.ei):
# Ei(2) - Ei(1)
EI_2_MINUS_EI_1 = 3.059116539645953
EI_1 = 1.8951178163559368


def test_alpha_zero_reduces_to_log_ratio():
    delta = 1.0 / 321.0
    upper = 0.03
    got = exp_integral(0.0, delta, upper)
    assert got == pytest.approx(math.log(upper / delta), rel=1e-12)


def test_ei_series_oracle_self_check():
    assert ei_series(1.0) == pytest.approx(EI_1, rel=1e-13)


def test_unit_interval_matches_oracle():
    got = exp_integral(1.0, 1.0, 2.0)
    assert got == pytest.approx(EI_2_MINUS_EI_1, rel=1e-10)
    assert got == pytest.approx(exp_integral_oracle(1.0, 1.0, 2.0), rel=1e-10)


def test_operational_scale_matches_oracle():
    # the parameter scales that actually occur for h near 150, k near 50
    a, b, alpha = 1.0 / 321.0, 0.01, 100.0
    got = exp_integral(alpha, a, b)
    assert got == pytest.approx(exp_integral_oracle(alpha, a, b), rel=1e-10)


def test_zero_width_interval():
    assert exp_integral(5.0, 0.25, 0.25) == 0.0


def test_domain_errors():
    with pytest.raises(DomainError):
        exp_integral(1.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        exp_integral(1.0, -0.5, 1.0)
    with pytest.raises(DomainError):
        exp_integral(1.0, 2.0, 1.0)
    with pytest.raises(DomainError):
        exp_integral(-1.0, 1.0, 2.0)
    with pytest.raises(DomainError):
        exp_integral(800.0, 0.5, 1.0)  # alpha*b beyond 700
    for args in ((math.nan, 1.0, 2.0), (1.0, math.nan, 2.0), (1.0, 1.0, math.nan)):
        with pytest.raises(DomainError):
            exp_integral(*args)


def test_precision_error_when_rel_tol_below_certified_bound(monkeypatch):
    # at alpha*b = 700 the series adds about 1400 terms and the rounding part
    # of its bound (about 3 unit roundoffs per term) exceeds 1e-15 relative
    a, b = 0.001, 0.02
    alpha = 700.0 / b
    value, bound = quadrature._panel(alpha, a, b)
    assert 1e-15 * value < bound <= 1e-12 * value
    with monkeypatch.context() as patch:
        patch.setattr(quadrature, "_REL_TOL", 1e-15)
        with pytest.raises(PrecisionError):
            exp_integral(alpha, a, b)
    assert exp_integral(alpha, a, b) == value
    with pytest.raises(PrecisionError):  # b/a beyond the float range
        exp_integral(0.0, 5e-324, 1e300)


@pytest.mark.parametrize("alpha_b", [0.0, 1.0, 350.0, 700.0])
@pytest.mark.parametrize("ratio", [1.0 + 1e-12, 2.0, 1e3, 1e300])
def test_certified_bound_below_tolerance_on_domain_corners(alpha_b, ratio):
    # the bound grows with alpha*b and is at most 4.7e-13 relative at 700,
    # so the PrecisionError guard of exp_integral never fires on valid input
    for b in (1e-3, 1.0, 5.0):
        a = b / ratio
        value, bound = quadrature._panel(alpha_b / b, a, b)
        assert bound <= 4.7e-13 * value < quadrature._REL_TOL * value, (alpha_b, a, b)
        assert exp_integral(alpha_b / b, a, b) == value


def _exact(alpha, a, b):
    """I(alpha) from mpmath's Ei at 30 digits (log ratio when alpha = 0)."""
    with mpmath.workdps(30):
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        if alpha == 0.0:
            return mpmath.log(b / a)
        return mpmath.ei(alpha * b) - mpmath.ei(alpha * a)


def _assert_certified(alpha, a, b):
    value, bound = quadrature._panel(alpha, a, b)
    assert exp_integral(alpha, a, b) == value
    assert abs(mpmath.mpf(value) - _exact(alpha, a, b)) <= bound, (alpha, a, b)
    return bound / value


def test_certified_bound_holds_on_every_pipeline_integral(monkeypatch):
    seen = set()
    real = bounds.exp_integral

    def record(alpha, a, b):
        seen.add((alpha, a, b))
        return real(alpha, a, b)

    monkeypatch.setattr(bounds, "exp_integral", record)
    final_constants(AggregateConfig())
    assert len(seen) >= 4000
    worst = max(_assert_certified(*case) for case in sorted(seen))
    assert worst <= 1e-13


def test_certified_bound_holds_on_random_cases():
    rng = np.random.default_rng(20261017)
    for i in range(600):
        a = float(rng.uniform(0.001, 0.05))
        b = a * (1.0 + float(np.exp(rng.uniform(math.log(1e-6), math.log(19.0)))))
        alpha = 0.0 if i == 0 else float(rng.uniform(0.0, (700.0 if i % 2 else 8.0) / b))
        _assert_certified(alpha, a, b)


def _random_cases(count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        a = float(rng.uniform(0.001, 0.02))
        b = a * float(rng.uniform(1.5, 20.0))
        alpha = float(rng.uniform(0.0, 700.0 / b))
        yield alpha, a, b


def test_thousand_random_agreements_with_series_oracle():
    for alpha, a, b in _random_cases(1000, seed=20240229):
        got = exp_integral(alpha, a, b)
        want = exp_integral_oracle(alpha, a, b)
        assert got == pytest.approx(want, rel=1e-9), (alpha, a, b)


def test_additivity():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = float(rng.uniform(0.002, 0.01))
        c = a * float(rng.uniform(3.0, 15.0))
        b = float(rng.uniform(a, c))
        alpha = float(rng.uniform(0.0, 700.0 / c))
        whole = exp_integral(alpha, a, c)
        parts = exp_integral(alpha, a, b) + exp_integral(alpha, b, c)
        assert whole == pytest.approx(parts, rel=10 * quadrature._REL_TOL)


def test_monotone_in_alpha():
    a, b = 0.005, 0.04
    values = [exp_integral(alpha, a, b) for alpha in (0.0, 1.0, 10.0, 100.0, 1000.0)]
    assert all(x < y for x, y in zip(values, values[1:]))


def test_bracketing():
    rng = np.random.default_rng(11)
    for _ in range(50):
        a = float(rng.uniform(0.001, 0.05))
        b = a * float(rng.uniform(1.0 + 1e-6, 10.0))
        alpha = float(rng.uniform(0.0, 700.0 / b))
        val = exp_integral(alpha, a, b)
        lo = math.log(b / a)
        assert lo <= val * (1 + 1e-12)
        assert val <= math.exp(alpha * b) * lo * (1 + 1e-12)
