import math
from fractions import Fraction

import pytest

from cubebound import (
    AggregateConfig,
    BoundParams,
    DomainError,
    PrecisionError,
    ZERO,
    first_bound,
    optimize_alpha,
    second_bound_detail,
    second_bound_term,
)
from cubebound import bounds

from oracles import exp_integral_oracle, region_integral_mc

D321 = Fraction(1, 321)
D10 = Fraction(1, 10)

# frozen, high-precision evaluation of 0.5*log(5.8)^2 (the h=6, delta=1/10 case)
HALF_LOG_58_SQ = 1.5450322291507839


def closed_form(h, delta, degree, k):
    smax = (Fraction(degree) - (k - 1) * delta) / (h - k + 1)
    return (1.0 / math.factorial(k)) * math.log(float(smax / delta)) ** k


# ---------------------------------------------------------------------------
# first_bound
# ---------------------------------------------------------------------------

def test_k1_collapses_to_log_inverse_delta():
    got = first_bound(3, D321)
    assert got.to_real() == pytest.approx(math.log(321.0), rel=1e-12)


def test_k1_exactness_for_h_3_to_5():
    for h in (3, 4, 5):
        got = first_bound(h, D321)
        assert got.to_real() == pytest.approx(math.log(3.0 / (h / 321.0)), rel=1e-12)


def test_h6_closed_form():
    got = first_bound(6, D10)
    assert got.to_real() == pytest.approx(HALF_LOG_58_SQ, rel=1e-12)
    assert got.to_real() == pytest.approx(closed_form(6, D10, 3, 2), rel=1e-12)


def test_empty_region_beyond_963():
    for h in (963, 964, 1000, 2000):
        assert first_bound(h, D321) == ZERO
    assert first_bound(962, D321).sign == 1


def test_s_max_is_the_exact_fraction():
    # empty regions included: s_max <= delta, and below zero for large k
    for delta in (D321, D10, Fraction(2, 97), Fraction(5, 7)):
        for h in range(3, 120):
            for k in range(h // 3, h):
                p = BoundParams(h, delta, k)
                assert p.s_max == (3 - (k - 1) * delta) / (h - k + 1), (delta, h, k)
                assert p.is_empty() == (3 - (k - 1) * delta <= (h - k + 1) * delta)


def test_first_bound_validation():
    with pytest.raises(DomainError):
        first_bound(2, D321)
    with pytest.raises(DomainError):
        first_bound(10, Fraction(3, 2))
    with pytest.raises(DomainError):
        first_bound(10, 0.05)  # floats are not exact rationals


def test_first_bound_monotonicity_profile():
    # the value rises at the k-jumps h = 6, 9, 12 and is nonincreasing from
    # h = 12 on (computed fact for delta = 1/321; the early jumps are real)
    values = {h: first_bound(h, D321) for h in range(3, 964)}
    increases = [h for h in range(4, 964) if values[h] > values[h - 1]]
    assert increases == [6, 9, 12]


# ---------------------------------------------------------------------------
# second_bound_term / optimize_alpha
# ---------------------------------------------------------------------------

def test_zero_tilt_reduces_to_closed_form():
    for h, k in ((10, 3), (50, 20), (133, 44), (400, 170), (963, 321)):
        p = BoundParams(h, D321, k)
        got = second_bound_term(p, 0.0)
        want = first_bound(h, D321) if k == h // 3 else None
        if h >= 963:
            assert got == ZERO
            continue
        cf = closed_form(h, D321, 3, k)
        assert got.to_real() == pytest.approx(cf, rel=1e-9)
        if want is not None:
            assert got.log_mag == pytest.approx(want.log_mag, abs=1e-9)


def test_term_against_composed_oracle():
    # independent evaluation from the Ei series oracle plus exact log-gamma
    h, k, alpha = 150, 50, 200.0
    p = BoundParams(h, D321, k)
    got = second_bound_term(p, alpha)
    smax = float(p.s_max)
    integral = exp_integral_oracle(alpha, 1.0 / 321.0, smax)
    want_log = -alpha * (h - k - 3) / (h - k - 1) - math.lgamma(k + 1) + k * math.log(integral)
    assert got.sign == 1
    assert got.log_mag == pytest.approx(want_log, abs=1e-8)


def test_term_validation():
    p = BoundParams(10, D321, 9)  # k = h-1 is a valid parameter bundle
    with pytest.raises(DomainError):
        second_bound_term(p, 0.0)  # but not a tilted term (needs k <= h-2)
    with pytest.raises(DomainError):
        second_bound_term(BoundParams(10, D321, 4), -1.0)
    with pytest.raises(DomainError):
        BoundParams(10, D321, 2)  # below [h/3]


def test_tilt_is_free_when_lower_constraint_vanishes():
    # k = h-3 kills the exponent, the integral grows with alpha, so alpha* = 0
    choice = optimize_alpha(BoundParams(20, D321, 17))
    assert choice.alpha == 0.0
    assert choice.term_value.log_mag == pytest.approx(
        second_bound_term(BoundParams(20, D321, 17), 0.0).log_mag, abs=1e-12
    )


def test_optimizer_beats_untilted_and_matches_dense_grid():
    p = BoundParams(133, D321, 44)
    choice = optimize_alpha(p)
    at_zero = second_bound_term(p, 0.0)
    assert choice.alpha > 0.0
    assert choice.term_value < at_zero
    assert choice.evaluations > 0
    # integer-grid oracle over alpha in {0, 1, 2, ..., 10000}
    grid_best = min(second_bound_term(p, float(a)).log_mag for a in range(0, 10_001))
    assert choice.term_value.log_mag <= grid_best + 1e-6


def test_optimizer_soundness_sample():
    for h, k in ((15, 5), (40, 13), (90, 35), (150, 52), (189, 70)):
        p = BoundParams(h, D321, k)
        choice = optimize_alpha(p)
        assert choice.term_value.log_mag <= second_bound_term(p, 0.0).log_mag + 1e-9


def test_tilt_choice_recomputable():
    # the reported term value is reproducible from (k, alpha) alone
    for h, k in ((30, 10), (133, 44), (160, 60)):
        p = BoundParams(h, D321, k)
        choice = optimize_alpha(p)
        again = second_bound_term(p, choice.alpha)
        assert again.log_mag == pytest.approx(choice.term_value.log_mag, abs=1e-9)


def _oracle_slope(p, alpha):
    """f'(alpha) = -L + k*I'/I of the log k-term, with I from the Ei series
    and I' = int exp(alpha*s) ds in closed form."""
    a, b, k = float(p.delta), float(p.s_max), p.k
    if alpha == 0.0:
        d1 = b - a
    else:
        d1 = math.exp(alpha * a) * math.expm1(alpha * (b - a)) / alpha
    return -(p.h - k - 3) / (p.h - k - 1) + k * d1 / exp_integral_oracle(alpha, a, b)


def test_optimizer_first_order_optimality_against_oracle():
    # the objective is convex: alpha* = 0 exactly when f'(0) >= 0, otherwise
    # f' changes sign across alpha*
    kinds = {"zero": 0, "root": 0}
    for delta, hs in ((D10, (6, 9, 14, 20, 26)), (Fraction(1, 20), (9, 21, 33, 45, 56)),
                      (D321, (12, 40, 133, 161, 189, 400, 690))):
        for h in hs:
            for k in {h // 3, h // 3 + 3, (h // 3 + h - 2) // 2, h - 4, h - 3, h - 2}:
                if not h // 3 <= k <= h - 2:
                    continue
                p = BoundParams(h, delta, k)
                if p.is_empty():
                    continue
                choice = optimize_alpha(p)
                if _oracle_slope(p, 0.0) >= 0.0:
                    assert choice.alpha == 0.0, (delta, h, k)
                    assert choice.evaluations == 0
                    kinds["zero"] += 1
                else:
                    below = _oracle_slope(p, choice.alpha * (1 - 1e-6))
                    above = _oracle_slope(p, choice.alpha * (1 + 1e-6))
                    assert below < 0.0 < above, (delta, h, k, choice.alpha)
                    kinds["root"] += 1
    assert kinds["zero"] >= 40 and kinds["root"] >= 15


def test_bracket_guards_a_wrong_curvature(monkeypatch):
    # f'' only proposes Newton steps: far too small (steps overshoot) or of
    # the wrong sign (no Newton step, bisection only), the bracket on the sign
    # of f' still finds the same tilt
    p = BoundParams(133, D321, 44)
    want = optimize_alpha(p)
    moments = bounds._tilted_moments
    for scale in (1e-6, -1.0):
        def skewed(*args, scale=scale):
            mean, var = moments(*args)
            return mean, scale * var

        monkeypatch.setattr(bounds, "_tilted_moments", skewed)
        got = optimize_alpha(p)
        assert got.evaluations > want.evaluations
        assert got.alpha == pytest.approx(want.alpha, rel=1e-6)
        assert got.term_value.log_mag == pytest.approx(want.term_value.log_mag, abs=1e-12)


def test_unsettled_tilt_search_raises(monkeypatch):
    monkeypatch.setattr(bounds, "_MAX_STEPS", 2)
    with pytest.raises(PrecisionError):
        optimize_alpha(BoundParams(133, D321, 44))


# ---------------------------------------------------------------------------
# second_bound_detail
# ---------------------------------------------------------------------------

def test_boundary_K_reduces_to_first_bound():
    for h in (9, 30, 133):
        got = second_bound_detail(h, D321, h // 3).total
        assert got.log_mag == pytest.approx(first_bound(h, D321).log_mag, abs=1e-12)
        assert got.sign == first_bound(h, D321).sign


def test_second_bound_sharper_at_133():
    got = second_bound_detail(133, D321, 64).total
    assert got.sign == 1
    assert got < first_bound(133, D321)


def test_second_bound_detail_structure():
    detail = second_bound_detail(30, D321, 15)
    assert [c.k for c in detail.tilt_choices] == list(range(10, 15))
    assert detail.boundary_term.sign == 1


def test_second_bound_detail_fixed_alpha():
    fixed = second_bound_detail(40, D321, 33, alpha=5.0)
    optimised = second_bound_detail(40, D321, 33)
    assert [c.k for c in fixed.tilt_choices] == list(range(13, 33))
    for c in fixed.tilt_choices:
        assert (c.alpha, c.evaluations) == (5.0, 1)
        assert c.term_value == second_bound_term(BoundParams(40, D321, c.k), 5.0)
    assert fixed.boundary_term == optimised.boundary_term
    assert optimised.total < fixed.total


def test_second_bound_detail_fixed_alpha_empty_region():
    # at h = 963 every k-term has h*delta >= 3: no quadrature runs, as on the
    # optimised path
    fixed = second_bound_detail(963, D321, 341, alpha=1.0)
    optimised = second_bound_detail(963, D321, 341)
    assert len(fixed.tilt_choices) == 20
    assert all(c.evaluations == 0 and c.term_value == ZERO for c in fixed.tilt_choices)
    assert [c.evaluations for c in optimised.tilt_choices] == [0] * 20


def test_parameter_checks_are_shared():
    # one validation helper behind every entry point, with the same messages
    for make in (
        lambda h, d: first_bound(h, d),
        lambda h, d: BoundParams(h, d, 1),
        lambda h, d: second_bound_detail(h, d, 1),
    ):
        with pytest.raises(DomainError, match="h must be at least 3"):
            make(2, D321)
        with pytest.raises(DomainError, match=r"delta must lie in \(0, 1\)"):
            make(5, Fraction(3, 2))
        with pytest.raises(DomainError, match="exact rational"):
            make(5, 0.1)
    with pytest.raises(DomainError, match=r"delta must lie in \(0, 1\)"):
        AggregateConfig(delta=Fraction(3, 2))


def test_second_bound_validation():
    with pytest.raises(DomainError):
        second_bound_detail(30, D321, 9)  # K below [h/3]
    with pytest.raises(DomainError):
        second_bound_detail(30, D321, 30)  # K above h-1


# ---------------------------------------------------------------------------
# Monte Carlo region oracle
# ---------------------------------------------------------------------------

def test_mc_k1_is_exact_full_interval():
    # k = 1 instance: box and region coincide, estimate matches log(3/(h*delta))
    p1 = BoundParams(4, D10, 1)
    est, se = region_integral_mc(p1, False, 200_000, seed=42)
    want = math.log(3.0 / (4 * 0.1))
    assert abs(est - want) <= 3 * se
    assert se < 0.01 * want


def test_mc_dominated_by_closed_form():
    p = BoundParams(6, D10, 2)
    est, se = region_integral_mc(p, False, 400_000, seed=7)
    assert est <= HALF_LOG_58_SQ + 3 * se


def test_mc_with_lower_constraint_dominated_by_tilted_term():
    p = BoundParams(9, D10, 3)
    est, se = region_integral_mc(p, True, 400_000, seed=11)
    bound = optimize_alpha(p).term_value.to_real()
    assert est <= bound + 3 * se


def test_mc_degenerate_region():
    p = BoundParams(7, Fraction(1, 2), 2)  # s_max < delta
    assert region_integral_mc(p, False, 100_000, seed=1) == (0.0, 0.0)


def test_mc_validation():
    with pytest.raises(DomainError):
        region_integral_mc(BoundParams(30, D321, 10), False, 100_000, seed=1)  # k > 8
    with pytest.raises(DomainError):
        region_integral_mc(BoundParams(9, D10, 3), False, 50_000, seed=1)
