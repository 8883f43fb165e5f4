import math
from dataclasses import replace
from fractions import Fraction

import mpmath
import pytest

from cubebound import (
    AggregateConfig,
    DomainError,
    ZERO,
    display_round,
    final_constants,
    first_bound,
    from_fraction,
    from_real,
    ln_add,
    ln_mul,
    reproduction_checks,
    second_bound_detail,
    sweep_H,
    weighted_tail,
)
from cubebound.aggregate import _assemble_report
from cubebound.lognum import LogNumber

from oracles import reproduction_oracle

D321 = Fraction(1, 321)


def test_config_defaults_and_invariants():
    cfg = AggregateConfig()
    assert cfg.delta == D321
    assert cfg.inv_delta_floor == 321
    assert (cfg.H, cfg.split_h, cfg.h_max, cfg.K_offset) == (132, 190, 963, 20)
    assert cfg.S_lower == 9.2e-8


def test_config_validation():
    with pytest.raises(DomainError):
        AggregateConfig(H=0)
    with pytest.raises(DomainError):
        AggregateConfig(H=200, split_h=190)
    with pytest.raises(DomainError):
        AggregateConfig(split_h=970, h_max=963)
    with pytest.raises(DomainError):
        AggregateConfig(K_offset=0)
    for bad in (-1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="S_lower"):
            AggregateConfig(S_lower=bad)
    with pytest.raises(DomainError):
        AggregateConfig(delta=0.003)  # float delta rejected


def test_empty_range_sums_to_zero():
    cfg = AggregateConfig()
    total, terms = weighted_tail(cfg, 500, 400, "first")
    assert total == ZERO
    assert terms == []


def test_range_validation():
    cfg = AggregateConfig()
    with pytest.raises(DomainError):
        weighted_tail(cfg, 132, 200, "first")  # h_from must exceed H
    with pytest.raises(DomainError):
        weighted_tail(cfg, 200, 964, "first")  # h_to beyond h_max
    with pytest.raises(DomainError):
        weighted_tail(cfg, 200, 300, "third")


def test_weight_kink_at_321():
    cfg = AggregateConfig()
    _, terms = weighted_tail(cfg, 319, 323, "first")
    for t in terms:
        weight = t.weighted.log_mag - t.coefficient.log_mag
        want = math.log(min(t.h, 321)) + t.h * math.log(2.0)
        assert weight == pytest.approx(want, abs=1e-9)
    assert [t.h for t in terms] == [319, 320, 321, 322, 323]


def test_terms_beyond_963_are_exactly_zero():
    cfg = AggregateConfig(h_max=975)
    total, terms = weighted_tail(cfg, 964, 975, "first")
    assert total == ZERO
    assert all(t.weighted == ZERO and t.coefficient == ZERO for t in terms)


def test_splitting_invariance():
    cfg = AggregateConfig()
    whole, _ = weighted_tail(cfg, 133, 963, "first")
    left, _ = weighted_tail(cfg, 133, 189, "first")
    right, _ = weighted_tail(cfg, 190, 963, "first")
    recombined = ln_add(left, right)
    assert whole.sign == recombined.sign == 1
    assert whole.log_mag == pytest.approx(recombined.log_mag, abs=1e-9)


def test_second_with_boundary_offset_reproduces_first_termwise():
    # K = [h/3] makes every tilted sum empty, leaving the closed form exactly
    for h in range(3, 1000):
        assert second_bound_detail(h, D321, h // 3).total == first_bound(h, D321), h


def test_second_method_at_small_h_clamps_K():
    cfg = AggregateConfig(H=3, split_h=10, h_max=20)
    total, terms = weighted_tail(cfg, 4, 9, "second")
    assert total.sign == 1
    # K = [h/3] + K_offset clamped to h-1
    assert [(t.h, t.K) for t in terms] == [(h, h - 1) for h in range(4, 10)]


def test_tilt_search_work_budget(default_report):
    # exp_integral calls per optimised k-term, independent of the machine
    choices = [c for t in default_report.per_h_terms for c in t.tilt_choices]
    assert len(choices) == 1140
    assert sum(c.evaluations for c in choices) <= 10 * len(choices)


def test_final_constants_fields(default_report):
    rep = default_report
    assert rep.ok
    assert rep.failure is None
    # tail_total recombines from the parts
    recombined = ln_add(rep.tail_first, rep.tail_second)
    assert rep.tail_total.log_mag == pytest.approx(recombined.log_mag, abs=1e-9)
    # varpi = alpha * delta / 2 exactly in log arithmetic
    want = rep.alpha_proportion.log_mag + from_fraction(D321 / 2).log_mag
    assert rep.varpi.log_mag == pytest.approx(want, abs=1e-12)
    # count proportion = delta * alpha^2
    want_count = from_fraction(D321).log_mag + 2 * rep.alpha_proportion.log_mag
    assert rep.count_proportion.log_mag == pytest.approx(want_count, abs=1e-9)
    # per-h coverage: 133..963 ascending
    assert [t.h for t in rep.per_h_terms] == list(range(133, 964))
    assert all(t.method == "second" for t in rep.per_h_terms if t.h < 190)
    assert all(t.method == "first" for t in rep.per_h_terms if t.h >= 190)
    assert any(t.tilt_choices for t in rep.per_h_terms)  # optimiser metadata is carried through


def test_final_constants_inversion_identity(default_report):
    rep = default_report
    inv_weight = LogNumber(1, rep.H * math.log(2.0) + math.log(min(rep.H, 321)))
    lhs = ln_add(ln_mul(inv_weight, rep.alpha_proportion), rep.tail_total)
    assert lhs.to_real() == pytest.approx(rep.S_lower, rel=1e-9)


def _oracle_errors(report, oracle):
    """Relative distance of the report's tails, alpha, varpi and count
    proportion from the oracle's."""
    values = {"tail_first": report.tail_first, "tail_second": report.tail_second,
              "alpha": report.alpha_proportion, "varpi": report.varpi,
              "count_proportion": report.count_proportion}
    return {k: float(abs(oracle[k] / mpmath.exp(v.log_mag) - 1)) for k, v in values.items()}


def test_reproduction_matches_the_mpmath_oracle(default_report):
    # mpmath at the reported tilts puts the true errors near 2e-14; each of
    # the five values is held to 1e-12
    oracle = reproduction_oracle(default_report)
    errors = _oracle_errors(default_report, oracle)
    assert max(errors.values()) <= 1e-12, errors
    # the dominant per-h term scaled by 1 + 1e-9 is caught
    second = [t for t in default_report.per_h_terms if t.method == "second"]
    first = [t for t in default_report.per_h_terms if t.method == "first"]
    top = max(range(len(second)), key=lambda i: second[i].weighted.log_mag)
    scaled = LogNumber(1, second[top].weighted.log_mag + math.log1p(1e-9))
    second[top] = replace(second[top], weighted=scaled)
    perturbed = _assemble_report(AggregateConfig(), second, first)
    errors = _oracle_errors(perturbed, oracle)
    assert errors["tail_second"] > 1e-12 and errors["alpha"] > 1e-12, errors


def test_failure_state_zero_s_lower():
    cfg = AggregateConfig(S_lower=0.0, split_h=133)
    rep = final_constants(cfg)
    assert not rep.ok
    assert "margin" in rep.failure
    assert rep.alpha_proportion == ZERO
    assert rep.varpi == ZERO
    # a positive margin must clear 1e-9 of S_lower: 5e-10 of it fails, 2e-9 passes
    tail = rep.tail_total.to_real()
    thin = final_constants(replace(cfg, S_lower=tail * (1 + 5e-10)))
    assert thin.margin.sign == 1 and not thin.ok and "margin" in thin.failure
    assert final_constants(replace(cfg, S_lower=tail * (1 + 2e-9))).ok


def test_failure_state_exact_margin():
    cfg = AggregateConfig(split_h=133)
    rep = final_constants(cfg)
    # set the sieve constant exactly to the computed tail: zero margin
    rep2 = final_constants(replace(cfg, S_lower=rep.tail_total.to_real()))
    assert not rep2.ok


def test_sweep_singleton_equals_final_constants(default_report):
    cfg = AggregateConfig()
    [(h_val, rep)] = sweep_H(cfg, [132])
    assert h_val == 132
    assert rep == default_report


def test_sweep_over_reference_window():
    cfg = AggregateConfig()
    results = sweep_H(cfg, range(120, 141))
    assert [h for h, _ in results] == list(range(120, 141))
    by_h = dict(results)
    # low H pulls in huge terms: failures recorded, not raised
    assert not by_h[120].ok
    assert by_h[132].ok
    ok_varpis = [(rep.varpi, h) for h, rep in results if rep.ok]
    best_varpi, best_h = max(ok_varpis)
    assert best_varpi >= by_h[132].varpi


def test_sweep_all_failures_when_s_lower_zero():
    cfg = AggregateConfig(S_lower=0.0, split_h=133)
    results = sweep_H(cfg, range(125, 133))
    assert len(results) == 8
    assert all(not rep.ok for _, rep in results)


def test_truncated_tail_is_a_failure_not_an_error():
    # first_bound(h, 1/321) is nonzero up to h = 962 (about e^-3599 there)
    # and zero from 963 on, so any h_max below 962 drops nonzero terms; the
    # sweep reports that per H, as it does every other failure
    assert first_bound(962, D321).sign == 1 and first_bound(963, D321) == ZERO
    assert sweep_H(AggregateConfig(h_max=962), [132])[0][1].ok
    results = sweep_H(AggregateConfig(h_max=961), range(125, 135))
    assert [H for H, _ in results] == list(range(125, 135))
    for _, rep in results:
        assert not rep.ok
        assert rep.failure == (
            "h_max=961 truncates the tail: the closed-form terms are nonzero up to h=962"
        )
        assert rep.alpha_proportion == ZERO and rep.varpi == ZERO
    checks, overall = reproduction_checks(dict(results)[132])
    failed = {c["name"]: c["computed"] for c in checks if not c["passed"]}
    # tail_first and tail_total stop at h_max; tail_second is complete
    assert list(failed) == [CHECK_NAMES[0]] + CHECK_NAMES[2:]
    assert failed[CHECK_NAMES[5]] == "tail truncated at h_max"
    assert overall is False


def test_sweep_validation():
    cfg = AggregateConfig()
    with pytest.raises(DomainError):
        sweep_H(cfg, [0])
    with pytest.raises(DomainError):
        sweep_H(cfg, [190])
    assert sweep_H(cfg, []) == []


def test_display_round():
    assert display_round(from_real(9.137997e-10), "up") == "9.2e-10"
    assert display_round(from_real(3.572851e-8), "up") == "3.6e-08"
    assert display_round(from_real(7.7027e-50), "down") == "7.7e-50"
    assert display_round(from_real(1.19980e-52), "down") == "1.1e-52"
    assert display_round(from_real(9.2e-10), "up") == "9.2e-10"
    assert display_round(from_real(9.95e-10), "up") == "1.0e-09"
    assert display_round(ZERO, "up") == "0"
    assert display_round(from_real(-1.234e5), "up") == "-1.2e+05"
    # the rounding is exact: no slack lets a value just past a boundary round back
    assert display_round(from_real(7.69999999995e-50), "down") == "7.6e-50"
    assert display_round(from_real(9.20000000005e-10), "up") == "9.3e-10"
    with pytest.raises(DomainError):
        display_round(from_real(1.0), "nearest")


CHECK_NAMES = [
    "tail_first <= 9.2e-10",
    "tail_second <= 3.6e-08",
    "tail_total <= 3.7e-08",
    "alpha >= 7.7e-50",
    "varpi >= 1e-52",
    "2^H*min(H,[1/delta])*alpha + tail_total == S_lower (1e-9 rel)",
]


def test_reproduction_checks_default_pass(default_report):
    checks, overall = reproduction_checks(default_report)
    assert [c["name"] for c in checks] == CHECK_NAMES
    assert all(c["passed"] for c in checks)
    assert overall is True


def test_reproduction_checks_fail_one_tail(default_report):
    # 9.3e-10 sits above the 9.2e-10 limit; nothing else reads tail_first
    checks, overall = reproduction_checks(replace(default_report, tail_first=from_real(9.3e-10)))
    assert [c["name"] for c in checks if not c["passed"]] == ["tail_first <= 9.2e-10"]
    assert overall is False


@pytest.mark.parametrize("cfg, failing", [
    # the closed form everywhere: tail_first and tail_total fail as well
    (AggregateConfig(S_lower=0.0, split_h=133), [0, 2, 3, 4, 5]),
    # S_lower below the reference tails: the tails pass, the margin is negative
    (AggregateConfig(S_lower=3.0e-8), [3, 4, 5]),
])
def test_reproduction_checks_not_ok_report(cfg, failing):
    rep = final_constants(cfg)
    assert not rep.ok
    checks, overall = reproduction_checks(rep)
    failed = {c["name"]: c["computed"] for c in checks if not c["passed"]}
    assert list(failed) == [CHECK_NAMES[i] for i in failing]
    assert failed[CHECK_NAMES[5]] == "margin not positive"
    assert overall is False
