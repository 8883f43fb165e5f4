"""Assembly of the weighted tail sums and the final proportion constants.

The pipeline sums min(h, [1/delta]) * 2^h * c(h, delta) over h above a cutoff
H, using the tilted bound below split_h and the closed form from split_h up,
subtracts the total from the sieve lower-bound constant S_lower, applies the
2^(-H)/min(H, [1/delta]) weight, and reports the resulting proportion alpha
together with the exponent varpi = alpha*delta/2; a report whose h_max
truncates the nonzero tail is not ok. reproduction_checks judges a report
against REFERENCE_LIMITS, the table of the paper's five reference constants.

All reductions run in ascending h so reports are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from decimal import ROUND_CEILING, ROUND_FLOOR, Context, Decimal
from fractions import Fraction
from typing import Iterable, Sequence

from .bounds import TiltChoice, checked_delta, clamped_K, first_bound, second_bound_detail
from .errors import DomainError
from .lognum import (
    ZERO,
    LogNumber,
    from_fraction,
    from_real,
    ln_add,
    ln_div,
    ln_mul,
    ln_sub,
    ln_sum,
)

_LN2 = math.log(2.0)

# a margin not above this fraction of S_lower is treated as numerically zero
# (and every margin is when S_lower is 0), so S_lower == tail_total degrades
# to an explicit failure state instead of a meaningless round-off proportion
_MARGIN_REL_FLOOR = 1e-9

# the five reference constants a reproduction is judged against, each as
# (document name, AggregateReport field, direction, limit): the tails are
# bounded from above, the proportion and the exponent from below
REFERENCE_LIMITS = (
    ("tail_first", "tail_first", "<=", 9.2e-10),
    ("tail_second", "tail_second", "<=", 3.6e-8),
    ("tail_total", "tail_total", "<=", 3.7e-8),
    ("alpha", "alpha_proportion", ">=", 7.7e-50),
    ("varpi", "varpi", ">=", 1e-52),
)
_IDENTITY_REL_TOL = 1e-9


@dataclass(frozen=True)
class AggregateConfig:
    """Pipeline parameters; defaults reproduce the reference constants."""

    delta: Fraction = Fraction(1, 321)
    H: int = 132
    split_h: int = 190
    h_max: int = 963
    K_offset: int = 20
    S_lower: float = 9.2e-8

    def __post_init__(self) -> None:
        object.__setattr__(self, "delta", checked_delta(self.delta))
        if self.H < 1:
            raise DomainError(f"H must be at least 1, got {self.H}")
        if not (self.H < self.split_h <= self.h_max + 1):
            raise DomainError(
                f"need H < split_h <= h_max+1, got H={self.H}, "
                f"split_h={self.split_h}, h_max={self.h_max}"
            )
        clamped_K(self.split_h, self.K_offset)  # checks K_offset
        if not 0.0 <= self.S_lower < math.inf:
            raise DomainError(f"S_lower must be finite and non-negative, got {self.S_lower}")

    @property
    def inv_delta_floor(self) -> int:
        """[1/delta]; 321 at the default delta."""
        return self.delta.denominator // self.delta.numerator


@dataclass(frozen=True)
class PerHTerm:
    """One h slice of the tail: bound coefficient and its weighted value."""

    h: int
    method: str
    K: int | None
    coefficient: LogNumber
    weighted: LogNumber
    tilt_choices: tuple[TiltChoice, ...] = ()


@dataclass(frozen=True)
class AggregateReport:
    """Pipeline result; failure says why it is not ok: h_max truncates the
    nonzero tail, or the margin is not above _MARGIN_REL_FLOOR * S_lower."""

    failure: str | None
    delta: Fraction
    H: int
    split_h: int
    h_max: int
    K_offset: int
    S_lower: float
    tail_first: LogNumber
    tail_second: LogNumber
    tail_total: LogNumber
    margin: LogNumber
    alpha_proportion: LogNumber
    varpi: LogNumber
    count_proportion: LogNumber
    per_h_terms: tuple[PerHTerm, ...]

    @property
    def ok(self) -> bool:
        return self.failure is None


def _per_h_entry(cfg: AggregateConfig, h: int, method: str) -> PerHTerm:
    if method == "first":
        coeff = first_bound(h, cfg.delta)
        K = None
        choices: tuple[TiltChoice, ...] = ()
    else:
        K = clamped_K(h, cfg.K_offset)
        detail = second_bound_detail(h, cfg.delta, K)
        coeff = detail.total
        choices = detail.tilt_choices
    # the weight min(h, [1/delta]) * 2^h is that of the proportion at H = h, inverted
    return PerHTerm(
        h=h, method=method, K=K, coefficient=coeff,
        weighted=ln_div(coeff, proportion_weight(h, cfg.delta)), tilt_choices=choices,
    )


def weighted_tail(
    cfg: AggregateConfig, h_from: int, h_to: int, method: str
) -> tuple[LogNumber, list[PerHTerm]]:
    """Sum of min(h, [1/delta]) * 2^h * c(h, delta) for h in [h_from, h_to],
    reduced in ascending h. An empty range sums to zero."""
    if method not in ("first", "second"):
        raise DomainError(f"method must be 'first' or 'second', got {method!r}")
    if h_from > h_to:
        return ZERO, []
    if not (cfg.H < h_from and h_to <= cfg.h_max):
        raise DomainError(
            f"need H < h_from <= h_to <= h_max, got H={cfg.H}, "
            f"h_from={h_from}, h_to={h_to}, h_max={cfg.h_max}"
        )
    terms = [_per_h_entry(cfg, h, method) for h in range(h_from, h_to + 1)]
    return ln_sum(t.weighted for t in terms), terms


def proportion_weight(H: int, delta: Fraction) -> LogNumber:
    """The weight 2^(-H)/min(H, [1/delta]) that turns the margin
    S_lower - tail_total into the proportion alpha."""
    return LogNumber(1, -H * _LN2 - math.log(min(H, delta.denominator // delta.numerator)))


def _last_nonzero_h(delta: Fraction) -> int:
    """Last h with first_bound(h, delta) > 0, as it vanishes once h*delta >= 3."""
    return math.ceil(3 / delta) - 1


def _assemble_report(
    cfg: AggregateConfig,
    second_terms: Sequence[PerHTerm],
    first_terms: Sequence[PerHTerm],
) -> AggregateReport:
    tail_second = ln_sum(t.weighted for t in second_terms)
    tail_first = ln_sum(t.weighted for t in first_terms)
    tail_total = ln_add(tail_first, tail_second)
    s_lower = from_real(cfg.S_lower)
    margin = ln_sub(s_lower, tail_total)
    last_h = _last_nonzero_h(cfg.delta)
    alpha = varpi = count = ZERO
    failure = None
    if cfg.h_max < last_h:
        failure = (f"h_max={cfg.h_max} truncates the tail: the closed-form terms "
                   f"are nonzero up to h={last_h}")
    elif margin <= ln_mul(s_lower, from_real(_MARGIN_REL_FLOOR)):
        failure = ("margin S_lower - tail_total is zero or negative; "
                   "no positive proportion follows")
    else:
        alpha = ln_mul(proportion_weight(cfg.H, cfg.delta), margin)
        varpi = ln_mul(alpha, from_fraction(cfg.delta / 2))
        count = ln_mul(from_fraction(cfg.delta), ln_mul(alpha, alpha))
    return AggregateReport(
        failure=failure,
        delta=cfg.delta, H=cfg.H, split_h=cfg.split_h, h_max=cfg.h_max,
        K_offset=cfg.K_offset, S_lower=cfg.S_lower,
        tail_first=tail_first, tail_second=tail_second, tail_total=tail_total,
        margin=margin, per_h_terms=tuple(second_terms) + tuple(first_terms),
        alpha_proportion=alpha, varpi=varpi, count_proportion=count,
    )


def final_constants(cfg: AggregateConfig) -> AggregateReport:
    """Run the full pipeline at the given configuration: sweep_H at the one
    value cfg.H.

    tail_second covers H < h < split_h with the tilted bound (K clamped to
    h-1 where [h/3]+K_offset would exceed it); tail_first covers
    split_h <= h <= h_max with the closed form.
    """
    return sweep_H(cfg, [cfg.H])[0][1]


def sweep_H(cfg: AggregateConfig, H_values: Iterable[int]) -> list[tuple[int, AggregateReport]]:
    """final_constants for every H in H_values, sharing the per-h terms.

    AggregateConfig checks every H before any term is computed. Per-H
    failures come back as reports with ok=False, never as exceptions.
    """
    cfgs = [replace(cfg, H=H) for H in H_values]
    if not cfgs:
        return []
    base = min(cfgs, key=lambda c: c.H)
    _, second_terms = weighted_tail(base, base.H + 1, cfg.split_h - 1, "second")
    _, first_terms = weighted_tail(base, cfg.split_h, cfg.h_max, "first")
    return [
        (c.H, _assemble_report(c, [t for t in second_terms if t.h > c.H], first_terms))
        for c in cfgs
    ]


def reproduction_checks(report: AggregateReport) -> tuple[list[dict], bool]:
    """The reproduction verdict: one check per reference limit, then the
    identity 2^H*min(H,[1/delta])*alpha + tail_total == S_lower, and whether
    all of them pass. A report that is not ok fails alpha, varpi and the
    identity; one whose h_max truncates the tail also fails tail_first and
    tail_total, which stop short of it (tail_second ends at split_h - 1 <=
    h_max and is complete)."""
    truncated = report.h_max < _last_nonzero_h(report.delta)
    checks = []
    for name, field, op, limit in REFERENCE_LIMITS:
        value, bound = getattr(report, field), from_real(limit)
        checks.append({
            "name": f"{name} {op} {limit:g}",
            "passed": (value <= bound if op == "<=" else value >= bound)
            and not (truncated and field in ("tail_first", "tail_total")),
            "computed": value.to_sci(),
        })
    if report.ok:
        # ok implies a positive margin, so S_lower > 0
        weighted = ln_div(report.alpha_proportion, proportion_weight(report.H, report.delta))
        rel = abs(ln_add(weighted, report.tail_total).to_real() / report.S_lower - 1.0)
        identity_ok, computed = rel <= _IDENTITY_REL_TOL, f"relative error {rel:.3e}"
    elif truncated:
        identity_ok, computed = False, "tail truncated at h_max"
    else:
        identity_ok, computed = False, "margin not positive"
    checks.append({
        "name": "2^H*min(H,[1/delta])*alpha + tail_total == S_lower (1e-9 rel)",
        "passed": identity_ok,
        "computed": computed,
    })
    return checks, all(c["passed"] for c in checks)


def display_round(value: LogNumber, mode: str) -> str:
    """Render to two significant figures, rounding 'up' (toward +inf) for
    upper-bound coefficients and 'down' (toward -inf) for lower-bound ones
    (conservative quoting). The rounding is exact: exp(log_mag) is taken to
    40 digits in decimal before it is cut to two figures."""
    if mode not in ("up", "down"):
        raise DomainError(f"mode must be 'up' or 'down', got {mode!r}")
    if value.sign == 0:
        return "0"
    x = Context(prec=40).exp(Decimal(value.log_mag))
    if value.sign < 0:
        x = x.copy_negate()
    x = Context(prec=2, rounding=ROUND_CEILING if mode == "up" else ROUND_FLOOR).plus(x)
    exp10 = x.adjusted()
    return f"{x.scaleb(-exp10):.1f}e{exp10:+03d}"
