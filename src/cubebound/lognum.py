"""Signed log-domain arithmetic.

A LogNumber stores a real value as (sign, ln|value|) so that products and
sums of terms spanning hundreds of orders of magnitude (factorials, 2^h
weights, tail coefficients down past 1e-550) stay representable in double
precision. sign = 0 is exact zero and its log_mag is ignored everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import total_ordering
from fractions import Fraction
from typing import Iterable

from .errors import DomainError

_LN10 = math.log(10.0)
_EXP_OVERFLOW = 709.7


@total_ordering
@dataclass(frozen=True)
class LogNumber:
    """A real number as a sign in {-1, 0, +1} plus the natural log of its magnitude."""

    sign: int
    log_mag: float = 0.0

    def __post_init__(self) -> None:
        if self.sign not in (-1, 0, 1):
            raise DomainError(f"sign must be -1, 0 or +1, got {self.sign!r}")
        # canonical zero so field equality ignores whatever magnitude was passed
        object.__setattr__(
            self, "log_mag", 0.0 if self.sign == 0 else float(self.log_mag)
        )

    def to_real(self) -> float:
        """Plain float value, saturating to +-inf past the float range."""
        if self.sign == 0:
            return 0.0
        if self.log_mag > _EXP_OVERFLOW:
            return math.inf if self.sign > 0 else -math.inf
        return self.sign * math.exp(self.log_mag)

    def to_sci(self) -> str:
        """Scientific-notation string with 8 decimals, usable far outside the
        float range."""
        if self.sign == 0:
            return "0"
        e10 = self.log_mag / _LN10
        exp10 = math.floor(e10)
        mant = 10.0 ** (e10 - exp10)
        if round(mant, 8) >= 10.0:
            mant /= 10.0
            exp10 += 1
        prefix = "-" if self.sign < 0 else ""
        return f"{prefix}{mant:.8f}e{exp10:+03d}"

    def __lt__(self, other: "LogNumber") -> bool:
        # one key, sign then signed log magnitude; total_ordering derives
        # <=, >, >= from it and the field __eq__, which agrees as zero is canonical
        return (self.sign, self.sign * self.log_mag) < (other.sign, other.sign * other.log_mag)


ZERO = LogNumber(0)


def from_real(x: float) -> LogNumber:
    """Convert a finite float (or int) to log-domain form."""
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"cannot represent non-finite value {x!r}")
    if x == 0.0:
        return ZERO
    return LogNumber(1 if x > 0 else -1, math.log(abs(x)))


def log_fraction(fr: Fraction) -> float:
    """ln|fr| of a nonzero rational as ln|numerator| - ln denominator, so
    big numerators/denominators are fine."""
    return math.log(abs(fr.numerator)) - math.log(fr.denominator)


def from_fraction(fr: Fraction) -> LogNumber:
    """Exact rational to log-domain."""
    if fr == 0:
        return ZERO
    return LogNumber(1 if fr > 0 else -1, log_fraction(fr))


def ln_mul(a: LogNumber, b: LogNumber) -> LogNumber:
    if a.sign == 0 or b.sign == 0:
        return ZERO
    return LogNumber(a.sign * b.sign, a.log_mag + b.log_mag)


def ln_div(a: LogNumber, b: LogNumber) -> LogNumber:
    if b.sign == 0:
        raise DomainError("division by log-domain zero")
    if a.sign == 0:
        return ZERO
    return LogNumber(a.sign * b.sign, a.log_mag - b.log_mag)


def ln_add(a: LogNumber, b: LogNumber) -> LogNumber:
    """Add two log-domain values; exact when either operand is zero or on
    cancellation of equal magnitudes with opposite signs."""
    if a.sign == 0:
        return b
    if b.sign == 0:
        return a
    if a.log_mag < b.log_mag:
        a, b = b, a
    if a.sign == b.sign:
        return LogNumber(a.sign, a.log_mag + math.log1p(math.exp(b.log_mag - a.log_mag)))
    if a.log_mag == b.log_mag:
        return ZERO
    return LogNumber(a.sign, a.log_mag + math.log1p(-math.exp(b.log_mag - a.log_mag)))


def ln_sub(a: LogNumber, b: LogNumber) -> LogNumber:
    return ln_add(a, LogNumber(-b.sign, b.log_mag))


def ln_sum(terms: Iterable[LogNumber]) -> LogNumber:
    """Left-to-right reduction in the order given (callers fix the order)."""
    acc = ZERO
    for t in terms:
        acc = ln_add(acc, t)
    return acc
