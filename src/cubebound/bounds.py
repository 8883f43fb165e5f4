"""Explicit coefficients c(h, delta) bounding the proportion of n in (X, 2X]
for which n^3+2 has at least h prime factors above X^delta.

Both families bound the cubic n^3+2 only. The plain closed form keeps
k = [h/3] primes and relaxes the size region to a box, giving

    c = (1/k!) * (log((3 - (k-1)*delta) / ((h-k+1)*delta)))^k.

The tilted refinement keeps k in [[h/3], K] primes and, for k < K, penalises
the region where the kept primes must multiply up to nearly the full range by
weighting the integrand with exp(alpha*(s_1+...+s_k - L)), L = (h-k-3)/(h-k-1),
which turns each k-term into

    exp(-alpha*L) / k! * I(alpha)^k,   I(alpha) = int_delta^s_max exp(alpha*s)/s ds.

Every alpha >= 0 gives a valid bound, so the tilt decides only sharpness;
optimize_alpha picks it from the convexity of the log k-term in alpha. At
alpha = 0, I = log(s_max/delta) and the k-term is the closed form, so the
closed form (also the K boundary term) is evaluated as that k-term.

The Monte Carlo oracle for the exact (unrelaxed) region integrals lives with
the tests, in tests/oracles.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import DomainError, PrecisionError
from .lognum import ZERO, LogNumber, ln_sum, log_fraction
from .quadrature import exp_integral

# relative change of alpha below which the tilt search stops
_ALPHA_RTOL = 1e-9
_MAX_STEPS = 100


def checked_delta(delta) -> Fraction:
    """delta as an exact rational in (0, 1), the check every entry point
    shares. Floats are rejected on purpose."""
    if isinstance(delta, float):
        raise DomainError("delta must be an exact rational (e.g. Fraction(1, 321)), not a float")
    delta = Fraction(delta)
    if not (0 < delta < 1):
        raise DomainError(f"delta must lie in (0, 1), got {delta}")
    return delta


@dataclass(frozen=True)
class BoundParams:
    """Parameters of one bound term: h large factors, cutoff exponent delta,
    and k primes kept in the divisor of n^3+2."""

    h: int
    delta: Fraction
    k: int

    def __post_init__(self) -> None:
        if self.h < 3:
            raise DomainError(f"h must be at least 3, got {self.h}")
        object.__setattr__(self, "delta", checked_delta(self.delta))
        if not (self.h // 3 <= self.k <= self.h - 1):
            raise DomainError(f"k must lie in [{self.h // 3}, {self.h - 1}], got {self.k}")

    @cached_property
    def s_max(self) -> Fraction:
        """Upper coordinate limit (3 - (k-1)*delta) / (h-k+1), exactly,
        built as one fraction of integers."""
        a, b = self.delta.numerator, self.delta.denominator
        return Fraction(3 * b - (self.k - 1) * a, b * (self.h - self.k + 1))

    def is_empty(self) -> bool:
        """True when s_max <= delta, i.e. the size region has no interior."""
        return self.s_max <= self.delta


@dataclass(frozen=True)
class TiltChoice:
    """Tilt for one k-term, the resulting term value, and the exp_integral
    calls spent choosing it."""

    k: int
    alpha: float
    term_value: LogNumber
    evaluations: int


def _closed_form(p: BoundParams) -> LogNumber:
    """(1/k!) * log(s_max/delta)^k, the k-term at alpha = 0, or zero when
    the region is empty."""
    if p.is_empty():
        return ZERO
    return LogNumber(1, _log_term(p.k, 0.0, 0.0, log_fraction(p.s_max / p.delta)))


def first_bound(h: int, delta) -> LogNumber:
    """Closed-form coefficient with k = [h/3] primes kept.

    Zero (empty region) once h*delta >= 3; for delta = 1/321 that is every
    h >= 963.
    """
    return _closed_form(BoundParams(h, delta, h // 3))


def _lower(p: BoundParams) -> float:
    """Lower constraint L = (h-k-3)/(h-k-1) of a tilted term, after checking
    that p admits one (k <= h-2; the K boundary term uses the closed form
    instead)."""
    if p.k > p.h - 2:
        raise DomainError(f"tilted term needs k <= h-2, got k={p.k}, h={p.h}")
    return (p.h - p.k - 3) / (p.h - p.k - 1)


def _log_term(k: int, lower: float, alpha: float, integral: float) -> float:
    """f(alpha) = -alpha*L - ln k! + k*ln I(alpha)."""
    return -alpha * lower - math.lgamma(k + 1) + k * math.log(integral)


def second_bound_term(p: BoundParams, alpha: float) -> LogNumber:
    """One tilted k-term: exp(-alpha*(h-k-3)/(h-k-1))/k! * I(alpha)^k with
    I(alpha) = int_delta^s_max exp(alpha*s)/s ds.

    Valid for k <= h-2 and 0 <= alpha < inf, checked even where the region
    is empty; an empty region yields zero, not an error.
    """
    if not 0.0 <= alpha < math.inf:
        raise DomainError(f"alpha must be finite and non-negative, got {alpha!r}")
    lower = _lower(p)
    if p.is_empty():
        return ZERO
    integral = exp_integral(alpha, float(p.delta), float(p.s_max))
    return LogNumber(1, _log_term(p.k, lower, alpha, integral))


def _tilted_moments(alpha: float, a: float, b: float, integral: float) -> tuple[float, float]:
    """Mean I'/I and variance I''/I - (I'/I)^2 of s under exp(alpha*s) ds/s
    on [a, b], given I = integral. The variance loses digits when alpha*b is
    small; callers only use it to propose a bracketed step."""
    if alpha == 0.0:
        d1, d2 = b - a, 0.5 * (b * b - a * a)
    else:
        d1 = math.exp(alpha * a) * math.expm1(alpha * (b - a)) / alpha
        d2 = (math.exp(alpha * b) * (alpha * b - 1.0)
              - math.exp(alpha * a) * (alpha * a - 1.0)) / (alpha * alpha)
    mean = d1 / integral
    return mean, d2 / integral - mean * mean


def optimize_alpha(p: BoundParams) -> TiltChoice:
    """Minimise the tilted k-term over 0 <= alpha < 700/s_max (the cap keeps
    the quadrature precondition alpha*s_max <= 700).

    f is convex with f'(alpha) = -L + k*I'/I, so alpha* = 0 when f'(0) >= 0
    and is otherwise the root of f'. The search starts from alpha = 0, where
    I = ln(s_max/delta) is exact and needs no quadrature. It keeps a bracket
    on the sign of f', takes Newton steps on f' and bisects whenever a step
    leaves the bracket or f'' <= 0. It stops once the Newton correction or
    the step taken moves alpha by less than _ALPHA_RTOL relative. The best
    evaluated point is returned, so the result never exceeds the untilted
    term. evaluations counts exp_integral calls. Raises PrecisionError when
    the steps do not settle within _MAX_STEPS.
    """
    lower = _lower(p)
    if p.is_empty():
        return TiltChoice(k=p.k, alpha=0.0, term_value=ZERO, evaluations=0)
    a, b, k = float(p.delta), float(p.s_max), p.k
    alpha, integral = 0.0, log_fraction(p.s_max / p.delta)
    best_a, best_v = alpha, _log_term(k, lower, alpha, integral)
    lo, hi = 0.0, 700.0 / b
    for evals in range(_MAX_STEPS):
        mean, var = _tilted_moments(alpha, a, b, integral)
        slope = k * mean - lower
        lo, hi = (lo, alpha) if slope >= 0.0 else (alpha, hi)
        newton = alpha - slope / (k * var) if var > 0.0 else math.nan
        step = newton if lo < newton < hi else 0.5 * (lo + hi)
        tol = _ALPHA_RTOL * alpha
        if abs(newton - alpha) <= tol or abs(step - alpha) <= tol:
            return TiltChoice(k, best_a, LogNumber(1, best_v), evaluations=evals)
        alpha = step
        integral = exp_integral(alpha, a, b)
        value = _log_term(k, lower, alpha, integral)
        if value < best_v:
            best_a, best_v = alpha, value
    raise PrecisionError(f"tilt search for h={p.h}, k={k} did not settle in {_MAX_STEPS} steps")


@dataclass(frozen=True)
class SecondBoundDetail:
    """Tilted bound broken into its optimised k-terms and the K boundary term."""

    total: LogNumber
    tilt_choices: tuple[TiltChoice, ...]
    boundary_term: LogNumber


def clamped_K(h: int, K_offset: int) -> int:
    """K = [h/3] + K_offset, clamped to h-1, the largest K a tilted bound admits;
    K_offset >= 1 makes K > [h/3] for every h >= 3, so no tilted sum is empty."""
    if K_offset < 1:
        raise DomainError(f"K_offset must be at least 1, got {K_offset}")
    return min(h // 3 + K_offset, h - 1)


def second_bound_detail(h: int, delta, K: int, alpha: float | None = None) -> SecondBoundDetail:
    """Sum of tilted terms for k in [[h/3], K-1] plus the closed-form K-term.

    Each tilt is optimised, or with alpha given every k-term is evaluated at
    that fixed tilt (one quadrature each, none for an empty region). With
    K = [h/3] the sum is empty and this reduces to first_bound.
    """
    top = BoundParams(h, delta, K)  # checks h, delta and K
    params = [BoundParams(h, top.delta, k) for k in range(h // 3, K)]
    if alpha is None:
        choices = tuple(optimize_alpha(p) for p in params)
    else:
        choices = tuple(
            TiltChoice(p.k, alpha, second_bound_term(p, alpha), int(not p.is_empty()))
            for p in params
        )
    boundary = _closed_form(top)
    total = ln_sum([c.term_value for c in choices] + [boundary])
    return SecondBoundDetail(total=total, tilt_choices=choices, boundary_term=boundary)
