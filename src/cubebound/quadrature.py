"""The tilted logarithmic integral I(alpha) = int_a^b exp(alpha*s)/s ds.

Integrating the exponential series term by term (Abramowitz & Stegun 5.1.10,
differenced) gives, with r = ln(b/a), v = alpha*b and P_n = v^n/n!,

    I(alpha) = r + sum_{n>=1} T_n,   T_n = P_n * (1 - exp(-n*r)) / n.

Every term is positive, so nothing cancels, and past n = 2v the terms fall
faster than a geometric series with ratio 1/2, which bounds the part not added.
"""

from __future__ import annotations

import math

from .errors import DomainError, PrecisionError

# unit roundoff of IEEE double precision
_U = 2.0**-53
# relative error every exp_integral value is certified to. The bound of _panel
# grows with alpha*b and stays below 4.7e-13 relative on the whole domain
# alpha*b <= 700 (4.68e-13 at 700), so a larger bound means a fault.
_REL_TOL = 1e-12


def _panel(alpha: float, a: float, b: float) -> tuple[float, float]:
    """I(alpha) on [a, b] (a < b) by the series, and a bound on its error.

    Tail: for n > N the bounds P_n/n have ratio v*n/(n+1)^2 <= v/(N+2) = q,
    so the terms not yet added sum to at most R = P_N*v/(N+1)^2/(1 - q).
    Once q <= 1/2 the loop stops at the first N with R <= u*S, where S is the
    running sum and u = 2^-53.

    Rounding. theta_k is any factor with |theta_k| <= gamma_k = k*u/(1-k*u),
    so (1+theta_j)(1+theta_k) = 1+theta_{j+k}. Each float operation gives a
    theta_1; log1p and expm1 are taken to be within one ulp (theta_2). Nothing
    underflows: r >= 2^-54, P_n > 1/100 while q > 1/2, and later terms are
    added only while R > u*r. With v <= 700 only x = (b-a)/a can overflow, and
    the caller rejects the result.
    - x carries theta_2. ln(1+x) and 1-exp(-y) have condition numbers at most
      1, so a relative error e in x or y moves them by at most |e|/(1-|e|):
      r carries theta_5, n*r theta_6 and 1-exp(-n*r) theta_9.
    - v carries theta_1, P_n (two roundings a step) theta_{3n}, T_n theta_{3n+11}.
    - Summing left to right rounds T_n N-n+1 more times; all terms are positive,
      so |S - S_N| <= gamma_{3N+12} * S_N <= gamma_{3N+13} * S against the
      exact partial sum S_N.
    - The computed R carries theta_{3N+8} (q <= 1/2 keeps 1-q to theta_4), and
      R <= u*S, so the exact tail bound is below R + gamma_1 * S.
    So |I - S| <= R + gamma_{3N+14} * S. The bound returned is
    R + gamma_{3N+18} * S, the four extra u covering its own roundings.
    """
    r = math.log1p((b - a) / a)
    v = alpha * b
    total = r
    p = 1.0
    n = 0
    while True:
        if n + 2 >= 2.0 * v:
            tail = p * v / ((n + 1) * (n + 1) * (1.0 - v / (n + 2)))
            if tail <= _U * total:
                break
        n += 1
        p = p * v / n
        total += p * -math.expm1(-n * r) / n
    m = 3 * n + 18
    return total, tail + m * _U / (1.0 - m * _U) * total


def exp_integral(alpha: float, a: float, b: float) -> float:
    """Integral of exp(alpha*s)/s over [a, b], certified to _REL_TOL relative.

    Requires 0 < a <= b, alpha >= 0 and alpha*b <= 700 (keeps every series
    term inside the float range); NaN fails them. Returns 0.0 when a == b.
    Raises DomainError on precondition violations and PrecisionError when the
    value overflows or its error bound exceeds _REL_TOL times the value.
    """
    if not a > 0.0:
        raise DomainError(f"lower limit must be positive, got a={a!r}")
    if not b >= a:
        raise DomainError(f"upper limit below lower limit: a={a!r}, b={b!r}")
    if not alpha >= 0.0:
        raise DomainError(f"tilt must be non-negative, got alpha={alpha!r}")
    if not alpha * b <= 700.0:
        raise DomainError(f"alpha*b = {alpha * b!r} exceeds 700, integrand would overflow")
    if a == b:
        return 0.0
    value, error = _panel(alpha, a, b)
    if not math.isfinite(value):
        raise PrecisionError(f"series overflowed on [{a}, {b}] with alpha={alpha}")
    if error > _REL_TOL * value:
        raise PrecisionError(
            f"error bound {error:.3g} exceeds {_REL_TOL:g} times {value!r} "
            f"on [{a}, {b}] with alpha={alpha}"
        )
    return value
