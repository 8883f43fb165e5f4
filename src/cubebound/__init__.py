"""Explicit tail bounds for the count of n in (X, 2X] whose cubic value
n^3+2 has many prime factors above X^delta, the aggregation pipeline that
turns them into a proportion and exponent, and a desk-scale empirical
counting harness."""

__version__ = "0.2.0"

from .aggregate import (
    AggregateConfig,
    AggregateReport,
    PerHTerm,
    display_round,
    final_constants,
    reproduction_checks,
    sweep_H,
    weighted_tail,
)
from .bounds import (
    BoundParams,
    SecondBoundDetail,
    TiltChoice,
    first_bound,
    optimize_alpha,
    second_bound_detail,
    second_bound_term,
)
from .errors import DomainError, FactorizationError, PrecisionError
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
from .quadrature import exp_integral

# the empirical harness needs numpy, so its names are imported on first use
_EMPIRICAL = (
    "FactorProfile", "PrimeSums", "RangeJob", "RootTable", "build_root_table",
    "count_cubic_roots", "empirical_T", "factor_range", "load_root_table",
    "mertens_check", "nu", "nu_from_factors", "prime_sums", "save_root_table",
)

__all__ = [
    "__version__",
    "AggregateConfig", "AggregateReport", "PerHTerm", "display_round",
    "final_constants", "reproduction_checks", "sweep_H", "weighted_tail",
    "BoundParams", "SecondBoundDetail", "TiltChoice", "first_bound",
    "optimize_alpha", "second_bound_detail", "second_bound_term",
    *_EMPIRICAL,
    "DomainError", "FactorizationError", "PrecisionError",
    "ZERO", "LogNumber", "from_fraction", "from_real", "ln_add",
    "ln_div", "ln_mul", "ln_sub", "ln_sum", "exp_integral",
]


def __getattr__(name: str):
    if name not in _EMPIRICAL:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import empirical

    value = globals()[name] = getattr(empirical, name)
    return value
