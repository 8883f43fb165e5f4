"""What the traced run wraps, and the per-layer metrics made from its spans.

Span names are ``<module>.<function>``; ``weighted_tail`` spans carry the
method as a suffix (``aggregate.weighted_tail.second``). Two private
kernels are wrapped as well: ``quadrature._panel`` only counts its calls
(it runs about 6e5 times per reproduction), ``empirical._pollard_brent``
records spans. A wrapped name the program no longer has is reported as
absent, together with every metric built from it.
"""

from __future__ import annotations

import importlib
import inspect
from typing import Callable

from spans import Tracer

PACKAGE = "cubebound"

# (module, function, kind); "ln_*" stands for every ln_ function of lognum
TARGETS = (
    ("cli", "main", "span"),
    ("aggregate", "final_constants", "span"),
    ("aggregate", "weighted_tail", "span"),
    ("aggregate", "sweep_H", "span"),
    ("bounds", "second_bound_detail", "span"),
    ("bounds", "optimize_alpha", "span"),
    ("bounds", "first_bound", "span"),
    ("quadrature", "exp_integral", "span"),
    ("quadrature", "_panel", "count"),
    ("lognum", "ln_*", "span"),
    ("empirical", "build_root_table", "span"),
    ("empirical", "save_root_table", "span"),
    ("empirical", "load_root_table", "span"),
    ("empirical", "empirical_T", "span"),
    ("empirical", "factor_range", "span"),
    ("empirical", "is_certified_prime", "span"),
    ("empirical", "_pollard_brent", "span"),
    ("empirical", "mertens_check", "span"),
)


def _job_values(args: tuple, kwargs: dict) -> int:
    job = args[0] if args else kwargs["job"]
    return job.x_max - job.x_min


def build_wrappers(tracer: Tracer) -> tuple[dict[int, Callable], set[str]]:
    """Wrappers keyed by ``id`` of the function they replace, and the set of
    ``module.function`` targets that do not exist."""
    counts = tracer.counts
    hooks: dict[str, Callable] = {
        "bounds.optimize_alpha": lambda a, k, r: counts.update(
            {"bounds.objective_evals": r.evaluations}),
        "aggregate.weighted_tail": lambda a, k, r: counts.update(
            {"aggregate.per_h_terms": len(r[1])}),
        "empirical.empirical_T": lambda a, k, r: counts.update(
            {"empirical.values": _job_values(a, k)}),
        "empirical.factor_range": lambda a, k, r: counts.update(
            {"empirical.values": _job_values(a, k)}),
    }
    replacements: dict[int, Callable] = {}
    absent: set[str] = set()
    for module_name, attr, kind in TARGETS:
        module = importlib.import_module(f"{PACKAGE}.{module_name}")
        if attr == "ln_*":
            names = [n for n, v in vars(module).items() if n.startswith("ln_") and callable(v)]
        else:
            names = [attr]
        for name in names:
            key = f"{module_name}.{name}"
            fn = getattr(module, name, None)
            if fn is None:
                absent.add(key)
                continue
            if kind == "count":
                replacements[id(fn)] = tracer.counter(fn, key)
                continue
            label: str | Callable = key
            if key == "aggregate.weighted_tail":
                signature = inspect.signature(fn)
                label = lambda a, k, s=signature: (
                    "aggregate.weighted_tail." + s.bind(*a, **k).arguments["method"])
            replacements[id(fn)] = tracer.wrap(fn, label, hooks.get(key))
    return replacements, absent


class Layers:
    """Lookups over one traced run's span summary and counters."""

    def __init__(self, summary: dict, counts, extra: dict) -> None:
        self.summary = summary
        self.counts = counts
        self.extra = extra

    def calls(self, *names: str) -> int:
        return sum(self.summary.get(n, {}).get("calls", 0) for n in names)

    def total(self, *names: str) -> float:
        return sum(self.summary.get(n, {}).get("total_s", 0.0) for n in names)

    def self_time(self, *names: str) -> float:
        return sum(self.summary.get(n, {}).get("self_s", 0.0) for n in names)

    def prefix(self, prefix: str) -> list[str]:
        return [n for n in self.summary if n.startswith(prefix)]

    def ratio(self, num: float, den: float) -> float:
        return num / den if den else 0.0


# name, unit, targets it needs, value
PER_LAYER: tuple[tuple[str, str, tuple[str, ...], Callable[[Layers], float]], ...] = (
    ("quadrature.exp_integral.calls", "count", ("quadrature.exp_integral",),
     lambda L: L.calls("quadrature.exp_integral")),
    ("quadrature.exp_integral.self_s", "s", ("quadrature.exp_integral",),
     lambda L: L.self_time("quadrature.exp_integral")),
    ("quadrature.panels", "count", ("quadrature._panel",),
     lambda L: L.counts["quadrature._panel"]),
    ("quadrature.panels_per_call", "panels/call", ("quadrature._panel", "quadrature.exp_integral"),
     lambda L: L.ratio(L.counts["quadrature._panel"], L.calls("quadrature.exp_integral"))),
    ("bounds.kterms", "count", ("bounds.optimize_alpha",),
     lambda L: L.calls("bounds.optimize_alpha")),
    ("bounds.objective_evals", "count", ("bounds.optimize_alpha",),
     lambda L: L.counts["bounds.objective_evals"]),
    ("bounds.evals_per_kterm", "evals/kterm", ("bounds.optimize_alpha",),
     lambda L: L.ratio(L.counts["bounds.objective_evals"], L.calls("bounds.optimize_alpha"))),
    ("bounds.optimize_alpha.self_s", "s", ("bounds.optimize_alpha",),
     lambda L: L.self_time("bounds.optimize_alpha")),
    ("bounds.first_bound.calls", "count", ("bounds.first_bound",),
     lambda L: L.calls("bounds.first_bound")),
    ("bounds.first_bound.s", "s", ("bounds.first_bound",),
     lambda L: L.total("bounds.first_bound")),
    ("lognum.calls", "count", (),
     lambda L: L.calls(*L.prefix("lognum."))),
    ("lognum.self_s", "s", (),
     lambda L: L.self_time(*L.prefix("lognum."))),
    ("aggregate.per_h_terms", "count", ("aggregate.weighted_tail",),
     lambda L: L.counts["aggregate.per_h_terms"]),
    ("aggregate.weighted_tail.second_s", "s", ("aggregate.weighted_tail",),
     lambda L: L.total("aggregate.weighted_tail.second")),
    ("aggregate.weighted_tail.first_s", "s", ("aggregate.weighted_tail",),
     lambda L: L.total("aggregate.weighted_tail.first")),
    ("aggregate.self_s", "s", (),
     lambda L: L.self_time(*L.prefix("aggregate."))),
    ("aggregate.parallel_efficiency", "ratio", (),
     lambda L: L.extra.get("parallel_efficiency", 0.0)),
    ("cli.self_s", "s", ("cli.main",),
     lambda L: L.self_time("cli.main")),
    ("cli.document_bytes", "bytes", ("cli.main",),
     lambda L: L.extra.get("document_bytes", 0)),
    ("empirical.mr_calls", "count", ("empirical.is_certified_prime",),
     lambda L: L.calls("empirical.is_certified_prime")),
    ("empirical.mr_s", "s", ("empirical.is_certified_prime",),
     lambda L: L.total("empirical.is_certified_prime")),
    ("empirical.mr_calls_per_value", "calls/value", ("empirical.is_certified_prime",),
     lambda L: L.ratio(L.calls("empirical.is_certified_prime"), L.counts["empirical.values"])),
    ("empirical.pollard_splits", "count", ("empirical._pollard_brent",),
     lambda L: L.calls("empirical._pollard_brent")),
    ("empirical.pollard_s", "s", ("empirical._pollard_brent",),
     lambda L: L.total("empirical._pollard_brent")),
    ("empirical.sieve_self_s", "s", ("empirical.empirical_T", "empirical.factor_range"),
     lambda L: L.self_time("empirical.empirical_T", "empirical.factor_range")),
    ("empirical.table_build_s", "s", ("empirical.build_root_table",),
     lambda L: L.total("empirical.build_root_table")),
    ("empirical.cache_save_s", "s", ("empirical.save_root_table",),
     lambda L: L.total("empirical.save_root_table")),
    ("empirical.cache_load_s", "s", ("empirical.load_root_table",),
     lambda L: L.total("empirical.load_root_table")),
    ("empirical.cache_bytes", "bytes", (),
     lambda L: L.extra.get("cache_bytes", 0)),
    ("bench.untraced_pass_s", "s", (),
     lambda L: L.extra["untraced_pass_s"]),
    ("bench.traced_pass_s", "s", (),
     lambda L: L.extra["traced_pass_s"]),
    ("bench.trace_overhead_s", "s", (),
     lambda L: L.extra["traced_pass_s"] - L.extra["untraced_pass_s"]),
    ("bench.generator_s", "s", (),
     lambda L: L.extra["generator_s"]),
    ("bench.spans", "count", (),
     lambda L: L.extra["spans"]),
)

# the program's work counted at the layer boundaries; they do not depend on
# the machine, and are also reported for each traced call on its own
COUNTERS = (
    "quadrature.exp_integral.calls", "quadrature.panels", "bounds.kterms",
    "bounds.objective_evals", "bounds.first_bound.calls", "lognum.calls",
    "aggregate.per_h_terms", "empirical.mr_calls", "empirical.pollard_splits",
)
# everything a second traced run with the same seed must repeat exactly
DETERMINISTIC = COUNTERS + ("cli.document_bytes", "empirical.cache_bytes", "bench.spans")


def per_layer_metrics(layers: Layers, absent: set[str], names=None) -> dict[str, dict]:
    """The per-layer metrics (only ``names``, when given) as ``value``/``unit``
    objects; a metric built from an absent target is marked absent."""
    out = {}
    for name, unit, needs, value in PER_LAYER:
        if names is not None and name not in names:
            continue
        missing = [t for t in needs if t in absent]
        if missing:
            out[name] = {"value": 0, "unit": unit, "absent": True}
        else:
            out[name] = {"value": value(layers), "unit": unit}
    return out
