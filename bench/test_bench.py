"""Self-test of the benchmark on tiny inputs.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

import run

run.load_program()

import layers  # noqa: E402
import workloads as W  # noqa: E402
from cubebound import bounds, empirical, quadrature  # noqa: E402
from cubebound.aggregate import AggregateConfig  # noqa: E402
from cubebound.empirical import FactorProfile, RangeJob  # noqa: E402
from spans import Tracer, patched  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def workdir():
    path = ROOT / ".bench_work" / "selftest"
    path.mkdir(parents=True, exist_ok=True)
    return str(path)


def tiny_workloads():
    cfg = AggregateConfig(H=20, split_h=26, h_max=40)
    return [
        W.ConstantsWorkload(
            1, reproduce_args=("--H", "20", "--split", "26", "--h-max", "40"),
            cfg=cfg, H_values=[20, 21],
        ),
        W.CountWorkload(1, width=600, sub_width=100),
        W.FactorWorkload(1, width=150, mertens_x=10**4),
    ]


@pytest.fixture(scope="module")
def tiny_results(workdir):
    return {
        (wl.name, trace): run.run_workload(wl, 0.0, trace, workdir, setup_repeats=1, min_passes=1)
        for wl in tiny_workloads()
        for trace in (False, True)
    }


def test_workload_names_match_declaration():
    assert [w["name"] for w in DECLARED["workloads"]] == list(W.WORKLOADS)


@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_every_declared_metric_is_emitted_with_its_unit(tiny_results, trace, section):
    declared = {m["name"]: m["unit"] for m in DECLARED[section]}
    for name in W.WORKLOADS:
        metrics = tiny_results[(name, trace)]["metrics"]
        assert set(metrics) == set(declared), name
        for metric, m in metrics.items():
            assert m["unit"] == declared[metric], (name, metric)
            assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])


def test_tiny_count_and_factor_runs_are_correct(tiny_results):
    for name in ("count", "factor"):
        for trace in (False, True):
            result = tiny_results[(name, trace)]
            assert result["correct"], result["details"]["failures"]
            assert result["attempted"] > 0 and result["failed"] == 0


def test_end_to_end_times_are_positive(tiny_results):
    for name in W.WORKLOADS:
        for metric, m in tiny_results[(name, False)]["metrics"].items():
            assert m["value"] > 0, (name, metric)


def test_wrong_constant_fails():
    report = {k: {"log_mag": v} for k, v in W.PINNED_CONSTANTS.items()}
    checks = W.Checks()
    W.check_constants(checks, "exact", report)
    assert checks.failed == 0
    report["alpha"] = {"log_mag": W.PINNED_CONSTANTS["alpha"] + 1e-9}
    W.check_constants(checks, "perturbed", report)
    assert checks.failed == 1 and "alpha" in checks.failures[0]


def test_wrong_count_fails():
    wl = W.CountWorkload(run.DEFAULT_SEED)
    assert wl.pinned == W.PINNED_COUNTS
    checks = W.Checks()
    doc = json.dumps({"result": {"count": W.PINNED_COUNTS[6]}})
    wl.check(checks, "count_h6", W.CliResult(0, doc))
    assert checks.failed == 0
    wrong = json.dumps({"result": {"count": W.PINNED_COUNTS[6] + 1}})
    wl.check(checks, "count_h6", W.CliResult(0, wrong))
    assert checks.failed >= 1 and any("pinned" in f for f in checks.failures)
    W.check_count(checks, "reference", 5, 4)
    assert "reference" in checks.failures[-1]


def test_composite_factor_fails_the_oracle():
    wl = W.FactorWorkload(1, width=10, sample=10)
    profiles = list(empirical.factor_range(RangeJob(wl.x_min, wl.x_max, 2, 0)))
    checks = W.Checks()
    wl.check(checks, "factor", profiles)
    assert checks.failed == 0
    # merge two prime factors into one composite: the product still matches,
    # so only the primality oracle can notice
    i = next(i for i, p in enumerate(profiles) if len(p.factors) >= 2)
    (p, e), (q, f), *rest = profiles[i].factors
    merged = FactorProfile(profiles[i].n, profiles[i].value, ((p**e * q**f, 1), *rest))
    wl.check(checks, "factor", profiles[:i] + [merged] + profiles[i + 1:])
    assert checks.failures == [checks.failures[-1]]
    assert "sympy.isprime" in checks.failures[-1]


def _children(spans):
    kids = {}
    for i, (_, parent, start, end) in enumerate(spans):
        kids.setdefault(parent, []).append(i)
    return kids


def test_span_self_times_add_up():
    tracer = Tracer()
    replacements, absent = layers.build_wrappers(tracer)
    assert not absent
    original = quadrature.exp_integral
    with patched(layers.PACKAGE, replacements):
        assert quadrature.exp_integral is not original
        with tracer.span("root"):
            bounds.second_bound_detail(20, Fraction(1, 321), 10)
            list(empirical.factor_range(RangeJob(1000, 1040, 2, 0)))
    assert quadrature.exp_integral is original and bounds.exp_integral is original

    spans = tracer.spans
    kids = _children(spans)
    summary = tracer.summary()
    assert summary["bounds.optimize_alpha"]["calls"] == 4
    assert summary["empirical.factor_range"]["calls"] == 41  # 40 yields + the end
    assert tracer.counts["quadrature._panel"] > 0
    self_total = 0.0
    for i, (name, parent, start, end) in enumerate(spans):
        duration = end - start
        child = sum(spans[c][3] - spans[c][2] for c in kids.get(i, []))
        own = duration - child
        assert own >= 0.0, name
        if parent >= 0:
            assert spans[parent][2] <= start and end <= spans[parent][3]
        self_total += own
    root = spans[0]
    assert self_total == pytest.approx(root[3] - root[2], rel=1e-9, abs=1e-12)
    assert sum(r["self_s"] for r in summary.values()) == pytest.approx(self_total, rel=1e-9)


def test_missing_kernel_is_reported_absent(monkeypatch):
    monkeypatch.delattr(quadrature, "_panel")
    tracer = Tracer()
    _, absent = layers.build_wrappers(tracer)
    assert absent == {"quadrature._panel"}
    extra = {"untraced_pass_s": 1.0, "traced_pass_s": 1.0, "generator_s": 0.0, "spans": 0}
    metrics = layers.per_layer_metrics(layers.Layers({}, tracer.counts, extra), absent)
    assert metrics["quadrature.panels"]["absent"] is True
    assert metrics["quadrature.panels_per_call"]["absent"] is True
    assert "absent" not in metrics["quadrature.exp_integral.calls"]


def test_deterministic_counters_repeat(workdir):
    wl_runs = []
    for _ in range(2):
        wl = W.CountWorkload(3, width=400, sub_width=50)
        result = run.run_workload(wl, 0.0, True, workdir, setup_repeats=1, min_passes=1)
        wl_runs.append({k: result["metrics"][k]["value"] for k in layers.DETERMINISTIC})
    assert wl_runs[0] == wl_runs[1]
    assert wl_runs[0]["empirical.mr_calls"] > 0
