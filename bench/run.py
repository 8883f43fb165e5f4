#!/usr/bin/env python3
"""Run one workload of the cubebound benchmark and print its metrics.

    python3 bench/run.py --workload constants|count|factor \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the program is imported from its
``src/`` directory, and scratch files go to ``.bench_work/``. With
``--trace 0`` the workload's calls run in a closed loop (one caller, each
call after the previous returns) for at least two passes and until
``--seconds`` would be exceeded, and the end-to-end metrics are reported.
With ``--trace 1`` one untraced pass is followed by one traced pass of the
serial calls, and the per-layer metrics are reported. The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"
DEFAULT_SEED = 1
SETUP_REPEATS = 5
MIN_PASSES = 2

_IMPORT = "import sys; sys.path.insert(0, sys.argv[1]); import cubebound"

_now = time.perf_counter

# Seconds the speed probe takes on an idle core of the reference machine
# (2-core x86-64 VM, Python 3.11.7). Other tenants of a shared host can slow
# this machine down by up to twice, for seconds or minutes at a time, so
# each timing is scaled by PROBE_REF_S / (mean of the probes just before and
# just after it): reported times are seconds at the reference speed. The
# unscaled times are kept in the run record.
PROBE_REF_S = 0.1


def load_program() -> None:
    """Put the checkout's ``src/`` first on the path and import cubebound
    from there; exit non-zero when the checkout has no program."""
    package = SRC / "cubebound"
    if not (package / "__init__.py").is_file():
        sys.exit(f"run.py: no cubebound sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cubebound

    if Path(cubebound.__file__).resolve().parent != package.resolve():
        sys.exit(f"run.py: imported cubebound from {cubebound.__file__}, not {package}")


def start_program() -> None:
    """Start a fresh interpreter that imports cubebound, as every run of
    the program's command line does."""
    subprocess.run([sys.executable, "-c", _IMPORT, str(SRC)],
                   capture_output=True, check=True, timeout=120)


def peak_rss_mb() -> float:
    """Peak resident memory of this process. Linux carries ``ru_maxrss``
    over from the parent across fork and exec, so the process's own
    high-water mark is read from /proc where it exists."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def probe_seconds() -> float:
    """Time of a fixed pure-Python kernel (big-int modular powers and integer
    arithmetic, like the program's own work): the CPU speed this process is
    getting right now."""
    t0 = _now()
    x, n, acc = 12345678901234567, (1 << 61) - 1, 0
    for i in range(30_000):
        x = pow(x, 65537, n)
        acc += (x & 1023) * i
    return _now() - t0


class Clock:
    """Times calls with a speed probe before each call and after it (the
    probe after one call serves as the probe before the next)."""

    def __init__(self) -> None:
        self.probes: list[float] = []

    def time(self, fn):
        """(result, raw seconds, seconds at the reference speed) of ``fn()``."""
        if not self.probes:
            self.probes.append(probe_seconds())
        t0 = _now()
        try:
            result = fn()
        finally:
            raw = _now() - t0
            self.probes.append(probe_seconds())
        return result, raw, raw * PROBE_REF_S / (0.5 * (self.probes[-2] + self.probes[-1]))


def timed_pass(wl, calls, checks, outputs: list, clock: Clock,
               tracer=None) -> dict[str, tuple[float, float]]:
    """Run ``calls`` once, in order; each call starts after the previous one
    returned. Returns (raw, scaled) seconds per completed call. With a
    tracer, each call is a root span."""
    times = {}
    for call in calls:
        def run():
            if tracer is None:
                return wl.run(call)
            with tracer.span(f"bench.{call}"):
                return wl.run(call)
        try:
            out, raw_s, scaled_s = clock.time(run)
        except Exception as exc:  # a failing call is counted, the run goes on
            checks.expect(f"{call} completed", False, f"{type(exc).__name__}: {exc}")
            continue
        times[call] = (raw_s, scaled_s)
        checks.expect(f"{call} completed", True)
        outputs.append((call, out))
    return times


def check_outputs(wl, checks, outputs) -> float:
    t0 = _now()
    for call, out in outputs:
        wl.check(checks, call, out)
    return _now() - t0


def run_workload(wl, seconds: float, trace: bool, workdir: str, seeding_s: float = 0.0,
                 setup_repeats: int = SETUP_REPEATS, min_passes: int = MIN_PASSES) -> dict:
    """Measure one workload. Returns the result object (``correct``,
    ``attempted``, ``failed``, ``metrics``) plus ``details`` for humans.
    ``seeding_s`` is the time taken to make the workload's inputs."""
    from workloads import Checks

    checks = Checks()
    clock = Clock()
    generator_s = seeding_s

    def setup():
        start_program()
        wl.setup(workdir)

    setups = [clock.time(setup)[1:] for _ in range(1 if trace else setup_repeats)]

    raw: dict[str, list[float]] = {call: [] for call in wl.calls}
    samples: dict[str, list[float]] = {call: [] for call in wl.calls}
    passes = []
    start = _now()
    while True:
        outputs: list = []
        times = timed_pass(wl, wl.calls, checks, outputs, clock)
        passes.append(sum(scaled for _, scaled in times.values()))
        for call, (raw_s, scaled_s) in times.items():
            raw[call].append(raw_s)
            samples[call].append(scaled_s)
        generator_s += check_outputs(wl, checks, outputs)
        n = len(passes)
        if trace or (n >= min_passes and (_now() - start) * (n + 1) / n > seconds):
            break

    def median(values):
        return statistics.median(values) if values else float("nan")

    named = {}
    for call in wl.calls:
        metric, unit = wl.metrics[call]
        per = 1e6 / wl.values(call) if unit == "us/value" else 1.0
        named[metric] = (median(samples[call]) * per, median(raw[call]) * per, unit)

    trace_doc = None
    if trace:
        metrics, trace_doc = traced_pass(wl, checks, workdir, samples, clock)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(s for _, s in setups), "unit": "s"},
            "pass_s": {"value": statistics.median(passes), "unit": "s"},
            "call1_s": {"value": median(samples[wl.calls[0]]), "unit": "s"},
            "call2_s": {"value": median(samples[wl.calls[1]]), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }

    t0 = _now()
    wl.final_checks(checks)
    generator_s += _now() - t0 + sum(clock.probes)
    if trace:
        generator_s += trace_doc.pop("check_s")
        metrics["bench.generator_s"]["value"] = generator_s
    return {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
        "details": {
            "workload": wl.name, "inputs": wl.inputs, "passes": len(passes),
            "named": named, "raw_setup_s": [r for r, _ in setups], "raw_s": raw,
            "probes_s": clock.probes, "generator_s": generator_s,
            "failures": checks.failures, "trace": trace_doc,
        },
    }


def traced_pass(wl, checks, workdir, samples, clock):
    """Set up and run the serial calls once more with every layer wrapped."""
    from layers import COUNTERS, PACKAGE, Layers, build_wrappers, per_layer_metrics
    from spans import Tracer, patched
    from workloads import CliResult

    tracer = Tracer()
    replacements, absent = build_wrappers(tracer)
    pair = getattr(wl, "parallel_pair", None)
    serial = [c for c in wl.calls if not pair or c != pair[1]]
    outputs: list = []
    times: dict[str, tuple[float, float]] = {}
    ranges = {}  # step -> (first span, end of its spans, counters added)
    with patched(PACKAGE, replacements):
        for step in ["setup", *serial]:
            first, before = len(tracer.spans), Counter(tracer.counts)
            if step == "setup":
                with tracer.span("bench.setup"):
                    wl.setup(workdir)
            else:
                times.update(timed_pass(wl, [step], checks, outputs, clock, tracer))
            ranges[step] = (first, len(tracer.spans), tracer.counts - before)
    check_s = check_outputs(wl, checks, outputs)

    extra = {
        "untraced_pass_s": sum(samples[c][0] for c in times if samples[c]),
        "traced_pass_s": sum(scaled for _, scaled in times.values()),
        "generator_s": 0.0,  # filled in once the final checks have run
        "spans": len(tracer.spans),
        "document_bytes": sum(
            len(out.document.encode()) for _, out in outputs if isinstance(out, CliResult)
        ),
        "cache_bytes": os.path.getsize(wl.cache) if getattr(wl, "cache", "") else 0,
    }
    if pair and samples[pair[0]] and samples[pair[1]]:
        serial_s, parallel_s, jobs = samples[pair[0]][0], samples[pair[1]][0], pair[2]
        extra["parallel_efficiency"] = serial_s / (jobs * parallel_s)
    summary = tracer.summary()
    metrics = per_layer_metrics(Layers(summary, tracer.counts, extra), absent)
    counters_by_step = {}
    for step, (first, stop, counts) in ranges.items():
        step_metrics = per_layer_metrics(
            Layers(tracer.summary(first, stop), counts, {}), absent, COUNTERS)
        counters_by_step[step] = {
            k: step_metrics[k]["value"] for k in COUNTERS if step_metrics[k]["value"]}
    t0 = tracer.spans[0][2] if tracer.spans else 0.0
    doc = {
        "absent": sorted(absent),
        "counters_by_step": counters_by_step,
        "layers": summary,
        "spans": [
            [name, parent, round(start - t0, 7), round(end - start, 7)]
            for name, parent, start, end in tracer.spans
        ],
        "check_s": check_s,
    }
    return metrics, doc


def print_human(result: dict, d: dict, trace: bool) -> None:
    print(f"workload {d['workload']}: inputs {json.dumps(d['inputs'])}")
    if trace:
        print(f"{'per-layer metric':<36} {'value':>14}  unit")
        for name, m in result["metrics"].items():
            note = "  (absent)" if m.get("absent") else ""
            print(f"{name:<36} {m['value']:>14.6g}  {m['unit']}{note}")
    else:
        print(f"passes: {d['passes']}; each timing is a median, scaled to the reference speed")
        for name, (value, raw_value, unit) in d["named"].items():
            print(f"{name} = {value:.6g} {unit} (unscaled {raw_value:.6g})")
        for name, m in result["metrics"].items():
            print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"generator_s = {d['generator_s']:.6g} s (inputs, checks and speed probes; not timed)")
    ratio = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"failed_ratio = {ratio:.6g} ({result['failed']} of {result['attempted']})")
    for failure in d["failures"]:
        print(f"FAILED: {failure}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("constants", "count", "factor"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_program()
    from workloads import WORKLOADS

    t0 = _now()
    wl = WORKLOADS[args.workload](args.seed)
    seeding_s = _now() - t0
    WORKDIR.mkdir(exist_ok=True)
    result = run_workload(wl, args.seconds, bool(args.trace), str(WORKDIR), seeding_s)

    cache = getattr(wl, "cache", "")
    if cache and os.path.exists(cache):
        os.remove(cache)
    details = result.pop("details")
    record = WORKDIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"seed": args.seed, **result, **details}))
    print(f"full record written to {record.relative_to(ROOT)}")
    print_human(result, details, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
