#!/usr/bin/env python3
"""Rewrite bench/baseline.json from the current checkout.

    python3 bench/record.py [--runs 3] [--seed 1]

Each workload runs ``--runs`` times untraced and twice traced, each run in a
fresh process through bench/run.py, and every end-to-end metric and named
timing is printed with its unit. The file records the median and minimum
of every end-to-end metric and named timing, the per-layer metrics of the
first traced run, the program's work counters per traced call, and whether
the two traced runs repeated every deterministic counter exactly, together
with the git commit, CPU count and Python and numpy versions. Exits 1 when
a run is incorrect or a counter did not repeat.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import run
from layers import DETERMINISTIC

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "baseline.json"


def bench_run(workload: str, seed: int, trace: int, seconds: int) -> dict:
    """One run of bench/run.py; returns its full run record."""
    subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=900,
    )
    path = ROOT / ".bench_work" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True, timeout=30)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return proc.stdout.strip()


def summarise(values: list[float]) -> dict:
    return {"median": statistics.median(values), "min": min(values), "runs": values}


def record_workload(workload: str, seed: int, runs: int, seconds: int) -> dict:
    untraced = [bench_run(workload, seed, 0, seconds) for _ in range(runs)]
    traced = [bench_run(workload, seed, 1, seconds) for _ in range(2)]
    end_to_end = {
        name: {"unit": m["unit"], **summarise([r["metrics"][name]["value"] for r in untraced])}
        for name, m in untraced[0]["metrics"].items()
    }
    named = {
        name: {
            "unit": unit,
            **summarise([r["named"][name][0] for r in untraced]),
            "unscaled_median": statistics.median(r["named"][name][1] for r in untraced),
        }
        for name, (_, _, unit) in untraced[0]["named"].items()
    }
    first, second = traced
    repeated = all(
        first["metrics"][k]["value"] == second["metrics"][k]["value"] for k in DETERMINISTIC
    ) and first["trace"]["counters_by_step"] == second["trace"]["counters_by_step"]
    everything = untraced + traced
    attempted = sum(r["attempted"] for r in everything)
    failed = sum(r["failed"] for r in everything)
    return {
        "inputs": first["inputs"],
        "correct": all(r["correct"] for r in everything),
        "failed_ratio": failed / attempted,
        "attempted": attempted,
        "end_to_end": end_to_end,
        "named": named,
        "generator_s": summarise([r["generator_s"] for r in untraced]),
        "counters_repeat_exactly": repeated,
        "counters_by_step": first["trace"]["counters_by_step"],
        "per_layer": {k: m["value"] for k, m in first["metrics"].items()},
        "absent": first["trace"]["absent"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    args = parser.parse_args()

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"]
    run.load_program()
    import numpy

    doc = {
        "command": "python3 bench/record.py",
        "git_sha": git_sha(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "probe_ref_s": run.PROBE_REF_S,
        "seed": args.seed,
        "run_seconds": seconds,
        "untraced_runs": args.runs,
        "workloads": {},
    }
    for w in declared["workloads"]:
        rec = doc["workloads"][w["name"]] = record_workload(
            w["name"], args.seed, args.runs, seconds)
        for name, m in {**rec["named"], **rec["end_to_end"]}.items():
            print(f"{w['name']}: {name} = {m['median']:.6g} {m['unit']} (median)")
        print(f"{w['name']}: failed_ratio = {rec['failed_ratio']:.6g} "
              f"of {rec['attempted']} attempted", flush=True)
    OUT.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    ok = all(w["correct"] and w["counters_repeat_exactly"] for w in doc["workloads"].values())
    print(f"wrote {OUT.relative_to(ROOT)}; correct and repeatable: {ok}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
