"""The three benchmark workloads and their correctness checks.

Each workload turns ``--seed`` into its inputs, does its set-up, and then
offers a fixed cycle of calls into the program. The runner times the calls
one after the other (a closed loop with one caller) and passes each output
to ``check``; the checks and any reference computation stay outside the
timed region. ``cubebound`` must be importable before this module is.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from typing import NamedTuple

from cubebound import aggregate, cli, empirical
from cubebound.aggregate import AggregateConfig
from cubebound.empirical import RangeJob

TIMESTAMP = "2014-12-01T00:00:00+00:00"

# ln of the five reported quantities of `cubebound reproduce` at the default
# configuration, as the seed code computes them
PINNED_CONSTANTS = {
    "tail_first": -20.813409698609263,
    "tail_second": -17.14731678286614,
    "tail_total": -17.122062178595463,
    "alpha": -113.08768005931799,
    "varpi": -119.55226836300795,
}
CONSTANTS_REL_TOL = 1e-10
IDENTITY_REL_TOL = 1e-9

# counts per h over the default seed's window, from factor_range + omega_above
PINNED_COUNT_WINDOW = (1_304_880, 1_404_880)
PINNED_COUNTS = {3: 44752, 6: 231}

# mertens_check(10**7) deviations at its default checkpoints
PINNED_MERTENS = (
    (10, -1.26791982400455),
    (100, -1.858458852049882),
    (1000, -1.8909159317182729),
    (10000, -1.9326471175760753),
    (100000, -1.9619267509896954),
    (1000000, -1.9603574456234423),
    (10000000, -1.961435780812483),
)
MERTENS_ABS_TOL = 1e-9


class Checks:
    """Tally of correctness checks; every failure is kept with its reason."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


class CliResult(NamedTuple):
    code: int
    document: str


def run_cli(argv: list[str]) -> CliResult:
    """``cli.main`` with stdout captured (the JSON document) and the human
    summary and progress lines on stderr discarded."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return CliResult(code, out.getvalue())


def check_constants(checks: Checks, label: str, report: dict, pinned=PINNED_CONSTANTS) -> None:
    """The reported tails, alpha and varpi match the pinned values; both
    are natural logs, so exp(got - ref) - 1 is the relative difference."""
    for key, ref in pinned.items():
        got = report.get(key, {}).get("log_mag")
        ok = got is not None and abs(math.expm1(got - ref)) <= CONSTANTS_REL_TOL
        checks.expect(f"{label} {key}", ok, f"ln value {got!r}, pinned {ref!r}")


def identity_rel_error(H: int, inv_delta_floor: int, alpha_ln: float,
                       tail_total: float, s_lower: float) -> float:
    """|2^H * min(H, [1/delta]) * alpha + tail_total - S_lower| / S_lower."""
    lhs = math.exp(H * math.log(2.0) + math.log(min(H, inv_delta_floor)) + alpha_ln)
    return abs((lhs + tail_total) / s_lower - 1.0)


def check_count(checks: Checks, label: str, got, expected: int) -> None:
    checks.expect(label, got == expected, f"count {got!r}, expected {expected}")


class ConstantsWorkload:
    """`cubebound reproduce` serially and with two workers, then a sweep_H.

    The sweep's cost is set by its smallest H (every per-h term above it is
    computed), so the smallest H is fixed at 118, the middle of the range;
    the seed picks six more H values from 119..131, and H = 132 is always
    swept so that its report can be compared with the pinned constants.
    """

    name = "constants"
    calls = ("reproduce", "reproduce_jobs2", "sweep")
    # per call: the metric it is reported as, and its unit
    metrics = {
        "reproduce": ("reproduce_s", "s"),
        "reproduce_jobs2": ("reproduce_jobs2_s", "s"),
        "sweep": ("sweep_s", "s"),
    }
    # (serial call, the same call with worker processes, workers): the
    # traced run leaves the parallel call out, and the two give the
    # parallel efficiency
    parallel_pair = ("reproduce", "reproduce_jobs2", 2)

    def __init__(self, seed: int, reproduce_args: tuple[str, ...] = (),
                 cfg: AggregateConfig | None = None, H_values=None) -> None:
        rng = random.Random(f"constants-{seed}")
        self.H_values = sorted(H_values or [118, 132] + rng.sample(range(119, 132), 6))
        self.reproduce_args = list(reproduce_args)
        # the pinned values hold for the default configuration only
        self.pinned = PINNED_CONSTANTS if not reproduce_args and cfg is None else None
        self.cfg = cfg or AggregateConfig()
        self.inputs = {"H_values": self.H_values, "reproduce_args": self.reproduce_args}
        self._result: str | None = None

    def setup(self, workdir: str) -> None:
        return None

    def values(self, call: str) -> int:
        return 1

    def run(self, call: str):
        if call == "sweep":
            return aggregate.sweep_H(self.cfg, self.H_values)
        jobs = "2" if call == "reproduce_jobs2" else "1"
        return run_cli(["reproduce", "--jobs", jobs, "--timestamp", TIMESTAMP]
                       + self.reproduce_args)

    def check(self, checks: Checks, call: str, output) -> None:
        if call == "sweep":
            self._check_sweep(checks, output)
            return
        code, document = output
        if not checks.expect(f"{call} exit code", code == 0, f"exit {code}"):
            return
        result = json.loads(document)["result"]
        checks.expect(f"{call} overall_pass", result["overall_pass"] is True)
        if self.pinned:
            check_constants(checks, call, result["report"], self.pinned)
        # serial and parallel runs must give the same document apart from
        # the recorded job count
        text = json.dumps(result, sort_keys=True)
        self._result = self._result or text
        checks.expect(f"{call} result identical across runs", text == self._result)

    def _check_sweep(self, checks: Checks, out) -> None:
        checks.expect("sweep H values", [H for H, _ in out] == self.H_values)
        for H, rep in out:
            if self.pinned and H == 132:
                checks.expect("sweep H=132 ok", rep.ok)
                check_constants(checks, "sweep H=132", {
                    "tail_first": {"log_mag": rep.tail_first.log_mag},
                    "tail_second": {"log_mag": rep.tail_second.log_mag},
                    "tail_total": {"log_mag": rep.tail_total.log_mag},
                    "alpha": {"log_mag": rep.alpha_proportion.log_mag},
                    "varpi": {"log_mag": rep.varpi.log_mag},
                }, self.pinned)
            if not rep.ok:
                continue
            rel = identity_rel_error(
                H, self.cfg.inv_delta_floor, rep.alpha_proportion.log_mag,
                rep.tail_total.to_real(), rep.S_lower,
            )
            checks.expect(f"sweep H={H} identity", rel <= IDENTITY_REL_TOL,
                          f"relative error {rel:.3e}")

    def final_checks(self, checks: Checks) -> None:
        return None


class CountWorkload:
    """`cubebound empirical count` from a root-table cache at h = 3 and h = 6.

    The window holds 1e5 values. Its start is drawn from [1.1e6, 1.9e6]:
    below n = 2^20 (about 1.05e6) the values n^3+2 fit in two 30-bit
    digits of a Python int and every operation on them is cheaper, so a
    window reaching below it would cost less for a reason unrelated to the
    program. Set-up builds the root table for the window and writes the
    cache that every count reads.
    """

    name = "count"
    calls = ("count_h3", "count_h6")
    metrics = {
        "count_h3": ("count_h3_us_per_value", "us/value"),
        "count_h6": ("count_h6_us_per_value", "us/value"),
    }
    threshold = 32

    def __init__(self, seed: int, width: int = 100_000, lo: int = 1_100_000,
                 hi: int = 1_900_000, sub_width: int = 1_000) -> None:
        rng = random.Random(f"count-{seed}")
        self.x_min = rng.randrange(lo, hi + 1)
        self.x_max = self.x_min + width
        sub = rng.randrange(self.x_min, self.x_max - sub_width + 1)
        self.sub = (sub, sub + sub_width)
        self.pinned = PINNED_COUNTS if (self.x_min, self.x_max) == PINNED_COUNT_WINDOW else None
        self.inputs = {"x_min": self.x_min, "x_max": self.x_max, "sub_window": list(self.sub)}
        self.cache = ""
        self.table = None
        self._counts: dict[str, int] = {}

    def setup(self, workdir: str) -> None:
        self.cache = os.path.join(workdir, f"roots-{self.x_max}.bin")
        self.table = empirical.build_root_table(self.x_max)
        empirical.save_root_table(self.cache, self.table)

    def values(self, call: str) -> int:
        return self.x_max - self.x_min

    def _argv(self, x_min: int, x_max: int, h: int) -> list[str]:
        return ["empirical", "count", "--x-min", str(x_min), "--x-max", str(x_max),
                "--threshold", str(self.threshold), "--h", str(h),
                "--cache", self.cache, "--timestamp", TIMESTAMP]

    @staticmethod
    def h_of(call: str) -> int:
        return int(call.rsplit("_h", 1)[1])

    def run(self, call: str):
        return run_cli(self._argv(self.x_min, self.x_max, self.h_of(call)))

    def check(self, checks: Checks, call: str, output) -> None:
        code, document = output
        if not checks.expect(f"{call} exit code", code == 0, f"exit {code}"):
            return
        count = json.loads(document)["result"]["count"]
        first = self._counts.setdefault(call, count)
        checks.expect(f"{call} count identical across runs", count == first,
                      f"{count} after {first}")
        if self.pinned:
            check_count(checks, f"{call} pinned count", count, self.pinned[self.h_of(call)])

    def final_checks(self, checks: Checks) -> None:
        if "count_h3" in self._counts and "count_h6" in self._counts:
            checks.expect("count monotone in h",
                          self._counts["count_h6"] <= self._counts["count_h3"])
        a, b = self.sub
        job = RangeJob(a, b, self.threshold, 0)
        omegas = [p.omega_above(self.threshold) for p in empirical.factor_range(job, self.table)]
        for call in self.calls:
            h = self.h_of(call)
            code, document = run_cli(self._argv(a, b, h))
            if checks.expect(f"sub-window h={h} exit code", code == 0, f"exit {code}"):
                got = json.loads(document)["result"]["count"]
                check_count(checks, f"sub-window h={h} vs factor_range",
                            got, sum(1 for om in omegas if om >= h))


class FactorWorkload:
    """Full factorisation of a 12,000-value window near 1e6, root table
    included, then the prime-sum check up to 1e7.

    The window starts at or above n = 2^20 for the reason given under
    CountWorkload.
    """

    name = "factor"
    calls = ("factor", "mertens")
    metrics = {
        "factor": ("factor_us_per_value", "us/value"),
        "mertens": ("mertens_s", "s"),
    }

    def __init__(self, seed: int, width: int = 12_000, lo: int = 1_050_000,
                 hi: int = 1_150_000, mertens_x: int = 10**7, sample: int = 64) -> None:
        rng = random.Random(f"factor-{seed}")
        self.x_min = rng.randrange(lo, hi + 1)
        self.x_max = self.x_min + width
        self.sample = sorted(rng.sample(range(width), min(sample, width)))
        self.mertens_x = mertens_x
        self.inputs = {"x_min": self.x_min, "x_max": self.x_max, "mertens_x": mertens_x}
        self._mertens = None

    def setup(self, workdir: str) -> None:
        return None

    def values(self, call: str) -> int:
        return self.x_max - self.x_min if call == "factor" else 1

    def run(self, call: str):
        if call == "mertens":
            return empirical.mertens_check(self.mertens_x)
        table = empirical.build_root_table(self.x_max)
        return list(empirical.factor_range(RangeJob(self.x_min, self.x_max, 2, 0), table))

    def check(self, checks: Checks, call: str, output) -> None:
        if call == "mertens":
            self._check_mertens(checks, output)
            return
        ns = [p.n for p in output]
        checks.expect("factor covers the window",
                      ns == list(range(self.x_min + 1, self.x_max + 1)))
        bad = [p.n for p in output if p.value != p.n**3 + 2
               or math.prod(q**e for q, e in p.factors) != p.value]
        checks.expect("factor products", not bad, f"wrong at n={bad[:5]}")
        try:
            from sympy import isprime
        except ImportError:
            checks.expect("factor primality oracle", False, "sympy is not installed")
            return
        composite = [
            (output[i].n, q) for i in self.sample if i < len(output)
            for q, _ in output[i].factors if not isprime(q)
        ]
        checks.expect("factor primality (sympy.isprime)", not composite,
                      f"composite factors {composite[:5]}")

    def _check_mertens(self, checks: Checks, out) -> None:
        if self._mertens is None:
            self._mertens = out
        checks.expect("mertens identical across runs", out == self._mertens)
        if self.mertens_x == 10**7:
            got = dict(out)
            worst = max(abs(got.get(x, math.inf) - dev) for x, dev in PINNED_MERTENS)
            checks.expect("mertens pinned deviations", worst <= MERTENS_ABS_TOL,
                          f"max difference {worst:.3e}")

    def final_checks(self, checks: Checks) -> None:
        return None


WORKLOADS = {w.name: w for w in (ConstantsWorkload, CountWorkload, FactorWorkload)}
