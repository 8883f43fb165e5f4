"""Acceptance criteria for the whole artifact.

Each criterion prints one PASS/FAIL line (run with -s to see them) and then
asserts. Tolerances are pinned here, not configurable.
"""

import math
import random
from fractions import Fraction

import numpy as np
import sympy

from cubebound import (
    AggregateConfig,
    BoundParams,
    LogNumber,
    RangeJob,
    ZERO,
    build_root_table,
    empirical_T,
    exp_integral,
    factor_range,
    first_bound,
    from_fraction,
    from_real,
    ln_add,
    ln_mul,
    ln_sum,
    optimize_alpha,
    prime_sums,
    second_bound_detail,
    second_bound_term,
    weighted_tail,
)
from cubebound import empirical
from cubebound.empirical import count_cubic_roots

from oracles import exp_integral_oracle, region_integral_mc, trial_factor


def criterion(num: int, description: str, parts: list[tuple[str, bool]]) -> None:
    ok = all(passed for _, passed in parts)
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {description}")
    for label, passed in parts:
        if not passed:
            print(f"    failed: {label}")
    assert ok, [label for label, passed in parts if not passed]


def round_2sf(x: float) -> float:
    """Round to nearest at two significant figures."""
    if x == 0.0:
        return 0.0
    exp10 = math.floor(math.log10(abs(x)))
    scale = 10.0 ** (exp10 - 1)
    return round(x / scale) * scale


# ---------------------------------------------------------------------------
# 1-3: the constants pipeline
# ---------------------------------------------------------------------------

def test_criterion_1_first_estimate_tail(default_report):
    tail = default_report.tail_first
    criterion(1, f"sum over h in [190,963] of min(h,321)*2^h*c(h) = {tail.to_sci()} <= 9.2e-10",
              [("tail_first <= 9.2e-10", tail <= from_real(9.2e-10))])


def test_criterion_2_second_estimate_tail(default_report):
    rep = default_report
    criterion(2, f"tilted tail {rep.tail_second.to_sci()} <= 3.6e-8 and "
                 f"combined {rep.tail_total.to_sci()} <= 3.7e-8",
              [("tail_second <= 3.6e-8", rep.tail_second <= from_real(3.6e-8)),
               ("tail_total <= 3.7e-8", rep.tail_total <= from_real(3.7e-8))])


def test_criterion_3_final_constants(default_report):
    rep = default_report
    alpha = rep.alpha_proportion
    varpi = rep.varpi
    # inversion identity: 2^H * min(H, 321) * alpha + tail_total == S_lower
    inv_weight = LogNumber(1, rep.H * math.log(2.0) + math.log(min(rep.H, 321)))
    lhs = ln_add(ln_mul(inv_weight, alpha), rep.tail_total)
    identity_rel = abs(lhs.to_real() / rep.S_lower - 1.0)
    # The quoted 1.2e-52 is alpha*delta/2 displayed at two significant
    # figures (7.7e-50/642 = 1.19938e-52, so the exact decimal is not
    # reachable even from the quoted alpha); assert the display-precision
    # agreement plus the binding exponent bound 1e-52.
    parts = [
        ("alpha >= 7.7e-50", alpha >= from_real(7.7e-50)),
        ("varpi >= 1e-52", varpi >= from_real(1e-52)),
        ("varpi rounds to 1.2e-52 at 2 s.f.", round_2sf(varpi.to_real()) == 1.2e-52),
        ("identity within 1e-9 relative", identity_rel <= 1e-9),
        ("varpi == alpha*delta/2 in log arithmetic",
         abs(varpi.log_mag - (alpha.log_mag + from_fraction(Fraction(1, 642)).log_mag)) <= 1e-12),
    ]
    criterion(3, f"alpha = {alpha.to_sci()}, varpi = {varpi.to_sci()}", parts)


# ---------------------------------------------------------------------------
# 4: quadrature against the series oracle
# ---------------------------------------------------------------------------

def test_criterion_4_quadrature_oracle_agreement():
    base = exp_integral(1.0, 1.0, 2.0)
    want = exp_integral_oracle(1.0, 1.0, 2.0)
    parts = [("Ei(2)-Ei(1) to 1e-10", abs(base / want - 1.0) <= 1e-10)]
    rng = np.random.default_rng(424242)
    worst = 0.0
    for _ in range(1000):
        a = float(rng.uniform(0.001, 0.02))
        b = a * float(rng.uniform(1.5, 20.0))
        alpha = float(rng.uniform(0.0, 700.0 / b))
        rel = abs(exp_integral(alpha, a, b) / exp_integral_oracle(alpha, a, b) - 1.0)
        worst = max(worst, rel)
    parts.append(("1000 randomized agreements at 1e-9", worst <= 1e-9))
    criterion(4, f"quadrature matches Ei series oracle (worst rel {worst:.2e})", parts)


# ---------------------------------------------------------------------------
# 5: Monte Carlo domination of the closed forms
# ---------------------------------------------------------------------------

MC_GRID = [(3, 1), (4, 1), (5, 1), (6, 2), (6, 4), (7, 3), (8, 2), (9, 3), (11, 4), (13, 4)]


def test_criterion_5_bound_dominates_truth():
    parts = []
    for d_idx, delta in enumerate((Fraction(1, 10), Fraction(1, 20))):
        for h, k in MC_GRID:
            p = BoundParams(h, delta, k)
            seed = 1_000_000 * (d_idx + 1) + 1000 * h + k
            est, se = region_integral_mc(p, False, 1_000_000, seed=seed)
            bound = second_bound_term(p, 0.0).to_real()
            parts.append(
                (f"h={h} k={k} delta={delta} plain: {est:.4g} <= {bound:.4g}+3se",
                 est <= bound + 3 * se)
            )
            if k == 1:
                exact = first_bound(h, delta).to_real()
                parts.append(
                    (f"h={h} k=1 delta={delta} exact at k=1", abs(est - exact) <= 3 * se)
                )
            est_c, se_c = region_integral_mc(p, True, 1_000_000, seed=seed + 7)
            tilted = optimize_alpha(p).term_value.to_real()
            parts.append(
                (f"h={h} k={k} delta={delta} tilted: {est_c:.4g} <= {tilted:.4g}+3se",
                 est_c <= tilted + 3 * se_c)
            )
    criterion(5, f"Monte Carlo region integrals dominated on {len(parts)} checks", parts)


# ---------------------------------------------------------------------------
# 6: the tilted bound is sharper on the mid range
# ---------------------------------------------------------------------------

def test_criterion_6_sharpness_ordering(default_report):
    delta = Fraction(1, 321)
    worse = []
    for term in default_report.per_h_terms:
        if term.h >= 190:
            continue
        if not term.coefficient < first_bound(term.h, delta):
            worse.append(term.h)
    criterion(6, "optimised tilted bound < closed form for every h in [133, 189]",
              [("strict improvement everywhere", not worse)])


# ---------------------------------------------------------------------------
# 7: empirical counting exactness
# ---------------------------------------------------------------------------

def test_criterion_7_empirical_exactness(profiles_1e5, roots_enum_1e5):
    job = RangeJob(x_min=10, x_max=20, threshold=2, h=3)
    count = empirical_T(job)
    oracle = sum(1 for n in range(11, 21) if sum(trial_factor(n**3 + 2).values()) >= 3)
    parts = [(f"count on (10,20] = {count} matches trial-division oracle",
              count == oracle == 2)]

    bad = [p.n for p in profiles_1e5
           if math.prod(q**e for q, e in p.factors) != p.value or p.value != p.n**3 + 2]
    parts.append(("all profiles for n <= 1e5 reconstruct n^3+2 exactly", not bad))

    rnd = random.Random(2718)
    sample = rnd.sample(profiles_1e5, 400)
    nonprime = [
        (prof.n, q) for prof in sample for q, _ in prof.factors if not sympy.isprime(q)
    ]
    parts.append(("every listed factor is prime (independent check on 400 profiles)",
                  not nonprime))

    counts = {p: len(roots) for p, roots in roots_enum_1e5.items()}
    bad_nu = [p for p, v in counts.items() if v not in (0, 1, 3)]
    bad_mod = [p for p, v in counts.items() if p % 3 == 2 and v != 1]
    fast_disagrees = [p for p, v in counts.items() if count_cubic_roots(p) != v]
    parts.append(("nu(p) in {0,1,3} for all p <= 1e5 (enumerated)", not bad_nu))
    parts.append(("nu(p) = 1 for p == 2 (mod 3) (enumerated)", not bad_mod))
    parts.append(("fast nu(p) equals enumeration for all p <= 1e5", not fast_disagrees))
    criterion(7, "empirical counting machinery is exact at desk scale", parts)


# ---------------------------------------------------------------------------
# 8: the prime-sum input
# ---------------------------------------------------------------------------

def test_criterion_8_prime_sum_envelope(mertens_1e6):
    parts = []
    for x, dev in mertens_1e6:
        parts.append((f"|deviation| at x={x} is {abs(dev):.3f} <= 3", abs(dev) <= 3.0))
    mean = prime_sums(10**6).mean_nu
    parts.append((f"mean nu(p) over p <= 1e6 is {mean:.4f} in 1.00 +/- 0.02",
                  abs(mean - 1.0) <= 0.02))
    criterion(8, "prime-sum estimate holds within the frozen envelope", parts)


# ---------------------------------------------------------------------------
# 9: the module invariants, re-exercised compactly
# ---------------------------------------------------------------------------

def test_criterion_9_property_suite(default_report, profiles_1e5, monkeypatch):
    parts = []
    rng = np.random.default_rng(99)

    # log-domain algebra: commutativity, order stability, distributivity,
    # round trips
    ok = True
    for _ in range(200):
        vals = [LogNumber(1, float(m)) for m in rng.uniform(-500, 500, size=6)]
        fwd = ln_sum(vals)
        rev = ln_sum(vals[::-1])
        ok &= fwd.sign == rev.sign and abs(fwd.log_mag - rev.log_mag) <= 1e-9
        a, b, c = vals[0], vals[1], vals[2]
        lhs = ln_mul(a, ln_add(b, c))
        rhs = ln_add(ln_mul(a, b), ln_mul(a, c))
        ok &= abs(lhs.log_mag - rhs.log_mag) <= 1e-9
        x = float(rng.uniform(1e-12, 1e12))
        ok &= abs(from_real(x).to_real() / x - 1.0) <= 1e-12
    parts.append(("log-domain algebra", ok))

    # quadrature: additivity, monotonicity in alpha, bracketing
    ok = True
    for _ in range(30):
        a = float(rng.uniform(0.002, 0.01))
        c = a * float(rng.uniform(3.0, 12.0))
        b = float(rng.uniform(a, c))
        alpha = float(rng.uniform(0.0, 700.0 / c))
        whole = exp_integral(alpha, a, c)
        ok &= abs(whole - (exp_integral(alpha, a, b) + exp_integral(alpha, b, c))) <= 1e-11 * whole
        ok &= exp_integral(alpha, a, c) < exp_integral(alpha + 1.0, a, c)
        ok &= math.log(c / a) <= whole * (1 + 1e-12)
        ok &= whole <= math.exp(alpha * c) * math.log(c / a) * (1 + 1e-12)
    parts.append(("quadrature additivity, monotonicity, bracketing", ok))

    # bounds: exactness at k=1, zero-tilt reduction, optimizer soundness
    delta = Fraction(1, 321)
    ok = all(
        abs(first_bound(h, delta).to_real() - math.log(3 / (h / 321))) <= 1e-12 * 6
        for h in (3, 4, 5)
    )
    parts.append(("first_bound exact at k=1", ok))
    ok = True
    for h, k in ((20, 7), (77, 30), (189, 70), (500, 210)):
        p = BoundParams(h, delta, k)
        cf = -math.lgamma(k + 1) + k * math.log(
            math.log(float(p.s_max / p.delta))
        )
        ok &= abs(second_bound_term(p, 0.0).log_mag - cf) <= 1e-9
        choice = optimize_alpha(p)
        ok &= choice.term_value.log_mag <= second_bound_term(p, 0.0).log_mag + 1e-9
    parts.append(("zero-tilt reduction and optimizer soundness", ok))

    # bounds: computed monotonicity profile of the closed form (rises at the
    # k-jumps h = 6, 9, 12, then nonincreasing through 963)
    values = [first_bound(h, delta) for h in range(3, 964)]
    increases = [h for h, prev, cur in zip(range(4, 964), values, values[1:]) if cur > prev]
    parts.append(("closed form nonincreasing beyond h=12", increases == [6, 9, 12]))

    # bounds: concrete smallness of the weighted closed-form terms: below
    # 1e-10 for every h >= 192 (h = 190, 191 sit at 3.0e-10 and 4.6e-10)
    cfg = AggregateConfig()
    _, terms = weighted_tail(cfg, 190, 963, "first")
    floor_log = math.log(1e-10)
    small_from_192 = all(
        t.weighted == ZERO or t.weighted.log_mag < floor_log for t in terms if t.h >= 192
    )
    big_at_191 = any(t.h == 191 and t.weighted.log_mag >= floor_log for t in terms)
    parts.append(("weighted closed-form terms < 1e-10 for all h in [192, 963]",
                  small_from_192 and big_at_191))

    # aggregate: split invariance, weight kink, zero terms past 963,
    # boundary-offset reduction
    whole, _ = weighted_tail(cfg, 190, 963, "first")
    left, _ = weighted_tail(cfg, 190, 400, "first")
    right, _ = weighted_tail(cfg, 401, 963, "first")
    joined = ln_add(left, right)
    parts.append(("tail splitting invariance",
                  abs(whole.log_mag - joined.log_mag) <= 1e-9))
    _, kink_terms = weighted_tail(cfg, 320, 322, "first")
    ok = all(
        abs((t.weighted.log_mag - t.coefficient.log_mag)
            - (math.log(min(t.h, 321)) + t.h * math.log(2))) <= 1e-9
        for t in kink_terms
    )
    parts.append(("weight kink at h=321", ok))
    parts.append(("terms beyond 963 are exactly zero",
                  all(first_bound(h, delta) == ZERO for h in range(964, 975))))
    det = second_bound_detail(140, delta, 140 // 3)
    parts.append(("tilted bound with K=[h/3] reduces to the closed form",
                  abs(det.total.log_mag - first_bound(140, delta).log_mag) <= 1e-9))

    # empirical: reconstruction was verified per profile; spot the stream
    # ordering, segment independence and nu multiplicativity
    parts.append(("1e5 profiles stream in n order",
                  [p.n for p in profiles_1e5] == list(range(1, 10**5 + 1))))
    table = build_root_table(1500)
    runs = []
    for seg in (113, 1 << 16):
        monkeypatch.setattr(empirical, "_SEGMENT", seg)
        runs.append(list(factor_range(RangeJob(x_min=700, x_max=1500, threshold=2, h=0), table)))
    parts.append(("segment independence", runs[0] == runs[1]))
    rnd = random.Random(31415)
    ok = True
    from cubebound import nu

    for _ in range(60):
        d1, d2 = rnd.randrange(2, 600), rnd.randrange(2, 600)
        if math.gcd(d1, d2) == 1:
            ok &= nu(d1 * d2) == nu(d1) * nu(d2)
    parts.append(("nu multiplicative on coprime pairs", ok))
    base = empirical_T(RangeJob(x_min=200, x_max=400, threshold=2, h=2), table)
    tighter_h = empirical_T(RangeJob(x_min=200, x_max=400, threshold=2, h=3), table)
    tighter_t = empirical_T(RangeJob(x_min=200, x_max=400, threshold=97, h=2), table)
    parts.append(("empirical_T monotone in h and threshold",
                  tighter_h <= base and tighter_t <= base))

    criterion(9, "module invariants and properties", parts)
