"""Independent oracles used by the tests.

These deliberately avoid the production code paths: the exponential integral
comes from the convergent series Ei(x) = gamma + ln x + sum x^n/(n*n!), a
reproduction's tails and proportion from mpmath at its reported tilts, the
factorisations and primes from plain trial division, the prime sum from a
30-digit mpmath loop over one prime at a time, the congruence-root counts
from direct residue enumeration, the exact region integrals behind the bound
coefficients from Monte Carlo sampling, and the root-table cache file from a
struct loop over one prime at a time.
"""

import math
import struct
from fractions import Fraction

import mpmath
import numpy as np

from cubebound.bounds import BoundParams
from cubebound.errors import DomainError

EULER_GAMMA = 0.5772156649015329


def ei_series(x: float) -> float:
    """Ei(x) for 0 < x <= 705 by the convergent power series.

    All terms are positive, so fsum keeps the rounding error near one ulp of
    the result even though the largest terms reach ~1e301 for x near 700.
    """
    assert 0.0 < x <= 705.0
    terms = []
    u = 1.0
    biggest = 0.0
    n = 1
    while True:
        u *= x / n
        t = u / n
        terms.append(t)
        biggest = max(biggest, t)
        if n > x and t < 1e-22 * biggest:
            break
        n += 1
        assert n < 10_000
    return EULER_GAMMA + math.log(x) + math.fsum(terms)


def exp_integral_oracle(alpha: float, a: float, b: float) -> float:
    """int_a^b exp(alpha*s)/s ds via the Ei series (log ratio when alpha=0)."""
    assert 0.0 < a <= b
    if a == b:
        return 0.0
    if alpha == 0.0:
        return math.log(b / a)
    return ei_series(alpha * b) - ei_series(alpha * a)


def reproduction_oracle(report) -> dict:
    """tail_first, tail_second, alpha, varpi and count_proportion of a report
    recomputed in mpmath at 40 digits: every k-term at its reported tilt
    alpha_k with mpmath.ei and the exact rational limits delta and s_max, the
    closed-form terms from log(s_max/delta)^k/k!, then the report's sums and
    weight, varpi = alpha*delta/2 and count_proportion = delta*alpha^2. Only
    the tilts and the configuration are read from the report."""
    mp = mpmath.mp.clone()
    mp.dps = 40
    delta = report.delta
    inv_floor = delta.denominator // delta.numerator

    def real(q: Fraction):
        return mp.mpf(q.numerator) / q.denominator

    def s_max(h, k):
        return (3 - (k - 1) * delta) / (h - k + 1)

    def closed_form(h, k):
        top = s_max(h, k)
        if top <= delta:
            return mp.mpf(0)
        return mp.log(real(top / delta)) ** k / mp.factorial(k)

    def tilted(h, k, alpha):
        top = s_max(h, k)
        if top <= delta:
            return mp.mpf(0)
        a, b, alpha = real(delta), real(top), mp.mpf(alpha)
        integral = mp.ei(alpha * b) - mp.ei(alpha * a) if alpha else mp.log(b / a)
        lower = real(Fraction(h - k - 3, h - k - 1))
        return mp.exp(-alpha * lower) * integral**k / mp.factorial(k)

    tails = {"first": mp.mpf(0), "second": mp.mpf(0)}
    for t in report.per_h_terms:
        if t.method == "first":
            coefficient = closed_form(t.h, t.h // 3)
        else:
            coefficient = closed_form(t.h, t.K) + mp.fsum(
                tilted(t.h, c.k, c.alpha) for c in t.tilt_choices
            )
        tails[t.method] += coefficient * min(t.h, inv_floor) * mp.mpf(2) ** t.h
    weight = mp.mpf(2) ** -report.H / min(report.H, inv_floor)
    alpha = weight * (mp.mpf(report.S_lower) - tails["first"] - tails["second"])
    return {
        "tail_first": tails["first"],
        "tail_second": tails["second"],
        "alpha": alpha,
        "varpi": alpha * real(delta) / 2,
        "count_proportion": real(delta) * alpha**2,
    }


def trial_factor(m: int) -> dict[int, int]:
    """Plainest possible factorisation by trial division."""
    assert m >= 1
    out: dict[int, int] = {}
    d = 2
    while d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def primes_by_trial_division(limit: int) -> list[int]:
    """The primes up to limit, each certified by trial division."""
    return [n for n in range(2, limit + 1) if trial_factor(n) == {n: 1}]


def prime_sum_mpmath(checkpoints: list[int], nu) -> dict[int, mpmath.mpf]:
    """sum_{p<=c} nu(p) log(p)/p - log(c) at each checkpoint c, in 30-digit
    mpmath arithmetic, one prime at a time over a bytearray sieve."""
    x = max(checkpoints)
    flags = bytearray([1]) * (x + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(x) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(range(p * p, x + 1, p)))
    out = {}
    with mpmath.workdps(30):
        acc = mpmath.mpf(0)
        n = 1
        for c in sorted(checkpoints):
            while n < c:
                n += 1
                if flags[n] and nu(n):
                    acc += nu(n) * mpmath.log(n) / n
            out[c] = acc - mpmath.log(c)
    return out


def is_strong_probable_prime(n: int, a: int) -> bool:
    """The textbook strong probable-prime test of odd n > 2 to base a."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def nu_enumerate(d: int) -> int:
    """#{n mod d : n^3 + 2 == 0 (mod d)} by direct enumeration."""
    assert 1 <= d <= 10**7
    n = np.arange(d, dtype=np.int64)
    return int(((((n * n % d) * n % d) + 2) % d == 0).sum())


def cubic_roots_enumerate(p: int) -> tuple[int, ...]:
    """All roots of n^3 + 2 == 0 (mod p) by direct enumeration."""
    assert 1 <= p <= 10**7
    n = np.arange(p, dtype=np.int64)
    hits = np.nonzero(((n * n % p) * n % p + 2) % p == 0)[0]
    return tuple(int(r) for r in hits)


def write_root_cache(
    path, limit: int, roots: dict[int, tuple[int, ...]], version: int = 2
) -> None:
    """Reference writer of the root-table cache: a 16-byte header (magic,
    version, prime limit), then for each prime of roots ascending its roots
    as 8-byte little-endian words. Version 1, the earlier format, put before
    them p as an 8-byte little-endian word and the root count byte. Writes
    whatever roots holds, valid or not."""
    with open(path, "wb") as fh:
        fh.write(b"CRT1")
        fh.write(struct.pack("<I", version))
        fh.write(struct.pack("<Q", limit))
        for p in sorted(roots):
            if version == 1:
                fh.write(struct.pack("<QB", p, len(roots[p])))
            for r in roots[p]:
                fh.write(struct.pack("<Q", r))


def region_integral_mc(
    p: BoundParams,
    with_lower_constraint: bool,
    samples: int,
    seed: int,
    batch: int = 1 << 18,
) -> tuple[float, float]:
    """Monte Carlo estimate (value, standard error) of the exact region
    integral int prod(1/s_i) ds over ordered tuples delta <= s_1 <= ... <= s_k
    subject to s_1+...+s_{k-1}+(h-k+1)*s_k <= 3 and, when
    with_lower_constraint is set, also sum(s) <= 1 and
    sum(s) >= (h-k-3)/(h-k-1).

    Samples unordered tuples uniformly from the bounding box [delta, s_max]^k
    and divides by k!, so the ordering constraint never has to be enforced.
    Oracle for small instances only (k <= 8).
    """
    if p.k > 8:
        raise DomainError(f"Monte Carlo oracle is for k <= 8, got k={p.k}")
    if samples < 100_000:
        raise DomainError(f"need at least 1e5 samples, got {samples}")
    if p.is_empty():
        return 0.0, 0.0

    s_lo = float(p.delta)
    s_hi = float(p.s_max)
    h, k = p.h, p.k
    lower = (h - k - 3) / (h - k - 1)

    rng = np.random.default_rng(seed)
    total_w = 0.0
    total_w2 = 0.0
    done = 0
    while done < samples:
        m = min(batch, samples - done)
        s = np.sort(rng.uniform(s_lo, s_hi, size=(m, k)), axis=1)
        ok = s[:, :-1].sum(axis=1) + (h - k + 1) * s[:, -1] <= 3.0
        if with_lower_constraint:
            t = s.sum(axis=1)
            ok &= t <= 1.0
            ok &= t >= lower
        w = np.where(ok, 1.0 / np.prod(s, axis=1), 0.0)
        total_w += float(w.sum())
        total_w2 += float((w * w).sum())
        done += m

    scale = (s_hi - s_lo) ** k / math.factorial(k)
    mean = total_w / samples
    var = max(total_w2 - samples * mean * mean, 0.0) / (samples - 1)
    return scale * mean, scale * math.sqrt(var / samples)
