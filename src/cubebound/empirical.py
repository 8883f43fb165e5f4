"""Desk-scale ground truth for the factor statistics of n^3+2.

Factorises every n^3+2 over a range (x_min, x_max], counts prime factors
above an explicit threshold, counts cubic-congruence roots nu(d), and checks
the prime-sum estimate sum_{p<=x} nu(p) log p / p = log x + O(1).

nu(d) is counted without the roots: it is multiplicative, nu(p) comes from
the cubic character of -2 for one prime and from Gauss's criterion (p = x^2
+ 27y^2) over a range of primes, and nu(p^e) = nu(p) for p >= 5, where every
root is simple and lifts uniquely, while 2 and 3 have one root each and none
mod 4 or 9. The roots themselves are built only for the root table.

The factorisation is sieve-driven and divides no value: one array holds
the next hit of every root r of n^3+2 == 0 (mod p) in the root table, each
segment expands the progressions of the roots that hit it into numpy index
arrays, and the residual left by the hit primes is exact from a 2-adic
inverse and a float estimate. It has at most two prime factors, all above
the table limit (the limit is at least n, and three factors above n would
exceed (n+1)^3 > n^3+2). Factorisation certifies it prime or splits it
once. Counting sieves to max(x_max, threshold - 1), so every residual
factor counts, and never splits: it decides each n on arrays and tests the
residual only when its primality changes the verdict. Everything runs in
one process, a segment at a time.

Each segment's cofactors are classified in one batch: BPSW (a strong
base-2 test and a strong Lucas test, which no composite below 2^64 passes)
and, to factorise, the elliptic curve method (ECM) with several curves per
value in lockstep, both run in Montgomery arithmetic on numpy uint64 lanes.
Cofactors of 2^63 and above (n >= 2^21) and batches too small to pay for
numpy's per-call cost stay on Python integers, where Miller-Rabin gives the
same verdicts and Pollard-Brent splits.

The prime layer runs on numpy arrays as well: an odd-only sieve, nu(p) read
from a table of the values x^2 + 27y^2 up to the largest prime (at most
1e8), and the prime sums over blocks of 2^14 primes: numpy takes each
block's logs and sums, the block totals are carried exactly, and each
deviation comes with a proved bound on its error.
The root table is two aligned uint64 arrays, prime and root, from end to
end: its cube roots are built on lanes, the cache holds only the roots, and
the sieve's next-hit array is computed from them.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, fields
from math import isqrt
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import DomainError, FactorizationError

MAX_RANGE_TOP = 10**7  # values stay below 1e21+2, inside the certified MR range

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# the smallest composite that passes strong tests to every base of
# _SMALL_PRIMES (Sorenson & Webster, Math. Comp. 86, 2017): below it those
# twelve tests decide every n
_MR_TOP = 318_665_857_834_031_151_167_461


def _integer(name: str, value) -> int:
    """value as an int if it is a Python or numpy integer, else DomainError."""
    if not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _prime_array(limit: int) -> np.ndarray:
    """The primes up to and including limit, ascending, as uint64: a sieve
    over the odd numbers in which each prime strikes its odd multiples from
    its square on."""
    if limit < 2:
        return np.zeros(0, dtype=np.uint64)
    odd = np.ones((limit + 1) // 2, dtype=bool)  # odd[i] stands for 2i + 1, odd[0] for 2
    for i in range(1, (isqrt(limit) + 1) // 2):
        if odd[i]:
            p = 2 * i + 1
            odd[p * p // 2 :: p] = False
    primes = np.flatnonzero(odd)
    primes *= 2
    primes += 1
    primes[0] = 2
    return primes.view(np.uint64)


def is_certified_prime(n: int | Sequence[int]) -> bool | list[bool]:
    """Whether n, or each value of the sequence n, is prime, by a test that
    is a proof below ~3.18e23.

    One value at a time, the test is deterministic Miller-Rabin to the
    twelve bases 2..37 of _SMALL_PRIMES. A sequence's values in (1, 2^63)
    are tested together on numpy lanes when there are at least _MR_BATCH_MIN
    of them, by the same small-prime divisions and then BPSW: a strong test
    to base 2 and Selfridge's strong Lucas test. No composite below 2^64
    passes BPSW (Baillie, Fiori & Wagstaff, Math. Comp. 90, 2021, on
    Feitsma's list of the base-2 pseudoprimes), so the verdicts are the
    same. Each value must be a Python or numpy integer; a str or bytes is
    not taken as a sequence.
    """
    if isinstance(n, (str, bytes)) or not isinstance(n, Sequence):
        return _mr_int(_integer("n", n))
    # the type test first spares _integer's isinstance on the many plain ints
    n = [v if type(v) is int else _integer("n", v) for v in n]
    out: list[bool | None] = [None] * len(n)
    lanes = [i for i, v in enumerate(n) if 1 < v < _MONT_TOP]
    if len(lanes) >= _MR_BATCH_MIN:
        verdicts = _bpsw_lanes(np.array([n[i] for i in lanes], dtype=np.uint64))
        for i, prime in zip(lanes, verdicts.tolist()):
            out[i] = prime
    return [_mr_int(v) if p is None else p for v, p in zip(n, out)]


def _mr_int(n: int) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n >= _MR_TOP:
        raise DomainError(f"{n} is beyond the certified primality range")
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# Batched residual kernel: Montgomery arithmetic on numpy uint64 lanes
# ---------------------------------------------------------------------------

_MONT_TOP = 1 << 63  # lanes hold odd moduli below this, so sums of two residues fit
# A primality batch pays numpy's per-call cost (10-12 ms for BPSW on 100 to
# 300 count residuals of 49 bits, 75-80% of them prime) and one such value
# about 0.08 ms on Python ints, so the two meet between 100 and 150 values.
# Batches under _MR_BATCH_MIN are tested on Python ints. The benchmark's
# batches hold 7,000-20,000 values; the tests make the small ones, and take
# 73 s instead of 51 s with every batch on lanes.
# Composites split by ECM on lanes, several curves per value in each pass
# (_ecm_lanes), down to the last value: a pass costs about 960 calls of
# _Mont.mul whatever its lane count, so handing the slow tail to Python ints
# would pay those passes and the scalar walks too. A split batch under
# _ECM_BATCH_MIN takes Brent's walk on Python ints: on 12 samples of the
# benchmark's composites, 100 values took 84-210 ms on lanes and 246-368 ms
# on ints, 50 values 77-156 ms and 92-188 ms, 25 values 77-97 ms and 45-104
# ms. So do values below _ECM_FLOOR: every curve at these bounds finds every
# prime below 2^15, so a product of two such primes gets only whole-value
# gcds; from 2^32 on, the larger factor is above 2^16.
_MR_BATCH_MIN = 100
_ECM_BATCH_MIN = 100
_ECM_FLOOR = 1 << 32
_LO32 = np.uint64(0xFFFF_FFFF)
_U32 = np.uint64(32)


def _halves(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return a & _LO32, a >> _U32


def _mulhi(a0, a1, b0, b1) -> np.ndarray:
    """High words of the 128-bit products (a1*2^32 + a0)*(b1*2^32 + b0), from
    32-bit halves; each partial sum stays below 2^64. In place where it can:
    fewer temporaries are faster and use less memory."""
    t = a0 * b0
    t >>= _U32
    t += a0 * b1
    hi = a1 * b1
    hi += t >> _U32
    t &= _LO32
    t += a1 * b0
    t >>= _U32
    hi += t
    return hi


def _inverse_mod_2_64(a: np.ndarray) -> np.ndarray:
    """a^-1 mod 2^64 on odd uint64 lanes, by Newton from a*a == 1 (mod 8)."""
    inv = a.copy()
    for _ in range(5):
        inv *= 2 - a * inv
    return inv


class _Mont(NamedTuple):
    """Montgomery arithmetic x -> x*R mod m with R = 2^64, one odd modulus
    1 < m < 2^63 per uint64 lane. Every residue argument is below m."""

    m: np.ndarray
    m0: np.ndarray  # halves of m
    m1: np.ndarray
    inv: np.ndarray  # m^-1 mod 2^64
    one: np.ndarray  # R mod m

    @classmethod
    def of(cls, m: np.ndarray) -> _Mont:
        """The arithmetic mod each lane of m; DomainError unless every lane is
        odd and in (1, 2^63), where REDC and the lane add are exact."""
        if (bad := (m & 1 == 0) | (m < 3) | (m >= _MONT_TOP)).any():
            raise DomainError(f"lane moduli must be odd and in (1, 2^63), got {m[bad][0]}")
        return cls(m, *_halves(m), _inverse_mod_2_64(m), np.uint64(2**64 - 1) % m + 1)

    def take(self, keep: np.ndarray) -> _Mont:
        return _Mont(*(a[keep] for a in self))

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        t = a + b
        return np.minimum(t, t - self.m)  # t - m wraps above t unless t >= m

    def sub(self, a: np.ndarray | int, b: np.ndarray) -> np.ndarray:
        t = a - b
        return np.minimum(t, t + self.m)  # a negative t has wrapped above t + m

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """REDC(a*b) = a*b/R mod m. With u = lo(ab)*m^-1 mod 2^64, ab - um is
        divisible by R and (ab - um)/R = hi(ab) - hi(um) lies in (-m, m)."""
        ha = _halves(a)
        hb = ha if b is a else _halves(b)
        u = a * b
        u *= self.inv
        t = _mulhi(*ha, *hb)
        t -= _mulhi(*_halves(u), self.m0, self.m1)
        return np.minimum(t, t + self.m)  # a negative t has wrapped above t + m

    def times(self, x: np.ndarray, a: int | np.ndarray) -> np.ndarray:
        """x*a mod m for a small constant a >= 0, or for a uint64 array of
        them, one per lane, by doubling and adding."""
        a = np.asarray(a, dtype=np.uint64)
        out = np.zeros_like(x)
        for i in range(int(a.max(initial=0)).bit_length() - 1, -1, -1):
            out = self.add(out, out)
            out = np.where((a >> np.uint64(i)) & np.uint64(1), self.add(out, x), out)
        return out


def _bpsw_lanes(m: np.ndarray) -> np.ndarray:
    """is_certified_prime on each lane of a uint64 array of values below 2^63:
    the small-prime divisions, then the strong test to base 2 on the lanes
    they leave open, then the strong Lucas test on the lanes that pass it.
    The divisions come first: both tests take odd lanes only, and base 2
    only above 2."""
    prime = m >= 2
    open_ = prime.copy()
    for p in _SMALL_PRIMES:
        hit = open_ & (m % np.uint64(p) == 0)
        prime[hit] = m[hit] == p
        open_ &= ~hit
    lanes = np.flatnonzero(open_)
    prime[lanes] = _strong_probable_primes(m[lanes])
    lanes = lanes[prime[lanes]]
    prime[lanes] = _strong_lucas_probable_primes(m[lanes])
    return prime


def _split_twos(e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(d, s) with e = d * 2^s and d odd, on nonzero uint64 lanes."""
    low = e & (0 - e)  # 2^s, exact as a float
    return e // low, np.frexp(low.astype(np.float64))[1] - 1


def _ragged(d: np.ndarray) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """The lane order, largest d first, and its rungs: (i, n) for each bit i
    from the top down, where the first n lanes are those with d >= 2^i."""
    order = np.argsort(d)[::-1]
    top = int(d.max(initial=0)).bit_length()
    below = np.searchsorted(d[order[::-1]], np.uint64(1) << np.arange(top, dtype=np.uint64))
    return order, list(zip(range(top - 1, -1, -1), (d.size - below[::-1]).tolist()))


def _strong_probable_primes(m: np.ndarray) -> np.ndarray:
    """The strong probable-prime test to base 2 on each odd lane m > 2.

    With m - 1 = d * 2^s, the ladder takes x = 2^k from k = 0 over the bits
    of d. Above a lane's top bit a rung squares x = 1, a no-op, so each rung
    runs on _ragged's prefix. Closing round r squares the lanes with s > r.
    """
    d, s = _split_twos(m - np.uint64(1))
    order, rungs = _ragged(d)
    mod, d = _Mont.of(m[order]), d[order]
    x = mod.one.copy()
    for i, n in rungs:
        part, y = mod.take(slice(n)), x[:n]
        y = part.mul(y, y)
        y <<= (d[:n] >> np.uint64(i)) & np.uint64(1)  # 2y on a set bit, below 2^64
        x[:n] = np.minimum(y, y - part.m)  # y - m wraps above y unless y >= m
    prime = np.empty(m.shape, dtype=bool)
    prime[order] = (x == mod.one) | (x == mod.m - mod.one)
    live, part = order, mod  # lane order[j] of m is lane j of part and x
    for r in range(1, int(s.max(initial=0))):
        keep = s[live] > r
        live, part, x = live[keep], part.take(keep), x[keep]
        x = part.mul(x, x)
        prime[live] |= x == part.m - part.one
    return prime


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0, by the binary algorithm."""
    a %= n
    t = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                t = -t
        a, n = n, a
        if a % 4 == n % 4 == 3:
            t = -t
        a %= n
    return t if n == 1 else 0


def _strong_lucas_probable_primes(m: np.ndarray) -> np.ndarray:
    """Selfridge's strong Lucas probable-prime test (Baillie & Wagstaff,
    Math. Comp. 35, 1980) on each odd lane m > 1.

    D is the first of 5, -7, 9, -11, ... with Jacobi symbol (D/m) = -1, P = 1
    and Q = (1 - D)/4; with m + 1 = d * 2^s, m passes when U_d == 0 or
    V_(d*2^r) == 0 (mod m) for some 0 <= r < s. A square, for which no such D
    exists, fails, and so does a lane with (D/m) = 0 for some |D| != m.

    Every D is 1 mod 4, so (D/m) = (m mod |D| / |D|) by reciprocity, read
    from one table per |D|. U_d is not kept: D U_d = 2V_(d+1) - V_d, and D
    is a unit mod m. _lucas_ladder runs on the lanes with D = 5, then on the
    rest; closing round r squares the lanes with s > r.
    """
    prime = np.ones(m.shape, dtype=bool)
    root = np.rint(np.sqrt(m.astype(np.float64))).astype(np.uint64)  # exact for squares below 2^63
    prime[root * root == m] = False
    disc = np.zeros(m.shape, dtype=np.int64)
    todo = np.flatnonzero(prime)
    a = 5
    while todo.size:
        jac = np.array([_jacobi(r, a) for r in range(a)])[m[todo] % np.uint64(a)]
        shared = (jac == 0) & (m[todo] != a)
        prime[todo[shared]] = False
        disc[todo[jac == -1]] = a if a % 4 == 1 else -a
        todo = todo[(jac != -1) & ~shared]
        a += 2
    lanes = np.flatnonzero(prime)
    mod = _Mont.of(m[lanes])
    q = (1 - disc[lanes]) // 4
    d, s = _split_twos(mod.m + np.uint64(1))
    v, w, qk = np.empty((3, lanes.size), dtype=np.uint64)
    for g in (np.flatnonzero(q == -1), np.flatnonzero(q != -1)):
        order, rungs = _ragged(d[g])
        g = g[order]
        v[g], w[g], qk[g] = _lucas_ladder(mod.take(g), d[g], rungs, q[g])
    passes = (mod.add(w, w) == v) | (v == 0)
    live, part = np.arange(lanes.size), mod
    for r in range(1, int(s.max(initial=0))):
        keep = s[live] > r
        live, part, v, qk = live[keep], part.take(keep), v[keep], qk[keep]
        v = part.sub(part.mul(v, v), part.add(qk, qk))  # V_2k = V_k^2 - 2Q^k
        qk = part.mul(qk, qk)
        passes[live] |= v == 0
    prime[lanes] = passes
    return prime


def _lucas_ladder(mod: _Mont, d: np.ndarray, rungs: list[tuple[int, int]], q: np.ndarray):
    """(V_d, V_(d+1), Q^d) with P = 1 on lanes in _ragged's order, by its rungs.

    From k = 0 it keeps V_k, V_(k+1) and Q^k: V_2k = V_k^2 - 2Q^k and
    V_(2k+1) = V_k V_(k+1) - Q^k. Above a lane's top bit a rung maps (2, 1,
    1) = (V_0, V_1, Q^0) to (2^2 - 2, 2 - 1, 1), a no-op. Where every Q is
    -1 (D = 5), Q^k = (-1)^k by the last bit read, with no product by Q; else
    Q in Montgomery form (by _Mont.times, once) is cheaper than add chains.
    """
    unit = bool((q == -1).all())
    q_abs = mod.times(mod.one, np.abs(q).astype(np.uint64))
    q = np.where(q < 0, mod.sub(0, q_abs), q_abs)
    v, w, qk = mod.add(mod.one, mod.one), mod.one.copy(), mod.one.copy()  # V_0 = 2, V_1 = P, Q^0
    for i, n in rungs:
        part, qk_n = mod.take(slice(n)), qk[:n]
        bit = ((d[:n] >> np.uint64(i)) & np.uint64(1)).astype(bool)
        qk1 = part.sub(0, qk_n) if unit else part.mul(qk_n, q[:n])  # Q^(k+1)
        odd = part.sub(part.mul(v[:n], w[:n]), qk_n)  # V_(2k+1)
        x, qx = np.where(bit, w[:n], v[:n]), np.where(bit, qk1, qk_n)
        even = part.sub(part.mul(x, x), part.add(qx, qx))  # V_2k, or V_(2k+2) on a set bit
        v[:n], w[:n] = np.where(bit, odd, even), np.where(bit, even, odd)
        qk[:n] = np.where(bit, part.m - part.one, part.one) if unit else part.mul(qk_n, qx)
    return v, w, qk


# ECM (Lenstra, Ann. Math. 126, 1987) on x-only Montgomery curves
# (Montgomery, Math. Comp. 48, 1987), one curve per lane, many moduli in
# lockstep (Bos & Kleinjung, "ECM at work", ASIACRYPT 2012).
_ECM_B1, _ECM_B2, _ECM_D = 100, 3000, 210
_ECM_LANES = 1024  # lanes per pass: each open value gets ceil(_ECM_LANES / open) curves
_ECM_CAP = 512  # curves per value; see _ecm_lanes
_ECM_SIGMA = 6  # the first Suyama parameter; a value's curves take 6, 7, 8, ...


def _ecm_plan() -> tuple[int, tuple[tuple[int, tuple[int, ...]], ...]]:
    """Stage 1's exponent and stage 2's pairs.

    The exponent is the product of the prime powers up to _ECM_B1 and of the
    primes of (_ECM_B1, _ECM_D/2), 101 and 103, whose giant step would be 0.
    Each prime p of (_ECM_D/2, _ECM_B2] is i*_ECM_D +- j with i >= 1 and j <
    _ECM_D/2 coprime to _ECM_D; the pairs list each i with its js.
    """
    exponent, pairs = 1, {}
    for p in _prime_array(_ECM_B2).tolist():
        if p <= _ECM_B1:
            q = p
            while q * p <= _ECM_B1:
                q *= p
            exponent *= q
        elif 2 * p < _ECM_D:
            exponent *= p
        else:
            i = (2 * p + _ECM_D) // (2 * _ECM_D)
            pairs.setdefault(i, set()).add(abs(p - i * _ECM_D))
    return exponent, tuple((i, tuple(sorted(js))) for i, js in sorted(pairs.items()))


_ECM_EXPONENT, _ECM_PAIRS = _ecm_plan()


def _xdbl(mod: _Mont, p: tuple[np.ndarray, np.ndarray], a24: tuple[np.ndarray, np.ndarray]):
    """2P in XZ coordinates on By^2 = x^3 + Ax^2 + x, with (A + 2)/4 = a24[0]/a24[1]."""
    s, t = mod.add(*p), mod.sub(*p)
    s, t = mod.mul(s, s), mod.mul(t, t)
    e = mod.sub(s, t)  # 4XZ
    t = mod.mul(t, a24[1])
    return mod.mul(s, t), mod.mul(e, mod.add(t, mod.mul(e, a24[0])))


def _xadd(mod: _Mont, p, q, diff):
    """P + Q in XZ coordinates from P, Q and P - Q."""
    u = mod.mul(mod.sub(*p), mod.add(*q))
    v = mod.mul(mod.add(*p), mod.sub(*q))
    s, t = mod.add(u, v), mod.sub(u, v)
    return mod.mul(diff[1], mod.mul(s, s)), mod.mul(diff[0], mod.mul(t, t))


def _ecm_stage1(mod: _Mont, sigma: np.ndarray):
    """(Q, a24) on each lane: Suyama's curve of parameter sigma, u = sigma^2 -
    5 and v = 4 sigma, with start point (u^3 : v^3) and (A + 2)/4 =
    (v - u)^3 (3u + v) / (16 u^3 v), kept as a pair so no lane inverts; Q is
    the start point times _ECM_EXPONENT, by one Montgomery ladder.

    Each ladder step is the _xadd of kP and (k+1)P and the _xdbl of the point
    the bit picks, as three products on (4, lanes) arrays where those two
    take twelve one-row products: at 1,024 lanes a four-row product costs
    about as much as two or three one-row ones. The add is symmetric in its
    inputs, so the two points' rows may come in either order: kP is the
    pair of rows at lo."""
    s = mod.times(mod.one, sigma)
    u = mod.sub(mod.mul(s, s), mod.times(mod.one, 5))
    v = mod.times(s, 4)
    u3, w = mod.mul(mod.mul(u, u), u), mod.sub(v, u)
    a24 = (mod.mul(mod.mul(mod.mul(w, w), w), mod.add(mod.times(u, 3), v)),
           mod.times(mod.mul(u3, v), 16))
    p = (u3, mod.mul(mod.mul(v, v), v))
    r, lo = np.array((*p, *_xdbl(mod, p, a24))), 0  # rows X, Z of P, then of 2P
    for bit in bin(_ECM_EXPONENT)[3:]:
        j = lo ^ int(bit)  # the point doubled
        sd = np.concatenate((mod.add(r[::2], r[1::2]), mod.sub(r[::2], r[1::2])))  # X + Z, X - Z
        c = mod.mul(sd[[2, 0, j, j + 2]], sd[[1, 3, j, j + 2]])  # add's u, v; double's s^2, t^2
        st, e = np.array((mod.add(c[0], c[1]), mod.sub(c[0], c[1]))), mod.sub(c[2], c[3])
        t = mod.mul(np.array((*st, c[3], e)), np.array((*st, a24[1], a24[0])))
        r = mod.mul(np.array((t[0], t[1], c[2], e)),
                    np.array((p[1], p[0], t[2], mod.add(t[2], t[3]))))  # the add, the double
        lo = 1 - int(bit)  # the add is kP after a 1 bit, the double after a 0 bit
    return (r[2 * lo], r[2 * lo + 1]), a24


def _ecm_stage2(mod: _Mont, q, a24) -> np.ndarray:
    """Z of Q times X_G Z_j - X_j Z_G for each pair (i, j) of _ECM_PAIRS, with
    G = i D Q and the baby step jQ, on each lane: a prime p of the lane
    divides it when Q is O mod p or iDQ = +-jQ mod p for some pair.

    X_G Z_j - X_j Z_G = (X_G - X_j)(Z_G + Z_j) - X_G Z_G + X_j Z_j takes one
    product per pair, on the (pairs, lanes) arrays of one giant step."""
    q2 = _xdbl(mod, q, a24)
    odd = [q, _xadd(mod, q2, q, q)]  # jQ for j = 1, 3, 5, ..., D/2
    while len(odd) <= _ECM_D // 4:
        odd.append(_xadd(mod, odd[-1], q2, odd[-2]))
    xb, zb = np.array([x for x, _ in odd]), np.array([z for _, z in odd])
    xzb = mod.mul(xb, zb)
    giants = [_xdbl(mod, odd[-1], a24)]  # DQ = 2 (D/2)Q
    giants.append(_xdbl(mod, giants[0], a24))
    acc = q[1]
    for i, js in _ECM_PAIRS:
        while len(giants) < i:
            giants.append(_xadd(mod, giants[-1], giants[0], giants[-2]))
        (x, z), b = giants[i - 1], np.array(js) // 2
        t = mod.mul(mod.sub(x, xb[b]), mod.add(z, zb[b]))
        t = np.concatenate((acc[None], mod.add(mod.sub(t, mod.mul(x, z)), xzb[b])))
        while len(t) > 1:  # the product of the rows, halving them
            h = len(t) // 2
            t = np.concatenate((mod.mul(t[:h], t[h : 2 * h]), t[2 * h :]))
        acc = t[0]
    return acc


def _ecm_lanes(m: np.ndarray, ns: Sequence[int]) -> list[int]:
    """A proper divisor of each odd composite lane below 2^63, by ECM.

    Each pass gives every open value ceil(_ECM_LANES / open) curves, the next
    sigmas of its sequence, so no pass runs on a few lanes. A lane whose gcd
    is a proper divisor closes its value; a gcd equal to the whole value is a
    failed curve. ns as in _cofactor_primes.

    A value that has failed _ECM_CAP curves raises FactorizationError. A
    composite lane v = pq in [2^32, 2^63) has p < 2^31.5 and q >= 2^16. One
    curve split 7.6-8.6% of 8,000 products of two primes in [2^31.4, 2^31.5]
    (sigma = 6 to 13 each) and 16% of products in [2^32, 2^33) with p near
    2^16: the two ends of the range, where a curve most often misses both
    factors or finds both, split least of the sizes measured. So a composite
    fails 512 curves with chance below 0.925^512 < exp(-39): only a prime,
    which no curve splits, reaches the cap.
    """
    divisors = [0] * m.size
    open_ = np.arange(m.size)
    tried = 0
    while open_.size:
        if tried >= _ECM_CAP:
            i = int(open_[0])
            raise FactorizationError(ns[i], f"no split of cofactor {int(m[i])} by {tried} curves")
        per = min(-(-_ECM_LANES // open_.size), _ECM_CAP - tried)
        lane = np.repeat(open_, per)
        mod = _Mont.of(m[lane])
        sigma = np.tile(np.arange(per, dtype=np.uint64) + np.uint64(_ECM_SIGMA + tried), open_.size)
        g = np.gcd(_ecm_stage2(mod, *_ecm_stage1(mod, sigma)), mod.m)
        hit = (g != 1) & (g != mod.m)
        for i, d in zip(lane[hit].tolist(), g[hit].tolist()):
            divisors[i] = divisors[i] or d
        open_ = np.array([i for i in open_.tolist() if not divisors[i]], dtype=np.int64)
        tried += per
    return divisors


# ---------------------------------------------------------------------------
# nu(d): root counts of n^3 + 2 == 0 modulo primes and prime powers
# ---------------------------------------------------------------------------

def _pow_lanes(a: np.ndarray, e: np.ndarray, m: np.ndarray) -> np.ndarray:
    """a^e mod m on each lane, for uint64 arrays with a < m < 2^32, by square
    and multiply in plain uint64 arithmetic: products below m^2 < 2^64 are
    exact."""
    x = np.ones_like(m)
    for i in range(int(e.max(initial=0)).bit_length() - 1, -1, -1):
        x = x * x % m
        x = np.where((e >> np.uint64(i)) & np.uint64(1), x * a % m, x)
    return x


_PRIME_SUM_TOP = 10**8  # cap of the prime sums and of count_cubic_roots on arrays


def count_cubic_roots(p: int | np.ndarray) -> int | np.ndarray:
    """nu(p) for prime p, or for each lane of a uint64 array of primes up to
    1e8, without computing the roots themselves.

    For p = 2, 3 and p == 2 (mod 3) cubing is a bijection so nu(p) = 1; for
    p == 1 (mod 3) the count is 3 or 0. One prime takes the cubic-residue
    character of -2, (p-2)^((p-1)/3) mod p, at any size; an array takes
    Gauss's criterion from _cube_marks of its largest prime, and a prime
    above the cap raises DomainError.
    """
    if not isinstance(p, np.ndarray):
        p = _integer("p", p)
        if p in (2, 3) or p % 3 == 2:
            return 1
        return 3 if pow(p - 2, (p - 1) // 3, p) == 1 else 0
    if p.dtype != np.uint64:  # an int64 lane of -5 would read a mark
        raise DomainError(f"lane primes must be a uint64 array, got {p.dtype}")
    top = int(p.max(initial=0))
    if top > _PRIME_SUM_TOP:
        raise DomainError(f"lane primes are capped at 1e8, got {top}")
    return _marked_counts(p, _cube_marks(top))


def _cube_marks(limit: int) -> np.ndarray:
    """Gauss's criterion as a table: marks[v // 6] is True for every
    v = x^2 + 27y^2 <= limit with x, y >= 1 of opposite parity and 3 not
    dividing x, each such v being 1 mod 6.

    A prime p == 1 (mod 3) is marked exactly when 2, and so -2 = (-1)^3 * 2,
    is a cube mod p (Gauss; Cox, Primes of the Form x^2 + ny^2, section 4):
    a representation of p has x, y >= 1, 3 not dividing x, and opposite
    parity since p is odd. One byte per six integers; a cell counts only
    for the p == 1 (mod 6) it stands for."""
    marks = np.zeros(limit // 6 + 1, dtype=bool)
    x = np.arange(1, isqrt(limit) + 1, dtype=np.int64)
    x = x[x % 3 != 0]
    squares = (x[x % 2 == 1] ** 2, x[x % 2 == 0] ** 2)  # odd x, even x
    for y in range(1, isqrt(limit // 27) + 1):
        sq = squares[y % 2]  # x of the other parity than y
        v = sq[: np.searchsorted(sq, limit - 27 * y * y, side="right")] + 27 * y * y
        marks[v // 6] = True
    return marks


def _marked_counts(p: np.ndarray, marks: np.ndarray) -> np.ndarray:
    """nu(p) on each lane of a uint64 array of primes covered by marks."""
    q = p // 6
    return np.where(p - 6 * q == 1, 3 * marks[q], 1)


def _nu_prime_power(p: int, e: int) -> int:
    """nu(p^e) for prime p and e >= 1, counted without the roots.

    For p >= 5 every root r mod p is simple (3r^2 is a unit, since p does not
    divide 3 and r^3 == -2 is not 0), so it lifts to exactly one root mod p^e
    and nu(p^e) = nu(p). For p = 2, 3 the one root mod p does not lift: n^3 + 2
    == 2 (mod 4) for even n, and -2 == 7 is not a cube mod 9.
    """
    if _integer("exponent", e) < 1:
        raise DomainError(f"exponent must be a positive integer, got {e!r}")
    return count_cubic_roots(p) if p > 3 or e == 1 else 0


def nu(d: int) -> int:
    """Number of n mod d with n^3 + 2 == 0 (mod d).

    Multiplicative over coprime parts (Chinese remainder), so d is factorised
    by trial division by the primes up to sqrt(d), which leaves 1 or a prime,
    and counted by nu_from_factors. Direct use is capped at d <= 1e9; factor
    larger d yourself and call nu_from_factors.
    """
    d = _integer("d", d)
    if d < 1:
        raise DomainError(f"d must be a positive integer, got {d!r}")
    if d > 10**9:
        raise DomainError("d above 1e9; factor it and use nu_from_factors")
    factors: dict[int, int] = {}
    for p in _prime_array(isqrt(d)).tolist():
        while d % p == 0:
            factors[p] = factors.get(p, 0) + 1
            d //= p
    if d > 1:
        factors[d] = 1
    return nu_from_factors(factors)


def nu_from_factors(factors: Mapping[int, int]) -> int:
    """nu of a prime-factored integer prod p^e (for d beyond the direct cap):
    the product of the prime-power counts, every prime certified and every
    exponent checked, whatever the order of the entries."""
    count = 1
    for p, e in factors.items():
        p = _integer("prime", p)
        if not is_certified_prime(p):
            raise DomainError(f"{p} is not prime")
        count *= _nu_prime_power(p, e)
    return count


# ---------------------------------------------------------------------------
# Root table with optional binary cache
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RootTable:
    """The roots of n^3 + 2 == 0 (mod p) for every prime p <= limit, as two
    aligned uint64 arrays with one entry per root: root r[i] of prime p[i],
    in prime order and then in increasing root order, which is the order of
    the cache file. A prime without roots has no entry."""

    limit: int
    p: np.ndarray
    r: np.ndarray

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RootTable):
            return NotImplemented
        return (
            self.limit == other.limit
            and np.array_equal(self.p, other.p)
            and np.array_equal(self.r, other.r)
        )


_CACHE_MAGIC = b"CRT1"
_CACHE_VERSION = 2
_CACHE_HEADER = 16  # magic, version, limit; then one 8-byte word per root


def build_root_table(limit: int) -> RootTable:
    """Roots of n^3 + 2 == 0 (mod p) for every prime p <= limit, computed on
    uint64 lanes by _lane_roots. The limit is non-negative and capped at
    MAX_RANGE_TOP, as for the caches load_root_table reads."""
    limit = _integer("limit", limit)
    if not 0 <= limit <= MAX_RANGE_TOP:
        raise DomainError(f"prime limit must be non-negative and is capped at {MAX_RANGE_TOP}, "
                          f"got {limit}")
    return RootTable(limit, *_lane_roots(_prime_array(limit)))


def _lane_roots(primes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The table arrays (p, r) of an ascending uint64 array of primes up to
    1e8: for p = 2, 3 and p == 2 (mod 3) the one root (p-2)^((2p-1)/3)
    mod p, and for the p == 1 (mod 3) with nu(p) = 3 the three of
    _cube_root_triples. This is the only construction of the roots; nu
    counts them without it. The roots pass _check_roots, or DomainError is
    raised."""
    counts = count_cubic_roots(primes)
    p = np.repeat(primes, counts)
    r = np.empty_like(p)
    m = primes[counts == 1]
    r[np.repeat(counts == 1, counts)] = _pow_lanes(m - 2, (2 * m - 1) // 3, m)
    r[np.repeat(counts == 3, counts)] = _cube_root_triples(primes[counts == 3]).ravel()
    _check_roots(p, r, "cube-root construction: ")
    return p, r


def _check_roots(p: np.ndarray, r: np.ndarray, context: str) -> None:
    """Raise DomainError, after context, unless each r[i] < p[i] solves
    n^3 + 2 == 0 (mod p[i]) and exceeds the previous root of its prime. A
    prime has exactly nu(p) roots, so with each prime nu(p) times in p only
    the sorted roots pass: the rule of a valid table."""
    bad = (r >= p) | ((r * r % p * r + 2) % p != 0)
    bad[1:] |= (p[1:] == p[:-1]) & (r[1:] <= r[:-1])
    if bad.any():
        j = int(np.argmax(bad))
        raise DomainError(f"{context}invalid root {r[j]} for p={p[j]}")


def _cube_root_triples(p: np.ndarray) -> np.ndarray:
    """The three roots of n^3 + 2 == 0, ascending, in one row per lane of a
    uint64 array of primes p == 1 (mod 3) below 2^32 for which -2 is a cube.

    With p - 1 = 3^t * u (3 not dividing u), x = a^(1/3 mod u) for a = -2 is
    a cube root up to e = x^3/a in the 3-Sylow subgroup <g>, g = z^u for the
    smallest cubic non-residue z. The base-3 digits of the discrete log of e
    are read off one at a time, on the lanes whose subgroup is still deep
    enough, and the cube root of e is divided out of x; the other two roots
    follow by the cube roots of unity gamma = g^(3^(t-1))."""
    a = p - 2
    t, u = np.zeros_like(p), p - 1  # p - 1 = 3^t * u
    while (div := u % 3 == 0).any():
        t += div
        u = np.where(div, u // 3, u)
    # the smallest cubic non-residue z: not 2, which is a cube as -2 and -1 are
    third = (p - 1) // 3
    z = np.full_like(p, 3)
    todo = np.flatnonzero(_pow_lanes(z, third, p) == 1)
    while todo.size:
        z[todo] += 1
        todo = todo[_pow_lanes(z[todo], third[todo], p[todo]) == 1]
    g = _pow_lanes(z, u, p)  # order exactly 3^t
    inv3 = np.where(u % 3 == 1, 2 * u + 1, u + 1) // 3  # 3^-1 mod u
    x = _pow_lanes(a, inv3, p)
    # e = x^3 / a lies in <g> and is a cube there; divide its cube root out.
    # 1/a = (p - 1)/2, as -2 * (p - 1)/2 = 1 - p
    e = x * x % p * x % p * ((p - 1) // 2) % p
    gamma = _pow_lanes(g, 3 ** (t - 1), p)
    w = np.zeros_like(p)
    for i in range(int(t.max(initial=0))):
        lanes = np.flatnonzero(t > i)
        m, ti = p[lanes], t[lanes]
        d = _pow_lanes(e[lanes], 3 ** (ti - 1 - i), m)
        digit = np.where(d == 1, 0, np.where(d == gamma[lanes], 1, 2)).astype(np.uint64)
        w[lanes] += digit * 3**i
        e[lanes] = e[lanes] * _pow_lanes(g[lanes], 3**ti - digit * 3**i, m) % m
    x = x * _pow_lanes(g, (3**t - w) // 3, p) % p
    xg = x * gamma % p
    return np.sort(np.stack([x, xg, xg * gamma % p], axis=1), axis=1)


def save_root_table(path: str, table: RootTable) -> None:
    """Binary cache (version 2): 16-byte header (magic, version, prime
    limit), then table.r as 8-byte little-endian words; the loader derives
    the primes from the limit. Written beside path and renamed over it, so
    an interrupted run never leaves a truncated cache behind. A table whose
    p is not each prime up to its limit nu(p) times, in order, raises
    DomainError and leaves path as it was."""
    primes = _prime_array(table.limit)
    p = np.repeat(primes, count_cubic_roots(primes))
    if table.r.shape != p.shape or not np.array_equal(table.p, p):
        raise DomainError(f"table entries are not the primes up to {table.limit} in order")
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(_CACHE_MAGIC + struct.pack("<IQ", _CACHE_VERSION, table.limit))
            fh.write(table.r.astype("<u8", copy=False).tobytes())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_root_table(path: str) -> RootTable:
    """Read a cache written by save_root_table, checked against the sieve:
    the header's limit is at most MAX_RANGE_TOP, the file holds one word per
    root of the primes up to it, and the roots pass _check_roots. So a file
    that loads equals build_root_table of its limit; anything else raises
    DomainError."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _CACHE_HEADER or data[:4] != _CACHE_MAGIC:
        raise DomainError(f"{path}: not a root-table cache")
    (version,) = struct.unpack_from("<I", data, 4)
    if version != _CACHE_VERSION:
        raise DomainError(f"{path}: unsupported cache version {version}")
    (limit,) = struct.unpack_from("<Q", data, 8)
    if limit > MAX_RANGE_TOP:
        raise DomainError(f"{path}: prime limit {limit} is above {MAX_RANGE_TOP}")
    primes = _prime_array(limit)
    p = np.repeat(primes, count_cubic_roots(primes))
    if len(data) != _CACHE_HEADER + 8 * p.size:
        raise DomainError(f"{path}: {len(data)} bytes, not {_CACHE_HEADER + 8 * p.size}")
    r = np.frombuffer(data, dtype="<u8", offset=_CACHE_HEADER).astype(np.uint64, copy=False)
    _check_roots(p, r, f"{path}: ")
    return RootTable(limit, p, r)


# ---------------------------------------------------------------------------
# Range factorisation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RangeJob:
    """Factorisation work order for the range (x_min, x_max]."""

    x_min: int
    x_max: int
    threshold: int
    h: int

    def __post_init__(self) -> None:
        for f in fields(self):  # numpy integers become ints, anything else fails
            object.__setattr__(self, f.name, _integer(f.name, getattr(self, f.name)))
        if self.x_min < 0 or self.x_min >= self.x_max:
            raise DomainError(f"need 0 <= x_min < x_max, got {self.x_min}, {self.x_max}")
        if self.x_max > MAX_RANGE_TOP:
            raise DomainError(f"x_max is capped at {MAX_RANGE_TOP}, got {self.x_max}")
        if not 2 <= self.threshold <= MAX_RANGE_TOP + 1:  # so count_limit is in the cap
            raise DomainError(f"need 2 <= threshold <= {MAX_RANGE_TOP + 1}, got {self.threshold}")
        if self.h < 0:
            raise DomainError(f"h must be non-negative, got {self.h}")

    @property
    def count_limit(self) -> int:
        """The prime limit of empirical_T's root table: every prime factor
        left in a residual is then at least the threshold."""
        return max(self.x_max, self.threshold - 1)


@dataclass(frozen=True)
class FactorProfile:
    """Complete factorisation of one value n^3 + 2."""

    n: int
    value: int
    factors: tuple[tuple[int, int], ...]

    def omega_above(self, t: int) -> int:
        """Prime factors >= t counted with multiplicity."""
        return sum(e for p, e in self.factors if p >= t)


def _brent_cap(v: int) -> int:
    """The longest round a walk on v may take: 8 v^(1/4), and at least 2^12.

    Round r compares x with the r terms after the r it skips, so it ends
    with gcd 1 only if, for every prime factor p of v, the tail or the
    cycle of the walk mod p is longer than about 2r. For a random map their
    sum passes t sqrt(p) with chance exp(-t^2/2), and some p <= sqrt(v), so
    a composite v passes the cap with chance below exp(-32); no round of the
    benchmark's factor windows passed 1.8 v^(1/4). A walk closes its cycle
    mod v before r passes v, so the floor refuses no v up to 2^12. Only a
    prime v, which rho cannot split, reaches the cap.
    """
    return max(1 << 12, 8 * math.isqrt(math.isqrt(v)))


def _brent_int(v: int, n: int) -> int:
    """A non-trivial divisor of odd composite v (Brent's cycle variant with a
    deterministic parameter march, so output streams are reproducible).

    A walk whose next round would pass _brent_cap(v) raises
    FactorizationError: v is then almost surely prime, and every other c
    would walk as far in vain.
    """
    cap = _brent_cap(v)
    for c in range(1, 41):
        # round r: x is fixed, y has taken k of its r gcd-tracked steps
        x, y, q, r, k = 2, (4 + c) % v, 1, 1, 0
        g = 1
        while g == 1:
            if k >= r:
                if 2 * r > cap:
                    raise FactorizationError(n, f"no split of cofactor {v} by round {r}")
                x, r, k = y, 2 * r, 0
                for _ in range(r):
                    y = (y * y + c) % v
            ys = y
            for _ in range(min(128, r - k)):
                y = (y * y + c) % v
                q = q * (x - y) % v
            g = math.gcd(q, v)
            k += 128
        if g == v:
            g = 1
            y = ys
            while g == 1:
                y = (y * y + c) % v
                g = math.gcd(x - y, v)
        if 1 < g < v:
            return g
    raise FactorizationError(n, f"could not split cofactor {v}")


def _pollard_brent(values: list[int], ns: Sequence[int]) -> list[int]:
    """A checked non-trivial divisor of every composite value (ns as in
    _cofactor_primes): by _ecm_lanes when at least _ECM_BATCH_MIN values lie
    in [_ECM_FLOOR, 2^63), else, and for the values outside it, by _brent_int.

    Every value is odd, as the Montgomery lanes need: the sieve strips 2,
    which every root table holds, and 4 never divides n^3 + 2.
    """
    divisors = [0] * len(values)
    lanes = [i for i, v in enumerate(values) if _ECM_FLOOR <= v < _MONT_TOP]
    if len(lanes) >= _ECM_BATCH_MIN:
        m = np.array([values[i] for i in lanes], dtype=np.uint64)
        for i, d in zip(lanes, _ecm_lanes(m, [ns[i] for i in lanes])):
            divisors[i] = d
    for i, v in enumerate(values):
        d = divisors[i] or _brent_int(v, ns[i])
        if not 1 < d < v or v % d:
            raise FactorizationError(ns[i], f"bad split of {v}")
        divisors[i] = d
    return divisors


def _cofactor_primes(
    cofactors: Sequence[int], ns: Sequence[int], limit: int
) -> list[tuple[int, int]]:
    """(i, p) for every prime factor p of cofactors[i], with multiplicity,
    where cofactors[i] is what the sieve left of ns[i]^3 + 2 after stripping
    every prime up to limit >= ns[i].

    So each cofactor is 1, a prime or a product of two primes above limit,
    and a value up to limit^2 is prime. The larger values are certified in
    one batch; a composite one, square or not, splits once by _pollard_brent.
    A part above limit^2 would have more prime factors, which the sieve
    rules out, and raises FactorizationError.
    """
    sq = limit * limit
    out = [(i, v) for i, v in enumerate(cofactors) if 1 < v <= sq]
    tested = [(i, v) for i, v in enumerate(cofactors) if v > sq]
    verdicts = is_certified_prime([v for _, v in tested]) if tested else []
    composite = []
    for (i, v), prime in zip(tested, verdicts):
        if prime:
            out.append((i, v))
        else:
            composite.append((i, v))
    if composite:
        divisors = _pollard_brent([v for _, v in composite], [ns[i] for i, _ in composite])
        for (i, v), d in zip(composite, divisors):
            if max(d, v // d) > sq:
                raise FactorizationError(ns[i], f"cofactor {v} has more than two prime factors")
            out += [(i, d), (i, v // d)]
    return out


_SEGMENT = 1 << 16  # values per sieve segment


def _sieved_segments(
    job: RangeJob, table: RootTable
) -> Iterator[tuple[int, int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Sieve every table prime out of each segment lo..hi of (x_min, x_max],
    without dividing a value.

    Yields (lo, hi, m, k, at, by): the prime by[j] divides the value at
    index at[j] once per j, and m + k*2^64 (uint64 arrays) is the exact
    residual of (lo+i)^3 + 2 after every division. One array holds each
    root's next hit n >= x_min + 1; a segment expands the progressions of
    the roots that hit it into one (at, by) per hit, and moves those hits
    past its end.
    m*P is the value, or its odd half n^3/2 + 1 for even n (4 never divides
    n^3 + 2), with P the product of the odd divisions, so m is that value
    mod 2^64, in wrapping uint64 arithmetic, times the inverse mod 2^64 of
    each prime of P (taken once per table; 1 for p = 2). The value is below
    1e21 + 2 < 2^70, with at most 32 prime factors counted with
    multiplicity, so est = fl(n^3 + 2) divided by each division's prime
    takes at most 34 roundings (n^2 is exact): |est - m| < 34*2^-53*2^70 <
    2^23 (the primes enter as float64, exact as p <= MAX_RANGE_TOP < 2^53,
    since np.divide.at takes its fast loop only on one dtype). With m's
    rounding to a float (2^10), k = rint((est - m mod 2^64)/2^64) is exact;
    est further than 2^24 from m + k*2^64 raises FactorizationError. That is
    how a wrong root shows, so the estimate runs on every segment, also where
    every value is below 2^64. Each prime that divided is tried again, in
    rounds: q divides the residual where (m mod q + k*(2^64 mod q)) mod q is 0.
    """
    base = job.x_min + 1
    p = table.p.astype(np.int64)
    hits = base + (table.r.astype(np.int64) - base) % p
    inverses = _inverse_mod_2_64(table.p >> (table.p == 2))  # m starts odd: 1 for p = 2
    for lo in range(base, job.x_max + 1, _SEGMENT):
        hi = min(lo + _SEGMENT - 1, job.x_max)
        now = np.flatnonzero(hits <= hi)
        first, step = hits[now], p[now]
        count = (hi - first) // step + 1  # hits of each root in the segment
        hits[now] += count * step
        by, inv = np.repeat(table.p[now], count), np.repeat(inverses[now], count)
        at = np.arange(by.size) - np.repeat(np.cumsum(count) - count, count)
        at *= np.repeat(step, count)
        at += np.repeat(first - lo, count)
        n = np.arange(lo, hi + 1, dtype=np.uint64)
        even = ~n & 1
        m = (n * n >> even) * n + 2 - even  # the value, or its odd half n^3/2 + 1
        np.multiply.at(m, at, inv)
        f = n.astype(np.float64)
        est = f * f * f + 2
        np.divide.at(est, at, by.astype(np.float64))
        divisions = [(at, by)]
        while True:
            t = (est - m) * 2.0**-64
            k = np.rint(t)
            if (off := np.abs(t - k) > 2.0**-40).any():
                raise FactorizationError(lo + int(np.argmax(off)), "residual off its estimate")
            k = k.astype(np.uint64)
            r = m[at] % by
            if k.any():  # 2^64 mod q = (2^64 - 1) mod q + 1
                r = (r + k[at] * (np.uint64(2**64 - 1) % by + 1)) % by
            at, by, inv = at[r == 0], by[r == 0], inv[r == 0]
            if not at.size:
                break
            divisions.append((at, by))
            np.multiply.at(m, at, inv)  # the quotient is exact, so it is m/q mod 2^64
            np.divide.at(est, at, by.astype(np.float64))
        yield (lo, hi, m, k, *map(np.concatenate, zip(*divisions)))


def _residual_ints(m: np.ndarray, k: np.ndarray, lanes: np.ndarray) -> list[int]:
    """The residuals m + k*2^64 on the given lanes as Python ints."""
    return [a | b << 64 for a, b in zip(m[lanes].tolist(), k[lanes].tolist())]


def _covering_table(job: RangeJob, table: RootTable | None, limit: int) -> RootTable:
    """table, or build_root_table(limit >= job.x_max) in place of None or of
    a table short of limit; a table short of job.x_max raises DomainError."""
    if table is not None and table.limit < job.x_max:
        raise DomainError(f"root table covers primes to {table.limit}, need {job.x_max}")
    return table if table is not None and table.limit >= limit else build_root_table(limit)


def factor_range(job: RangeJob, table: RootTable | None = None) -> Iterator[FactorProfile]:
    """Yield the FactorProfile of every n in (x_min, x_max], in n order.

    Every profile is verified to multiply back to n^3 + 2 exactly before it
    is yielded; a verification failure (or an unsplittable cofactor) raises
    FactorizationError rather than passing silently.
    """
    table = _covering_table(job, table, job.x_max)
    for lo, hi, m, k, at, by in _sieved_segments(job, table):
        rest = np.flatnonzero((m > 1) | (k > 0))
        pairs = _cofactor_primes(_residual_ints(m, k, rest), (lo + rest).tolist(), table.limit)
        found: list[dict[int, int]] = [{} for _ in range(m.size)]
        # unnamed lists: their ints are freed before the profiles go out
        for idx, p in zip(at.tolist() + [int(rest[j]) for j, _ in pairs],
                          by.tolist() + [p for _, p in pairs]):
            found[idx][p] = found[idx].get(p, 0) + 1
        for idx, fac in enumerate(found):
            n = lo + idx
            value = n * n * n + 2
            factors = tuple(sorted(fac.items()))
            check = 1
            for p, e in factors:
                check *= p**e
            if check != value:
                raise FactorizationError(n, f"reconstruction mismatch: {factors}")
            yield FactorProfile(n=n, value=value, factors=factors)


def empirical_T(
    job: RangeJob,
    table: RootTable | None = None,
    progress: Callable[[int, int], None] | None = None,
) -> int:
    """Exact count of n in (x_min, x_max] whose value has at least h prime
    factors >= threshold (with multiplicity), segment by segment in one
    process; progress(lo, hi) fires after each segment. The table reaches
    limit >= job.count_limit (a given table short of it is replaced), so a
    residual m > 1 is a prime or two primes above limit >= max(n, threshold
    - 1), and each n is decided on arrays from om, its divisions by primes
    >= threshold. m becomes a Python int only when om is h-2 and m > limit^2,
    where its primality decides the verdict; nothing is split.
    """
    table = _covering_table(job, table, job.count_limit)
    h, threshold, limit = job.h, job.threshold, table.limit
    count = 0
    for lo, hi, m, k, at, by in _sieved_segments(job, table):
        om = np.bincount(at[by >= threshold], minlength=m.size)  # factors >= threshold
        count += int(np.count_nonzero(om >= h))
        near = (om < h) & (om + 2 >= h) & ((m > 1) | (k > 0))
        # every residual factor counts: one is always there, and a second
        # exactly when m is composite (m <= limit^2 is prime)
        count += int(np.count_nonzero(near & (om == h - 1)))
        tested = np.flatnonzero(near & (om == h - 2) & ((m > limit * limit) | (k > 0)))
        if tested.size:
            count += is_certified_prime(_residual_ints(m, k, tested)).count(False)
        if progress is not None:
            progress(lo, hi)
    return count


# ---------------------------------------------------------------------------
# Prime-sum estimate
# ---------------------------------------------------------------------------

# primes per block of the prime sums: 2^16 ran no faster, and its numpy
# temporaries raised the peak memory
_PRIME_BLOCK = 1 << 14

# The error bound of each deviation (Higham, Accuracy and Stability of
# Numerical Algorithms, 2nd ed., ch. 3-4), to first order in u = 2^-53. Both
# logs, numpy's and libm's, are assumed within _LOG_ULPS ulps, numpy's own
# tolerance for float64 log (the tests check it on the CPU they run on), so
# within 2u * _LOG_ULPS relative. A term nu*log(p)/p adds two
# roundings, the product by nu and the division (p <= 1e8 converts exactly),
# so it errs by (2 * _LOG_ULPS + 2)u relative; a block's cumulative sum of at
# most n = 2^14 nonnegative terms errs by gamma_{n-1} ~ (n-1)u times its
# value; the exact carry rounds the total S once, and so does the
# subtraction of log x. Per checkpoint:
#   (n + 2 * _LOG_ULPS + 2)u * S + u * |dev| + 2u * _LOG_ULPS * log x,
# times 1 + 2^-20, which covers the second-order terms and the roundings of
# the bound itself.
_LOG_ULPS = 1
_U = 2.0**-53


class PrimeSums(NamedTuple):
    """The prime sums up to x from one pass over the primes p <= x."""

    deviations: list[tuple[int, float]]  # (checkpoint c, sum_{p<=c} nu(p) log(p)/p - log c)
    bounds: list[float]  # the bound on the absolute error of each deviation
    mean_nu: float  # the mean of nu(p) over the primes, an integer total over their count


def prime_sums(x: int) -> PrimeSums:
    """The deviations sum_{p<=c} nu(p) log(p)/p - log(c) at each checkpoint
    c, the powers of ten below x and then x itself, their error bounds and
    the mean of nu(p), for 2 <= x <= 1e8.

    Exact prime enumeration with floating accumulation. The primes are
    taken in blocks of 2^14, each summed in order by numpy; the block totals
    are carried exactly (math.fsum), so each deviation is within its stated
    bound of the true value: below 3.1e-11 up to x = 1e8.
    """
    x = _integer("x", x)
    if x < 2:
        raise DomainError(f"x must be at least 2, got {x}")
    if x > _PRIME_SUM_TOP:
        raise DomainError(f"x is capped at 1e8, got {x}")
    cps = [10**j for j in range(1, 9) if 10**j < x] + [x]
    primes = _prime_array(x)
    marks = _cube_marks(x)  # after the sieve, whose peak it would raise
    # the last prime at or below each checkpoint
    ends = np.searchsorted(primes, np.array(cps, dtype=np.uint64), side="right") - 1
    out: list[tuple[int, float]] = []
    bounds: list[float] = []
    totals: list[float] = []  # the sum of each earlier block
    total = 0
    j = 0
    for start in range(0, primes.size, _PRIME_BLOCK):
        block = primes[start : start + _PRIME_BLOCK]
        nus = _marked_counts(block, marks)
        sums = np.cumsum(nus * np.log(block.astype(np.float64)) / block)
        total += int(nus.sum())
        while j < len(cps) and ends[j] < start + block.size:
            s = math.fsum(totals + [float(sums[ends[j] - start])])
            log_x = math.log(cps[j])
            dev = s - log_x
            out.append((cps[j], dev))
            bounds.append(((_PRIME_BLOCK + 2 * _LOG_ULPS + 2) * _U * s + _U * abs(dev)
                           + 2 * _LOG_ULPS * _U * log_x) * (1 + 2.0**-20))
            j += 1
        totals.append(float(sums[-1]))
    return PrimeSums(out, bounds, total / primes.size)


def mertens_check(x: int) -> list[tuple[int, float]]:
    """The deviations of prime_sums(x)."""
    return prime_sums(x).deviations
