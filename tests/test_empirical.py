import itertools
import math
import os
import random

import mpmath
import numpy as np
import pytest
import sympy
from sympy.ntheory.primetest import is_strong_lucas_prp

from cubebound import (
    DomainError,
    FactorizationError,
    RangeJob,
    RootTable,
    build_root_table,
    count_cubic_roots,
    empirical_T,
    factor_range,
    first_bound,
    load_root_table,
    mertens_check,
    nu,
    nu_from_factors,
    prime_sums,
    save_root_table,
)
from cubebound import empirical
from cubebound.empirical import MAX_RANGE_TOP, is_certified_prime

from oracles import (
    cubic_roots_enumerate,
    is_strong_probable_prime,
    nu_enumerate,
    primes_by_trial_division,
    trial_factor,
    write_root_cache,
)


# ---------------------------------------------------------------------------
# primality and sieve plumbing
# ---------------------------------------------------------------------------

def test_sieve_primes():
    assert empirical._prime_array(30).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert empirical._prime_array(1).tolist() == []
    want = primes_by_trial_division(10_201)
    for limit in range(201):
        assert empirical._prime_array(limit).tolist() == [p for p in want if p <= limit], limit
    # a prime's square is the first odd multiple it strikes
    for p in want[:26]:
        for limit in (p * p - 1, p * p, p * p + 1):
            assert empirical._prime_array(limit).tolist() == [q for q in want if q <= limit], limit


def test_certified_prime_against_sieve():
    flags = set(empirical._prime_array(2000).tolist())
    for n in range(2000):
        assert is_certified_prime(n) == (n in flags)


def test_certified_prime_large():
    assert is_certified_prime(2**61 - 1)
    assert not is_certified_prime((2**31 - 1) * (2**31 + 11))


def test_certified_prime_range_ends_at_the_twelve_base_pseudoprime():
    # the top of the range is a strong pseudoprime to every base 2..37, so
    # the twelve bases cannot decide it; below it they decide every value
    top = empirical._MR_TOP
    assert not sympy.isprime(top)
    assert all(is_strong_probable_prime(top, a) for a in empirical._SMALL_PRIMES)
    with pytest.raises(DomainError, match="certified primality range"):
        is_certified_prime(top)
    below = [top - k for k in range(2, 400, 2)]
    assert is_certified_prime(below) == [sympy.isprime(v) for v in below]


# ---------------------------------------------------------------------------
# batched residual kernel (numpy Montgomery lanes)
# ---------------------------------------------------------------------------

def test_certified_prime_batch_matches_sympy_below_3e5(monkeypatch):
    monkeypatch.setattr(empirical, "_MR_BATCH_MIN", 1)  # the lanes, whatever the crossover
    seen = {"base 2": [], "lucas": []}
    for name, kernel in (("base 2", "_strong_probable_primes"), ("lucas", "_strong_lucas_probable_primes")):
        real = getattr(empirical, kernel)
        monkeypatch.setattr(empirical, kernel,
                            lambda m, *rest, f=real, s=seen[name]: s.extend(m.tolist()) or f(m, *rest))
    assert is_certified_prime(range(300_000)) == [sympy.isprime(n) for n in range(300_000)]
    # the small-prime divisions come first: they alone decide 2..37 (base 2
    # is no test of 2, and both tests take odd values only), and the Lucas
    # test sees just the values that pass base 2
    assert min(seen["base 2"]) == 41
    assert all(math.gcd(v, math.prod(empirical._SMALL_PRIMES)) == 1 for v in seen["base 2"])
    assert seen["lucas"] == [v for v in seen["base 2"] if is_strong_probable_prime(v, 2)]


# the smallest strong pseudoprimes to the first 4, 6, 7 and 9 prime bases
# (the thresholds of the classical witness-set ladder), with those bases;
# the last is below 2^63 and passes all nine bases 2..23
_LADDER_RUNGS = {
    3_215_031_751: (2, 3, 5, 7),
    3_474_749_660_383: (2, 3, 5, 7, 11, 13),
    341_550_071_728_321: (2, 3, 5, 7, 11, 13, 17),
    3_825_123_056_546_413_051: (2, 3, 5, 7, 11, 13, 17, 19, 23),
}
_LADDER_PSEUDOPRIMES = list(_LADDER_RUNGS)
_CARMICHAEL = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185,
               5394826801, 232250619601, 9746347772161]


def _ragged_lanes():
    """One batch of odd lanes whose exponents differ as much as they can:
    values of 2 to 63 bits, k * 2^s + 1 and k * 2^s - 1 (so m - 1 or m + 1
    holds 2^s) for every s up to 61, prime and composite, the base-2 and
    the strong Lucas pseudoprimes."""
    rnd = random.Random(28)
    lanes = [rnd.randrange(2**(bits - 1), 2**bits) | 1 for bits in range(2, 64) for _ in range(4)]
    for s in range(1, 62):
        for sign in (1, -1):
            k = rnd.randrange(1, 2 ** (62 - s), 2)
            lanes.append(k * 2**s + sign)
            # and the next prime of the form below 2^63, where there is one
            form = (j * 2**s + sign for j in range(k, 2 ** (63 - s), 2))
            lanes += itertools.islice(filter(sympy.isprime, form), 1)
    lanes += [2**61 - 1, 2**61 + 1, 2**62 - 1, 2**62 + 1, 2**62 + 2**61 + 1]
    lanes += _BASE_2_PSEUDOPRIMES + _LUCAS_PSEUDOPRIMES
    assert max(lanes) < 2**63
    return lanes


def _hard_primality_cases():
    rnd = random.Random(2024)
    near_2_31 = [sympy.prevprime(2**31), sympy.nextprime(2**31), sympy.nextprime(2**31 + 1000)]
    cases = list(_LADDER_PSEUDOPRIMES) + _CARMICHAEL
    cases += [p * q for p in near_2_31 for q in near_2_31]  # p^2 and p*q
    cases += [2**63 + k for k in range(-301, 40, 2)]  # both sides of the lane limit
    cases += [rnd.randrange(2**(bits - 1), 2**bits) | 1 for bits in range(33, 64) for _ in range(12)]
    return cases + _ragged_lanes()


def test_certified_prime_batch_hard_cases_match_sympy(monkeypatch):
    monkeypatch.setattr(empirical, "_MR_BATCH_MIN", 1)
    cases = _hard_primality_cases()
    want = [sympy.isprime(v) for v in cases]
    assert is_certified_prime(cases) == want  # lanes below 2^63, one at a time above
    assert [is_certified_prime(v) for v in cases] == want
    # each pseudoprime is the bound of a rung and passes every base of it
    for v, bases in _LADDER_RUNGS.items():
        assert not sympy.isprime(v)
        assert all(is_strong_probable_prime(v, a) for a in bases)


# strong pseudoprimes to base 2 below 2^63, which only the Lucas test
# rejects: the first five, composite Mersenne numbers 2^p - 1 (p prime),
# the Fermat number 2^32 + 1, the squares of the Wieferich primes 1093 and
# 3511, and the ladder pseudoprimes, the last of which passes bases 2..23
_BASE_2_PSEUDOPRIMES = [2047, 3277, 4033, 4681, 8321, 2**32 + 1, 1093**2, 3511**2]
_BASE_2_PSEUDOPRIMES += [2**p - 1 for p in (11, 23, 29, 37, 41, 43, 47, 53, 59)]
_BASE_2_PSEUDOPRIMES += _LADDER_PSEUDOPRIMES
# the strong Lucas pseudoprimes below 1e5 (Selfridge's parameters)
_LUCAS_PSEUDOPRIMES = [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519,
                       75077, 97439]


def test_certified_prime_batch_rejects_base_2_pseudoprimes_and_squares(monkeypatch):
    monkeypatch.setattr(empirical, "_MR_BATCH_MIN", 1)
    assert all(v < 2**63 and is_strong_probable_prime(v, 2) for v in _BASE_2_PSEUDOPRIMES)
    assert not any(sympy.isprime(v) for v in _BASE_2_PSEUDOPRIMES)
    assert not any(is_certified_prime(_BASE_2_PSEUDOPRIMES))
    # squares of primes near 2^31: no D has (D/m) = -1, so the Lucas test
    # must reject them before its search for D
    near = [sympy.prevprime(2**31 - k) for k in range(0, 4000, 400)]
    near += [sympy.nextprime(2**31 + k) for k in range(0, 4000, 400)]
    squares = [p * p for p in near]
    assert not any(is_certified_prime(squares))
    assert not empirical._strong_lucas_probable_primes(np.array(squares, dtype=np.uint64)).any()
    assert is_certified_prime(near) == [True] * len(near)


def test_lucas_kernel_is_selfridges_strong_lucas_test(monkeypatch):
    odd = list(range(3, 10**5, 2))
    want = [is_strong_lucas_prp(n) for n in odd]
    assert empirical._strong_lucas_probable_primes(np.array(odd, dtype=np.uint64)).tolist() == want
    pseudoprimes = [n for n, passes in zip(odd, want) if passes and not sympy.isprime(n)]
    assert pseudoprimes == _LUCAS_PSEUDOPRIMES
    monkeypatch.setattr(empirical, "_MR_BATCH_MIN", 1)
    assert not any(is_certified_prime(pseudoprimes))  # base 2 rejects them
    # ragged batches, lane by lane: every lane with D = 5 (Q = -1, m = +-2
    # mod 5), none, and both mixed; both kernels take odd lanes above 2
    ragged = _ragged_lanes()
    for lanes in ([v for v in ragged if v % 5 in (2, 3)], [v for v in ragged if v % 5 in (0, 1, 4)],
                  ragged):
        m = np.array(lanes, dtype=np.uint64)
        assert empirical._strong_probable_primes(m).tolist() == [
            is_strong_probable_prime(v, 2) for v in lanes]
        assert empirical._strong_lucas_probable_primes(m).tolist() == [
            is_strong_lucas_prp(v) for v in lanes]


def _bits_and_twos(e):
    """(bit length of d, s) for e = d * 2^s with d odd."""
    s = (e & -e).bit_length() - 1
    return (e >> s).bit_length(), s


def _selfridge_d(m):
    """Selfridge's D for odd m, or None where the Lucas test rejects m first."""
    if sympy.sqrt(m).is_integer:
        return None
    for a in itertools.count(5, 2):
        d = a if a % 4 == 1 else -a
        j = sympy.jacobi_symbol(d, m)
        if j == -1:
            return d
        if j == 0 and a != m:
            return None


def test_bpsw_kernels_square_each_lane_only_as_its_exponents_need(monkeypatch):
    """Lane-products of both kernels on a seeded batch, a count that does not
    depend on the machine: each lane's ladder has one rung per bit of its
    own d, closing squarings stop at its own s, and D = 5 lanes take no
    products by Q."""
    products = [0]
    real = empirical._Mont.mul

    def counted(self, a, b):
        products[0] += a.size
        return real(self, a, b)

    monkeypatch.setattr(empirical._Mont, "mul", counted)
    lanes = _ragged_lanes()[1:]  # odd lanes above 2
    m = np.array(lanes, dtype=np.uint64)
    empirical._strong_probable_primes(m)
    assert products[0] == sum(b + s - 1 for b, s in map(_bits_and_twos, (v - 1 for v in lanes)))
    products[0] = 0
    empirical._strong_lucas_probable_primes(m)
    want = 0
    for v in lanes:
        if (d := _selfridge_d(v)) is not None:
            b, s = _bits_and_twos(v + 1)
            want += (2 if d == 5 else 4) * b + 2 * (s - 1)
    assert products[0] == want


def test_lockstep_splits_divide_and_are_proper():
    rnd = random.Random(7)
    cases = []
    for _ in range(200):  # products of two primes above 1e6, below 2^63
        p = sympy.nextprime(rnd.randrange(10**6, 2 * 10**7))
        q = sympy.prevprime(rnd.randrange(10**6, (2**63 - 1) // p))
        cases.append((p * q, p, q))
    for _ in range(10):  # squares of primes above 2^29 split like any composite
        q = sympy.nextprime(rnd.randrange(2**29, 2**30 - 100))
        cases.append((q * q, q, q))
    values = [v for v, _, _ in cases]
    found, resume = empirical._brent_lanes(np.array(values, dtype=np.uint64))
    assert resume and len(resume) < empirical._BRENT_BATCH_MIN  # the slowest lanes are handed over
    for lane, (v, p, q) in enumerate(cases):
        d = found[lane] or empirical._brent_int(v, lane, resume.get(lane))
        assert d in (p, q), (v, d)
        # the lockstep lanes walk the scalar c = 1 sequence exactly
        assert d == empirical._brent_int(v, lane)
    assert all(d in (p, q) for d, (_, p, q) in zip(empirical._pollard_brent(values, values), cases))


def test_lockstep_whole_modulus_gcd_goes_scalar():
    # small semiprimes: both factors' cycles often close in the same gcd block
    odd = empirical._prime_array(200).tolist()[1:]
    values = sorted({p * q for p in odd for q in odd if p < q})
    found, resume = empirical._brent_lanes(np.array(values, dtype=np.uint64))
    whole = [v for lane, v in enumerate(values) if not found[lane] and lane not in resume]
    assert whole
    for v, d in zip(values, empirical._pollard_brent(values, values)):
        assert 1 < d < v and v % d == 0 and sympy.isprime(d) and sympy.isprime(v // d)


def test_inverse_mod_2_64_against_pow():
    # the sieve's exact low word and every Montgomery lane rest on it
    edge = [1, 3, 2**32 - 1, 2**32 + 1, 2**63 - 1, 2**63 + 1, 2**64 - 1]
    rnd = random.Random(27)
    values = edge + [rnd.getrandbits(64) | 1 for _ in range(10_000)]
    got = empirical._inverse_mod_2_64(np.array(values, dtype=np.uint64)).tolist()
    assert got == [pow(a, -1, 2**64) for a in values]


def test_lane_kernels_refuse_moduli_outside_their_range():
    # the lane add and REDC are exact only for odd moduli in (1, 2^63)
    prime = 2**63 + 29
    assert sympy.isprime(prime)
    for kernel in (empirical._brent_lanes, empirical._bpsw_lanes):
        with pytest.raises(DomainError, match="odd and in"):
            kernel(np.array([15, prime], dtype=np.uint64))
    with pytest.raises(DomainError, match="odd and in"):
        empirical._brent_lanes(np.array([15, 21, 22], dtype=np.uint64))


def test_pollard_brent_checks_every_divisor(monkeypatch):
    primes = empirical._prime_array(5000).tolist()[-300:]
    values = [p * q for p, q in zip(primes[::2], primes[1::2])]
    monkeypatch.setattr(empirical, "_brent_lanes", lambda m: ([3] * m.size, {}))
    with pytest.raises(FactorizationError):
        empirical._pollard_brent(values, values)


# ---------------------------------------------------------------------------
# nu and congruence roots
# ---------------------------------------------------------------------------

def test_nu_spec_values():
    assert nu(29) == 1  # 29 == 2 (mod 3): cubing is a bijection
    assert nu(7) == 0  # cubes mod 7 are {0, 1, 6}; -2 == 5 is not one
    assert nu(31) == 3  # -2 is a cubic residue mod 31
    assert nu(961) == 3  # 31^2: the three roots mod 31 lift
    assert nu(999999937) == count_cubic_roots(999999937)  # the largest prime below 1e9
    assert nu(10**9) == 0  # 2^9: no root mod 4


def test_nu_small_direct():
    for d in range(1, 200):
        assert nu(d) == nu_enumerate(d), d


def test_nu_prime_powers_against_enumeration():
    powers = (
        (2, 2), (2, 5), (3, 2), (3, 4), (5, 2), (5, 3), (5, 8), (7, 2), (7, 5),
        (11, 4), (13, 3), (29, 2), (29, 4), (31, 2), (31, 3), (43, 3), (109, 2),
        (127, 3), (997, 2),
    )
    # nu(p) is 3 for 31, 43, 109, 127 and 997, 0 for 7 and 13, and 1 for the
    # other primes from 5 on
    assert {nu(p) for p, _ in powers if p > 3} == {0, 1, 3}
    for p, e in powers:
        assert nu(p**e) == nu_enumerate(p**e), (p, e)
    # the singular primes die at the second power
    assert nu(4) == 0
    assert nu(9) == 0
    assert nu(8) == 0


def test_nu_multiplicative_on_random_coprime_pairs():
    rnd = random.Random(99)
    done = 0
    while done < 500:
        d1 = rnd.randrange(2, 1000)
        d2 = rnd.randrange(2, 1000)
        if math.gcd(d1, d2) != 1 or d1 * d2 > 10**6:
            continue
        got = nu(d1 * d2)
        assert got == nu(d1) * nu(d2)
        assert got == nu_enumerate(d1 * d2)
        done += 1


def test_nu_validation():
    with pytest.raises(DomainError):
        nu(0)
    with pytest.raises(DomainError):
        nu(10**9 + 1)
    with pytest.raises(DomainError):
        nu(2.0)
    with pytest.raises(DomainError):
        nu_from_factors({10: 1})
    # every entry is checked, also after a prime with nu(p) = 0, in either order
    for factors in ({7: 1, 4: 1}, {4: 1, 7: 1}):
        with pytest.raises(DomainError, match="4 is not prime"):
            nu_from_factors(factors)
    for factors in ({7: 1, 11: "x"}, {7: 1, 5: 0}):
        with pytest.raises(DomainError, match="exponent"):
            nu_from_factors(factors)
    for e in (0, -1, 1.5):  # a prime power needs a positive integer exponent
        with pytest.raises(DomainError, match="exponent"):
            nu_from_factors({7: e})
    for bad in (31.0, "31"):
        with pytest.raises(DomainError, match="integer"):
            count_cubic_roots(bad)
        with pytest.raises(DomainError, match="integer"):
            nu_from_factors({bad: 1})
    # a str is no sequence of values, and each value of a sequence is checked:
    # 7.9 on lanes would be cast to the prime 7
    for bad in (2.5, 31.0, "31", b"31", [7.9] * 400, [9.5], [31, np.float64(31.0)]):
        with pytest.raises(DomainError, match="integer"):
            is_certified_prime(bad)


def test_nu_takes_numpy_integers_as_ints():
    # three-argument pow refuses numpy scalars, such as a prime read from a table
    for t in (np.int64, np.uint64):
        assert count_cubic_roots(t(31)) == count_cubic_roots(31) == 3
        assert count_cubic_roots(t(29)) == 1
        assert nu_from_factors({t(31): 2}) == nu_from_factors({t(31): t(2)}) == nu(31**2) == 3
        assert nu(t(31 * 29)) == 3
        values = (31, 2**40 + 15, 2**40 + 17, 2**61 - 1, (2**31 - 1) * (2**31 + 11))
        want = [sympy.isprime(v) for v in values]
        assert [is_certified_prime(t(v)) for v in values] == want, t
        # in a sequence: one at a time, and on lanes once there are enough
        assert is_certified_prime([t(v) for v in values]) == want, t
        assert is_certified_prime([t(v) for v in values] * 100) == want * 100, t
    big = [2**64 - 59, 2**64 - 57]  # above 2^63, where values stay on Python ints
    assert is_certified_prime([np.uint64(v) for v in big]) == [sympy.isprime(v) for v in big]


def test_nu_from_factors_matches_direct():
    assert nu_from_factors({31: 1, 29: 2}) == nu(31 * 29 * 29)
    assert nu_from_factors({2: 1, 3: 1, 11: 1}) == nu(66)
    assert nu_from_factors({}) == nu(1) == 1


def _sympy_roots(m):
    """The roots of n^3 + 2 == 0 (mod m), ascending, by sympy."""
    return sorted(sympy.ntheory.residue_ntheory.nthroot_mod(-2 % m, 3, m, all_roots=True))


def test_nu_from_factors_above_the_lane_range():
    # primes above 2^32 take the scalar cubic character, which the lanes
    # refuse; sympy counts the roots independently
    primes = [sympy.nextprime(2**40 + k * 10**6) for k in range(40)]
    want = [len(_sympy_roots(p)) for p in primes]
    want2 = [len(_sympy_roots(p**2)) for p in primes]
    assert set(want) == {0, 1, 3}
    assert [nu_from_factors({p: 1}) for p in primes] == want
    assert [nu_from_factors({p: 2}) for p in primes] == want2
    for j in range(len(primes) - 1):
        assert nu_from_factors({primes[j]: 2, primes[j + 1]: 1, 31: 1}) == want2[j] * want[j + 1] * 3


def test_cube_roots_match_enumeration_everywhere(roots_enum_1e5):
    # the scalar cubic character and the lanes against direct enumeration for
    # every prime to 1e5
    for p, want in roots_enum_1e5.items():
        assert count_cubic_roots(p) == len(want), p
    primes = np.array(sorted(roots_enum_1e5), dtype=np.uint64)
    assert count_cubic_roots(primes).tolist() == [len(roots_enum_1e5[p]) for p in primes.tolist()]


def test_lane_cubic_root_counts_match_the_scalar_character():
    # Gauss's criterion on arrays against the scalar Euler criterion
    # (p-2)^((p-1)/3) on every prime to 2e6
    primes = empirical._prime_array(2 * 10**6).tolist()
    lanes = count_cubic_roots(np.array(primes, dtype=np.uint64)).tolist()
    assert lanes == [count_cubic_roots(p) for p in primes]


def test_lane_cubic_root_counts_of_edge_arrays():
    # a largest prime that is x^2 + 27y^2 (31 = 2^2 + 27, 43 = 4^2 + 27) marks
    # the last cell of its table; 7 and 13 are 1 mod 3 and not of the form
    for primes, want in (([31], [3]), ([43], [3]), ([7], [0]), ([13], [0]),
                         ([2], [1]), ([3], [1]), ([], []), ([2, 3, 5, 7, 31], [1, 1, 1, 0, 3])):
        got = count_cubic_roots(np.array(primes, dtype=np.uint64))
        assert got.tolist() == want == [count_cubic_roots(p) for p in primes], primes
    # only uint64 lanes: a negative int64 lane would index the table from its end
    for bad in (np.array([-5, 31]), np.array([31], dtype=np.int32), np.array([31.0])):
        with pytest.raises(DomainError, match="uint64"):
            count_cubic_roots(bad)


def test_lane_cubic_root_counts_match_scalar_near_the_caps():
    # near the 1e8 cap of the prime sums, which the lanes share; a prime
    # above it raises, up to 2^32 as well
    rng = random.Random(20141201)
    primes = sorted(p for p in rng.sample(range(10**8 - 10**6, 10**8), 4000) if sympy.isprime(p))
    primes.append(99_999_989)  # the largest prime below 1e8
    assert len(primes) > 150
    lanes = count_cubic_roots(np.array(primes, dtype=np.uint64)).tolist()
    assert lanes == [count_cubic_roots(p) for p in primes]
    assert set(lanes) == {0, 1, 3}
    for above in (100_000_007, 4_294_967_291):  # the next prime, and the largest below 2^32
        with pytest.raises(DomainError, match="capped at 1e8"):
            count_cubic_roots(np.array([5, above], dtype=np.uint64))


def _flat(table):
    return list(zip(table.p.tolist(), table.r.tolist()))


def test_root_table_matches_enumeration(roots_enum_1e5):
    table = build_root_table(10**5)
    assert table.p.dtype == table.r.dtype == np.uint64
    assert _flat(table) == [(p, r) for p, roots in roots_enum_1e5.items() for r in roots]


def test_root_table_matches_enumeration_for_small_limits():
    for limit in range(301):
        table = build_root_table(limit)
        assert table.limit == limit
        primes = empirical._prime_array(limit).tolist()
        want = [(p, r) for p in primes for r in cubic_roots_enumerate(p)]
        assert _flat(table) == want, limit


def test_lane_roots_match_sympy_where_the_sylow_subgroup_is_deepest():
    # below 1e7, v_3(p-1) reaches 12 (3^12 = 531441): the digit loop then
    # runs twelve rounds on a few lanes and one on most
    primes = empirical._prime_array(10**7)
    deep = primes[(primes - 1) % 3**10 == 0].tolist()
    assert {8_503_057, 5_314_411} <= set(deep)
    rng = random.Random(20141202)
    near_cap = rng.sample(primes[primes > 10**7 - 10**5].tolist(), 1500)
    lanes = np.array(sorted(deep + near_cap), dtype=np.uint64)
    p, r = empirical._lane_roots(lanes)
    want = [(q, x) for q in lanes.tolist() for x in _sympy_roots(q)]
    assert list(zip(p.tolist(), r.tolist())) == want
    # every lane's root is checked: 9 is no prime, and 7^5 mod 9 no root
    with pytest.raises(DomainError, match="p=9"):
        empirical._lane_roots(np.array([2, 3, 9], dtype=np.uint64))


# ---------------------------------------------------------------------------
# factor_range / empirical_T
# ---------------------------------------------------------------------------

def test_factor_examples():
    job = RangeJob(x_min=0, x_max=4, threshold=2, h=0)
    profiles = {p.n: p for p in factor_range(job)}
    assert profiles[1].factors == ((3, 1),)
    assert profiles[1].omega_above(2) == 1
    assert profiles[3].factors == ((29, 1),)
    assert profiles[3].omega_above(2) == 1
    assert profiles[4].factors == ((2, 1), (3, 1), (11, 1))
    assert profiles[4].omega_above(3) == 2


def test_profiles_match_trial_division():
    job = RangeJob(x_min=0, x_max=300, threshold=2, h=0)
    for prof in factor_range(job):
        assert dict(prof.factors) == trial_factor(prof.n**3 + 2)


def test_empirical_T_hand_range():
    # (10, 20] with threshold 2 and h = 3: only n = 12 (2*5*173) and
    # n = 16 (2*3*683) have three prime factors
    job = RangeJob(x_min=10, x_max=20, threshold=2, h=3)
    assert empirical_T(job) == 2
    oracle = sum(
        1 for n in range(11, 21) if sum(trial_factor(n**3 + 2).values()) >= 3
    )
    assert oracle == 2


def test_empirical_T_h_zero_counts_everything():
    job = RangeJob(x_min=50, x_max=120, threshold=2, h=0)
    assert empirical_T(job) == 70


def test_empirical_T_huge_threshold():
    job = RangeJob(x_min=10, x_max=40, threshold=41**3 + 3, h=1)
    assert empirical_T(job) == 0


def test_empirical_T_monotone_in_h_and_threshold():
    table = build_root_table(300)
    counts_h = [
        empirical_T(RangeJob(100, 300, threshold=2, h=h), table) for h in range(6)
    ]
    assert counts_h == sorted(counts_h, reverse=True)
    counts_t = [
        empirical_T(RangeJob(100, 300, threshold=t, h=2), table)
        for t in (2, 11, 101, 10007)
    ]
    assert counts_t == sorted(counts_t, reverse=True)


def test_counting_path_matches_profile_path(exact_factors):
    # both paths read the one sieve, so each is held to sympy's factorisations
    table = build_root_table(3000)
    for threshold, h in ((2, 4), (50, 3), (2900, 2), (3200, 1)):
        job = RangeJob(x_min=2000, x_max=3000, threshold=threshold, h=h)
        want = sum(
            1 for f in exact_factors[2000, 3000].values()
            if sum(e for p, e in f.items() if p >= threshold) >= h
        )
        via_profiles = sum(
            1 for p in factor_range(job, table) if p.omega_above(threshold) >= h
        )
        assert empirical_T(job, table) == via_profiles == want, (threshold, h)


# exact factorisations of n^3+2 over two windows: trial division on the
# small one, sympy on the larger one; neither reads the sieve under test
_WINDOWS = {(0, 300): trial_factor, (2000, 3000): sympy.factorint}


@pytest.fixture(scope="module")
def exact_factors():
    return {
        (x_min, x_max): {n: dict(oracle(n**3 + 2)) for n in range(x_min + 1, x_max + 1)}
        for (x_min, x_max), oracle in _WINDOWS.items()
    }


def _sieved_view(factors, limit, threshold):
    """What sieving with primes up to limit leaves of one exact factorisation:
    (prime factors >= threshold among the stripped ones, residual, number of
    prime factors of the residual), counted with multiplicity."""
    om = sum(e for p, e in factors.items() if threshold <= p <= limit)
    residual = math.prod(p**e for p, e in factors.items() if p > limit)
    return om, residual, sum(e for p, e in factors.items() if p > limit)


_TABLE_CASES = [
    pytest.param(window, limit, id=f"{window[0]}-{window[1]}-limit{limit}")
    for window in _WINDOWS
    for limit in (window[1], 3 * window[1])  # exactly x_max, and oversized
]


@pytest.mark.parametrize("window, limit", _TABLE_CASES)
def test_counting_decision_matches_exact_factorisation(exact_factors, window, limit):
    factors = exact_factors[window]
    table = build_root_table(limit)
    assert table.limit == limit
    for threshold in (2, 32, limit + 1, limit + 2):
        for h in range(8):
            job = RangeJob(x_min=window[0], x_max=window[1], threshold=threshold, h=h)
            want = sum(
                1 for f in factors.values()
                if sum(e for p, e in f.items() if p >= threshold) >= h
            )
            assert empirical_T(job, table) == want, (threshold, h)
    # the one case that needs a primality test occurs: a residual with two
    # prime factors (its sieved count om then needs h = om + 2 <= 7)
    composite = [
        om for om, _, big in (_sieved_view(f, limit, 32) for f in factors.values())
        if big == 2
    ]
    assert composite and min(composite) <= 5


@pytest.mark.parametrize("window, limit", _TABLE_CASES)
def test_primality_tested_only_when_it_decides(exact_factors, window, limit, monkeypatch):
    table = build_root_table(limit)
    tested = []
    real = empirical.is_certified_prime
    monkeypatch.setattr(empirical, "is_certified_prime", lambda ms: tested.extend(ms) or real(ms))
    reached = False
    for threshold in (2, 32, limit + 1, limit + 2):
        cover = max(limit, threshold - 1)  # the count's table reaches threshold - 1
        views = [_sieved_view(f, cover, threshold) for f in exact_factors[window].values()]
        for h in range(8):
            tested.clear()
            empirical_T(RangeJob(window[0], window[1], threshold=threshold, h=h), table)
            allowed = {m for om, m, _ in views if om == h - 2}
            assert set(tested) <= allowed, (threshold, h)
            assert all(m > cover * cover for m in tested)  # smaller ones are prime
            reached = reached or bool(tested)
    assert reached


_N63 = 2**21  # n^3 + 2 crosses 2^63 here, where the lanes give way to Python ints


@pytest.fixture(scope="module")
def window_across_2_63():
    table = build_root_table(_N63 + 150)
    return table, {n: sympy.factorint(n**3 + 2) for n in range(_N63 - 149, _N63 + 151)}


@pytest.mark.parametrize("batch_min", [None, 8])
def test_factor_range_and_count_across_2_63(window_across_2_63, batch_min, monkeypatch):
    # batch_min 8 tests this window's lanes below 2^63 by BPSW and walks them
    # in lockstep; None sets both minimums above the window's 300 values, so
    # they are tested on Python ints and the lockstep walk hands them to the
    # scalar one at once
    monkeypatch.setattr(empirical, "_MR_BATCH_MIN", batch_min or 301)
    monkeypatch.setattr(empirical, "_BRENT_BATCH_MIN", batch_min or 301)
    # the batch layers are called only with something to classify
    sizes = {"is_certified_prime": [], "_pollard_brent": []}
    for name, seen in sizes.items():
        real = getattr(empirical, name)
        monkeypatch.setattr(empirical, name,
                            lambda values, *rest, f=real, s=seen: s.append(len(values))
                            or f(values, *rest))
    table, factors = window_across_2_63
    job = RangeJob(_N63 - 150, _N63 + 150, threshold=2, h=0)
    assert {p.n: dict(p.factors) for p in factor_range(job, table)} == factors
    for threshold in (2, table.limit + 1, table.limit + 2):
        for h in (2, 3, 4):
            want = sum(
                1 for f in factors.values() if sum(e for p, e in f.items() if p >= threshold) >= h
            )
            got = empirical_T(RangeJob(_N63 - 150, _N63 + 150, threshold=threshold, h=h), table)
            assert got == want, (threshold, h)
    assert all(seen and min(seen) > 0 for seen in sizes.values()), sizes


def test_count_never_factors(exact_factors, window_across_2_63, monkeypatch):
    # the count's table reaches threshold - 1, whatever table it is given, so
    # every residual factor counts and no residual is split
    def refuse(*_):
        raise AssertionError("the count split a residual")

    monkeypatch.setattr(empirical, "_cofactor_primes", refuse)
    monkeypatch.setattr(empirical, "_pollard_brent", refuse)
    table63 = window_across_2_63[0]
    window = (2000, 3000, build_root_table(3000), exact_factors[2000, 3000])
    small = (100, 300, build_root_table(300),
             {n: sympy.factorint(n**3 + 2) for n in range(101, 301)})
    cases = [(*window, t, range(8)) for t in (2, 32, 3001, 3002)]
    cases += [(*window, 3200, [1]), (*small, 10007, [2])]
    cases += [(_N63 - 150, _N63 + 150, *window_across_2_63, t, (2, 3, 4))
              for t in (2, table63.limit + 1, table63.limit + 2)]
    for x_min, x_max, table, factors, threshold, hs in cases:
        for h in hs:
            want = sum(
                1 for f in factors.values() if sum(e for p, e in f.items() if p >= threshold) >= h
            )
            got = empirical_T(RangeJob(x_min, x_max, threshold=threshold, h=h), table)
            assert got == want, (x_min, threshold, h)


def test_segment_independence(monkeypatch):
    # sizes 1 and 2 put a root's one hit in a segment, or on its last value
    table = build_root_table(2000)
    sizes = (1, 2, 97, 256, 1001, 1 << 16)
    runs = []
    for seg in sizes:
        monkeypatch.setattr(empirical, "_SEGMENT", seg)
        runs.append(list(factor_range(RangeJob(x_min=1000, x_max=2000, threshold=2, h=0), table)))
    assert all(run == runs[0] for run in runs)
    for threshold in (2, 32, table.limit + 2):  # the last needs a larger table
        for h in range(6):
            want = sum(1 for prof in runs[0] if prof.omega_above(threshold) >= h)
            for seg in sizes:
                monkeypatch.setattr(empirical, "_SEGMENT", seg)
                job = RangeJob(1000, 2000, threshold=threshold, h=h)
                assert empirical_T(job, table) == want, (threshold, h, seg)


# windows that reach every branch of the sieve: 5^e with e >= 3 and p^2
# with p >= 32 below 300, and just below MAX_RANGE_TOP residuals of 2^64
# and above, among them 9999897^3 + 2 = 5^2 * q, whose second division by 5
# is tested against the residual's high word (sympy takes about 12 ms a
# value there, so the window is 150 values wide)
_SIEVE_WINDOWS = ((0, 300), (MAX_RANGE_TOP - 150, MAX_RANGE_TOP))


@pytest.fixture(scope="module")
def sieve_windows():
    return {
        (x_min, x_max): (
            build_root_table(x_max),
            {n: sympy.factorint(n**3 + 2) for n in range(x_min + 1, x_max + 1)},
        )
        for x_min, x_max in _SIEVE_WINDOWS
    }


def test_sieve_windows_reach_every_branch(sieve_windows):
    (_, small), (table, top) = sieve_windows.values()
    assert any(f.get(5, 0) >= 3 for f in small.values())
    assert any(p >= 32 and e >= 2 for f in small.values() for p, e in f.items())

    def first_pass(n, f):  # the residual once each hit prime is divided out once
        return (n**3 + 2) // math.prod(p for p in f if p <= table.limit)

    wide = [n for n, f in top.items() if first_pass(n, f) >= 2**64]
    assert len(wide) > 10
    assert any(e >= 2 for n in wide for p, e in top[n].items() if p <= table.limit)
    # residuals still 2^64 or more after the sieve go to Python-int tests
    assert any(math.prod(p**e for p, e in f.items() if p > table.limit) >= 2**64
               for f in top.values())


def _sieved(job, table):
    """{n: (divisions, residual)} for each n of job, read off the sieve."""
    out = {}
    for lo, hi, m, k, at, by in empirical._sieved_segments(job, table):
        divisions = [{} for _ in range(lo, hi + 1)]
        for i, p in zip(at.tolist(), by.tolist()):
            divisions[i][p] = divisions[i].get(p, 0) + 1
        for i, d in enumerate(divisions):
            out[lo + i] = (d, int(m[i]) + (int(k[i]) << 64))
    return out


@pytest.mark.parametrize("segment_size", [1, 2, 97, 1 << 16])
def test_sieve_matches_sympy_at_every_segment_size(sieve_windows, segment_size, monkeypatch):
    monkeypatch.setattr(empirical, "_SEGMENT", segment_size)
    for (x_min, x_max), (table, factors) in sieve_windows.items():
        job = RangeJob(x_min, x_max, threshold=2, h=0)
        assert _sieved(job, table) == {
            n: ({p: e for p, e in f.items() if p <= table.limit},
                math.prod(p**e for p, e in f.items() if p > table.limit))
            for n, f in factors.items()
        }
        # the profile path adds Pollard-Brent, about 0.4 s on the top window's
        # semiprimes of two 11-12 digit primes whatever the segment size: it
        # runs at every size on the small window and at the default on the top
        if x_max < 10**4 or segment_size == 1 << 16:
            assert {p.n: dict(p.factors) for p in factor_range(job, table)} == factors
        cases = [(2, 3)]
        if x_max < 10**4:  # above the table the count builds a larger one: small window only
            cases += [(32, 2), (table.limit + 2, 1)]
        for threshold, h in cases:
            want = sum(
                1 for f in factors.values() if sum(e for p, e in f.items() if p >= threshold) >= h
            )
            job = RangeJob(x_min, x_max, threshold, h)
            assert empirical_T(job, table) == want, (x_min, threshold, h)


class _SameDtypeAt:
    """A numpy ufunc whose .at asserts that target and operand share a dtype."""

    def __init__(self, ufunc, calls):
        self.ufunc, self.calls = ufunc, calls

    def at(self, a, indices, b):
        assert a.dtype == b.dtype, (self.ufunc.__name__, str(a.dtype), str(b.dtype))
        self.calls.append(self.ufunc.__name__)
        self.ufunc.at(a, indices, b)


def test_sieve_ufunc_at_stays_on_one_dtype(monkeypatch):
    # numpy runs the fast loop of ufunc.at only on operands of one dtype, so
    # the estimate divides by float64 primes: exact, as every table prime is
    # at most MAX_RANGE_TOP < 2^53
    assert MAX_RANGE_TOP < 2**53
    table = build_root_table(300)
    job = RangeJob(0, 300, threshold=2, h=0)
    want = list(empirical._sieved_segments(job, table))
    calls = []

    class checked_numpy:
        divide = _SameDtypeAt(np.divide, calls)
        multiply = _SameDtypeAt(np.multiply, calls)

        def __getattr__(self, name):
            return getattr(np, name)

    monkeypatch.setattr(empirical, "np", checked_numpy())
    got = list(empirical._sieved_segments(job, table))
    monkeypatch.undo()
    # the first pass and at least one prime-power round, 5^3 among them
    assert calls.count("divide") >= 3 and calls.count("multiply") == calls.count("divide")
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a[:2] == b[:2]
        for x, y in zip(a[2:], b[2:]):
            assert x.dtype == y.dtype and np.array_equal(x, y)


def test_sieve_rejects_a_residual_off_its_estimate():
    # the root of 11 moved by one: its hits do not divide their values, and
    # the residual's low word then disagrees with the float estimate
    table = build_root_table(1000)
    r = table.r.copy()
    r[table.p == 11] = (r[table.p == 11] + 1) % 11
    bad = RootTable(table.limit, table.p, r)
    for run in (lambda job: empirical_T(job, bad), lambda job: list(factor_range(job, bad))):
        with pytest.raises(FactorizationError, match="estimate"):
            run(RangeJob(x_min=0, x_max=1000, threshold=2, h=1))


def test_oversized_table_is_fine_and_equal():
    # stripping more primes than x_max must not change the profiles
    small = build_root_table(500)
    big = build_root_table(5000)
    job = RangeJob(x_min=300, x_max=500, threshold=2, h=0)
    assert list(factor_range(job, small)) == list(factor_range(job, big))


def test_short_table_rejected():
    table = build_root_table(100)
    with pytest.raises(DomainError):
        list(factor_range(RangeJob(x_min=100, x_max=400, threshold=2, h=0), table))


def test_square_residual_is_split_into_its_prime():
    # 46156^3 + 2 = 2 * 3 * 1307 * 111977^2: with primes to 1e5 stripped the
    # residual is the square of a prime above the table limit
    table = build_root_table(10**5)
    job = RangeJob(x_min=46100, x_max=46200, threshold=2, h=0)
    factors = {p.n: dict(p.factors) for p in factor_range(job, table)}
    assert factors[46156] == {2: 1, 3: 1, 1307: 1, 111977: 2}
    assert factors[46156] == sympy.factorint(46156**3 + 2)


def test_cofactor_with_three_primes_above_the_limit_is_rejected():
    # the sieve leaves at most two prime factors above limit >= n; a cofactor
    # with three must not be split further as if it could occur
    limit = 1000
    p, q, r = 1009, 1013, 1019
    assert sorted(empirical._cofactor_primes([p * q], [999], limit)) == [(0, p), (0, q)]
    with pytest.raises(FactorizationError, match="n=999"):
        empirical._cofactor_primes([17, p * q * r], [998, 999], limit)


def test_range_job_validation():
    with pytest.raises(DomainError):
        RangeJob(x_min=10, x_max=10, threshold=2, h=0)
    with pytest.raises(DomainError):
        RangeJob(x_min=0, x_max=10**7 + 1, threshold=2, h=0)
    with pytest.raises(DomainError):
        RangeJob(x_min=0, x_max=10, threshold=1, h=0)
    # a larger threshold would need primes past the table's cap
    with pytest.raises(DomainError, match=f"threshold <= {MAX_RANGE_TOP + 1}"):
        RangeJob(x_min=0, x_max=10, threshold=MAX_RANGE_TOP + 2, h=0)
    assert RangeJob(0, 10, threshold=MAX_RANGE_TOP + 1, h=0).count_limit == MAX_RANGE_TOP
    with pytest.raises(DomainError):
        RangeJob(x_min=0, x_max=10, threshold=2, h=-1)
    for bad in ({"x_max": 100.0}, {"h": 3.0}):
        with pytest.raises(DomainError, match="integer"):
            RangeJob(**{"x_min": 0, "x_max": 100, "threshold": 2, "h": 3, **bad})
    job = RangeJob(np.int64(0), np.uint64(100), np.int32(2), np.int64(3))
    assert job == RangeJob(0, 100, 2, 3) and type(job.x_max) is int


def test_progress_callback(monkeypatch):
    monkeypatch.setattr(empirical, "_SEGMENT", 30)
    seen = []
    empirical_T(RangeJob(x_min=0, x_max=100, threshold=2, h=0),
                progress=lambda lo, hi: seen.append((lo, hi)))
    assert seen == [(1, 30), (31, 60), (61, 90), (91, 100)]


# ---------------------------------------------------------------------------
# root-table cache
# ---------------------------------------------------------------------------

def test_root_table_cache_roundtrip(tmp_path):
    table = build_root_table(10_000)
    path = tmp_path / "roots.bin"
    save_root_table(str(path), table)
    loaded = load_root_table(str(path))
    assert loaded == table
    assert loaded != build_root_table(10_001)  # the same primes, another limit
    assert loaded != RootTable(table.limit, table.p, table.r ^ np.uint64(1))
    # a 16-byte header (magic, version 2, limit), then one word per root
    raw = path.read_bytes()
    assert raw[:4] == b"CRT1"
    assert int.from_bytes(raw[4:8], "little") == 2
    assert int.from_bytes(raw[8:16], "little") == 10_000
    assert len(raw) == 16 + 8 * table.r.size


def _enumerated_roots(limit):
    return {p: cubic_roots_enumerate(p) for p in empirical._prime_array(limit).tolist()}


def test_saved_cache_matches_the_reference_writer(tmp_path, roots_enum_1e5):
    want, got = tmp_path / "want.bin", tmp_path / "got.bin"
    for limit in [*range(301), 10**4, 10**5 + 3]:
        roots = {
            p: roots_enum_1e5[p] if p in roots_enum_1e5 else cubic_roots_enumerate(p)
            for p in empirical._prime_array(limit).tolist()
        }
        write_root_cache(want, limit, roots)
        table = build_root_table(limit)
        save_root_table(str(got), table)
        assert got.read_bytes() == want.read_bytes(), limit
        assert load_root_table(str(want)) == table


def _reload(tmp_path, limit, roots, version=2):
    path = tmp_path / "roots.bin"
    write_root_cache(path, limit, roots, version)
    return load_root_table(str(path))


def test_root_table_cache_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(DomainError):
        load_root_table(str(path))
    good = tmp_path / "good.bin"
    write_root_cache(good, 100, _enumerated_roots(100))
    truncated = tmp_path / "trunc.bin"
    truncated.write_bytes(good.read_bytes()[:-5])
    with pytest.raises(DomainError):
        load_root_table(str(truncated))


def test_root_table_cache_rejects_a_cut_between_entries(tmp_path):
    # an entry is one root word: the file ends a whole word short
    path = tmp_path / "roots.bin"
    write_root_cache(path, 100, _enumerated_roots(100))
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(DomainError):
        load_root_table(str(path))


def test_root_table_cache_rejects_version_1(tmp_path):
    # the earlier format, roots and all: rebuilt once, never read as roots
    with pytest.raises(DomainError, match="version 1"):
        _reload(tmp_path, 100, _enumerated_roots(100), version=1)


@pytest.mark.parametrize("p", [5, 1021])
def test_root_table_cache_rejects_a_missing_prime(tmp_path, p):
    # without p = 5 every n == 2 (mod 5) keeps 5 in its residual, and
    # factor_range reports composite "prime" factors such as 25; padded to
    # the right length, the next primes' roots shift onto p and fail there
    roots = _enumerated_roots(2000)
    gone = roots.pop(p)
    roots[2001] = (0,) * len(gone)  # sorts last: the padding words
    with pytest.raises(DomainError, match=f"p={p}"):
        _reload(tmp_path, 2000, roots)


def test_root_table_cache_rejects_a_dropped_root(tmp_path):
    roots = _enumerated_roots(2000)
    p = min(q for q, rs in roots.items() if len(rs) == 3)
    roots[p] = roots[p][:2]
    with pytest.raises(DomainError, match="bytes"):
        _reload(tmp_path, 2000, roots)
    roots[2001] = (0,)  # padded to the right length: the next root shifts onto p
    with pytest.raises(DomainError, match=f"p={p}"):
        _reload(tmp_path, 2000, roots)


def test_root_table_cache_rejects_a_repeated_root(tmp_path):
    roots = _enumerated_roots(2000)
    p = max(q for q, rs in roots.items() if len(rs) == 3)
    r0, r1, _ = roots[p]
    roots[p] = (r0, r1, r1)  # three valid roots, so only their order tells
    with pytest.raises(DomainError, match=f"p={p}"):
        _reload(tmp_path, 2000, roots)


def test_root_table_cache_rejects_a_limit_beyond_the_range_cap(tmp_path):
    with pytest.raises(DomainError, match="above"):
        _reload(tmp_path, 2**40, {})


def test_corrupted_cache_loads_exactly_or_raises(tmp_path):
    # a file that loads is the built table of its header's limit: a changed
    # root word or a cut never loads, and a changed limit (bytes 8-15) loads
    # only as the table of the new limit, such as 301 with the same roots
    table = build_root_table(300)
    path = tmp_path / "roots.bin"
    save_root_table(str(path), table)
    raw = path.read_bytes()
    for n in range(len(raw)):
        path.write_bytes(raw[:n])
        with pytest.raises(DomainError):
            load_root_table(str(path))
    path.write_bytes(raw[:8] + (301).to_bytes(8, "little") + raw[16:])
    assert load_root_table(str(path)) == build_root_table(301)
    rng = random.Random(20141203)
    for _ in range(2000):
        at = rng.randrange(len(raw))
        bad = bytearray(raw)
        bad[at] ^= rng.randrange(1, 256)
        path.write_bytes(bad)
        try:
            loaded = load_root_table(str(path))
        except DomainError:
            continue
        assert 8 <= at < 16 and loaded == build_root_table(loaded.limit), at


def test_failed_save_keeps_the_old_cache(tmp_path):
    path = tmp_path / "roots.bin"
    save_root_table(str(path), build_root_table(100))
    before = path.read_bytes()
    p, r = np.array([2, 4], dtype=np.uint64), np.array([0, 2], dtype=np.uint64)  # 4 is no prime
    with pytest.raises(DomainError, match="not the primes"):
        save_root_table(str(path), RootTable(200, p, r))
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["roots.bin"]


# ---------------------------------------------------------------------------
# prime-sum estimate
# ---------------------------------------------------------------------------

def test_mertens_single_prime(mertens_oracle):
    [(x, dev)] = mertens_check(2)
    assert x == 2
    assert dev == pytest.approx(math.log(2) / 2 - math.log(2), abs=1e-12)
    # the first two primes against the oracle, within their stated bounds
    for x in (2, 3):
        assert _off_by(*prime_sums(x)[:2], mertens_oracle) == []


def _off_by(rows, bounds, want):
    """The checkpoints whose deviation misses want[checkpoint] by more than
    its stated bound."""
    return [x for (x, dev), b in zip(rows, bounds) if abs(mpmath.mpf(dev) - want[x]) > b]


@pytest.mark.parametrize("x", [821_640, 821_641, 821_647])
def test_mertens_matches_the_prime_loop_across_a_block(x, mertens_oracle):
    # 821,641 is the 65,536th prime, the last of a block
    assert 65_536 % empirical._PRIME_BLOCK == 0
    assert empirical._prime_array(x).tolist()[65_535:65_536] == ([821_641] if x >= 821_641 else [])
    rows, bounds, _ = prime_sums(x)
    assert rows == mertens_check(x)
    assert [c for c, _ in rows] == [10, 100, 1000, 10**4, 10**5, x]
    assert _off_by(rows, bounds, mertens_oracle) == []


PINNED_MERTENS_1E7 = [
    (10, -1.26791982400455),
    (100, -1.858458852049882),
    (1000, -1.8909159317182729),
    (10000, -1.9326471175760753),
    (100000, -1.9619267509896954),
    (1000000, -1.9603574456234423),
    (10000000, -1.961435780812483),
]


def test_mertens_pinned_deviations_1e7(mertens_oracle):
    # each pin lies within the stated bound of the deviation, and up to 1e6
    # within it of the 30-digit oracle too
    rows, bounds, _ = prime_sums(10**7)
    assert [x for x, _ in rows] == [x for x, _ in PINNED_MERTENS_1E7]
    assert 0 < min(bounds) and max(bounds) <= 1e-10
    assert _off_by(PINNED_MERTENS_1E7, bounds, {x: mpmath.mpf(dev) for x, dev in rows}) == []
    assert _off_by(PINNED_MERTENS_1E7[:-1], bounds, mertens_oracle) == []


def test_mertens_oracle_check_fails_a_deviation_moved_by_twice_its_bound(mertens_oracle):
    rows, bounds, _ = prime_sums(10**6)
    assert _off_by(rows, bounds, mertens_oracle) == []
    moved = [(x, dev + 2 * b) for (x, dev), b in zip(rows, bounds)]
    assert _off_by(moved, bounds, mertens_oracle) == [10, 100, 1000, 10**4, 10**5, 10**6]


def _segmented_primes(limit: int, size: int = 1 << 22):
    """The primes up to limit as int64 arrays, one sieve segment at a time."""
    base = empirical._prime_array(math.isqrt(limit)).tolist()
    for lo in range(0, limit + 1, size):
        hi = min(lo + size, limit + 1)
        flags = np.ones(hi - lo, dtype=bool)
        flags[: max(0, 2 - lo)] = False
        for p in base:
            flags[max(p * p, -(-lo // p) * p) - lo :: p] = False
        yield lo + np.flatnonzero(flags)


def test_numpy_log_is_within_the_assumed_ulps():
    """The prime sums' bound assumes numpy's and libm's float64 log within
    _LOG_ULPS ulps, numpy's own tolerance for float64 log (the ulperrortol
    column of numpy/_core/tests/data/umath-validation-set-log.csv is 1 on
    every float64 row). numpy picks its SIMD loop for the CPU it runs on, so
    this checks the loop in use: every prime up to 1e8 against math.log, and
    a sample against mpmath at 120 bits."""
    ulps = empirical._LOG_ULPS
    sample = [10**j for j in range(1, 9)]  # the default checkpoints
    for primes in _segmented_primes(10**8):
        logs = np.fromiter(map(math.log, primes.tolist()), np.float64, primes.size)
        assert np.all(np.abs(np.log(primes.astype(np.float64)) - logs) <= ulps * np.spacing(logs))
        if primes[0] == 2:
            sample += primes[primes <= 20_000].tolist()
    sample += primes[-1000:].tolist()
    with mpmath.workprec(120):
        for v in sample:
            exact = mpmath.log(v)
            for got in (float(np.log(np.float64(v))), math.log(v)):
                assert abs(got - exact) <= ulps * math.ulp(float(exact)), v


def test_mean_nu_matches_the_prime_loop():
    for limit in (2, 3, 10, 10**5):
        primes = empirical._prime_array(limit).tolist()
        assert prime_sums(limit).mean_nu == sum(map(count_cubic_roots, primes)) / len(primes)
    # mertens_check is the deviations of the same one pass
    assert prime_sums(10**5).deviations == mertens_check(10**5)


def test_mertens_deviations_bounded(mertens_1e6):
    assert [x for x, _ in mertens_1e6] == [10, 100, 10**3, 10**4, 10**5, 10**6]
    for x, dev in mertens_1e6:
        assert abs(dev) <= 3.0, (x, dev)


def test_mean_nu_near_one():
    assert prime_sums(10**6).mean_nu == pytest.approx(1.0, abs=0.02)


def test_mertens_validation():
    with pytest.raises(DomainError):
        mertens_check(1)
    for f in (mertens_check, prime_sums):
        with pytest.raises(DomainError, match="integer"):
            f(1e3)
    assert mertens_check(np.int64(100)) == mertens_check(100)
    assert prime_sums(np.int64(1000)) == prime_sums(1000)


def test_caps_are_checked_before_sieving():
    # a table above MAX_RANGE_TOP would save but never load; the prime sums
    # share one cap of 1e8
    for limit in (empirical.MAX_RANGE_TOP + 1, -5):
        with pytest.raises(DomainError, match="capped"):
            build_root_table(limit)
    with pytest.raises(DomainError, match="integer"):
        build_root_table(100.0)
    assert build_root_table(np.int64(100)) == build_root_table(100)
    for f in (mertens_check, prime_sums):
        with pytest.raises(DomainError, match="capped at 1e8"):
            f(10**8 + 1)
        with pytest.raises(DomainError, match="at least 2"):
            f(1)


# ---------------------------------------------------------------------------
# desk-scale consistency with the closed-form coefficient
# ---------------------------------------------------------------------------

def test_desk_scale_consistency_with_first_bound():
    # proportion with at least h factors >= 1e6^(1/4) over (1e6, 2e6] stays
    # under the asymptotic coefficient plus a finite-size envelope (the o(1)
    # terms are material at this scale, hence the slack)
    from fractions import Fraction

    x_min = 10**6
    threshold = 32  # ceil(1e6^0.25), so counted factors are >= X^(1/4)
    job6 = RangeJob(x_min=x_min, x_max=2 * x_min, threshold=threshold, h=6)
    table = build_root_table(2 * x_min)
    for h in (6, 9):
        job = RangeJob(x_min=x_min, x_max=2 * x_min, threshold=threshold, h=h)
        proportion = empirical_T(job, table) / x_min
        coefficient = first_bound(h, Fraction(1, 4)).to_real()
        assert proportion <= coefficient + 0.05, (h, proportion, coefficient)
