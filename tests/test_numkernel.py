import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dsums.numkernel import (
    PrimeStream,
    divisors,
    factorize,
    is_prime,
    mobius,
    order_n_element,
    primes_in_progression,
    sieve_upto,
    totient,
)


def test_factorize_examples():
    assert factorize(91) == ((7, 1), (13, 1))
    assert factorize(1) == ()
    assert factorize(8281) == ((7, 2), (13, 2))
    assert factorize(2**10) == ((2, 10),)


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(-5)


def test_factorize_roundtrip_sampled():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randrange(1, 10**6)
        fac = factorize(n)
        assert math.prod(p**e for p, e in fac) == n
        assert all(is_prime(p) for p, _ in fac)
        assert list(fac) == sorted(fac)


def test_factorize_large_semiprime():
    # beyond the trial-division bound, exercising the rho path
    p, q = 1_000_003, 1_000_033
    assert factorize(p * q) == ((p, 1), (q, 1))


def test_mobius_examples():
    assert mobius(1) == 1
    assert mobius(12) == 0
    assert mobius(91) == 1
    assert mobius(30) == -1


def test_totient_examples():
    assert totient(1) == 1
    assert totient(9) == 6
    assert totient(91) == 72


def test_divisor_sum_identities():
    # sum_{d|n} mu(d) = [n=1] and sum_{d|n} phi(d) = n
    for n in range(1, 10**4 + 1):
        ds = divisors(n)
        assert sum(mobius(d) for d in ds) == (1 if n == 1 else 0)
        assert sum(totient(d) for d in ds) == n


def test_is_prime_against_sieve():
    flags = set(int(p) for p in sieve_upto(10**4))
    for n in range(10**4 + 1):
        assert is_prime(n) == (n in flags)


def test_is_prime_above_64_bits():
    # 2^89 - 1 is a Mersenne prime; its neighbour is not
    m89 = 2**89 - 1
    assert is_prime(m89)
    assert not is_prime(m89 - 2)


def test_order_n_element_matches_the_search_from_one():
    def search_from_one(p, n):  # the search as it was, with x = 1 first
        qs = [q for q, _ in factorize(n)]
        for x in range(1, p):
            h = pow(x, (p - 1) // n, p)
            if all(pow(h, n // q, p) != 1 for q in qs):
                return h

    for p in sieve_upto(2000).tolist():
        for n in divisors(p - 1):
            assert order_n_element(p, n) == search_from_one(p, n), (p, n)


def test_progression_examples():
    assert list(primes_in_progression(0, 100, 18, 1)) == [19, 37, 73]
    assert list(primes_in_progression(0, 10, 1, 0)) == [2, 3, 5, 7]
    assert primes_in_progression(0, 10**5, 18, 1).count() == 1592


def test_progression_matches_reference_sieve():
    want = [int(p) for p in sieve_upto(10**6)]
    got = list(primes_in_progression(0, 10**6, 1, 0))
    assert got == want


def test_progression_segmentation_no_seams():
    stream = primes_in_progression(10**6, 10**5, 6, 1)
    small = list(stream.segments(size=1000))
    assert [p for _, _, ps in small for p in ps] == list(stream)


def test_progression_far_window():
    ps = list(primes_in_progression(10**12, 10**4, 4, 1))
    assert ps == [p for p in range(10**12 + 1, 10**12 + 10**4 + 1, 4) if is_prime(p)]
    assert len(ps) > 0
    # a window across 1e12 in small segments, against the primality test
    lower, span = 10**12 - 1000, 2000
    want = [p for p in range(lower, lower + span + 1) if p % 18 == 13 and is_prime(p)]
    for size in (7, 1000):
        got = [p for _, _, ps in primes_in_progression(lower, span, 18, 13).segments(size) for p in ps.tolist()]
        assert got == want and want, size


_MODULI = (1, 2, 4, 6, 10, 18, 30, 42)


@st.composite
def _progression_windows(draw):
    """(m, r, lower, span, size): a class r mod m, a window starting at 0 or 1,
    just below the square of a small prime, or anywhere up to 2e4, and a segment size."""
    m = draw(st.sampled_from(_MODULI))
    r = draw(st.sampled_from([r for r in range(m) if math.gcd(r, m) == 1]))
    q = draw(st.sampled_from(sieve_upto(150).tolist()))
    lower = draw(st.one_of(st.sampled_from((0, 1)), st.integers(max(0, q * q - 300), q * q), st.integers(0, 20_000)))
    return m, r, lower, draw(st.integers(0, 2000)), draw(st.sampled_from((1, 7, 1000)))


@settings(max_examples=200, deadline=None)
@given(_progression_windows())
# windows that hold a base prime of the class, which must not strike itself:
# 7 and 13 = 1 (mod 6) below 200; 43 = 1 (mod 42) with 43^2 = 1849; 3 and 13 = 3 (mod 10)
@example((6, 1, 0, 200, 7))
@example((42, 1, 1, 2000, 1000))
@example((10, 3, 0, 200, 1))
@example((1, 0, 0, 30, 1))
def test_progression_sieve_matches_the_filtered_sieve(case):
    m, r, lower, span, size = case
    primes = sieve_upto(lower + span)
    want = primes[(primes >= lower) & (primes % m == r)].tolist()
    segments = list(primes_in_progression(lower, span, m, r).segments(size))
    assert [p for _, _, ps in segments for p in ps.tolist()] == want
    assert all(lo <= p <= hi for lo, hi, ps in segments for p in ps.tolist())


def test_progression_rejects_bad_class():
    with pytest.raises(ValueError):
        primes_in_progression(0, 100, 18, 3)
    with pytest.raises(ValueError):
        primes_in_progression(0, 100, 10, 12)
    with pytest.raises(ValueError):
        primes_in_progression(-1, 100, 1, 0)
    with pytest.raises(ValueError, match="gcd"):
        PrimeStream(0, 100, 18, 3)
