import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dsums import numkernel
from dsums.numkernel import (
    divisors,
    factorize,
    is_prime,
    mobius,
    mulmod,
    order_n_element,
    power_table,
    powmod_lanes,
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


def test_order_n_element_is_the_product_of_the_least_non_powers():
    def first_x(p, n):  # the first x^((p-1)/n), x = 1, 2, ..., of order n
        qs = [q for q, _ in factorize(n)]
        for x in range(1, p):
            h = pow(x, (p - 1) // n, p)
            if all(pow(h, n // q, p) != 1 for q in qs):
                return h

    def by_definition(p, n):  # prod over q^k || n of x_q^((p-1)/q^k), x_q the least q-th non-power
        h = 1
        for q, k in factorize(n):
            x = next(x for x in range(2, p) if pow(x, (p - 1) // q, p) != 1)
            assert is_prime(x), (p, q, x)
            h = h * pow(x, (p - 1) // q**k, p) % p
        return h

    for p in sieve_upto(2000).tolist():
        for n in divisors(p - 1):
            h = order_n_element(p, n)
            assert pow(h, n, p) == 1 and all(pow(h, n // q, p) != 1 for q, _ in factorize(n)), (p, n)
            assert h == by_definition(p, n), (p, n)
            if len(factorize(n)) <= 1:
                assert h == first_x(p, n), (p, n)


# windows near 0, 1e10, 1e12 and 1e13, each side of the plain-product cut
_WINDOWS = ((0, 4000), (10**10, 4000), (10**12, 3000), (10**13, 2000))


def test_batched_generators_have_exact_order():
    for lower, span in _WINDOWS:
        for n in (3, 5, 9, 15, 21):
            ps = primes_in_progression(lower, span, 2 * n, 1)
            h0 = numkernel._generators(n, ps).tolist()
            assert h0 == [order_n_element(p, n) for p in ps.tolist()], (lower, n)
            for h, p in zip(h0, ps.tolist()):
                assert pow(h, n, p) == 1 and all(pow(h, n // q, p) != 1 for q, _ in factorize(n)), (p, n)


# The pairs (p, d) of the all-odd scan: every odd d > 1 dividing p - 1. Its segments
# search one order at a time, so each order's lanes make one call.
@pytest.mark.parametrize("lower, span", [(3, 3000), (10**9, 4000), (10**10, 4000)])
def test_all_odd_generators_one_order_at_a_time(lower, span, monkeypatch):
    by_order = {}
    for p in primes_in_progression(lower, span, 2, 1).tolist():
        for d in divisors(p - 1)[1:]:
            if d % 2:
                by_order.setdefault(d, []).append(p)
    assert sum(map(len, by_order.values())) >= 400 and len(by_order) >= 50
    # every order through the scalar tail where it is short, and every one through the numpy search
    for tail in (numkernel._SCALAR_TAIL, 0):
        monkeypatch.setattr(numkernel, "_SCALAR_TAIL", tail)
        for d, ps in by_order.items():
            want = [order_n_element(p, d) for p in ps]
            assert numkernel._generators(d, np.array(ps, dtype=np.int64)).tolist() == want, (lower, d, tail)


def test_generators_near_2_50_and_with_a_late_x():
    # the 40 largest primes p = 1 (mod 2n) below 2^50: about a fifth of them
    # need x >= 5, and one for n = 3 takes x = 13
    for n in (3, 9, 15, 21):
        ps, p = [], (1 << 50) - 1 - ((1 << 50) - 2) % (2 * n)
        while len(ps) < 40:
            if is_prime(p):
                ps.append(p)
            p -= 2 * n
        h0 = [order_n_element(p, n) for p in ps]
        assert any(h not in {pow(x, (p - 1) // n, p) for x in (2, 3, 4)} for h, p in zip(h0, ps)), n
        assert numkernel._generators(n, np.array(ps, dtype=np.int64)).tolist() == h0, n


def _least_non_power(p: int, q: int) -> int:
    """The least x >= 2 that is no q-th power mod p, by Python ints."""
    return next(x for x in range(2, p) if pow(x, (p - 1) // q, p) != 1)


# Several hundred lanes or more per case, on each side of the plain-product cut
# (3037000500), so the ladders, the passes over each row and the scalar tail all run.
@pytest.mark.parametrize("lower", [10**9, 10**10])
@pytest.mark.parametrize("n, span", [(9, 200_000), (15, 200_000), (21, 200_000), (105, 600_000)])
def test_generators_on_many_lanes(lower, n, span, monkeypatch):
    ps = primes_in_progression(lower, span, 2 * n, 1)
    want = [order_n_element(p, n) for p in ps.tolist()]
    assert len(ps) >= 400
    for p, h in zip(ps.tolist(), want):
        assert pow(h, n, p) == 1 and all(pow(h, n // q, p) != 1 for q, _ in factorize(n)), (p, n)
    assert numkernel._generators(n, ps).tolist() == want
    # each part's base is prime and the least q-th non-power, and h0 is the product of its powers
    bases = {q: [_least_non_power(p, q) for p in ps.tolist()] for q, _ in factorize(n)}
    assert all(is_prime(x) for xs in bases.values() for x in xs)
    assert want == [math.prod(pow(bases[q][i], (p - 1) // q**k, p) for q, k in factorize(n)) % p
                    for i, p in enumerate(ps.tolist())]
    # a lane is open until its last part closes, and the scalar tail takes over at the first
    # x with at most _SCALAR_TAIL lanes open
    last = [max(xs) for xs in zip(*bases.values())]
    tail_x = next(x for x in range(2, max(last) + 2) if sum(w >= x for w in last) <= numkernel._SCALAR_TAIL)
    assert any(w >= tail_x for w in last)
    # every lane through the numpy search alone, and every lane through the scalar tail alone
    for tail in (0, len(ps)):
        monkeypatch.setattr(numkernel, "_SCALAR_TAIL", tail)
        assert numkernel._generators(n, ps).tolist() == want, tail


def test_generator_search_ladders_only_prime_bases(monkeypatch):
    # one segment of the 1e10 survey window, n = 9 and 15: a full-length ladder x^((p-1)/n)
    # runs only for a prime int x, each x once and in order, on more lanes than the scalar
    # tail takes; the other ladders raise it to the int n/q^k and the result to the int
    # q^(k-1), q^k || n. The first few bases (2, 3, 5 and 7 here) close all but the last
    # few of the 692-895 lanes, so a wrong ladder, which closes none and leaves every lane
    # to the scalar tail (whose h0 is right), fails here rather than only slowing the search.
    calls, tail = [], []

    def spy(x, e, p):
        calls.append((x, e if isinstance(e, int) else e.copy(), p.copy()))
        return powmod_lanes(x, e, p)

    monkeypatch.setattr(numkernel, "powmod_lanes", spy)
    monkeypatch.setattr(numkernel, "order_n_element", lambda p, n: tail.append(p) or order_n_element(p, n))
    for n in (9, 15):
        ps = primes_in_progression(10**10, 125_000 - 1, 2 * n, 1)
        calls.clear()  # the sieve's own ladder
        tail.clear()
        h0 = numkernel._generators(n, ps).tolist()
        ladders = [(x, len(p)) for x, e, p in calls if np.array_equal(e, (p - 1) // n)]
        bases = [x for x, _ in ladders]
        assert len(bases) <= 8 and len(tail) <= numkernel._SCALAR_TAIL, (n, bases, len(tail))
        assert h0 == [order_n_element(p, n) for p in ps.tolist()]
        assert all(isinstance(x, int) and is_prime(x) for x in bases), (n, bases)
        assert bases == sorted(set(bases)) and bases[:2] == [2, 3], (n, bases)
        # the last few open lanes go on in Python ints, with no ladder
        assert all(lanes > numkernel._SCALAR_TAIL for _, lanes in ladders), (n, ladders)
        exps = {n // q**k for q, k in factorize(n)} | {q ** (k - 1) for q, k in factorize(n)}
        others = [(x, e) for x, e, p in calls if not np.array_equal(e, (p - 1) // n)]
        assert others and all(not isinstance(x, int) and isinstance(e, int) and e in exps for x, e in others), n


# the int64 product is plain a*b % p up to 3037000500, where (p-1)^2 < 2^63 still holds
_CUT = 3_037_000_500
_BELOW_CUT = next(p for p in range(_CUT, 0, -1) if is_prime(p))
_ABOVE_CUT = next(p for p in range(_CUT + 1, 2 * _CUT) if is_prime(p))
_NEAR_2_50 = (1 << 50) - 27  # prime


@pytest.mark.parametrize("ps", [[_BELOW_CUT], [_ABOVE_CUT], [7, _ABOVE_CUT], [101, 3, _ABOVE_CUT, 65537]],
                         ids=["below", "above", "mixed", "mixed-late"])
def test_lane_layer_is_exact_across_the_plain_product_cut(ps):
    # a = b = p - 1 on every lane: the plain product of a lane above the cut wraps in int64,
    # so the whole call must take the float form when any one of its moduli is above the cut
    assert (_BELOW_CUT - 1) ** 2 < 2**63 <= (_ABOVE_CUT - 1) ** 2
    p = np.array(ps, dtype=np.int64)
    top = p - 1
    assert mulmod(top, top, p).tolist() == [1] * len(ps)
    exps = np.array([q - 2 for q in ps], dtype=np.int64)
    assert powmod_lanes(top, exps, p).tolist() == [pow(q - 1, q - 2, q) for q in ps]
    assert powmod_lanes(top, np.full_like(p, 2), p).tolist() == [1] * len(ps)
    assert power_table(top, 5, p).T.tolist() == [[pow(q - 1, k, q) for k in range(5)] for q in ps]


# moduli below the cut (the plain product, squared in place) and moduli with one above it (the float form)
@pytest.mark.parametrize("ps, plain", [([1_000_003, _BELOW_CUT], True), ([1_000_003, _ABOVE_CUT, _NEAR_2_50], False)],
                         ids=["plain", "float"])
def test_powmod_lanes_matches_pow_and_reads_its_arguments_only(ps, plain):
    assert (max(ps) <= numkernel._PLAIN_CUT) is plain
    rng = random.Random(len(ps))
    p = np.array([q for q in ps for _ in range(4)], dtype=np.int64)
    # e = 0, e = 1 and large exponents, one of each on lanes of every modulus
    e = np.array([k for q in ps for k in (0, 1, q - 2, rng.randrange(q))], dtype=np.int64)
    xs = np.array([rng.randrange(q) for q in p.tolist()], dtype=np.int64)
    for arr in (p, e, xs):
        arr.flags.writeable = False  # an in-place write raises
    # an array x; plain ints each side of 2^63/2^50, where the ladder near 2^50 moves from
    # one-bit windows to the bit-by-bit product
    for x in (xs, 2, (1 << 13) - 1, 1 << 13, (1 << 13) + 1):
        want = [pow(x if isinstance(x, int) else a, k, q) for a, k, q in zip(xs.tolist(), e.tolist(), p.tolist())]
        assert powmod_lanes(x, e, p).tolist() == want, x


def _window(x: int, top: int) -> int:
    """The width of powmod_lanes's window for the plain int x and the largest modulus top."""
    return max(w for w in range(7) if x ** (2**w - 1) * top < 2**63)


_WINDOW_MODULI = [1_000_003, _BELOW_CUT, _ABOVE_CUT, _NEAR_2_50]
_WINDOW_BASES = [0, 1, 2, 3, 5, 8191]


@pytest.mark.parametrize("ps", [[q] for q in _WINDOW_MODULI] + [_WINDOW_MODULI],
                         ids=["1e6", "below", "above", "2^50", "all"])
def test_windowed_ladder_matches_pow(ps):
    # e = 0 and 1, then per bit length 2..50 the top bit alone, all ones and a random e, so
    # that the leading window holds every number of bits from 1 to w, for each width w
    rng = random.Random(len(ps) * ps[0])
    exps = [0, 1] + [e for b in range(2, 51) for e in (1 << (b - 1), (1 << b) - 1, rng.getrandbits(b) | 1 << (b - 1))]
    p = np.array([q for q in ps for _ in exps], dtype=np.int64)
    e = np.array([k for _ in ps for k in exps], dtype=np.int64)
    p.flags.writeable = e.flags.writeable = False  # an in-place write raises
    for x in _WINDOW_BASES:
        assert powmod_lanes(x, e, p).tolist() == [pow(x, k, q) for k, q in zip(e.tolist(), p.tolist())], x
        assert powmod_lanes(x, 0, p).tolist() == [1] * len(p) and powmod_lanes(x, 1, p).tolist() == [x] * len(p), x
        k = int(e[-1])  # one int exponent for every lane
        assert powmod_lanes(x, k, p).tolist() == [pow(x, k, q) for q in p.tolist()], x


def test_windowed_ladder_takes_every_width():
    assert {_window(x, q) for x in _WINDOW_BASES for q in _WINDOW_MODULI} == {1, 2, 3, 4, 5, 6}
    # past 2^63/max(p) a plain int takes the bit-by-bit ladder of mulmod's product: a one-bit
    # window's r*x would wrap there, as for this e, whose last multiply takes an r near p
    x, p = (1 << 13) + 1, _NEAR_2_50
    assert (_window(x - 1, p), _window(x, p)) == (1, 0)
    j = next(j for j in itertools.count(1) if pow(x, 2 * j, p) * x >= 2**63)
    assert powmod_lanes(x, np.array([2 * j + 1]), np.array([p])).tolist() == [pow(x, 2 * j + 1, p)]


@pytest.mark.parametrize("p", [1_000_003, _BELOW_CUT, _ABOVE_CUT, _NEAR_2_50])
@pytest.mark.parametrize("s", [1, 2, 3, 8, 9, 31])
def test_power_table_matches_python_pow(p, s):
    rng = random.Random(s * p)
    xs = [p - 1, 2, *(rng.randrange(2, p) for _ in range(3))]
    want = [[pow(x, k, p) for k in range(s)] for x in xs]
    assert [power_table(x, s, p).tolist() for x in xs] == want  # plain ints: shape (s,)
    lanes = power_table(np.array(xs, dtype=np.int64), s, np.full(len(xs), p, dtype=np.int64))
    assert lanes.shape == (s, len(xs)) and lanes.T.tolist() == want
    mods = [p, 1_000_003, 3, _BELOW_CUT, p]  # lanes of different moduli, exact together
    xs = [x % q for x, q in zip(xs, mods)]
    lanes = power_table(np.array(xs, dtype=np.int64), s, np.array(mods, dtype=np.int64))
    assert lanes.T.tolist() == [[pow(x, k, q) for k in range(s)] for x, q in zip(xs, mods)]


def test_progression_examples():
    assert primes_in_progression(0, 100, 18, 1).tolist() == [19, 37, 73]
    assert primes_in_progression(0, 10, 1, 0).tolist() == [2, 3, 5, 7]
    assert len(primes_in_progression(0, 10**5, 18, 1)) == 1592
    for empty in (primes_in_progression(20, 16, 18, 1), primes_in_progression(0, 1, 1, 0)):
        assert empty.dtype == primes_in_progression(0, 10, 1, 0).dtype == np.int64 and len(empty) == 0


def test_progression_matches_reference_sieve():
    assert primes_in_progression(0, 10**6, 1, 0).tolist() == sieve_upto(10**6).tolist()
    # composite q, where the table of -c^-1 mod q holds non-units too
    primes = sieve_upto(2 * 10**5)
    for q in (1, 2, 18, 30, 198, 210):
        for r in (r for r in range(q) if math.gcd(r, q) == 1):
            assert primes_in_progression(0, 2 * 10**5, q, r).tolist() == primes[primes % q == r].tolist(), (q, r)


def _windows(lower, span, q, r, size):
    """(lo, hi, primes) for adjacent windows of `size` integers over [lower, lower + span],
    cut the way survey._scan cuts a range."""
    upper = lower + span
    return [(lo, min(lo + size - 1, upper), primes_in_progression(lo, min(size - 1, upper - lo), q, r))
            for lo in range(lower, upper + 1, size)]


def test_progression_segmentation_no_seams():
    whole = primes_in_progression(10**6, 10**5, 6, 1).tolist()
    assert [p for _, _, ps in _windows(10**6, 10**5, 6, 1, 1000) for p in ps.tolist()] == whole


def test_progression_far_window():
    ps = primes_in_progression(10**12, 10**4, 4, 1).tolist()
    assert ps == [p for p in range(10**12 + 1, 10**12 + 10**4 + 1, 4) if is_prime(p)]
    assert len(ps) > 0
    # a window across 1e12 in small windows, against the primality test
    lower, span = 10**12 - 1000, 2000
    want = [p for p in range(lower, lower + span + 1) if p % 18 == 13 and is_prime(p)]
    for size in (7, 1000):
        got = [p for _, _, ps in _windows(lower, span, 18, 13, size) for p in ps.tolist()]
        assert got == want and want, size


_MODULI = (1, 2, 4, 6, 10, 18, 30, 42)


@st.composite
def _progression_windows(draw):
    """(m, r, lower, span, size): a class r mod m, a range starting at 0 or 1,
    just below the square of a small prime, or anywhere up to 2e4, and a window size."""
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
    windows = _windows(lower, span, m, r, size)
    assert [p for _, _, ps in windows for p in ps.tolist()] == want
    assert all(lo <= p <= hi for lo, hi, ps in windows for p in ps.tolist())


def test_progression_rejects_bad_class():
    with pytest.raises(ValueError):
        primes_in_progression(0, 100, 10, 12)
    with pytest.raises(ValueError):
        primes_in_progression(-1, 100, 1, 0)
    with pytest.raises(ValueError, match="gcd"):
        primes_in_progression(0, 100, 18, 3)
    with pytest.raises(ValueError, match="need 0 <= r < q"):
        primes_in_progression(0, 100, 0, 0)
