"""Arithmetic substrate: primality, factorization, multiplicative functions,
and segmented prime enumeration in arithmetic progressions.

Exact rational values everywhere in this package are `fractions.Fraction`:
always reduced, denominator positive, so ``str()`` renders "num/den" in
lowest terms (or just "num" for integers), which is the wire format the
CLI and reports rely on.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

__all__ = [
    "Factorization",
    "PrimeStream",
    "divisors",
    "factorize",
    "is_prime",
    "mobius",
    "order_n_element",
    "power_table",
    "powmod_lanes",
    "primes_in_progression",
    "sieve_upto",
    "totient",
]

# A factorization is a tuple of (prime, exponent) pairs, sorted by prime.
Factorization = tuple[tuple[int, int], ...]

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# This witness set makes Miller-Rabin deterministic for every n < 3.3e24,
# in particular for all 64-bit inputs.
_WITNESSES_64 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_ROUNDS_BIG = 64

_TRIAL_LIMIT = 10_000


def _miller_rabin(n: int, bases) -> bool:
    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    for a in bases:
        a %= n
        if a < 2:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_prime(n: int) -> bool:
    """Primality test: deterministic below 2^64, 64 rounds above.

    Bases above 2^64 come from a PRNG seeded with n itself, so results are
    reproducible run to run.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < 41 * 41:
        return True
    if n < 1 << 64:
        return _miller_rabin(n, _WITNESSES_64)
    rng = random.Random(n)
    return _miller_rabin(n, [rng.randrange(2, n - 1) for _ in range(_ROUNDS_BIG)])


@lru_cache(maxsize=8)
def sieve_upto(limit: int) -> np.ndarray:
    """All primes <= limit as an int64 array (plain Eratosthenes)."""
    if limit < 2:
        return np.array([], dtype=np.int64)
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags).astype(np.int64)


@lru_cache(maxsize=1)
def _trial_primes() -> tuple[int, ...]:
    return tuple(int(p) for p in sieve_upto(_TRIAL_LIMIT))


def _pollard_rho(n: int) -> int:
    """Brent-cycle rho with a fixed parameter schedule; n composite, odd."""
    for c in range(1, 64):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"pollard rho failed on {n}")  # pragma: no cover


@lru_cache(maxsize=1 << 15)
def factorize(n: int) -> Factorization:
    """Complete factorization of n >= 1, sorted by prime; 1 -> ()."""
    if n < 1:
        raise ValueError(f"factorize needs n >= 1, got {n}")
    if n == 1:
        return ()
    out: dict[int, int] = {}
    m = n
    for p in _trial_primes():
        if p * p > m:
            break
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
    if m > 1:
        stack = [m]
        while stack:
            v = stack.pop()
            if is_prime(v):
                out[v] = out.get(v, 0) + 1
                continue
            d = _pollard_rho(v)
            stack.append(d)
            stack.append(v // d)
    return tuple(sorted(out.items()))


def mobius(n: int) -> int:
    """Moebius function mu(n)."""
    fac = factorize(n)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def totient(n: int) -> int:
    """Euler phi(n)."""
    phi = 1
    for p, e in factorize(n):
        phi *= p ** (e - 1) * (p - 1)
    return phi


def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n, ascending."""
    ds = [1]
    for p, e in factorize(n):
        ds = [d * p**k for d in ds for k in range(e + 1)]
    return tuple(sorted(ds))


def order_n_element(p: int, n: int) -> int:
    """A generator of the unique order-n subgroup of (Z/pZ)*, p prime, n | p-1:
    1 for n = 1, else the first h = x^((p-1)/n), x = 2, 3, ..., whose order
    passes the test against the primes dividing n (p-1 is never factored)."""
    if n < 1 or (p - 1) % n:
        raise ValueError(f"{n} does not divide {p} - 1")
    if n == 1:
        return 1
    qs = [q for q, _ in factorize(n)]
    e = (p - 1) // n
    for x in range(2, p):
        h = pow(x, e, p)
        if all(pow(h, n // q, p) != 1 for q in qs):
            return h
    raise ValueError(f"no element of order {n} mod {p}")


def power_table(x: int, s: int, p: int) -> np.ndarray:
    """x^0 .. x^(s-1) mod p as int64, by doubling; exact while (p-1)^2 < 2^63."""
    pows = np.ones(s, dtype=np.int64)
    k = 1
    while k < s:  # x^(k..2k-1) = x^(0..k-1) * x^k
        j = min(k, s - k)
        pows[k : k + j] = pows[:j] * pow(x, k, p) % p
        k *= 2
    return pows


def _mul_exact(a: np.ndarray, b: np.ndarray, p: np.ndarray) -> np.ndarray:
    """a*b mod p on int64 lanes, exact while a*b < 2^63 (so for a, b < p < 3e9)."""
    return a * b % p


def powmod_lanes(x: int | np.ndarray, e: np.ndarray, p: np.ndarray, mulmod=_mul_exact) -> np.ndarray:
    """x^e mod p on int64 lanes by a left-to-right ladder, for e >= 0 and 0 <= x < p.

    Each bit of e, from the top, costs one square mulmod(r, r, p) and, where
    the bit is set, a multiply by x. mulmod must give a*b mod p exactly for
    0 <= a, b < p. When x is a plain int below 2^13 the multiply is r*x % p,
    exact in int64 for any p < 2^50 (r*x < 2^50 * 2^13 = 2^63); a larger
    x goes through mulmod like an array x does.
    """
    small = isinstance(x, int) and x < 1 << 13
    r = np.ones_like(p)
    for bit in reversed(range(int(np.max(e, initial=0)).bit_length())):
        r = mulmod(r, r, p)
        r = np.where((e >> bit) & 1 == 1, r * x % p if small else mulmod(r, x, p), r)
    return r


# A base prime striking at least this many candidates of a segment gets its
# own slice assignment; the rest are struck together by one scatter per block.
_DENSE_HITS = 64
# Base primes are taken this many at a time, which bounds the per-prime
# temporaries of a segment near 2^50 (about 2e6 base primes).
_BASE_BLOCK = 1 << 16


@dataclass(frozen=True)
class PrimeStream:
    """All primes p with lower <= p <= upper and p = residue (mod modulus).

    Backed by a segmented sieve of the progression itself, so windows near
    1e13 stay cheap: a segment of ``segment_size`` integers holds one flag per
    member of the progression, segment_size/modulus bytes, beside the base
    primes up to sqrt(upper). Needs 0 <= residue < modulus and
    gcd(residue, modulus) = 1.
    """

    lower: int
    upper: int  # inclusive
    modulus: int
    residue: int
    segment_size: int = 1 << 21

    def __post_init__(self) -> None:
        q, r = self.modulus, self.residue
        if q < 1 or not 0 <= r < q:
            raise ValueError(f"need 0 <= r < q, got r={r}, q={q}")
        if math.gcd(r, q) > 1:
            raise ValueError(f"gcd({r},{q}) > 1: progression contains at most one prime")

    def __iter__(self) -> Iterator[int]:
        for _, _, primes in self.segments():
            yield from primes.tolist()

    def segments(self, size: int | None = None) -> Iterator[tuple[int, int, np.ndarray]]:
        """Yield (seg_lo, seg_hi_inclusive, primes as an int64 array) in ascending order."""
        size = size or self.segment_size
        lo = max(self.lower, 0)
        if lo > self.upper:
            return
        base = sieve_upto(max(2, math.isqrt(self.upper)))
        while lo <= self.upper:
            hi = min(lo + size - 1, self.upper)
            yield lo, hi, self._sieve_segment(lo, hi, base)
            lo = hi + 1

    def _sieve_segment(self, lo: int, hi: int, base: np.ndarray) -> np.ndarray:
        """The primes first + m*k <= hi, k >= 0, where m is the modulus and
        first the least member of the progression >= lo.

        The mask holds one flag per k. A base prime q | m divides no member
        (gcd(residue, m) = 1). Any other q divides first + m*k exactly when
        k = -first * m^-1 (mod q), and strikes those k from the first whose
        value is >= q^2, so a prime q in the window survives. Every composite
        member has a prime factor q <= sqrt(hi) with value >= q^2, and is struck.
        """
        m = self.modulus
        first = lo + (self.residue - lo) % m
        if first > hi:
            return np.empty(0, dtype=np.int64)
        size = (hi - first) // m + 1
        mask = np.ones(size, dtype=bool)
        mask[: max(0, (1 - first) // m + 1)] = False  # the members 0 and 1
        qs = base[: np.searchsorted(base, math.isqrt(hi), side="right")]
        qs = qs[m % qs != 0]
        # t = -c^-1 mod m for each unit c mod m, by Euler (the other rows go unused);
        # then with t = -q^-1 mod m, m divides 1 + q*t and m * (1 + q*t)/m = 1 (mod q)
        units = np.arange(m, dtype=np.int64)
        neg_inv = -powmod_lanes(units, np.full(m, totient(m) - 1), np.full(m, m)) % m
        for q in np.split(qs, range(_BASE_BLOCK, len(qs), _BASE_BLOCK)):
            k = (-first) % q * ((1 + q * neg_inv[q % m]) // m) % q
            # raise k by multiples of q to the first k with first + m*k >= q^2
            k += q * ((np.maximum((q * q - first + m - 1) // m - k, 0) + q - 1) // q)
            hits = np.maximum((size - k + q - 1) // q, 0)
            dense = hits >= _DENSE_HITS
            for start, step in zip(k[dense].tolist(), q[dense].tolist()):
                mask[start::step] = False
            sparse = ~dense & (hits > 0)
            q, k, hits = q[sparse], k[sparse], hits[sparse]
            if len(q):
                # every struck k in one array: steps of q within a run, and at the start
                # of each run the jump from the last k of the run before
                idx = np.repeat(q, hits)
                starts = np.cumsum(hits) - hits
                idx[starts] = k - np.concatenate(([0], (k + q * (hits - 1))[:-1]))
                mask[np.cumsum(idx, out=idx)] = False
        return first + m * np.flatnonzero(mask)

    def count(self) -> int:
        return sum(1 for _ in self)


def primes_in_progression(lower: int, span: int, q: int, r: int) -> PrimeStream:
    """Primes p with lower <= p <= lower+span and p = r (mod q), ascending.

    Rejects gcd(r, q) > 1 for q > 1: apart from possibly p | q the class
    contains no primes, and a silently empty survey is worse than an error.
    """
    if lower < 0 or span < 0:
        raise ValueError("need lower >= 0 and span >= 0")
    return PrimeStream(lower, lower + span, q, r)
