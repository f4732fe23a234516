"""Arithmetic substrate: primality, factorization, multiplicative functions,
one search for an element of order n mod p (order_n_element; _generators runs
it on int64 lanes), a sieve of the primes in a window of an arithmetic
progression, and the int64 lane layer: one exact product mod p < 2^50
(mulmod, which like the rest of the layer refuses a larger p), a power table
and a power ladder of an int or an array base, each choosing once per call,
from the largest modulus, the plain a*b % p (p <= 3037000500) or the
reciprocal product a*b - rint(a*b*(1/p))*p with 1/p taken once; the ladder
of an int base multiplies by a window of exponent bits, and keeps a signed
residue in the reciprocal form, corrected once at the end.

Exact rational values everywhere in this package are `fractions.Fraction`:
always reduced, denominator positive, so ``str()`` renders "num/den" in
lowest terms (or just "num" for integers), which is the wire format the
CLI and reports rely on.
"""

from __future__ import annotations

import itertools
import math
import random
from functools import lru_cache

import numpy as np

__all__ = [
    "Factorization",
    "crt",
    "divisors",
    "factorize",
    "is_prime",
    "mobius",
    "mulmod",
    "order_n_element",
    "power_table",
    "powmod_lanes",
    "primes_in_progression",
    "sieve_upto",
    "totient",
]

# A factorization is a tuple of (prime, exponent) pairs, sorted by prime.
Factorization = tuple[tuple[int, int], ...]

# The trial divisors of is_prime, and the witness set that makes Miller-Rabin
# deterministic for every n < 3.3e24, in particular for all 64-bit inputs.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_ROUNDS_BIG = 64

_TRIAL_LIMIT = 10_000


def _miller_rabin(n: int, bases) -> bool:
    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    for a in bases:  # 2 <= a <= n - 2: is_prime passes no other base
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
        return _miller_rabin(n, _SMALL_PRIMES)
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


def crt(residues, moduli) -> int:
    """The x in [0, prod moduli) with x = residues[i] (mod moduli[i]), for pairwise
    coprime moduli, by Garner's incremental lift."""
    x, mod = 0, 1
    for r, m in zip(residues, moduli):
        x += mod * ((r - x) * pow(mod, -1, m) % m)
        mod *= m
    return x


def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n, ascending."""
    ds = [1]
    for p, e in factorize(n):
        ds = [d * p**k for d in ds for k in range(e + 1)]
    return tuple(sorted(ds))


def order_n_element(p: int, n: int) -> int:
    """A generator of the unique order-n subgroup of (Z/pZ)*, p prime, n | p-1: the
    product over the prime powers q^k || n of x_q^((p-1)/q^k), which has order q^k,
    x_q the least prime that is no q-th power mod p (x_q^((p-1)/q) != 1). The least
    q-th non-power is prime, since a product of q-th powers is one, so for n = q^k this
    is the first x^((p-1)/n), x = 2, 3, ..., of order n. 1 for n = 1; p - 1 is never
    factored. _search tries the primes x in turn, each closing every q^k it can."""
    if n < 1 or (p - 1) % n:
        raise ValueError(f"{n} does not divide {p} - 1")
    return _search(p, n, [0] * len(_parts(n)), 0)


@lru_cache(maxsize=1 << 12)
def _parts(n: int) -> tuple[tuple[int, int, int], ...]:  # (j, n/q^k, q^(k-1)) for the j-th q^k || n
    return tuple((j, n // q**k, q ** (k - 1)) for j, (q, k) in enumerate(factorize(n)))


def _search(p: int, n: int, us: list[int], start: int) -> int:
    """order_n_element(p, n) from the base of index start on: the primes below 10^4
    from there, then the primes above. us[j] is the u of part j of _parts(n), 0 while
    open, and is filled in place: each x takes y = x^((p-1)/n) and closes each open q^k
    with u = y^(n/q^k) where u^(q^(k-1)) = x^((p-1)/q) is not 1. h is the product of the u.
    Its per-call set-up is kept small, since most calls come from order_n_element."""
    e, parts, h, bases = (p - 1) // n, _parts(n), 1, _trial_primes()
    for u in us:
        if u:
            h = h * u % p
    for x in itertools.chain(itertools.islice(bases, start, None) if start else bases,
                             filter(is_prime, range(_TRIAL_LIMIT + 1, p))):
        y = pow(x, e, p)
        for j, cofactor, test in parts:
            if not us[j] and pow(u := pow(y, cofactor, p), test, p) != 1:
                us[j], h = u, h * u % p
        if all(us):
            return h
    raise ValueError(f"no element of order {n} mod {p}")


# At most this many lanes still open in the lane search go on in Python ints:
# a numpy ladder on a handful of lanes costs more than their pow calls.
_SCALAR_TAIL = 32


def _generators(n: int, p: np.ndarray) -> np.ndarray:
    """order_n_element(p, n) on every lane of the int64 primes p < 2^50, for one
    order n > 1 that divides every p - 1.

    The bases x are the primes below 10^4 that order_n_element starts from,
    in turn, each tried only on the lanes with a prime power q^k || n still
    open. Each x runs one ladder y = x^((p-1)/n); then one pass per q^k takes
    u = y^(n/q^k) = x^((p-1)/q^k) on the lanes where q^k is open, and closes
    q^k with u where u^(q^(k-1)) = x^((p-1)/q) is not 1. h0 is the product of
    the u. Once at most _SCALAR_TAIL lanes are open, each goes on in
    order_n_element's search (_search) from the next base, with the q^k it
    has closed; so a batch of at most _SCALAR_TAIL lanes runs no ladder, and
    each lane takes _search from base 0, as order_n_element does."""
    parts = _parts(n)
    found = np.zeros((len(parts), len(p)), dtype=np.int64)  # row per q^k: u once closed, 0 while open
    e = (p - 1) // n
    todo = np.arange(len(p))
    bases, tried = _trial_primes(), 0
    while len(todo) > _SCALAR_TAIL and tried < len(bases):
        x, tried = bases[tried], tried + 1
        pt = p[todo]
        y = powmod_lanes(x, e[todo], pt)
        for row, (_, cofactor, test) in zip(found, parts):
            lanes = np.flatnonzero(row[todo] == 0)
            u = powmod_lanes(y[lanes], cofactor, pt[lanes]) if cofactor > 1 else y[lanes]  # 1: n = q^k
            ok = (powmod_lanes(u, test, pt[lanes]) if test > 1 else u) != 1
            row[todo[lanes[ok]]] = u[ok]
        todo = todo[(found[:, todo] == 0).any(axis=0)]
    h0 = found[0]
    for row in found[1:]:
        h0 = mulmod(h0, row, p)
    for i, pi, us in zip(todo.tolist(), p[todo].tolist(), found[:, todo].T.tolist()):
        h0[i] = _search(pi, n, us, tried)
    return h0


# (p - 1)^2 < 2^63 for every p <= _PLAIN_CUT, so below it a*b % p is exact in int64
_PLAIN_CUT = 3_037_000_500


def _inverse(p: int | np.ndarray) -> tuple[int, np.ndarray | float | None]:
    """The largest p, and 1/p in float64 for the reciprocal product, taken once per call of
    the lane layer, or None while every p is at most _PLAIN_CUT, where the plain a*b % p is
    exact and cheaper: the reciprocal form at every p made the generator search below 1e6
    and h^- at p = 181-199 slower. ValueError for p >= 2^50, where neither is exact."""
    top = p if isinstance(p, int) else int(np.max(p, initial=0))
    if top >= 1 << 50:
        raise ValueError(f"modulus {top} too large for int64 lane products, which need p < 2^50")
    return top, None if top <= _PLAIN_CUT else np.divide(1.0, p)


def _times(r: np.ndarray, b, fb, p: int | np.ndarray, inv, f, q) -> None:
    """r <- r*b mod p in place: the plain r*b % p for inv None, else the reciprocal
    residue of r*b (_reduce), a signed residue in (-p, p), for |r|, |b| < p < 2^50 or
    for |r| < p and an entry b < 2^50 of a table of powers. fb is b as float64 (f
    itself when b is r), and f (float64) and q (int64) are scratch arrays of r's
    shape; the plain form uses none of the three. The operands go to floats first,
    since a mixed int64-float64 multiply is slower."""
    if inv is None:
        np.multiply(r, b, out=r)
        np.remainder(r, p, out=r)
        return
    f[...] = r
    np.multiply(f, fb, out=f)
    np.multiply(r, b, out=r)
    _reduce(r, f, p, inv, q)


def _reduce(r: np.ndarray, f: np.ndarray, p: int | np.ndarray, inv, q: np.ndarray) -> None:
    """r <- r - q*p in place with q = rint(f*inv), for r = a*b taken in wrapping int64,
    f = a*b taken in float64 and inv = 1/p in float64: the reciprocal residue of a*b,
    a signed residue in (-p, p), for |a|, |b| < p < 2^50 or for |a| < p and an entry
    b < 2^50 of a table of powers. f becomes the rounded quotient and q its multiple of p.

    a and b are exact as floats and |a*b/p| < 2^50 in both cases. The float quotient
    takes three roundings (1/p, a*b and the product), each of relative error at most
    2^-53, so it is within 2^50 * ((1 + 2^-53)^3 - 1), just over 3 * 2^-53 * 2^50 =
    0.375, of a*b/p, and q within just over 0.875. Hence |a*b - q*p| < p < 2^63:
    taken with int64 wraparound (a*b and q*p may each wrap) it comes out exact."""
    np.multiply(f, inv, out=f)
    np.rint(f, out=f)
    q[...] = f
    np.multiply(q, p, out=q)
    np.subtract(r, q, out=r)


def _mulmod(a: np.ndarray, b, p: int | np.ndarray, inv) -> np.ndarray:
    """a*b mod p in [0, p) for 0 <= a, b < p, as one fresh array of the shape of a*b,
    reduced in place: the plain form, or the reciprocal one (_reduce) and its one
    correction."""
    r = a * b
    if inv is None:
        r %= p  # in place: one fresh array per call, not two
        return r
    f = a.astype(np.float64) * np.asarray(b, dtype=np.float64)
    _reduce(r, f, p, inv, np.empty_like(r))
    r += (r >> 63) & p  # (r >> 63) & p is p where r < 0
    return r


def mulmod(a: np.ndarray, b: np.ndarray, p: int | np.ndarray) -> np.ndarray:
    """a*b mod p on int64 lanes, exact for 0 <= a, b < p < 2^50 (ValueError for a
    larger p): the plain a*b % p while every p is at most 3037000500, else the
    reciprocal product rint(a*b*(1/p)) corrected once in int64, one form for the
    whole call. p broadcasts to the shape of a*b."""
    return _mulmod(a, b, p, _inverse(p)[1])


def power_table(x: int | np.ndarray, s: int, p: int | np.ndarray) -> np.ndarray:
    """x^0 .. x^(s-1) mod p for 0 <= x < p < 2^50 (ValueError past), as int64 of shape (s,) for
    plain ints x and p, or (s, lanes) for int64 lanes. By doubling: once rows
    0..k hold x^0..x^k, rows 1..k times row k give x^(k+1)..x^(2k), with
    mulmod's product and one 1/p for the whole table."""
    (_, inv), k = _inverse(p), 1  # first, so that a modulus too large is refused before x is stored
    lanes = () if isinstance(x, int) and isinstance(p, int) else np.broadcast_shapes(np.shape(x), np.shape(p))
    pows = np.ones((s, *lanes), dtype=np.int64)
    if s > 1:
        pows[1] = x
    while k < s - 1:
        j = min(k, s - 1 - k)
        pows[k + 1 : k + 1 + j] = _mulmod(pows[1 : 1 + j], pows[k], p, inv)
        k += j
    return pows


def powmod_lanes(x: int | np.ndarray, e: int | np.ndarray, p: np.ndarray) -> np.ndarray:
    """x^e mod p on int64 lanes by a left-to-right ladder, for e >= 0 and 0 <= x < p < 2^50
    (ValueError for a larger p): a plain int x with e an int64 array or one int for every
    lane, or an int64 array x with one int e (TypeError for an array x with an array e).

    The products are mulmod's, chosen once from the largest p, and work in place
    on r (_times). At or below the cut each is the plain r*r % p or r*t % p.
    Above it each is the reciprocal residue, with 1/p taken once: r stays a
    signed residue in (-p, p) through the ladder and is corrected once at the
    end. An array x goes bit by bit: each bit of the int e, from the top, costs
    one square and, where the bit is set, a multiply by x. A plain int x
    goes 2^w-ary: per window of w bits of e, w squares and one multiply by
    t = x^digit from a table of x^0 .. x^(2^w-1), with w <= 6 the largest width
    for which r*t stays exact: x^(2^w-1)*max(p) < 2^63 at or below the cut,
    x^(2^w-1) < 2^50 above it. Every x < p has a width of at least 1. A partial
    window leads. The result is one fresh array; x, e and p are only read.
    """
    top, inv = _inverse(p)
    if isinstance(x, int):
        cap, scale = (1 << 63, top) if inv is None else (1 << 50, 1)  # t*scale < cap keeps r*t exact
        w = next((w for w in range(6, 1, -1) if x ** ((1 << w) - 1) * scale < cap), 1)
        table = np.array([x**j for j in range(1 << w)], dtype=np.int64)
    elif isinstance(e, int):
        table, w = x, 0  # w = 0: the bit-by-bit ladder
    else:
        raise TypeError("powmod_lanes takes an array x only with one int e")
    r = np.ones(np.broadcast_shapes(np.shape(x), np.shape(e), np.shape(p)), dtype=np.int64)
    f = q = ftable = None  # the reciprocal form's scratch arrays, and the table or x as floats
    if inv is not None:
        f, q, ftable = np.empty(r.shape), np.empty_like(r), np.asarray(table, dtype=np.float64)
    digit = np.empty_like(r) if w else None
    bits, step = int(np.max(e, initial=0)).bit_length(), w or 1
    for shift in reversed(range(0, bits, step)):
        if shift + step < bits:  # below the leading window, whose squares would square a 1
            for _ in range(step):
                _times(r, r, f, p, inv, f, q)
        if w:
            np.right_shift(e, shift, out=digit)
            digit &= (1 << w) - 1
            _times(r, table.take(digit), None if inv is None else ftable.take(digit), p, inv, f, q)
        elif e >> shift & 1:
            _times(r, x, ftable, p, inv, f, q)
    if inv is not None:
        r += (r >> 63) & p
    return r


# A base prime striking at least this many candidates of a window gets its
# own slice assignment; the rest are struck together by one scatter per block.
_DENSE_HITS = 64
# Base primes are taken this many at a time, which bounds the per-prime
# temporaries of a window near 2^50 (about 2e6 base primes).
_BASE_BLOCK = 1 << 16


def primes_in_progression(lower: int, span: int, q: int, r: int) -> np.ndarray:
    """The primes p with lower <= p <= lower+span and p = r (mod q), ascending,
    as one int64 array. Needs 0 <= r < q and rejects gcd(r, q) > 1: apart
    from possibly p | q the class contains no primes, and a silently empty
    survey is worse than an error.

    One sieve of the progression itself, so windows near 1e13 stay cheap: it
    holds one flag per member first + q*k <= lower+span, k >= 0, where first
    is the least member >= lower, beside the base primes up to
    sqrt(lower+span). Memory grows with span/q; the scans cut their ranges
    into windows of at most 2^20 integers.

    A base prime b | q divides no member (gcd(r, q) = 1). Any other b divides
    first + q*k exactly when k = -first * q^-1 (mod b), and strikes those k
    from the first whose value is >= b^2, so a prime b in the window
    survives. Every composite member has a prime factor b <= sqrt(lower+span)
    with value >= b^2, and is struck. q^-1 mod b is (1 + b*t)/q for
    t = -b^-1 mod q, read from one table of -c^-1 mod q over the units c.
    """
    if lower < 0 or span < 0:
        raise ValueError("need lower >= 0 and span >= 0")
    if q < 1 or not 0 <= r < q:
        raise ValueError(f"need 0 <= r < q, got r={r}, q={q}")
    if math.gcd(r, q) > 1:
        raise ValueError(f"gcd({r},{q}) > 1: progression contains at most one prime")
    hi = lower + span
    first = lower + (r - lower) % q
    if first > hi:
        return np.empty(0, dtype=np.int64)
    size = (hi - first) // q + 1
    mask = np.ones(size, dtype=bool)
    mask[: max(0, (1 - first) // q + 1)] = False  # the members 0 and 1
    base = sieve_upto(math.isqrt(hi))
    base = base[q % base != 0]
    # t = -c^-1 mod q for each unit c mod q (0, unused, elsewhere);
    # then with t = -b^-1 mod q, q divides 1 + b*t and q * (1 + b*t)/q = 1 (mod b)
    neg_inv = np.array([-pow(c, -1, q) % q if math.gcd(c, q) == 1 else 0 for c in range(q)], dtype=np.int64)
    for b in np.split(base, range(_BASE_BLOCK, len(base), _BASE_BLOCK)):
        k = (-first) % b * ((1 + b * neg_inv[b % q]) // q) % b
        # raise k by multiples of b to the first k with first + q*k >= b^2
        k += b * ((np.maximum((b * b - first + q - 1) // q - k, 0) + b - 1) // b)
        hits = np.maximum((size - k + b - 1) // b, 0)
        dense = hits >= _DENSE_HITS
        for start, step in zip(k[dense].tolist(), b[dense].tolist()):
            mask[start::step] = False
        sparse = ~dense & (hits > 0)
        b, k, hits = b[sparse], k[sparse], hits[sparse]
        if len(b):
            # every struck k in one array: steps of b within a run, and at the start
            # of each run the jump from the last k of the run before
            idx = np.repeat(b, hits)
            starts = np.cumsum(hits) - hits
            idx[starts] = k - np.concatenate(([0], (k + b * (hits - 1))[:-1]))
            mask[np.cumsum(idx, out=idx)] = False
    return first + q * np.flatnonzero(mask)
