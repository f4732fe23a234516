"""Dedekind sums in exact rational arithmetic.

Two routes to s(c,d): a provably-correct O(d) sawtooth-sum oracle and an
O(log d) integer kernel on the continued fraction of c/d, through which
every exact s(c,d) in the package goes; the test-suite proves them equal on
a dense grid. The kernel runs one pair at a time in Python ints
(dedekind_sum_parts) or on float lanes, float32 for d < 2^23 and float64 for
d < 2^50, exact in each (_euclid_lanes, which serves the prime scans and returns
int64 parts for the caller to combine).
The coprime-restricted sum (Moebius combination of ordinary
sums over divisors) and the closed forms used elsewhere live here too.

Conventions: s(c,1) = 0 for every c; evaluation depends on c mod d only, so
negative or out-of-range c is reduced first (this also realizes
s(-c,d) = -s(c,d), matching the sawtooth form).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import numpy as np

from .numkernel import divisors, factorize, mobius, totient

__all__ = [
    "dedekind_sum",
    "dedekind_sum_naive",
    "dedekind_sum_parts",
    "dedekind_sum_tilde",
    "dedekind_sum_tilde_naive",
    "s_near_one_closed",
    "s_one",
    "tilde_s_one",
    "tilde_sum_numerator",
]


def _check_args(c: int, d: int) -> int:
    if d < 1:
        raise ValueError(f"modulus must be >= 1, got {d}")
    c %= d
    if gcd(c, d) != 1:
        raise ValueError(f"arguments not coprime: gcd({c}, {d}) > 1")
    return c


def dedekind_sum_naive(c: int, d: int) -> Fraction:
    """s(c,d) by the O(d) sawtooth double sum; the slow reference oracle.

    With ((x)) = x - floor(x) - 1/2 off the integers and 0 on them,
    s(c,d) = sum_{a=1}^{d-1} ((a/d)) ((ac/d)). Both sawtooth factors are
    (2k-d)/(2d) for k in [1,d-1], so the whole sum is one integer over 4d^2.
    """
    c = _check_args(c, d)
    if d == 1:
        return Fraction(0)
    total = 0
    r = 0
    for a in range(1, d):
        r += c
        if r >= d:
            r -= d
        total += (2 * a - d) * (2 * r - d)
    return Fraction(total, 4 * d * d)


def dedekind_sum_parts(c: int, d: int) -> tuple[int, int]:
    """s(c,d) as the unreduced integer pair (12*d*s(c,d), 12*d).

    Continued-fraction form (Hickerson 1977, Knuth 1977): with
    c/d = [0; a_1, ..., a_r] and c* = c^-1 mod d,
    12*d*s(c,d) = c + c* + d*sum (-1)^(i+1) a_i - d*(1 if r even, else 3).
    One Euclid pass yields the a_i and, through the convergent
    denominators, c*; the numerator is an integer, so no gcd is taken.
    """
    c = _check_args(c, d)
    if d == 1:
        return 0, 12
    a, b = d, c
    alt, sign = 0, 1
    q_prev, q = 0, 1  # convergent denominators q_{i-1}, q_i
    while b:
        k = a // b
        a, b = b, a - k * b
        alt += sign * k
        sign = -sign
        q_prev, q = q, k * q + q_prev
    # c * q_{r-1} = (-1)^(r-1) (mod d), and sign = (-1)^r
    if sign < 0:
        return c + q_prev + d * (alt - 3), 12 * d
    return c + d - q_prev + d * (alt - 1), 12 * d


# A finished lane is parked on a Fibonacci pair, with q = q_prev = 0, until the next
# compaction. Euclid on (F(m+1), F(m)) takes m - 1 steps, so a lane parked at step 1 or
# later on (F73, F72) needs 71 more to reach a zero remainder, and one on (F34, F33) 32
# more. By Lame a lane with d < 2^50 < F74 takes at most 71 steps in all, and one with
# d < 2^23 < F35 at most 32, so no parked lane finishes or divides by zero before the
# batch ends. Both pairs lie below their format's bound on d.
_PARK = (806515533049393.0, 498454011879264.0)
_PARK_F32 = (5702887.0, 3524578.0)

# Parked lanes leave the arrays once they are at least as many as the live ones, since
# each compaction copies six arrays. On the n = 9 and 15 lanes below 1e6 and near 1e10,
# and on random lanes near 1e13, the float steps ran fastest at share 1; shares of 1/2
# to 1/8 took up to a sixth longer.
_COMPACT_SHARE = 1


def _euclid_lanes(c: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The continued-fraction kernel of dedekind_sum_parts on every lane at once.

    For int64 arrays with 0 < c < d < 2^50 (ValueError for d >= 2^50) and
    gcd(c, d) = 1, c/d = [0; a_1, ..., a_r]: returns, as int64,
    t = sum (-1)^(i+1) a_i - (3 if r is odd, else 1) and c* = c^-1 mod d from
    the convergent denominators, so that 12*d*s(c,d) = c + c* + d*t. All lanes
    start together, so step i adds (-1)^(i+1) a_i on every lane still running,
    and a lane finishes on step r. The partial quotients, their alternating
    partial sums and the convergent denominators are all <= d. At composite d
    the term d*t can pass 2^63, so a caller that is not sure it fits combines
    the parts in Python ints.

    The steps run in floats, where a SIMD divide replaces int64 division by an
    array, in the narrowest format that is exact for the largest d: float32 for
    d < 2^23, float64 for d < 2^50. Every value is an integer of at most d, and
    a + b <= d + c < 2d, so every value and a + b are exact (below 2^24 and
    2^51), and k = floor(a/b) is the partial quotient, since a/b < k + 1 is at
    least 1/b below k + 1 and b(k + 1) <= a + b keeps the rounded quotient
    below k + 1 (a + b below 2^24 and 2^53, where the rounding's relative error
    is below 1/(a + b)).

    A lane whose remainder reaches 0 has its outputs recorded and is parked on
    the format's pair (_PARK_F32 or _PARK) with q = q_prev = 0: it keeps
    stepping, but by Lame (r <= 32 for d < 2^23, r <= 71 for d < 2^50) it
    cannot finish before every live lane has, its q stays 0 and its alt drifts
    by +-1 a step. Parked lanes leave the arrays through one index array once
    they are at least 1/_COMPACT_SHARE of the live ones. After the format's
    32 or 71 steps, a lane still open or one finished twice raises
    ArithmeticError: a broken kernel fails rather than loops.
    """
    top = int(np.max(d, initial=0))
    if top >= 1 << 50:
        raise ValueError("the float64 lane Euclid needs every d < 2^50")
    # the format, its park pair and Lame's bound on the steps
    dtype, park, steps = (np.float32, _PARK_F32, 32) if top < 1 << 23 else (np.float64, _PARK, 71)
    t_out, inv_out = np.empty(len(c), dtype=dtype), np.empty(len(c), dtype=dtype)
    lane = np.arange(len(c))
    a, b = d.astype(dtype), c.astype(dtype)
    alt = np.zeros(len(c), dtype=dtype)
    q_prev, q = np.zeros(len(c), dtype=dtype), np.ones(len(c), dtype=dtype)  # convergent denominators q_{i-1}, q_i
    odd = False  # whether the number of steps taken is odd
    live, parked = len(c), 0
    for _ in range(steps):
        if not live:
            break
        k = a / b
        np.floor(k, out=k)
        a -= k * b
        a, b = b, a
        if odd:
            alt -= k
        else:
            alt += k
        k *= q
        k += q_prev
        q_prev, q = q, k
        odd = not odd
        done = np.flatnonzero(b == 0)
        if len(done):
            out = lane[done]
            if odd:  # c * q_{r-1} = (-1)^(r-1) (mod d)
                t_out[out], inv_out[out] = alt[done] - 3, q_prev[done]
            else:  # c* = d - q_{r-1}, kept as -q_{r-1} < 0 until the int64 outputs
                t_out[out], inv_out[out] = alt[done] - 1, -q_prev[done]
            a[done], b[done] = park
            q_prev[done] = q[done] = 0
            live -= len(done)
            parked += len(done)
            if live and _COMPACT_SHARE * parked >= live:
                keep = np.flatnonzero(q)  # q >= 1 on every live lane
                # one array at a time, so that each old array is freed before the next copy
                lane = lane.take(keep)
                a = a.take(keep)
                b = b.take(keep)
                alt = alt.take(keep)
                q_prev = q_prev.take(keep)
                q = q.take(keep)
                parked = 0
    if live or q.any():
        raise ArithmeticError(f"the lane Euclid left a lane open, or finished one twice, in {steps} steps")
    inv = inv_out.astype(np.int64)
    inv += (inv >> 63) & d  # d - q_{r-1} where -q_{r-1} was kept: no mixed-type step in the loop
    return t_out.astype(np.int64), inv


def dedekind_sum(c: int, d: int) -> Fraction:
    """Exact s(c,d) via the integer continued-fraction kernel."""
    return Fraction(*dedekind_sum_parts(c, d))


def s_one(d: int) -> Fraction:
    """Closed form s(1,d) = (d-1)(d-2)/(12d), valid for every d >= 1."""
    if d < 1:
        raise ValueError(f"modulus must be >= 1, got {d}")
    return Fraction((d - 1) * (d - 2), 12 * d)


def tilde_sum_numerator(cs, f: int) -> int:
    """12f * sum of tilde s(c,f) over the residues c coprime to f, an integer.

    tilde s(c,f) = sum_{delta|f} mu(delta)/delta * s(c, f/delta), and
    12(f/delta) s(c, f/delta) is the integer dedekind_sum_parts(c, f/delta)[0],
    so each term is mu(delta) times one kernel numerator.
    """
    if f < 2:
        raise ValueError(f"restricted sum needs modulus >= 2, got {f}")
    return sum(mu * dedekind_sum_parts(c, f // e)[0] for e in divisors(f) if (mu := mobius(e)) for c in cs)


def dedekind_sum_tilde(c: int, f: int) -> Fraction:
    """Restricted sum over residues coprime to f.

    tilde s(c,f) = sum_{delta | f} mu(delta)/delta * s(c, f/delta), taken as
    one integer over 12f through the fast engine.
    """
    return Fraction(tilde_sum_numerator((c,), f), 12 * f)


def dedekind_sum_tilde_naive(c: int, f: int) -> Fraction:
    """Same Moebius combination as one Fraction per divisor over the naive
    sawtooth oracle (tests)."""
    if f < 2:
        raise ValueError(f"restricted sum needs modulus >= 2, got {f}")
    _check_args(c, f)
    return sum((Fraction(mu, e) * dedekind_sum_naive(c, f // e) for e in divisors(f) if (mu := mobius(e))), Fraction(0))


def tilde_s_one(f: int) -> Fraction:
    """Closed form tilde s(1,f) = phi(f)/12 * (prod_{p|f}(1+1/p) - 3/f)."""
    if f < 2:
        raise ValueError(f"need f >= 2, got {f}")
    prod = Fraction(1)
    for p, _ in factorize(f):
        prod *= 1 + Fraction(1, p)
    return Fraction(totient(f), 12) * (prod - Fraction(3, f))


def s_near_one_closed(f: int, f_prime: int) -> Fraction:
    """Common value of s(1+k*f', f) over k coprime to f.

    Requires f' | f and f | f'^2; the value is f'^2/(12f) - 1/4 + 1/(6f)
    and in particular does not depend on k.
    """
    if f < 1 or f_prime < 1:
        raise ValueError("need f >= 1 and f' >= 1")
    if f % f_prime != 0:
        raise ValueError(f"{f_prime} does not divide {f}")
    if (f_prime * f_prime) % f != 0:
        raise ValueError(f"{f} does not divide {f_prime}^2")
    return Fraction(f_prime * f_prime, 12 * f) - Fraction(1, 4) + Fraction(1, 6 * f)
