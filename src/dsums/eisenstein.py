"""Coprime representations f = a^2 + ab + b^2 and the order-3 units they carry.

When every prime divisor of f is 1 mod 3, f has exactly 2^t unit-orbit
representations (t = number of distinct primes). Each positive pair (a,b)
yields the ratio a/b mod f, an element of order 3; ratios come in inverse
pairs {r, r^2} = {a/b, b/a}, giving 2^(t-1) order-3 subgroups with a closed
mean-square formula. Conjugation swaps (a,b) <-> (b,a), so representations
are reported once per unordered conjugate pair with the a >= b orientation.
The identities these ratios carry, s(r mod delta, delta) = (delta-1)/(12 delta)
for every delta | f among them, are checked by the eisenstein suite of verify.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .numkernel import factorize
from .unitgroups import Subgroup, element_order, subgroup_from_elements

__all__ = ["e_f", "order3_subgroups_from_ef", "representations"]


def _check_modulus(f: int) -> None:
    if f <= 3:
        raise ValueError(f"need f > 3, got {f}")
    for p, _ in factorize(f):
        if p % 3 != 1:
            raise ValueError(f"prime divisor {p} of {f} is not 1 mod 3")


@lru_cache(maxsize=1 << 12)
def _positive_pairs(f: int) -> tuple[tuple[int, int], ...]:
    """All (a,b) with a,b > 0, gcd(a,b) = 1 and a^2+ab+b^2 = f.

    One per unit orbit; scanning b and solving the quadratic in a finds
    both orientations (a,b) and (b,a) of each conjugate pair.
    """
    pairs = []
    b = 1
    while 3 * b * b <= 4 * f:
        disc = 4 * f - 3 * b * b
        d = math.isqrt(disc)
        if d * d == disc and (d - b) % 2 == 0:
            a = (d - b) // 2
            if a > 0 and math.gcd(a, b) == 1:
                pairs.append((a, b))
        b += 1
    return tuple(sorted(pairs, key=lambda ab: (ab[1], ab[0])))


def representations(f: int) -> list[tuple[int, int]]:
    """Coprime representations (a, b) of f, one per unordered conjugate pair.

    Canonical orientation a >= b; ordered by increasing b. The number of
    representations is 2^(t-1) for t distinct prime divisors.
    """
    _check_modulus(f)
    reps = [(a, b) for a, b in _positive_pairs(f) if a >= b]
    if len(reps) != 1 << (len(factorize(f)) - 1):
        raise ArithmeticError(f"representation count off at f={f}")  # pragma: no cover
    return reps


def e_f(f: int) -> list[int]:
    """The 2^t ratios a/b mod f, each of multiplicative order 3, in the order of _positive_pairs."""
    _check_modulus(f)
    out = []
    seen = set()
    for a, b in _positive_pairs(f):
        r = a * pow(b, -1, f) % f
        if r in seen:
            raise ArithmeticError(f"duplicate ratio {r} at f={f}")  # pragma: no cover
        seen.add(r)
        out.append(r)
    if len(out) != 1 << len(factorize(f)):
        raise ArithmeticError(f"|E_f| != 2^t at f={f}")  # pragma: no cover
    for r in out:
        if element_order(r, f) != 3:
            raise ArithmeticError(f"ratio {r} mod {f} not of order 3")  # pragma: no cover
    return out


def order3_subgroups_from_ef(f: int) -> list[Subgroup]:
    """The 2^(t-1) subgroups {1, a/b, b/a} generated by the E_f ratios."""
    subs = []
    seen = set()
    for r in e_f(f):
        inv = r * r % f  # r^3 = 1, so r^-1 = r^2
        key = min(r, inv)
        if key in seen:
            continue
        seen.add(key)
        subs.append(subgroup_from_elements(f, (1, r, inv), generators=(key,)))
    return subs
