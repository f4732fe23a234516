"""Mean square values of L(1,chi) over character subgroups.

Exact side: subgroup sums S(H,f) and tilde S(H,f) of Dedekind sums, the
mean square M(f,H) carried as an exact rational multiple of pi^2, the
integers N(H,p) = 12 S(H,p) - p, and the closed forms for the trivial
subgroup and for the order-3 subgroups coming from f = a^2+ab+b^2.

Numeric side: L(1,chi) for odd chi mod f through the cotangent sum
(pi/2f) * sum_a chi(a) cot(pi a / f), which is valid for imprimitive
characters as well. Written over the exponent grid of unit_group(f) the sum
is a discrete Fourier transform, so one inverse FFT per modulus gives every
L(1,chi) at once; mean_square_numeric averages |L|^2 over the grid mask of
X_f^-(H). Measured against mean_square_exact with |H| = 3, the relative error
is below 1e-15 for prime f = 20011, 99991 and 1000003 and for composite
f = 9919 and 99463; f = 1000003 takes about 0.5 s and 210 MB on a
2-core x86 VM. The digamma-series oracle that cross-checks single L-values
lives in the tests.

The Euler factor Pi(f,H) of the class-number bound is an exact rational:
X_f^-(H) is Galois-stable, so the primitive values chi*(q) come in full sets
of primitive d-th roots of unity, and each set contributes Phi_d(q)/q^phi(d).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Context, Decimal, localcontext
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .dedekind import dedekind_sum_parts, tilde_s_one, tilde_sum_numerator
from .numkernel import divisors, factorize, is_prime, mobius, totient
from .unitgroups import DirichletCharacter, Subgroup, euler_phase_orders, odd_character_mask, unit_group

__all__ = [
    "PiSquared",
    "euler_correction_pi",
    "kernel_sum_closed",
    "l_one_numeric",
    "mean_order_closed",
    "mean_square_closed_h3",
    "mean_square_closed_trivial",
    "mean_square_exact",
    "mean_square_numeric",
    "n_value",
    "subgroup_sum_S",
    "subgroup_sum_tilde",
]


def _machin_pi(digits: int) -> int:
    """floor(pi * 10^digits) up to a few units, from 16 atan(1/5) - 4 atan(1/239) in integers."""
    scale = 10 ** (digits + 10)

    def atan_inv(k: int) -> int:
        total, term, n, sign = 0, scale // k, 1, 1
        while term:
            total += sign * (term // n)
            term, n, sign = term // (k * k), n + 2, -sign
        return total

    return (16 * atan_inv(5) - 4 * atan_inv(239)) // 10**10


_PI_DIGITS = 100
_PI2 = _machin_pi(_PI_DIGITS) ** 2  # pi^2 * 10^200, to a relative 1e-99


@dataclass(frozen=True)
class PiSquared:
    """An exact rational coefficient c standing for the real number c * pi^2."""

    coefficient: Fraction

    def __float__(self) -> float:
        return float(self.coefficient) * math.pi**2

    def approx_decimal(self) -> str:
        """c * pi^2 rounded half-even to 30 significant digits, in fixed form for
        decimal exponents -10 < e < 30 and as d.ddd...e+NN outside them."""
        num, den = abs(self.coefficient.numerator), self.coefficient.denominator
        if num == 0:
            return "0.0"
        with localcontext(Context(prec=30, rounding=ROUND_HALF_EVEN)):  # localcontext(prec=) needs 3.11
            v = Decimal(num * _PI2) / (den * 10 ** (2 * _PI_DIGITS))  # c pi^2, off by a relative 1e-99 at most
        e, d = v.adjusted(), "".join(map(str, v.as_tuple().digits)).ljust(30, "0")
        split, tail = 1, f"e{e:+d}"
        if -10 < e < 30:
            d, split, tail = "0" * -e + d, max(e, 0) + 1, ""
        return ("-" if self.coefficient < 0 else "") + d[:split] + "." + d[split:] + tail

    def to_json(self) -> dict:
        return {
            "coef_num": self.coefficient.numerator,
            "coef_den": self.coefficient.denominator,
            "approx_decimal": self.approx_decimal(),
        }


def subgroup_sum_S(sub: Subgroup) -> Fraction:
    """S(H,f) = sum of s(h,f) over h in H, as one integer over 12f."""
    f = sub.modulus
    return Fraction(sum(dedekind_sum_parts(h, f)[0] for h in sub.elements), 12 * f)


def subgroup_sum_tilde(sub: Subgroup) -> Fraction:
    """tilde S(H,f) = sum of tilde s(h,f) over h in H, as one integer over 12f."""
    return Fraction(tilde_sum_numerator(sub.elements, sub.modulus), 12 * sub.modulus)


def mean_square_exact(f: int, sub: Subgroup) -> PiSquared:
    """M(f,H) as an exact multiple of pi^2: coefficient (2/f) * tilde S(H,f)."""
    if f < 3:
        raise ValueError(f"need f >= 3, got {f}")
    if sub.modulus != f:
        raise ValueError("subgroup lives mod a different f")
    if sub.contains_minus_one:
        raise ValueError("-1 in H: mean square over X_f^-(H) is undefined")
    return PiSquared(Fraction(2, f) * subgroup_sum_tilde(sub))


def n_value(p: int, sub: Subgroup) -> Fraction:
    """N(H,p) = 12*S(H,p) - p: the single-prime oracle of the survey scans. For
    n = |H| > 1 the audits raise ArithmeticError unless N is an odd integer and,
    for odd n, 2S = (N + p)/6 is an integer with the parity of (p-1)/2 (an even
    n puts -1 in H, so N = -p). The trivial H gives N = (2-3p)/p."""
    if not is_prime(p) or p < 3:
        raise ValueError(f"{p} is not an odd prime")
    if sub.modulus != p:
        raise ValueError("subgroup lives mod a different prime")
    N = 12 * subgroup_sum_S(sub) - p
    n, two_s = sub.order, (N + p) / 6
    if n > 1 and (N.denominator != 1 or n % 2 and two_s.denominator != 1):
        raise ArithmeticError(f"integrality audit failed at p={p}, n={n}: N={N}, 2S={two_s}")
    if n > 1 and (N % 2 == 0 or n % 2 and (two_s - (p - 1) // 2) % 2):
        raise ArithmeticError(f"parity audit failed at p={p}, n={n}: N={N}, 2S={two_s}")
    return N


def mean_square_closed_trivial(f: int) -> PiSquared:
    """Closed form for M(f,{1}): (2/f) tilde s(1,f) = (1/6)(phi(f)/f)(prod_{p|f}(1+1/p) - 3/f)."""
    if f < 3:
        raise ValueError(f"need f >= 3, got {f}")
    return PiSquared(Fraction(2, f) * tilde_s_one(f))


def mean_square_closed_h3(f: int) -> PiSquared:
    """Closed form for M(f,H_3), H_3 built from a representation f=a^2+ab+b^2.

    Valid exactly when every prime divisor of f is 1 mod 3: each ratio r of
    H_3 has tilde s(r,f) = phi(f)/(12f), so M = (2/f)(tilde s(1,f) + phi(f)/(6f)),
    whose coefficient is (1/6)(phi(f)/f)(prod_{p|f}(1+1/p) - 1/f).
    """
    if f < 3:
        raise ValueError(f"need f >= 3, got {f}")
    bad = [p for p, _ in factorize(f) if p % 3 != 1]
    if bad:
        raise ValueError(f"prime divisor {bad[0]} of {f} is not 1 mod 3")
    return PiSquared(Fraction(2, f) * (tilde_s_one(f) + Fraction(totient(f), 6 * f)))


def kernel_sum_closed(p: int, n: int, f_prime: int) -> Fraction:
    """Closed form for S over the kernel subgroup {1+k*f'} mod f = p^n * f'.

    Requires p >= 3 prime, f' > 1 odd with p | f'. The value is
    ((p^(n+1)+p^n-1)/(12 p^(n+1))) * f - p^n/4 + p^n/(6f).
    """
    if p < 3 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    if n < 1:
        raise ValueError("need n >= 1")
    if f_prime <= 1 or f_prime % 2 == 0 or f_prime % p != 0:
        raise ValueError(f"need f' > 1 odd with {p} | f', got {f_prime}")
    pn = p**n
    f = pn * f_prime
    return Fraction(p * pn + pn - 1, 12 * p * pn) * f - Fraction(pn, 4) + Fraction(pn, 6 * f)


def mean_order_closed(p: int, m: int, n: int) -> Fraction:
    """Mean of s(h, p^m) over the units h of exact order p^n.

    Valid for 1 <= n <= m-1: f/(12 p^(2n)) - 1/4 + 1/(6f) with f = p^m.
    """
    if p < 3 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    if m < 2:
        raise ValueError("need m >= 2")
    if not 1 <= n <= m - 1:
        raise ValueError(f"need 1 <= n <= m-1, got n={n}, m={m}")
    f = p**m
    return Fraction(f, 12 * p ** (2 * n)) - Fraction(1, 4) + Fraction(1, 6 * f)


# ---------------------------------------------------------------------------
# numeric side


@lru_cache(maxsize=8)
def _l_table(f: int) -> np.ndarray:
    """L(1,chi_j) for every exponent vector j of unit_group(f), as an array of shape orders.

    With a(l) = prod g_i^l_i, sum_a chi_j(a) cot(pi a/f) = sum_l cot(pi a(l)/f)
    e^(2 pi i j.l/s) is phi(f) times the inverse DFT of the cotangent grid.
    Even characters get entries too; only the odd ones are L-values.
    """
    g = unit_group(f)
    units = g.grid()
    x = np.pi * np.where(2 * units > f, units - f, units) / f  # |x| < pi/2 keeps cot accurate near a = f-1
    table = np.fft.ifftn(np.cos(x) / np.sin(x)) * (g.phi * np.pi / (2 * f))
    table.flags.writeable = False
    return table


def l_one_numeric(chi: DirichletCharacter) -> complex:
    """L(1,chi) for odd chi mod f via (pi/2f) * sum_a chi(a) cot(pi a/f)."""
    if not chi.is_odd:
        raise ValueError("cotangent formula needs an odd character")
    return complex(_l_table(chi.modulus)[chi.exponents])


def mean_square_numeric(f: int, sub: Subgroup) -> float:
    """Average of |L(1,chi)|^2 over the odd characters trivial on H."""
    if sub.modulus != f:
        raise ValueError("subgroup lives mod a different f")
    return float(np.mean(np.abs(_l_table(f)[odd_character_mask(sub)]) ** 2))


def euler_correction_pi(f: int, sub: Subgroup) -> Fraction:
    """Pi(f,H) = prod over primes q|f and chi in X_f^-(H) of (1 - chi*(q)/q), exactly.

    The c_d characters whose chi*(q) has order d contribute
    (Phi_d(q)/q^phi(d))^(c_d/phi(d)); the characters with q | conductor have
    chi*(q) = 0 and contribute 1.
    """
    if sub.modulus != f:
        raise ValueError("subgroup lives mod a different f")
    pi = Fraction(1)
    for q, orders in euler_phase_orders(sub).items():
        for d, count in orders.items():
            phi_d = totient(d)
            if count % phi_d:
                raise ArithmeticError(f"chi*({q}) of order {d} on {count} characters, not a multiple of {phi_d}")
            cyclotomic = math.prod(Fraction(q**e - 1) ** mobius(d // e) for e in divisors(d))  # Phi_d(q)
            pi *= (cyclotomic / q**phi_d) ** (count // phi_d)
    return pi
