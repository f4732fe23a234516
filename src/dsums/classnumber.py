"""Relative class numbers h^- of imaginary subfields of Q(zeta_p), and the
upper bounds that follow from the exact mean square values.

h^- = w prod(-B_{1,chi}/2) over the m/2 odd characters of the degree-m field
(Washington, GTM 83, Thm 4.17). With g the primitive root of unit_group(p)
and c_t the sum of g^k mod p over k = t (mod m), prod p*B_{1,chi} is the
integer R = Res(y^(m/2) + 1, sum g_t y^t), g_t = c_t - c_{t+m/2}: the Maillet
determinant (Carlitz-Olson, Proc. AMS 6, 1955), read mod primes l = 1 (mod m)
and joined by CRT until the modulus passes 2 (sum g_t^2)^(m/4) >= 2|R|. Mod l
the G(w^i) over the odd i are one length-m/2 DFT, taken by a mixed-radix
transform over the prime factors of m/2. The c_t are summed over chunks of the
powers of g, in O(m + 2^18) cells for any p < 2^31. The full field takes about
0.003 s at p = 199, 0.03 s at p = 1009, 0.1 s at p = 2003 and 0.5 s at p = 4001
on a 2-core x86 VM (1.7 s at p = 2039, where m/2 = 1019 is prime); b1_chi_mp
stays the oracle.

The bounds take any imaginary degree m, the full field m = p - 1 and the
order-3 subfield m = (p-1)/3 among them; bound_chain decides them exactly.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
from mpmath import mp

from .meansquare import char_value_mp, euler_correction_pi, mean_square_exact
from .numkernel import factorize, is_prime, mulmod, power_table, primes_in_progression, totient
from .unitgroups import DirichletCharacter, Subgroup, subgroup_of_order, unit_group

__all__ = [
    "b1_chi_mp",
    "bound_chain",
    "general_bound",
    "relative_class_number",
    "upper_bound_simple",
    "upper_bound_subfield",
]

_TABLE_CELLS = 1 << 18  # int64 cells in a chunk of powers of g
_LANE_CELLS = 1 << 15  # int64 cells in a block of lanes' powers of w or of gathered butterfly rows
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)  # the first tries for a q-th non-power mod l


def _roots_of_unity(p: int, m: int) -> int:
    """w_K of the degree-m imaginary subfield K of Q(zeta_p): 2p for the full field, 2 for
    every proper subfield; ValueError unless p is an odd prime and (p-1)/m is odd."""
    if not is_prime(p) or p < 3:
        raise ValueError(f"{p} is not an odd prime")
    if m < 1 or (p - 1) % m or (p - 1) // m % 2 == 0:
        raise ValueError(f"degree must divide p-1 with an odd cofactor (an imaginary field), got m={m}")
    return 2 * p if m == p - 1 else 2


def _crt_primes(m: int, need_bits: int) -> list[int]:
    """Primes l = 1 (mod m), downward from the ceiling where (m/2)(l-1)^2 < 2^63
    (so a sum of m/2 products of residues mod l cannot wrap in int64), until their
    product has more than need_bits bits; ValueError if they run out first. They are
    sieved from windows of the progression, each sized for about 1.5 times the primes
    still wanted at a density of one in phi(m) ln(l) integers."""
    top = math.isqrt((2**63 - 1) // (m // 2))
    hi, ells, mod = top // m * m + 1, [], 1
    while mod.bit_length() <= need_bits and hi > m:
        want = (need_bits - mod.bit_length()) // (hi.bit_length() - 1) + 1
        lo = max(m + 1, hi - math.ceil(1.5 * want * totient(m) * math.log(hi)))
        for ell in reversed(primes_in_progression(lo, hi - lo, m, 1).tolist()):
            if mod.bit_length() > need_bits:
                break
            ells.append(ell)
            mod *= ell
        hi = lo - 1
    if mod.bit_length() <= need_bits:
        raise ValueError(f"the primes l = 1 (mod {m}) up to {top + 1} give too few bits for the resultant")
    return ells


def _power_bits(s2: int, n: int) -> int:
    """(s2**n).bit_length() for s2 >= 1 without the power, floor(n log2 s2) + 1: for
    n log2 s2 < 2^40 (p < 2^31 keeps it below 2^37) the float is off by less than 2^-11,
    so only a float within 2^-10 of an integer takes the exact power."""
    x = n * math.log2(s2)
    return math.floor(x) + 1 if abs(x - round(x)) > 2**-10 else (s2**n).bit_length()


def _root_of_order(m: int, ell: int, parts: list[tuple[int, int]]) -> int:
    """An element of order m mod the prime ell = 1 (mod m), parts the prime powers
    q^k of m: the product over q of x^((ell-1)/q^k), which has order q^k for the
    first x that is no q-th power mod ell. The x are the primes to 37 first (below
    the first such prime, every x is a product of q-th powers), then all x < ell.
    Each x^((ell-1)/m) is raised once, and the q-parts are its small powers."""
    e, w, ys = (ell - 1) // m, 1, {}
    for q, qk in parts:
        for x in itertools.chain(_BASES, range(_BASES[-1] + 1, ell)):  # ell has q-th non-powers below it
            if x not in ys:
                ys[x] = pow(x, e, ell)
            u = pow(ys[x], m // qk, ell)
            if (u if qk == q else pow(u, qk // q, ell)) != 1:
                w = w * u % ell
                break
    return w


def _resultant_residues(g: np.ndarray, m: int, ells: list[int]) -> list[int]:
    """Res(y^(m/2) + 1, sum g_t y^t) mod each l as prod G(w^i) over the odd i < m,
    w of order m mod l. With zeta = w^2 and a_t = g_t w^t, G(w^(2j+1)) = sum_t a_t zeta^(jt)
    is a length-n DFT, n = m/2, taken by mixed-radix Cooley-Tukey over the prime factors
    r of n: each stage is an r-point butterfly, one matrix product per lane with sums of
    r <= n products below 2^63, then twiddles. Only the product of the n outputs is
    needed, so they stay in digit-reversed order. The l go in blocks of int64 lanes, and
    the butterfly rows in blocks, so that no temporary passes max(_LANE_CELLS, m) cells."""
    n = m // 2
    parts = [(q, q**k) for q, k in factorize(m)]
    radices = [r for r, k in factorize(n) for _ in range(k)]
    res, step = [], max(1, _LANE_CELLS // m)
    for block in (ells[i : i + step] for i in range(0, len(ells), step)):
        lanes = len(block)
        ell = np.array(block, dtype=np.int64)[:, None]
        w = np.array([_root_of_order(m, l, parts) for l in block], dtype=np.int64)
        pw = power_table(w, m, ell[:, 0]).T.copy()  # pw[l, k] = w^k mod l
        x = mulmod(g % ell, pw[:, :n], ell)
        size = n  # x holds n/size transforms of length size, each stored t = t1*s + t2
        for r in radices:
            s = size // r  # t1 goes first, so that one matrix product a lane covers all n/size transforms
            xt = x.reshape(lanes, n // size, r, s).transpose(0, 2, 1, 3).reshape(lanes, r, n // r)
            rows = min(r, max(1, _LANE_CELLS // r))
            per = max(1, _LANE_CELLS // (rows * r))
            y = np.empty_like(xt)
            for j0 in range(0, r, rows):  # row j of the butterfly is zeta^(jt n/r) = w^(jt m/r)
                omega = np.outer(np.arange(j0, min(j0 + rows, r)), np.arange(r))
                omega %= r
                omega *= m // r
                for l0 in range(0, lanes, per):
                    y[l0 : l0 + per, j0 : j0 + rows] = np.take(pw[l0 : l0 + per], omega, axis=1) @ xt[l0 : l0 + per]
            y %= ell[:, :, None]
            if s > 1:  # the twiddles zeta^(j t2 n/size), the same for all n/size transforms
                twiddle = np.take(pw, np.outer(np.arange(r), np.arange(s)) * (m // size) % m, axis=1)
                y = mulmod(y.reshape(lanes, r, n // size, s), twiddle[:, :, None], ell[:, :, None, None])
            x, size = y.reshape(lanes, n), s
        while x.shape[1] > 1:  # prod of the outputs by halves
            half = x.shape[1] // 2
            x = np.concatenate((mulmod(x[:, :half], x[:, half : 2 * half], ell), x[:, 2 * half :]), axis=1)
        res += x[:, 0].tolist()
    return res


def relative_class_number(p: int, m: int) -> int:
    """h^- of the degree-m imaginary subfield of Q(zeta_p), exactly: R mod primes l until the
    CRT modulus exceeds 2 (sum g_t^2)^(m/4) >= 2|R| (ValueError if they run out), then
    h^- = w (-1)^(m/2) R / (2p)^(m/2), or ArithmeticError if that is no positive integer.

    R is the product of G(eta) over the n = m/2 roots eta of y^n = -1, and by Parseval
    sum |G(eta)|^2 = n sum g_t^2, so AM-GM gives |R| <= (sum g_t^2)^(n/2)."""
    w_k, n = _roots_of_unity(p, m), m // 2
    if p >= 1 << 31:
        raise ValueError(f"p = {p} is too large for the int64 power tables")
    # c_t = sum of g^k mod p over k = t (mod m), t = 0..m-1, in chunks of whole rows of m powers
    root, step = unit_group(p).generators[0], max(1, _TABLE_CELLS // m) * m
    c = sum((power_table(root, min(step, p - 1 - k), p) * pow(root, k, p) % p).reshape(-1, m).sum(axis=0)
            for k in range(0, p - 1, step))
    g = c[:n] - c[n:]
    s2 = sum(x * x for x in g.tolist())
    ells = _crt_primes(m, (_power_bits(s2, n) + 1) // 2 + 1)  # 2^(bits) > 2 (sum g_t^2)^(n/2) >= 2|R|
    r, mod = 0, 1
    for ell, x in zip(ells, _resultant_residues(g, m, ells)):
        r += mod * ((x - r) * pow(mod, -1, ell) % ell)
        mod *= ell
    h, rem = divmod((-1) ** n * w_k * (r - mod if 2 * r > mod else r), (2 * p) ** n)
    if rem or h < 1:
        raise ArithmeticError(f"h^-({p},{m}) fails the integrality audit: w (-1)^n R is no positive multiple of (2p)^n")
    return h


def b1_chi_mp(chi: DirichletCharacter):
    """Generalized Bernoulli number B_{1,chi} = (1/f) sum_a a*chi(a).

    Independent oracle for h^- = Q w prod(-B_{1,chi}/2) over odd chi; used
    by the test-suite at the current mpmath precision.
    """
    f = chi.modulus
    acc = mp.mpc(0)
    for a in range(1, f):
        acc += a * char_value_mp(chi, a)
    return acc / f


def _power_or_inf(base: Fraction, expo: float) -> float:
    """float(base) ** expo, or math.inf where that is beyond the float range."""
    try:
        return float(base) ** expo
    except OverflowError:
        return math.inf


def _coef(p: int, m: int) -> Fraction:
    """c with M(p,H) = c pi^2, H the Galois kernel of the degree-m subfield."""
    return mean_square_exact(p, subgroup_of_order((p - 1) // m, p)).coefficient


def upper_bound_subfield(p: int, m: int) -> float:
    """Bound h^- <= w_K * (p*M(p,H)/(4 pi^2))^(m/4) with exact M coefficient;
    math.inf when the bound is beyond the float range."""
    return _roots_of_unity(p, m) * _power_or_inf(Fraction(p, 4) * _coef(p, m), m / 4)


def upper_bound_simple(p: int, m: int) -> float:
    """The simplified bound w_K * (p/24)^(m/4): 2p*(p/24)^((p-1)/4) for the full
    field, 2*(p/24)^((p-1)/12) for the order-3 subfield; math.inf beyond floats."""
    return _roots_of_unity(p, m) * _power_or_inf(Fraction(p, 24), m / 4)


def bound_chain(p: int, m: int, h: int) -> tuple[bool, bool]:
    """(h <= upper_bound_subfield, upper_bound_subfield <= upper_bound_simple),
    decided exactly as h^4 <= w_K^4 (p c/4)^m and c <= 1/6, M(p,H) = c pi^2."""
    c = _coef(p, m)
    return h**4 <= _roots_of_unity(p, m) ** 4 * (Fraction(p, 4) * c) ** m, c <= Fraction(1, 6)


def general_bound(f: int, sub: Subgroup, q_k: int, w_k: int, d_ratio_sqrt: float) -> float:
    """Arithmetic-geometric-mean bound for general modulus f:

    h^- <= (Q_K w_K / Pi(f,H)) * sqrt(d_K/d_{K+}) * (M(f,H)/(4 pi^2))^(n/2),
    with n the number of odd characters trivial on H; the prefactor
    Q_K w_K / Pi(f,H) is exact, since Pi(f,H) is an exact rational.

    The paper's bound for composite f; no CLI command calls it, since Q_K, w_K
    and sqrt(d_K/d_K+) are field invariants the package cannot derive from (f, H).
    """
    if q_k not in (1, 2):
        raise ValueError("Hasse unit index must be 1 or 2")
    coef = mean_square_exact(f, sub).coefficient
    n = totient(f) // (2 * sub.order)
    prefactor = q_k * w_k / euler_correction_pi(f, sub)
    return float(prefactor) * d_ratio_sqrt * float(coef / 4) ** (n / 2)
