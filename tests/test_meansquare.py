import cmath
import json
import math
from fractions import Fraction
from functools import lru_cache

import pytest
from mpmath import mp

from dsums import meansquare
from dsums.meansquare import (
    PiSquared,
    euler_correction_pi,
    kernel_sum_closed,
    l_one_numeric,
    mean_order_closed,
    mean_square_closed_h3,
    mean_square_closed_trivial,
    mean_square_exact,
    mean_square_numeric,
    n_value,
    subgroup_sum_S,
    subgroup_sum_tilde,
)
from dsums.dedekind import dedekind_sum, s_one
from dsums.eisenstein import order3_subgroups_from_ef
from dsums.numkernel import divisors, factorize
from dsums.unitgroups import (
    characters,
    cyclic_subgroups,
    elements_of_order,
    kernel_subgroup,
    odd_characters_trivial_on,
    subgroup_from_elements,
    subgroup_from_generator,
    subgroup_of_order,
    unit_group,
)
from dsums.verify import cross_check_pairs, trivial_subgroup


def test_subgroup_sum_examples():
    assert subgroup_sum_S(subgroup_from_elements(7, (1, 2, 4))) == Fraction(1, 2)
    assert subgroup_sum_S(kernel_subgroup(9, 3)) == Fraction(2, 9)
    for d in (11, 24, 91):
        assert subgroup_sum_S(trivial_subgroup(d)) == s_one(d)


def test_subgroup_sum_tilde_91():
    assert subgroup_sum_tilde(subgroup_from_elements(91, (1, 9, 81))) == Fraction(666, 91)
    assert subgroup_sum_tilde(subgroup_from_generator(91, 29)) == Fraction(610, 91)
    assert subgroup_sum_tilde(subgroup_from_generator(91, 53)) == Fraction(562, 91)


def test_mean_square_exact_examples():
    assert mean_square_exact(7, subgroup_of_order(3, 7)).coefficient == Fraction(1, 7)
    h91 = subgroup_from_elements(91, (1, 9, 81))
    assert mean_square_exact(91, h91).coefficient == Fraction(1332, 8281)
    assert mean_square_exact(9, kernel_subgroup(9, 3)).coefficient == Fraction(1, 27)


def test_mean_square_exact_rejects_minus_one():
    with pytest.raises(ValueError):
        mean_square_exact(7, subgroup_from_generator(7, 6))


def test_n_value_examples():
    assert n_value(7, subgroup_of_order(3, 7)) == -1
    h31 = subgroup_from_generator(31, 2)
    assert h31.order == 5 and n_value(31, h31) == 35
    for p in (5, 11, 23):
        assert n_value(p, trivial_subgroup(p)) == Fraction(2 - 3 * p, p)
        assert n_value(p, trivial_subgroup(p)) < 0


def test_subgroup_sum_report_invariants():
    h7 = subgroup_of_order(3, 7)
    assert subgroup_sum_S(h7) == Fraction(1, 2) and 2 * subgroup_sum_S(h7) == 1
    assert n_value(7, h7) == -1
    p = 19
    sub = subgroup_of_order(9, p)
    two_S = 2 * subgroup_sum_S(sub)
    assert two_S.denominator == 1
    assert (int(two_S) - (p - 1) // 2) % 2 == 0
    N = n_value(p, sub)
    assert N.denominator == 1 and int(N) % 2 == 1


# S + 1/2 moves 2S by 1 but keeps N an odd integer: only the parity of 2S sees it.
# S + 1/12 moves N by 1: N + p is no longer a multiple of 6, so 2S is no integer.
@pytest.mark.parametrize("delta, audit", [(Fraction(1, 2), "parity audit"), (Fraction(1, 12), "integrality audit")])
def test_n_value_audits_reject_a_wrong_sum(monkeypatch, delta, audit):
    sum_s = meansquare.subgroup_sum_S
    monkeypatch.setattr(meansquare, "subgroup_sum_S", lambda sub: sum_s(sub) + delta)
    for p, n in ((7, 3), (19, 9), (31, 5), (151, 75)):
        with pytest.raises(ArithmeticError, match=audit):
            n_value(p, subgroup_of_order(n, p))


def test_n_value_audits_2s_on_odd_orders_only(monkeypatch):
    # an even-order H contains -1, so S = 0 and N = -p; the trivial H has N = (2-3p)/p
    for n in (2, 4, 6, 12):
        assert n_value(13, subgroup_of_order(n, 13)) == -13
    sum_s = meansquare.subgroup_sum_S
    monkeypatch.setattr(meansquare, "subgroup_sum_S", lambda sub: sum_s(sub) + Fraction(1, 2))
    assert n_value(13, subgroup_of_order(6, 13)) == 6 - 13  # an odd integer N, and no 2S audit
    assert n_value(13, trivial_subgroup(13)) == Fraction(2 - 39, 13) + 6


def test_closed_trivial():
    assert mean_square_closed_trivial(9).coefficient == Fraction(1, 9)
    assert mean_square_closed_trivial(12).coefficient == Fraction(7, 72)
    for p in (5, 7, 13, 101):
        want = Fraction(1, 6) * (1 - Fraction(1, p)) * (1 - Fraction(2, p))
        assert mean_square_closed_trivial(p).coefficient == want


def test_closed_h3():
    assert mean_square_closed_h3(91).coefficient == Fraction(1332, 8281)
    assert mean_square_closed_h3(7).coefficient == Fraction(1, 7)
    want49 = Fraction(1, 6) * Fraction(42, 49) * (Fraction(8, 7) - Fraction(1, 49))
    assert mean_square_closed_h3(49).coefficient == want49
    with pytest.raises(ValueError):
        mean_square_closed_h3(15)


def test_kernel_sum_closed_matches_brute_force():
    assert kernel_sum_closed(3, 1, 3) == Fraction(2, 9)
    assert kernel_sum_closed(5, 1, 5) == Fraction(6, 5)
    assert kernel_sum_closed(3, 1, 9) == Fraction(109, 54)
    for p, n, fp in ((3, 1, 3), (3, 2, 3), (5, 1, 15), (7, 1, 7), (3, 1, 15)):
        f = p**n * fp
        assert kernel_sum_closed(p, n, fp) == subgroup_sum_S(kernel_subgroup(f, fp))
    with pytest.raises(ValueError):
        kernel_sum_closed(3, 1, 5)  # p does not divide f'
    with pytest.raises(ValueError):
        kernel_sum_closed(3, 1, 6)  # f' even


def test_mean_order_closed_matches_average():
    assert mean_order_closed(3, 2, 1) == Fraction(-4, 27)
    assert mean_order_closed(3, 3, 2) == Fraction(-35, 162)
    assert mean_order_closed(5, 2, 1) == Fraction(-4, 25)
    for p, m in ((3, 4), (5, 3), (7, 2)):
        f = p**m
        for n in range(1, m):
            els = elements_of_order(p**n, f)
            avg = sum((dedekind_sum(h, f) for h in els), Fraction(0)) / len(els)
            assert avg == mean_order_closed(p, m, n)
    with pytest.raises(ValueError):
        mean_order_closed(3, 3, 3)


def test_l_one_anchors():
    chi3 = next(c for c in characters(3) if c.is_odd)
    assert abs(l_one_numeric(chi3) - math.pi / (3 * math.sqrt(3))) < 1e-12
    chi4 = next(c for c in characters(4) if c.is_odd)
    assert abs(l_one_numeric(chi4) - math.pi / 4) < 1e-12
    chi7 = next(c for c in characters(7) if c.is_odd and c.order == 2)
    assert abs(l_one_numeric(chi7) - math.pi / math.sqrt(7)) < 1e-12


def test_l_one_rejects_even():
    even = next(c for c in characters(5) if not c.is_odd and c.order > 1)
    with pytest.raises(ValueError):
        l_one_numeric(even)


def l_one_series_mp(chi):
    """L(1,chi) = -(1/f) sum_a chi(a) psi(a/f) at 30 digits: the digamma route sums the
    Dirichlet series by Euler-Maclaurin inside mpmath and shares no code with the
    cotangent path."""
    f = chi.modulus
    with mp.workdps(30):
        acc = mp.mpc(0)
        for a in unit_group(f).units:
            t = chi.angle(a)
            acc += mp.expjpi(2 * mp.mpf(t.numerator) / t.denominator) * mp.digamma(mp.mpf(a) / f)
        return complex(-acc / f)


def test_l_one_against_series_oracle():
    # >= 10 cases spanning prime, prime power and composite moduli
    cases = []
    for f in (3, 4, 5, 7, 9, 11, 12, 21, 36, 91):
        odd = [c for c in characters(f) if c.is_odd]
        cases.append(odd[0])
        if len(odd) > 2:
            cases.append(odd[2])
    assert len(cases) >= 10
    for chi in cases:
        assert abs(l_one_numeric(chi) - l_one_series_mp(chi)) < 1e-11


def test_mean_square_numeric_matches_exact():
    # 99463 = 7 * 13 * 1093 has a three-axis unit grid (6, 12, 1092)
    cases = [
        (7, subgroup_of_order(3, 7)),
        (9, trivial_subgroup(9)),
        (91, subgroup_from_elements(91, (1, 9, 81))),
        (99991, subgroup_of_order(3, 99991)),
    ]
    cases += [(99463, sub) for sub in order3_subgroups_from_ef(99463)]
    assert len(cases) == 8
    for f, sub in cases:
        exact = float(mean_square_exact(f, sub))
        assert abs(mean_square_numeric(f, sub) - exact) / exact < 1e-9


@lru_cache(maxsize=1 << 14)
def conductor_oracle(chi):
    """Smallest d | f such that chi is trivial on the kernel of (Z/fZ)* -> (Z/dZ)*."""
    f = chi.modulus
    return next(d for d in divisors(f) if chi.is_trivial_on(kernel_subgroup(f, d).elements))


def primitive_value_oracle(chi, q):
    """chi*(q) for the primitive character inducing chi: 0 when q shares a
    factor with the conductor d, else chi at a unit x = q (mod d)."""
    d = conductor_oracle(chi)
    if math.gcd(q, d) != 1:
        return 0j
    f = chi.modulus
    x = next(x for x in range(q % d, f, d) if math.gcd(x, f) == 1)
    return cmath.exp(2j * math.pi * float(chi.angle(x)))


def euler_pi_oracle(f, sub):
    """Pi(f,H) as a float product of (1 - chi*(q)/q), one character and one prime at a time."""
    prod = 1 + 0j
    for q, _ in factorize(f):
        for ch in odd_characters_trivial_on(sub):
            prod *= 1 - primitive_value_oracle(ch, q) / q
    assert abs(prod.imag) < 1e-9
    return prod.real


def test_euler_correction():
    h91 = subgroup_from_elements(91, (1, 9, 81))
    assert euler_correction_pi(91, h91) == Fraction(100, 91)
    for f in (49, 121, 343):
        assert euler_correction_pi(f, trivial_subgroup(f)) == 1
    assert euler_correction_pi(169, subgroup_from_generator(169, 22)) == 1
    # 2^k || f with k >= 3: the 2-part has two axes, <-1> and <5>
    for f, want in ((48, Fraction(40, 27)), (80, Fraction(156, 125)), (120, Fraction(1024, 1215))):
        assert euler_correction_pi(f, trivial_subgroup(f)) == want


def test_cross_check_pairs_repeat_no_pair():
    # the families differ in |H| or in f: trivial H, order n >= 3 at a prime f, kernels of
    # order f/f' at composite f, and order 3 at composite f prime to 3
    for cap, count in ((500, 78), (2000, 123), (10**4, 285)):
        keys = [(f, sub.elements) for f, sub in cross_check_pairs(cap)]
        assert len(keys) == len(set(keys)) == count, cap


def test_euler_correction_matches_oracle():
    cases = cross_check_pairs(2000)
    assert len(cases) == 123 and not any(sub.contains_minus_one for _, sub in cases)
    cases += [(f, sub) for f in (91, 1729, 9919) for sub in order3_subgroups_from_ef(f)]
    cases += [(f, trivial_subgroup(f)) for f in (48, 80, 120)]
    for f, sub in cases:
        want = euler_pi_oracle(f, sub)
        assert abs(euler_correction_pi(f, sub) - want) <= 1e-12 * want, (f, sub.elements[:4])


def test_pisquared_rendering():
    ms = PiSquared(Fraction(1, 7))
    blob = ms.to_json()
    assert blob["coef_num"] == 1 and blob["coef_den"] == 7
    assert blob["approx_decimal"].startswith("1.40994")
    assert len(blob["approx_decimal"].replace(".", "").lstrip("0")) >= 30
    json.dumps(blob)  # serializable
    assert abs(float(ms) - math.pi**2 / 7) < 1e-14


def mp_decimal(c):
    """c pi^2 at 40 digits, printed by mp.nstr to 30 significant digits."""
    with mp.workdps(40):
        return mp.nstr(mp.mpf(c.numerator) / c.denominator * mp.pi**2, 30, strip_zeros=False)


def test_approx_decimal_matches_mpmath():
    # every distinct M(f,H)/pi^2 over the cyclic H without -1, f < 200
    coefs = {mean_square_exact(f, sub).coefficient
             for f in range(3, 200) for sub in cyclic_subgroups(f) if not sub.contains_minus_one}
    assert len(coefs) == 1169
    for c in coefs:
        assert PiSquared(c).approx_decimal() == mp_decimal(c), c
    # the fixed form holds for decimal exponents -10 < e < 30, including a rounding that
    # carries into a new leading digit
    cases = {
        Fraction(0): "0.0",
        Fraction(-1, 6): "-1.64493406684822643647241516665",
        Fraction(1, 10**9): "0.00000000986960440108935861883449099988",
        Fraction(1, 10**20): "9.86960440108935861883449099988e-20",
        Fraction(10**28): "98696044010893586188344909998.8",
        Fraction(10**29): "986960440108935861883449099988.",
        Fraction(10**40): "9.86960440108935861883449099988e+40",
    }
    for c, want in cases.items():
        assert PiSquared(c).approx_decimal() == want == mp_decimal(c), c
    with mp.workdps(80):
        just_below_ten = Fraction(int(mp.floor(10**61 / mp.pi**2)), 10**60)  # c pi^2 = 9.99...9 (59 nines)
    assert PiSquared(just_below_ten).approx_decimal() == "10.0000000000000000000000000000"
    edges = [k * Fraction(10) ** j for k in (1, 3, 7, 11) for j in range(-35, 16)]
    edges += [just_below_ten * Fraction(10) ** j for j in range(-12, 31)] + [Fraction(-(3**500), 7**300)]
    for c in edges:
        assert PiSquared(c).approx_decimal() == mp_decimal(c), c
