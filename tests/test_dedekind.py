import math
from fractions import Fraction

import pytest
from mpmath import mp

from dsums.dedekind import (
    dedekind_sum,
    dedekind_sum_naive,
    dedekind_sum_tilde,
    dedekind_sum_tilde_naive,
    s_near_one_closed,
    s_one,
    tilde_s_one,
)


@pytest.mark.parametrize(
    "c,d,want",
    [
        (5, 1, Fraction(0)),
        (1, 9, Fraction(14, 27)),
        (3, 5, Fraction(0)),
        (2, 7, Fraction(1, 14)),
        (4, 9, Fraction(-4, 27)),
        (7, 9, Fraction(-4, 27)),  # 7 = 4^-1 mod 9
        (4, 27, Fraction(73, 162)),
        (13, 27, Fraction(-143, 162)),
    ],
)
def test_pinned_values(c, d, want):
    assert dedekind_sum(c, d) == want
    assert dedekind_sum_naive(c, d) == want


def test_s_one_closed_form():
    assert s_one(1) == 0
    assert s_one(7) == Fraction(5, 14)
    assert s_one(9) == Fraction(14, 27)
    for d in range(1, 200):
        assert s_one(d) == dedekind_sum(1, d)


def test_rejects_non_coprime():
    with pytest.raises(ValueError):
        dedekind_sum(2, 8)
    with pytest.raises(ValueError):
        dedekind_sum_naive(6, 9)
    with pytest.raises(ValueError):
        dedekind_sum(1, 0)


def test_cotangent_definition_matches():
    """The sawtooth oracle agrees with the defining cotangent sum."""
    with mp.workdps(40):
        for c, d in ((2, 7), (4, 9), (5, 12), (8, 13), (7, 30)):
            cot = sum(
                mp.cot(mp.pi * a / d) * mp.cot(mp.pi * a * c / d)
                for a in range(1, d)
                if (a * c) % d  # cot has poles only at multiples of d
            ) / (4 * d)
            assert abs(cot - mp.mpf(str(dedekind_sum_naive(c, d)))) < mp.mpf("1e-30")


@pytest.mark.parametrize(
    "c,f,want",
    [
        (29, 91, Fraction(-22, 91)),
        (53, 91, Fraction(-46, 91)),
        (9, 91, Fraction(6, 91)),
    ],
)
def test_tilde_91_values(c, f, want):
    assert dedekind_sum_tilde(c, f) == want


def test_tilde_closed_form():
    assert tilde_s_one(12) == Fraction(7, 12)
    assert tilde_s_one(9) == Fraction(1, 2)
    for p in (5, 7, 11, 13, 101):
        assert tilde_s_one(p) == s_one(p)


def test_tilde_engines_agree():
    for f in range(2, 80):
        for c in range(1, f):
            if math.gcd(c, f) == 1:
                assert dedekind_sum_tilde(c, f) == dedekind_sum_tilde_naive(c, f)


def test_tilde_matches_restricted_cotangent_sum():
    """Check the restricted-sum definition itself, independently of Moebius."""
    with mp.workdps(40):
        for c, f in ((5, 12), (29, 91), (7, 36), (11, 60)):
            cot = sum(
                mp.cot(mp.pi * n / f) * mp.cot(mp.pi * n * c / f)
                for n in range(1, f)
                if math.gcd(n, f) == 1
            ) / (4 * f)
            assert abs(cot - mp.mpf(str(dedekind_sum_tilde(c, f)))) < mp.mpf("1e-30")


def test_tilde_rejects_bad_args():
    with pytest.raises(ValueError):
        dedekind_sum_tilde(3, 9)
    with pytest.raises(ValueError):
        dedekind_sum_tilde(1, 1)


def test_near_one_closed():
    assert s_near_one_closed(9, 3) == Fraction(-4, 27) == dedekind_sum(4, 9)
    assert s_near_one_closed(25, 5) == Fraction(-4, 25) == dedekind_sum(6, 25)
    assert s_near_one_closed(4, 2) == Fraction(-1, 8) == dedekind_sum(3, 4)
    assert s_near_one_closed(1, 1) == 0


def test_near_one_closed_preconditions():
    with pytest.raises(ValueError):
        s_near_one_closed(27, 3)  # 27 does not divide 9
    with pytest.raises(ValueError):
        s_near_one_closed(9, 2)
