import math
from fractions import Fraction

import pytest

from dsums.dedekind import dedekind_sum_tilde
from dsums.eisenstein import (
    _positive_pairs,
    e_f,
    order3_subgroups_from_ef,
    representations,
)
from dsums.meansquare import subgroup_sum_tilde
from dsums.numkernel import factorize, totient
from dsums.unitgroups import element_order, subgroup_from_generator
from dsums.verify import eisenstein_moduli


def test_representations_examples():
    assert representations(7) == [(2, 1)]
    assert representations(91) == [(9, 1), (6, 5)]
    assert representations(49) == [(5, 3)]
    for f in (7, 49, 91, 1729):
        for a, b in representations(f):
            assert a * a + a * b + b * b == f and math.gcd(a, b) == 1


def test_representations_reject_bad_modulus():
    for bad in (3, 5, 15, 21, 33, 98):
        with pytest.raises(ValueError):
            representations(bad)


def test_ratio_examples():
    assert sorted(e_f(7)) == [2, 4]
    assert sorted(e_f(91)) == [9, 16, 74, 81]
    assert sorted(e_f(49)) == [18, 30]
    assert len(e_f(1729)) == 8


def test_ratio_properties():
    for f in (7, 13, 49, 91, 133, 169, 1729):
        ratios = e_f(f)
        assert len(set(ratios)) == len(ratios) == 1 << len(factorize(f))
        # each ratio is a/b mod f for its pair of _positive_pairs, in that order
        assert ratios == [a * pow(b, -1, f) % f for a, b in _positive_pairs(f)]
        for r in ratios:
            assert element_order(r, f) == 3


def test_cardinality_sweep():
    for f in eisenstein_moduli(2 * 10**4):
        assert len(e_f(f)) == 1 << len(factorize(f))


def test_order3_subgroups():
    subs = order3_subgroups_from_ef(91)
    assert sorted(tuple(s.elements) for s in subs) == [(1, 9, 81), (1, 16, 74)]
    assert [tuple(s.elements) for s in order3_subgroups_from_ef(7)] == [(1, 2, 4)]
    assert [tuple(s.elements) for s in order3_subgroups_from_ef(49)] == [(1, 18, 30)]
    for f in (91, 133, 1729):
        subs = order3_subgroups_from_ef(f)
        assert len(subs) == 1 << (len(factorize(f)) - 1)
        for s in subs:
            assert s.is_closed()


def test_counterexample_at_91():
    want = Fraction(666, 91)
    assert subgroup_sum_tilde(subgroup_from_generator(91, 29)) == Fraction(610, 91) != want
    assert subgroup_sum_tilde(subgroup_from_generator(91, 53)) == Fraction(562, 91) != want
    assert dedekind_sum_tilde(29, 91) == Fraction(-22, 91)
    assert dedekind_sum_tilde(53, 91) == Fraction(-46, 91)
    assert dedekind_sum_tilde(9, 91) == Fraction(6, 91) == Fraction(totient(91), 12 * 91)
