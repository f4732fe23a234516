"""Acceptance gate: each test pins one criterion at its stated size and
tolerance and prints one pass/fail line. Everything here is exact integer or
rational equality unless a float tolerance is spelled out in the criterion.

Criteria 4-13 are identity families; each runs the `dsums verify` suite that
checks the family, at a pinned size and with a pinned case count, and keeps
the criterion's literal values as explicit asserts.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete (the B = 1e6 table reproduction dominates).
"""

import functools
from contextlib import contextmanager
from fractions import Fraction

from dsums.classnumber import relative_class_number
from dsums.dedekind import dedekind_sum, dedekind_sum_tilde
from dsums.meansquare import mean_square_closed_h3, n_value, subgroup_sum_tilde
from dsums.numkernel import factorize, sieve_upto, totient
from dsums.survey import scan_fixed_n, scan_window
from dsums.unitgroups import elements_of_order, subgroup_from_generator
from dsums.verify import cross_check_pairs, eisenstein_moduli, run_suite


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:2d}] FAIL  {desc}")
        raise
    print(f"[criterion {num:2d}] PASS  {desc}")


@functools.cache
def suite(name, max_modulus):
    """The report of one verify suite; criteria that share a suite share one run."""
    (rep,) = run_suite(name, max_modulus)
    return rep


def assert_suite(name, max_modulus, run):
    rep = suite(name, max_modulus)
    assert rep.ok and rep.run == run, rep.summary()


TABLE_1E5 = {5: (2387, 1335), 7: (1593, 823), 9: (1592, 838),
             11: (945, 506), 13: (798, 397), 15: (1189, 648)}

TABLE_1E6 = {9: (13063, 6820), 5: (19617, 10403), 7: (13063, 6770),
             11: (7858, 4099), 13: (6539, 3307), 15: (9807, 5129)}


def test_criterion_01_table_rows_1e5():
    with criterion(1, "B=1e5 density rows match exactly"):
        for n, want in TABLE_1E5.items():
            rep = scan_fixed_n(n, 10**5)
            assert (rep.c_prime, rep.c_leq0) == want, (n, rep)


def test_criterion_02_table_rows_1e6():
    with criterion(2, "B=1e6 density rows match exactly"):
        for n, want in TABLE_1E6.items():
            rep = scan_fixed_n(n, 10**6)
            assert (rep.c_prime, rep.c_leq0) == want, (n, rep)


def test_criterion_03_windowed_scan_1e10():
    with criterion(3, "window A=1e10, span=1e6 matches (7226, 3695)"):
        rep = scan_window(9, 10**10, 10**6)
        assert (rep.c_prime, rep.c_leq0) == (7226, 3695)
        assert rep.rho.startswith("0.51134")


def test_criterion_04_restricted_sum_values_at_91():
    with criterion(4, "exact restricted-sum values at f=91"):
        assert dedekind_sum_tilde(29, 91) == Fraction(-22, 91)
        assert dedekind_sum_tilde(53, 91) == Fraction(-46, 91)
        assert dedekind_sum_tilde(9, 91) == Fraction(6, 91)
        assert subgroup_sum_tilde(subgroup_from_generator(91, 29)) == Fraction(610, 91)
        assert subgroup_sum_tilde(subgroup_from_generator(91, 53)) == Fraction(562, 91)
        assert mean_square_closed_h3(91).coefficient * 91 / 2 == Fraction(666, 91)
        assert_suite("eisenstein", 10**4, 5434)


def test_criterion_05_order3_n_value_is_minus_one():
    with criterion(5, "N(H_3,p) = -1 for all p = 1 mod 6, p <= 1e4"):
        assert sum(1 for p in map(int, sieve_upto(10**4)) if p % 6 == 1) == 611
        assert_suite("mean-square", 2000, 1217)


def test_criterion_06_mersenne_identity():
    with criterion(6, "N(p,<2>) = 2p-(6n-3) at Mersenne primes"):
        subs = [subgroup_from_generator(p, 2) for p in (7, 31, 127, 8191)]
        assert [(s.order, n_value(s.modulus, s)) for s in subs] == [(3, -1), (5, 35), (7, 215), (13, 16307)]
        assert_suite("mean-square", 2000, 1217)


def test_criterion_07_oracle_equivalence_to_300():
    with criterion(7, "fast = naive sawtooth for all coprime pairs, d <= 300"):
        assert_suite("reciprocity", None, 67930)


def test_criterion_08_exact_vs_numeric_mean_square():
    with criterion(8, ">= 50 pairs f <= 2000: |numeric-exact|/exact < 1e-8"):
        pairs = cross_check_pairs(2000)
        assert len(pairs) >= 50
        assert any(len(factorize(f)) > 1 for f, _ in pairs)
        assert any(s.generators == () and s.order > 1 for _, s in pairs)  # kernels
        assert_suite("mean-square", 2000, 1217)


def test_criterion_09_kernel_theorem_grid():
    with criterion(9, "kernel closed form + consequences on the (p,n,f') grid"):
        assert_suite("kernel-theorem", None, 168)


def test_criterion_10_constancy_and_mean_order():
    with criterion(10, "constancy for n <= m/2, mean formula for n <= m-1, witness at 27"):
        for p in (3, 5, 7):
            for m in range(2, 7):
                for n in range(1, m // 2 + 1):
                    assert len(elements_of_order(p**n, p**m)) == totient(p**n)
        assert dedekind_sum(4, 27) == Fraction(73, 162)
        assert dedekind_sum(13, 27) == Fraction(-143, 162)
        assert_suite("constancy", None, 3280)


def test_criterion_11_denominator_theorems():
    with criterion(11, "2d*gcd(3,d)*s integral on 1e4 pairs; parity on odd f <= 1000"):
        assert_suite("denominators", None, 11840)
        assert_suite("theorem-parity", 1000, 39605)


def test_criterion_12_eisenstein_layer():
    with criterion(12, "|E_f| = 2^t and closed tilde S for valid f <= 1e4"):
        assert eisenstein_moduli(10**4)[:4] == [7, 13, 19, 31]
        assert_suite("eisenstein", 10**4, 5434)


def test_criterion_13_class_numbers():
    with criterion(13, "h^-(23) = 3; full-field and order-3 subfield bound chains"):
        assert relative_class_number(23, 22) == 3
        assert_suite("class-number", None, 20)
