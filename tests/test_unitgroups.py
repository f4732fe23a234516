import math

import pytest

from dsums.numkernel import divisors, factorize, totient
from dsums.unitgroups import (
    characters,
    cyclic_subgroups,
    element_order,
    elements_of_order,
    kernel_subgroup,
    odd_characters_trivial_on,
    subgroup_from_elements,
    subgroup_from_generator,
    subgroup_of_order,
    trace,
    unit_group,
)

from test_meansquare import conductor_oracle, primitive_value_oracle


def test_unit_group_examples():
    g7 = unit_group(7)
    assert g7.orders == (6,) and g7.generators == (3,)
    assert sorted(unit_group(8).orders) == [2, 2]
    assert sorted(unit_group(91).orders) == [6, 12]
    assert unit_group(16).phi == 8
    assert unit_group(2).phi == 1 and unit_group(2).units == (1,)


def test_unit_group_generator_orders():
    for f in (3, 4, 8, 9, 15, 16, 24, 91, 100, 360):
        g = unit_group(f)
        assert math.prod(g.orders) == totient(f)
        for gen, order in zip(g.generators, g.orders):
            assert element_order(gen, f) == order


def test_dlog_roundtrip():
    for f in (7, 8, 45, 91):
        g = unit_group(f)
        for x in g.units:
            logs = g.dlog(x)
            v = 1
            for gen, e in zip(g.generators, logs):
                v = v * pow(gen, e, f) % f
            assert v == x


def test_element_order_examples():
    assert element_order(2, 7) == 3
    assert element_order(9, 91) == 3
    assert element_order(1, 97) == 1
    with pytest.raises(ValueError):
        element_order(6, 9)


def test_subgroup_of_order_examples():
    assert subgroup_of_order(3, 7).elements == (1, 2, 4)
    assert subgroup_of_order(3, 13).elements == (1, 3, 9)
    assert subgroup_of_order(1, 29).elements == (1,)
    with pytest.raises(ValueError):
        subgroup_of_order(5, 13)


def test_subgroup_validation():
    sub = subgroup_from_elements(7, (1, 2, 4))
    assert sub.is_closed() and sub.order == 3
    with pytest.raises(ValueError):
        subgroup_from_elements(7, (1, 2))  # not closed
    with pytest.raises(ValueError):
        subgroup_from_elements(9, (1, 3))  # non-unit


def test_subgroups_closed_across_sample():
    for f in (7, 9, 25, 27, 91, 99, 343):
        for sub in cyclic_subgroups(f):
            assert sub.is_closed()
            assert sub.elements[0] == 1


def test_kernel_subgroup_examples():
    assert kernel_subgroup(9, 3).elements == (1, 4, 7)
    assert kernel_subgroup(25, 5).elements == (1, 6, 11, 16, 21)
    assert kernel_subgroup(15, 15).elements == (1,)
    assert kernel_subgroup(12, 3).elements == (1, 7)  # 4, 10 are not units
    with pytest.raises(ValueError):
        kernel_subgroup(10, 4)


def test_kernel_order_is_phi_ratio():
    for f, fp in ((9, 3), (27, 9), (45, 15), (175, 35), (91, 91)):
        assert kernel_subgroup(f, fp).order == totient(f) // totient(fp)


def test_elements_of_order_examples():
    assert elements_of_order(3, 27) == (10, 19)
    assert elements_of_order(9, 27) == (4, 7, 13, 16, 22, 25)
    assert len(elements_of_order(3, 91)) == 8
    assert elements_of_order(5, 27) == ()


def test_order3_counts_f_up_to_500():
    """#order-3 units is twice the number of order-3 subgroups."""
    for f in range(3, 501):
        els = elements_of_order(3, f)
        subs = {tuple(sorted((1, x, x * x % f))) for x in els}
        assert len(els) == 2 * len(subs)
        fac = factorize(f)
        if fac and all(e == 1 and p % 3 == 1 for p, e in fac):
            assert len(subs) == (3 ** len(fac) - 1) // 2


def test_trace_examples():
    for f, elements, want in ((9, (1, 4, 7), (3, 3)), (7, (1, 2, 4), (0, 7)), (11, (1,), (1, 1))):
        t = trace(subgroup_from_elements(f, elements))
        assert (t, math.gcd(f, t)) == want  # gcd(f, 0) = f


def test_character_counts():
    for f, n_odd in ((7, 3), (91, 36), (9, 3), (16, 4), (12, 2)):
        chs = characters(f)
        assert len(chs) == totient(f)
        assert sum(c.is_odd for c in chs) == n_odd
    with pytest.raises(ValueError):
        characters(2)


def test_characters_multiplicative():
    for f in (9, 16, 21):
        g = unit_group(f)
        for ch in characters(f):
            for x in g.units[:6]:
                for y in g.units[:6]:
                    assert (ch.angle(x * y % f) - ch.angle(x) - ch.angle(y)).denominator == 1
            assert ch.angle(f + 1) == ch.angle(1) == 0
            with pytest.raises(ValueError):
                ch.angle(0)


def test_odd_characters_trivial_on_examples():
    assert len(odd_characters_trivial_on(subgroup_of_order(3, 7))) == 1
    sel13 = odd_characters_trivial_on(subgroup_of_order(3, 13))
    assert len(sel13) == 2 and all(c.order == 4 for c in sel13)
    assert len(odd_characters_trivial_on(subgroup_from_elements(9, (1,)))) == 3


def test_odd_characters_counts_general():
    for f, sub in (
        (91, subgroup_from_generator(91, 9)),
        (45, kernel_subgroup(45, 15)),
        (63, kernel_subgroup(63, 21)),
    ):
        sel = odd_characters_trivial_on(sub)
        assert len(sel) == totient(f) // (2 * sub.order)
        for ch in sel:
            assert ch.is_odd and ch.is_trivial_on(sub.elements)


def test_odd_characters_index_arithmetic_matches_exact_filter():
    cases = 0
    for f in range(3, 201):
        odd = [ch for ch in characters(f) if ch.is_odd]
        for sub in cyclic_subgroups(f):
            if sub.contains_minus_one:
                continue
            want = tuple(ch for ch in odd if ch.is_trivial_on(sub.elements))
            assert odd_characters_trivial_on(sub) == want, (f, sub.generators)
            cases += 1
    assert cases == 1807


def test_odd_characters_reject_minus_one():
    with pytest.raises(ValueError):
        odd_characters_trivial_on(subgroup_from_generator(7, 6))  # -1 in H


def test_conductor_examples():
    for ch in characters(9):
        if ch.order > 1 and ch.is_trivial_on((4, 7)):
            assert conductor_oracle(ch) == 3
    for ch in characters(7):
        assert conductor_oracle(ch) == (7 if ch.order > 1 else 1)


def test_conductor_composite():
    # mod 45 characters induced from mod 9 / mod 5 components
    for ch in characters(45):
        d = conductor_oracle(ch)
        assert 45 % d == 0
        assert ch.is_trivial_on(kernel_subgroup(45, d).elements)
        for smaller in (x for x in (1, 3, 5, 9, 15) if x < d and d % x == 0):
            assert not ch.is_trivial_on(kernel_subgroup(45, smaller).elements)


def test_primitive_value():
    # quadratic character mod 7 lifted to modulus 91: chi*(13) = (13|7) = (-1|7) = -1
    quad = [c for c in characters(91) if c.order == 2 and conductor_oracle(c) == 7]
    assert len(quad) == 1
    assert abs(primitive_value_oracle(quad[0], 13) - (-1)) < 1e-12
    assert primitive_value_oracle(quad[0], 7) == 0
    triv = [c for c in characters(91) if c.order == 1][0]
    assert primitive_value_oracle(triv, 7) == 1


def test_primitive_root_deterministic():
    # the generator of unit_group(p) is the smallest primitive root
    assert [unit_group(p).generators[0] for p in (7, 13, 41)] == [3, 2, 6]


# every f up to 200, the 2-power moduli (axes <-1> and <5>) and non-cyclic 91 and 1729
_ORACLE_MODULI = list(range(2, 201)) + [256, 512, 1024, 1729]


def _units_and_orders(f):
    units = [x for x in range(1, f) if math.gcd(x, f) == 1] or [1]
    return units, {x: element_order(x, f) for x in units}


def test_torsion_and_elements_of_order_match_brute_force():
    for f in _ORACLE_MODULI:
        g = unit_group(f)
        units, orders = _units_and_orders(f)
        # every q dividing the exponent, and q that divides no order (2 * exponent, primes not dividing phi)
        for q in list(divisors(g.exponent)) + [2 * g.exponent] + [q for q in (5, 7, 11, 13) if g.phi % q]:
            torsion = [x for x in units if pow(x, q, f) == 1 % f]
            assert sorted(g.torsion(q).ravel().tolist()) == torsion, (f, q)
            assert elements_of_order(q, f) == tuple(x for x in torsion if orders[x] == q), (f, q)


def test_cyclic_subgroups_match_brute_force():
    for f in _ORACLE_MODULI:
        units, orders = _units_and_orders(f)
        least_generator = {}
        for x in units:  # ascending, so the first x to span a subgroup is its least generator
            least_generator.setdefault(tuple(sorted(pow(x, k, f) for k in range(orders[x]))), x)
        # each cyclic subgroup once, ascending in order, generated by its least generator
        want = sorted(least_generator.items(), key=lambda item: (len(item[0]), item[1]))
        assert [(s.elements, s.generators) for s in cyclic_subgroups(f)] == [(e, (x,)) for e, x in want], f


def test_elements_of_order_is_exact_below_2_50_and_refuses_beyond():
    # the largest prime below 2^50 that is 1 mod 9, and non-cyclic f past the unit grid's 2^31,
    # the last 7 times the largest prime below 2^50/7 that is 1 mod 3
    for q, f, count in ((9, 1125899906841973, 6), (4, 2**45, 4), (6, 1125899906841871, 24)):
        els = elements_of_order(q, f)
        assert len(els) == count and all(element_order(x, f) == q for x in els)
    for f in (2**50, 2**50 + 1):
        with pytest.raises(ValueError, match="too large"):
            elements_of_order(3, f)
    with pytest.raises(ValueError):
        elements_of_order(0, 7)
