import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from mpmath import mp

from dsums import classnumber
from dsums.classnumber import (
    b1_chi_mp,
    bound_chain,
    general_bound,
    relative_class_number,
    upper_bound_simple,
    upper_bound_subfield,
)
from dsums.numkernel import divisors, factorize, is_prime, order_n_element, sieve_upto
from dsums.unitgroups import (
    characters,
    odd_characters_trivial_on,
    subgroup_from_elements,
    subgroup_of_order,
    unit_group,
)


def test_field_context():
    # w_K = 2p for the full field, 2 for a proper subfield: the simple bound is w_K (p/24)^(m/4)
    assert upper_bound_simple(23, 22) == 46 * (23 / 24) ** (22 / 4)
    assert upper_bound_simple(13, 4) == 2 * (13 / 24) ** (4 / 4)
    for bound in (upper_bound_simple, upper_bound_subfield, relative_class_number):
        with pytest.raises(ValueError, match="odd cofactor"):
            bound(13, 3)  # odd degree
        with pytest.raises(ValueError, match="odd cofactor"):
            bound(13, 8)  # does not divide p-1
        with pytest.raises(ValueError, match="not an odd prime"):
            bound(15, 2)


def test_relative_class_numbers():
    assert relative_class_number(23, 22) == 3
    assert relative_class_number(7, 6) == 1
    assert relative_class_number(13, 4) == 1
    assert relative_class_number(11, 10) == 1
    assert relative_class_number(19, 18) == 1


def test_quadratic_fields_match_dirichlet():
    # m = 2 is Q(sqrt(-p)), p = 3 (mod 4): h = sum of (a/p) over a < p/2, over 2 - (2/p)
    for p in (23, 43, 163, 10007, 100003):
        s = sum(1 if pow(a, (p - 1) // 2, p) == 1 else -1 for a in range(1, (p + 1) // 2))
        assert relative_class_number(p, 2) == s // (1 if p % 8 == 7 else 3), p


def test_oracle_at_p_211():
    # beyond the old conductor limit of 200: the resultant against the
    # Bernoulli product at 30 digits more than h^- has
    for p, m in ((211, 210), (211, 42)):
        h = relative_class_number(p, m)
        with mp.workdps(len(str(h)) + 30):
            prod = mp.mpc(1)
            for ch in odd_characters_trivial_on(subgroup_of_order((p - 1) // m, p)):
                prod *= -b1_chi_mp(ch) / 2
            want = (2 * p if m == p - 1 else 2) * prod
            assert abs(want - h) < mp.mpf("1e-6"), (p, m)


def test_a_wrong_residue_trips_the_integrality_audit(monkeypatch):
    residues = classnumber._resultant_residues

    def off_by_one(g, m, ells):
        res = residues(g, m, ells)
        res[0] = (res[0] + 1) % ells[0]
        return res

    monkeypatch.setattr(classnumber, "_resultant_residues", off_by_one)
    for p, m in ((7, 6), (23, 22), (13, 4), (199, 66)):
        with pytest.raises(ArithmeticError, match="integrality audit"):
            relative_class_number(p, m)


def test_blocks_agree(monkeypatch):
    # the l in blocks of 1 lane with the butterfly rows one at a time, then at p = 199 in
    # blocks of 3 and of 15 lanes (the last one short), against the default; at (1009, 48)
    # the powers of g come in chunks of 1 and 14 rows (the last one short)
    fields = ((199, 198), (181, 60), (1009, 48))
    want = [relative_class_number(p, m) for p, m in fields]
    for cells in (1, 7 * 99, 30 * 99):
        monkeypatch.setattr(classnumber, "_TABLE_CELLS", cells)
        monkeypatch.setattr(classnumber, "_LANE_CELLS", cells)
        assert [relative_class_number(p, m) for p, m in fields] == want, cells


def _quadratic_product(g, m, ell):
    """prod over the odd i < m of sum_t g_t w^(it) mod ell, w of order m, one sum at a time."""
    w = order_n_element(ell, m)
    pw = np.array([pow(w, k, ell) for k in range(m)], dtype=np.int64)
    sums = pw[np.outer(np.arange(1, m, 2), np.arange(m // 2)) % m] @ (np.asarray(g) % ell) % ell
    return math.prod(sums.tolist()) % ell


@pytest.mark.parametrize("n", [1, 23, 128, 99, 509, 1001])  # 99 = 3^2 11, 1001 = 7 11 13
def test_transform_matches_the_quadratic_product(monkeypatch, n):
    m, rng = 2 * n, np.random.default_rng(n)
    ells = classnumber._crt_primes(m, 60)  # two or three primes below the int64 ceiling
    g = rng.integers(-(10**6), 10**6, n)
    want = [_quadratic_product(g, m, ell) for ell in ells]
    for cells in (1, 2 * m + 1, 1 << 18):  # 1 lane and 1 row, 2 lanes, all at once
        monkeypatch.setattr(classnumber, "_LANE_CELLS", cells)
        assert classnumber._resultant_residues(g, m, ells) == want, cells
    parts = [(q, q**k) for q, k in factorize(m)]
    for ell in ells:
        w = classnumber._root_of_order(m, ell, parts)
        assert pow(w, m, ell) == 1 and all(pow(w, m // q, ell) != 1 for q, _ in parts), ell


def test_crt_primes_are_the_descending_primes():
    # the sieve windows give the primes l = 1 (mod m) of a plain descent from the ceiling
    def descent(m, bits):
        top, ells, mod = math.isqrt((2**63 - 1) // (m // 2)), [], 1
        for ell in range(top // m * m + 1, m, -m):
            if mod.bit_length() > bits:
                break
            if is_prime(ell):
                ells.append(ell)
                mod *= ell
        return ells if mod.bit_length() > bits else None

    for m, bits in ((2, 300), (4, 1), (198, 1007), (4000, 3000), (30030, 4000)):
        assert classnumber._crt_primes(m, bits) == descent(m, bits), (m, bits)
    for m in range(2, 400, 2):  # one prime: 32 of these first windows hold none
        assert classnumber._crt_primes(m, 1) == descent(m, 1), m
    assert descent(510510, 2000) is None
    with pytest.raises(ValueError, match="too few bits"):
        classnumber._crt_primes(510510, 2000)


def test_subfield_class_numbers_divide_the_full_field():
    # h^-(K) divides h^-(Q(zeta_p)) for each imaginary subfield K, as Q(zeta_p)/K is ramified
    # at p (Washington, GTM 83, ch. 4)
    for p in sieve_upto(199).tolist()[2:]:
        full = relative_class_number(p, p - 1)
        for m in divisors(p - 1)[:-1]:
            if (p - 1) // m % 2:
                assert full % relative_class_number(p, m) == 0, (p, m)


def test_kummer_criterion():
    # p | h^-(Q(zeta_p)) exactly when p is irregular, i.e. divides a B_k with k even,
    # 2 <= k <= p - 3; for those k, sum_{a<p} a^k = p B_k (mod p^2)
    irregular = []
    for p in sieve_upto(199).tolist()[2:]:
        a2 = np.arange(1, p, dtype=np.int64) ** 2 % p**2
        power, sums = a2.copy(), []
        for _ in range(2, p - 2, 2):
            sums.append(int(power.sum()) % p**2)
            power = power * a2 % p**2
        if 0 in sums:
            irregular.append(p)
        assert (relative_class_number(p, p - 1) % p == 0) == (0 in sums), p
    assert irregular == [37, 59, 67, 101, 103, 131, 149, 157]


def test_full_fields_are_pinned():
    # the digit count and sha256 of the decimal h^-(Q(zeta_p)), pinned so that any
    # change of method has to reproduce these fields digit for digit
    for p, digits, sha in (
        (1009, 358, "aa5cc30f460e7b5fb288d1d96ca5638303d4153d9f7e72f7b129957f7c3c85ef"),
        (2003, 858, "46e7cc3eab117c0f0d2d835417da5e17ffc454fd171bc96a7fc8bded8acf7a90"),
    ):
        h = str(relative_class_number(p, p - 1))
        assert (len(h), hashlib.sha256(h.encode()).hexdigest()) == (digits, sha), p


def test_class_number_memory_is_bounded():
    # Q(sqrt(-10000019)): the 10^7 powers of g are summed chunk by chunk, never held at once
    tracemalloc.start()
    try:
        assert relative_class_number(10000019, 2) == 1275
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 << 20
    with pytest.raises(ValueError, match="too large"):
        relative_class_number(2147483659, 2)


def test_no_imaginary_field_no_class_number():
    # (p-1)/m even puts -1 in the kernel: the field is real
    with pytest.raises(ValueError):
        relative_class_number(13, 2)


def test_crt_budget_is_the_parseval_bound(monkeypatch):
    # 2 (sum g_t^2)^(m/4) bounds 2|R| in fewer bits than the triangle bound 2 (sum |g_t|)^(m/2)
    budgets, crt_primes = [], classnumber._crt_primes
    monkeypatch.setattr(classnumber, "_crt_primes", lambda m, bits: budgets.append(bits) or crt_primes(m, bits))
    h = relative_class_number(199, 198)
    assert budgets == [1007]
    monkeypatch.setattr(classnumber, "_crt_primes", lambda m, bits: crt_primes(m, 1387))
    assert relative_class_number(199, 198) == h


def test_crt_budget_bits_match_the_exact_power(monkeypatch):
    # the budget takes the bit length of (sum g_t^2)^(m/2) from a float log2, never off by one here
    class Budget(Exception):
        pass

    def stop(m, bits):
        raise Budget(bits)

    monkeypatch.setattr(classnumber, "_crt_primes", stop)
    for p in sieve_upto(400).tolist()[1:]:
        g = unit_group(p).generators[0]
        powers = [pow(g, k, p) for k in range(p - 1)]
        for m in (m for m in divisors(p - 1) if (p - 1) // m % 2):
            c = [sum(powers[t::m]) for t in range(m)]
            s2 = sum((c[t] - c[t + m // 2]) ** 2 for t in range(m // 2))
            with pytest.raises(Budget) as budget:
                relative_class_number(p, m)
            assert budget.value.args == (((s2 ** (m // 2)).bit_length() + 1) // 2 + 1,), (p, m)


def test_bernoulli_oracle():
    # h^- = Q w prod(-B_{1,chi}/2) over the odd characters trivial on the
    # order-(p-1)/m subgroup H, independently; Q = 1, w = 2p for the full
    # field, else 2
    for p, m in ((7, 6), (23, 22), (181, 180), (191, 190), (199, 198), (181, 60), (199, 66)):
        h_elements = {pow(x, m, p) for x in range(1, p)}
        with mp.workdps(60):
            prod = mp.mpc(1)
            count = 0
            for ch in characters(p):
                if ch.is_odd and ch.is_trivial_on(h_elements):
                    prod *= -b1_chi_mp(ch) / 2
                    count += 1
            assert count == m // 2
            h = (2 * p if m == p - 1 else 2) * prod
            assert abs(h.imag) < mp.mpf("1e-30") * abs(h)  # h^- reaches 2e32 at p = 199
            want = int(mp.nint(h.real))
            assert abs(h.real - want) < mp.mpf("1e-6")
        assert relative_class_number(p, m) == want


def test_full_field_bound_chain():
    for p in (7, 11, 13, 19, 23):
        assert bound_chain(p, p - 1, relative_class_number(p, p - 1)) == (True, True)


def test_order3_subfield_bound_chain():
    # the order-3 subfield is the degree m = (p-1)/3 field: at p = 13, sharp 1 <= simple 2 (13/24)
    assert (upper_bound_subfield(13, 4), upper_bound_simple(13, 4)) == (1.0, pytest.approx(2 * (13 / 24) ** 1))
    for p in (7, 13, 19, 31, 37, 43):
        m = (p - 1) // 3
        assert bound_chain(p, m, relative_class_number(p, m)) == (True, True)
    for bound in (upper_bound_subfield, upper_bound_simple, lambda p, m: bound_chain(p, m, 1)):
        with pytest.raises(ValueError):  # 11 = 2 mod 3 has no order-3 subgroup: 3 does not divide 10
            bound(11, 10 // 3)


def test_bound_chain_is_exact():
    # the degree-4 field at p = 13 meets its bound: h^- = 1 = 2 (13 c/4), c = 2/13
    assert bound_chain(13, 4, 1) == (True, True) and bound_chain(13, 4, 2)[0] is False
    assert upper_bound_subfield(23, 22) == pytest.approx(17.2832, abs=1e-4)
    assert bound_chain(23, 22, 17)[0] is True and bound_chain(23, 22, 18)[0] is False


def test_bounds_beyond_float_range():
    # the full-field bound at p = 1009 exceeds 1e308; p = 4003 = 1 mod 6 puts both order-3 bounds there
    assert upper_bound_subfield(1009, 1008) == math.inf
    assert (upper_bound_subfield(4003, 1334), upper_bound_simple(4003, 1334)) == (math.inf, math.inf)
    assert bound_chain(4003, 1334, 1) == (True, True)  # decided exactly where the floats overflow


def test_expected_heuristic_form():
    # replacing M by pi^2/6 in the bound_eq10 formula gives w*(p/24)^(m/4)
    for p, m in ((13, 4), (31, 10), (23, 22)):
        w = 2 * p if m == p - 1 else 2
        heuristic = w * (p * (1 / 6) / 4) ** (m / 4)
        assert heuristic == pytest.approx(w * (p / 24) ** (m / 4))


def test_general_bound_91():
    from dsums.meansquare import mean_square_exact

    h91 = subgroup_from_elements(91, (1, 9, 81))
    d_ratio_sqrt = math.sqrt(91**11)
    bound = general_bound(91, h91, 1, 2, d_ratio_sqrt)
    assert bound > 0 and math.isfinite(bound)
    # Pi(91,H) = 100/91 enters inversely; n = #X^-(H) = 12
    coef = mean_square_exact(91, h91).coefficient
    want = 2 / (100 / 91) * d_ratio_sqrt * float(coef / 4) ** 6
    assert bound == pytest.approx(want, rel=1e-9)


def test_general_bound_prime_power_branch():
    sub = subgroup_from_elements(49, (1, 18, 30))
    bound = general_bound(49, sub, 1, 2, math.sqrt(49.0))
    # Pi = 1 at prime powers, so the bound is exactly w*sqrt*coef^(n/2) form
    n = 7  # phi(49)/(2*3) = 42/6
    from dsums.meansquare import mean_square_exact

    coef = mean_square_exact(49, sub).coefficient
    assert bound == pytest.approx(2 * math.sqrt(49.0) * float(coef / 4) ** (n / 2))
