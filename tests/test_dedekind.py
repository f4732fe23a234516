import math
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp

from dsums import dedekind
from dsums.dedekind import (
    dedekind_sum,
    dedekind_sum_naive,
    dedekind_sum_parts,
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


def _fibonacci(k: int) -> int:
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def _continued_fraction(c: int, d: int) -> tuple[int, int]:
    """(sum (-1)^(i+1) a_i - (3 if r is odd, else 1), c^-1 mod d) of c/d = [0; a_1, ..., a_r], by Python ints."""
    a, b, alt, r = d, c, 0, 0
    while b:
        k, (a, b) = a // b, (b, a % b)
        alt += k if r % 2 == 0 else -k
        r += 1
    return alt - (3 if r % 2 else 1), pow(c, -1, d)


# 0 keeps every finished lane parked to the end of the batch
@pytest.mark.parametrize("share", [dedekind._COMPACT_SHARE, 0])
def test_euclid_lanes_match_dedekind_sum_parts(monkeypatch, share):
    monkeypatch.setattr(dedekind, "_COMPACT_SHARE", share)
    rng = np.random.default_rng(73)
    lanes = [(_fibonacci(72), _fibonacci(73))]  # Lame's worst case below 2^50: 71 steps
    # up to the top of the float quotient's reach, where a + b nears 2^51
    for lo, hi in ((9 * 10**5, 10**6), (9 * 10**12, 10**13), (1 << 49, 1 << 50)):
        d = rng.integers(lo, hi, 300).tolist()
        lanes += [(1, x) for x in d[:100]] + [(x - 1, x) for x in d[100:200]]  # 1 step, 2 steps
        lanes += [(c, x) for x in d[200:] for c in rng.integers(1, x, 3).tolist() if math.gcd(c, x) == 1]
    assert max(x for _, x in lanes) >= 1 << 49
    rng.shuffle(lanes)
    c, d = np.array(list(zip(*lanes)), dtype=np.int64)
    c.flags.writeable = d.flags.writeable = False  # the kernel only reads its arguments
    with np.errstate(all="raise"):  # a parked lane that reached b = 0 would divide by zero
        t, inv = dedekind._euclid_lanes(c, d)
        empty = dedekind._euclid_lanes(c[:0], d[:0])
    assert [len(x) for x in empty] == [0, 0]
    assert t.dtype == inv.dtype == np.int64
    assert list(zip(t.tolist(), inv.tolist())) == [_continued_fraction(*lane) for lane in lanes]
    # 12*d*s(c,d) = c + c* + d*t, in Python ints
    twelve_ds = [x + x_inv + m * x_t for (x, m), x_t, x_inv in zip(lanes, t.tolist(), inv.tolist())]
    assert twelve_ds == [dedekind_sum_parts(*lane)[0] for lane in lanes]


def test_euclid_lanes_refuse_moduli_from_2_50():
    # the float quotient is exact, and the park pair outlasts every lane, only for d < 2^50
    top, cs = (1 << 50) - 1, [2, 1 << 49]
    t, inv = dedekind._euclid_lanes(np.array(cs, dtype=np.int64), np.full(2, top, dtype=np.int64))
    assert list(zip(t.tolist(), inv.tolist())) == [_continued_fraction(c, top) for c in cs]
    for d in ([1 << 50], [7, 1 << 50, 9], [(1 << 62) + 1]):
        c = np.ones(len(d), dtype=np.int64)
        with pytest.raises(ValueError, match="2\\^50"):
            dedekind._euclid_lanes(c, np.array(d, dtype=np.int64))


# A park pair that finishes again within the batch, as (F59, F58) does after 57 steps, counts
# its lanes out twice. The long lanes finish in pairs: with 5 short lanes the count steps over 0
# and the Euclid stops at 71 steps; with 6 it reaches 0 at step 68 while 6 long lanes are open.
@pytest.mark.parametrize("share, short", [(dedekind._COMPACT_SHARE, 5), (0, 5), (0, 6)])
def test_euclid_lanes_fail_rather_than_loop_on_a_short_park(monkeypatch, share, short):
    monkeypatch.setattr(dedekind, "_COMPACT_SHARE", share)
    lanes = 2 * [(_fibonacci(m), _fibonacci(m + 1)) for m in range(62, 73)]  # 61 .. 71 steps
    lanes += [(1, x) for x in range(1000, 1000 + short)]  # 1 step, parked from the first
    c, d = np.array(list(zip(*lanes)), dtype=np.int64)
    assert list(zip(*(x.tolist() for x in dedekind._euclid_lanes(c, d)))) == [_continued_fraction(*x) for x in lanes]
    monkeypatch.setattr(dedekind, "_PARK", (float(_fibonacci(59)), float(_fibonacci(58))))
    with pytest.raises(ArithmeticError, match="71 steps"):
        dedekind._euclid_lanes(c, d)


# Below 2^23 the steps run in float32, where every value and a + b stay below 2^24, and no
# lane takes more than 32 steps (d < 2^23 < F35).
_TOP_F32 = 8_388_593  # the largest prime below 2^23
_FIRST_F64 = 8_388_617  # the first prime above 2^23


@pytest.mark.parametrize("share", [dedekind._COMPACT_SHARE, 0])
def test_float32_euclid_lanes_match_python_ints(monkeypatch, share):
    monkeypatch.setattr(dedekind, "_COMPACT_SHARE", share)
    rng = np.random.default_rng(23)
    assert _fibonacci(34) < _TOP_F32 < 1 << 23 < _fibonacci(35)
    lanes = [(_fibonacci(33), _fibonacci(34))]  # Lame's worst case below 2^23: 32 steps
    lanes += [(c, _TOP_F32) for c in (1, 2, _TOP_F32 - 1, *rng.integers(3, _TOP_F32 - 1, 50).tolist())]
    d = rng.integers(2, 1 << 23, 300).tolist()
    lanes += [(1, x) for x in d[:100]] + [(x - 1, x) for x in d[100:200]]
    lanes += [(c, x) for x in d[200:] for c in rng.integers(1, x, 3).tolist() if math.gcd(c, x) == 1]
    c, d = np.array(list(zip(*lanes)), dtype=np.int64)
    with np.errstate(all="raise"):
        t, inv = dedekind._euclid_lanes(c, d)
    assert t.dtype == inv.dtype == np.int64
    assert list(zip(t.tolist(), inv.tolist())) == [_continued_fraction(*lane) for lane in lanes]


# A float32 park pair that finishes again within the batch, as (F20, F19) does after 18 steps
# and (F30, F29) after 28, counts its lanes out twice; the long lanes take 22 to 32 steps. At
# share 1, compaction drops the lanes parked on (F30, F29) before they finish again. From
# 2^23 on, a batch runs in float64, whose park the float32 one does not touch.
@pytest.mark.parametrize("share, park", [(dedekind._COMPACT_SHARE, 20), (0, 20), (0, 30)])
def test_float32_euclid_lanes_fail_rather_than_loop_on_a_short_park(monkeypatch, share, park):
    monkeypatch.setattr(dedekind, "_COMPACT_SHARE", share)
    lanes = 2 * [(_fibonacci(m), _fibonacci(m + 1)) for m in range(23, 34)]  # 22 .. 32 steps
    lanes += [(1, x) for x in range(1000, 1005)]  # 1 step, parked from the first
    c, d = np.array(list(zip(*lanes)), dtype=np.int64)
    assert list(zip(*(x.tolist() for x in dedekind._euclid_lanes(c, d)))) == [_continued_fraction(*x) for x in lanes]
    monkeypatch.setattr(dedekind, "_PARK_F32", (float(_fibonacci(park)), float(_fibonacci(park - 1))))
    with pytest.raises(ArithmeticError, match="32 steps"):
        dedekind._euclid_lanes(c, d)
    lanes.append((2, _FIRST_F64))
    c, d = np.array(list(zip(*lanes)), dtype=np.int64)
    assert list(zip(*(x.tolist() for x in dedekind._euclid_lanes(c, d)))) == [_continued_fraction(*x) for x in lanes]


# The paper's constancy theorem: for n <= m/2 the elements of order q^n mod f = q^m are
# c = 1 + k*f', f' = q^(m-n) and k prime to q, and s(c, f) = s_near_one_closed(f, f') for
# each. Here f*t passes 2^63 on every lane, so an int64 combine would wrap
# and the parts are combined in Python ints.
@pytest.mark.parametrize("q, n, m", [(3, 10, 31), (5, 7, 21), (7, 5, 17)])
def test_euclid_lanes_hold_the_constancy_theorem_at_prime_powers(q, n, m):
    f, f_prime = q**m, q ** (m - n)
    k = np.arange(1, q**n, dtype=np.int64)
    c = 1 + f_prime * k[k % q != 0]
    t, inv = dedekind._euclid_lanes(c, np.full_like(c, f))
    terms = [f * x for x in t.tolist()]
    assert min(map(abs, terms)) >= 1 << 63
    got = [x + x_inv + t for x, x_inv, t in zip(c.tolist(), inv.tolist(), terms)]
    assert len(got) == (q - 1) * q ** (n - 1) and set(got) == {12 * f * s_near_one_closed(f, f_prime)}
