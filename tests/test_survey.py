import concurrent.futures
import json
import os
import resource
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dsums
from dsums import survey
from dsums.dedekind import dedekind_sum_naive
from dsums.meansquare import n_value
from dsums.numkernel import divisors, is_prime, mulmod, powmod_lanes, primes_in_progression
from dsums.survey import (
    ratio_decimal,
    resume,
    scan_fixed_n,
    scan_window,
)
from dsums.unitgroups import subgroup_of_order


class Record(NamedTuple):
    p: int
    n: int
    two_S: int
    N: int
    nonpositive: bool


def oracle_record(p: int, n: int) -> Record:
    """The survey record of H_n mod p (n > 1) from the single-prime oracle n_value."""
    big_n = n_value(p, subgroup_of_order(n, p))
    assert big_n.denominator == 1
    return Record(p, n, (int(big_n) + p) // 6, int(big_n), big_n <= 0)


def test_ratio_decimal():
    assert ratio_decimal(838, 1592) == "0.52638"
    assert ratio_decimal(4, 4) == "1.00000"
    assert ratio_decimal(1, 3, digits=7) == "0.3333333"
    assert ratio_decimal(1, 0) == "undefined"


def test_n_record_examples():
    rec = oracle_record(7, 3)
    assert (rec.two_S, rec.N, rec.nonpositive) == (1, -1, True)
    rec = oracle_record(31, 5)
    assert (rec.N, rec.nonpositive) == (35, False)
    rec = oracle_record(8191, 13)
    assert rec.N == 2 * 8191 - 75
    # the trivial H has no record: its N is not an integer
    assert n_value(7, subgroup_of_order(1, 7)) == Fraction(2 - 21, 7)


def test_record_parity_invariants():
    for p, n in ((19, 9), (31, 15), (61, 5), (1009, 9), (151, 75)):
        rec = oracle_record(p, n)
        assert (rec.two_S - (p - 1) // 2) % 2 == 0
        assert rec.N % 2 == 1
        assert rec.N == 6 * rec.two_S - p
        assert rec.nonpositive == (rec.N < 0)


def test_scan_small_counts():
    rep = scan_fixed_n(9, 10**4)
    assert (rep.c_prime, rep.c_leq0) == (203, 116)
    assert rep.rho == ratio_decimal(116, 203)
    assert rep.n == 9 and rep.to_json()["range"] == "p <= 10000"


def test_window_from_zero_equals_fixed():
    a = scan_fixed_n(9, 30000)
    b = scan_window(9, 0, 30000)
    assert (a.c_prime, a.c_leq0) == (b.c_prime, b.c_leq0)


def test_scan_all_odd_subgroups():
    rep = scan_fixed_n(None, 7)
    assert (rep.c_prime, rep.c_leq0) == (4, 4) and rep.rho == "1.00000"
    # 8 pairs through B=13: (11,5) joins the three the smaller bound had
    rep = scan_fixed_n(None, 13)
    assert (rep.c_prime, rep.c_leq0) == (8, 8)
    rep31 = scan_fixed_n(None, 31)
    assert rep31.c_prime == 20
    # (31,5) carries N = 35 > 0, so not everything is counted
    assert rep31.c_leq0 < rep31.c_prime
    assert rep31.to_json()["n"] == "all"
    assert scan_fixed_n(None, 2).rho == "undefined"  # an empty range, as for a fixed n


def test_all_odd_records_match_the_oracle(tmp_path):
    # the n = 1 pairs count but have no rows; every other pair is the oracle's
    rc1, rc2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
    rep = scan_fixed_n(None, 3000, records=str(rc1))
    assert rep == scan_fixed_n(None, 3000, threads=2, records=str(rc2))
    assert rc1.read_bytes() == rc2.read_bytes()
    lines = rc1.read_text().splitlines()
    assert lines[0] == "p,n,two_S,N,nonpositive"
    rows = [tuple(map(int, ln.split(",")[:4])) + (ln.endswith("true"),) for ln in lines[1:]]
    ones = len(primes_in_progression(3, 2997, 2, 1))  # the odd primes <= 3000
    assert (rep.c_prime, len(rows)) == (2002, 1573) and len(rows) == rep.c_prime - ones
    assert sum(r[4] for r in rows) == rep.c_leq0 - ones
    assert rows == sorted(rows)  # (p, n) order
    for p, n, two_s, big_n, nonpositive in rows:
        assert (p, n, two_s, big_n, nonpositive) == oracle_record(p, n), (p, n)


def test_all_odd_window_and_checkpoint(tmp_path, monkeypatch):
    full_rc, rc, ck = tmp_path / "full.csv", tmp_path / "r.csv", str(tmp_path / "ck.json")
    full = scan_fixed_n(None, 3000, records=str(full_rc))
    window = scan_window(None, 0, 3000)
    assert (window.n, window.c_prime, window.c_leq0, window.rho) == (None, full.c_prime, full.c_leq0, full.rho)
    # a scan that dies after its first checkpoint, then resumes
    save = survey._save_checkpoint

    def save_and_die(path, state):
        save(path, state)
        raise KeyboardInterrupt

    monkeypatch.setattr(survey, "_save_checkpoint", save_and_die)
    with pytest.raises(KeyboardInterrupt):
        scan_fixed_n(None, 3000, checkpoint=ck, records=str(rc))
    monkeypatch.setattr(survey, "_save_checkpoint", save)
    data = json.loads(Path(ck).read_text())
    assert data["version"] == 2 and data["n"] is None and data["last_p"] < 3000
    assert resume(ck, records=str(rc)) == full
    assert rc.read_bytes() == full_rc.read_bytes()


def test_threads_deterministic(tmp_path):
    assert survey._plan(5, 2, 4 * 10**6, 2)[1] == 2  # enough work for a pool of two
    seq = scan_fixed_n(5, 4 * 10**6, records=str(tmp_path / "seq.csv"))
    par = scan_fixed_n(5, 4 * 10**6, threads=2, records=str(tmp_path / "par.csv"))
    assert seq == par
    assert (tmp_path / "seq.csv").read_bytes() == (tmp_path / "par.csv").read_bytes()


_WINDOWS = ((0, 4000), (10**10, 4000), (10**12, 3000), (10**13, 2000))


def _rows(text: str) -> list[tuple]:
    """The (p, n, 2S, N, nonpositive) of each CSV row."""
    return [tuple(map(int, ln.split(",")[:4])) + (ln.endswith("true"),) for ln in text.splitlines()]


def test_batched_records_match_the_oracle():
    # one fixed-n segment per window and order: its records and counts, audits passed
    for lower, span in _WINDOWS:
        for n in (3, 5, 9, 15, 21):
            pairs, nonpositive, text = survey._segment_worker((n, lower, lower + span, True))
            want = [tuple(oracle_record(p, n)) for p in primes_in_progression(lower, span, 2 * n, 1).tolist()]
            assert want and _rows(text) == want, (lower, n)
            assert (pairs, nonpositive) == (len(want), sum(rec[4] for rec in want)), (lower, n)


# The all-odd records come from coset sums, the fixed-n records from the lane Euclid;
# both give the same record on every pair (p, d): each odd p below 4000, each p in
# [999000, 999500] (d up to about 5e5), and three p just above 2^23, where the Euclid
# lanes step in float64 (chosen for the few Euclid lanes of their odd d: 70k-94k each).
@pytest.mark.parametrize("lower, hi", [(3, 4000), (999000, 999500), (8388673, 8388673), (8388929, 8388929),
                                       (8389057, 8389057)])
def test_coset_records_match_the_euclid_records(lower, hi):
    rows = _rows(survey._segment_worker((None, lower, hi, True))[2])
    primes = primes_in_progression(lower, hi - lower, 2, 1).tolist()
    assert [row[:2] for row in rows] == [(p, d) for p in primes for d in divisors(p - 1)[1:] if d % 2]
    by_order = {}
    for row in rows:
        by_order.setdefault(row[1], []).append(row)
    for d, recs in by_order.items():
        ps = np.array([rec[0] for rec in recs], dtype=np.int64)
        twelve_s = survey._batch_records(d, ps)
        assert list(zip(ps.tolist(), [d] * len(ps), (twelve_s // 6).tolist(), (twelve_s - ps).tolist(),
                        (twelve_s <= ps).tolist())) == recs, d
        assert (twelve_s % 6 == 0).all(), d


def test_ladder_multiplies_a_large_x_through_mulmod():
    # r*x % p with r near 2^50 would wrap in int64 from x = 2^13 + 1 on; above the cut the
    # ladder multiplies by the reciprocal product, whose table entries need only x^(2^w-1) < 2^50
    p = (1 << 50) - 27  # prime
    mod = np.full(3, p, dtype=np.int64)
    exps = np.array([p - 2, (p - 1) // 3, 12345], dtype=np.int64)
    for x in ((1 << 13) - 1, 1 << 13, (1 << 13) + 1, p - 1):
        assert powmod_lanes(x, exps, mod).tolist() == [pow(x, int(e), p) for e in exps], x


@st.composite
def _modular_cases(draw):
    """(p, a, b, x, e): odd p in [3, 2^50) of a drawn bit length, residues a, b, x mod p and 0 <= e <= p."""
    bits = draw(st.integers(2, 50))
    p = draw(st.integers(1 << (bits - 1), (1 << bits) - 1)) | 1
    return (p, *(draw(st.integers(0, p - 1)) for _ in range(3)), draw(st.integers(0, p)))


_P_MAX = (1 << 50) - 1


@settings(max_examples=300, deadline=None)
@given(_modular_cases())
@example((_P_MAX, _P_MAX - 1, _P_MAX - 1, _P_MAX - 1, _P_MAX - 2))
@example((3, 2, 2, 2, 3))
def test_mulmod_and_powmod_match_python_ints(case):
    p, a, b, x, e = case
    mod = np.full(4, p, dtype=np.int64)
    lhs, rhs = np.array([a, b, p - 1, 0], dtype=np.int64), np.array([b, a, p - 1, b], dtype=np.int64)
    assert mulmod(lhs, rhs, mod).tolist() == [a * b % p, a * b % p, (p - 1) ** 2 % p, 0]
    exps = np.array([e, 0, 1, p - 1], dtype=np.int64)
    want = [pow(x, k, p) for k in exps.tolist()]
    lanes = np.full(4, x, dtype=np.int64)  # an array x takes one int e
    assert [powmod_lanes(lanes, k, mod).tolist() for k in exps.tolist()] == [[w] * 4 for w in want]
    assert powmod_lanes(x, exps, mod).tolist() == want  # a plain int x: the windowed ladder


def test_mulmod_corrects_both_ways_near_2_50():
    # Near 2^50 the reciprocal product's rounded quotient lies on either side of a*b/p, so
    # its residue a*b - q*p is negative on about half the lanes: 2e5 lanes take the one
    # correction by +p and leave the rest, and every residue stays within just over 0.875*p of 0.
    rng = np.random.default_rng(50)
    p = rng.integers(1 << 49, 1 << 50, 200_000) | 1
    a, b = rng.integers(0, p), rng.integers(0, p)
    q = np.rint(a.astype(np.float64) * b.astype(np.float64) * (1.0 / p)).astype(np.int64)
    r = a * b - q * p
    assert (r < 0).any() and (r > 0).any() and (np.abs(r) < 0.88 * p).all()
    got = mulmod(a, b, p).tolist()
    assert got == [x * y % m for x, y, m in zip(a.tolist(), b.tolist(), p.tolist())]


def _format_rows(p, d, two_s, big_n, flags) -> str:
    return "".join(map("{},{},{},{},{}\n".format, p.tolist(), d.tolist(), two_s.tolist(), big_n.tolist(),
                       np.where(flags, "true", "false").tolist()))


def test_csv_rows_match_the_format_string():
    ints = np.array([0, 1, -1, 9, -9, 10, -10, 99, 100, 999_999, -1_000_000, 10**12, -(10**12) + 1,
                     (1 << 62) - 1, -(1 << 62)], dtype=np.int64)
    rng = np.random.default_rng(10)
    cases = [
        (ints, ints[::-1].copy(), ints, -ints, ints <= 0),  # 2S and N of 0, +-1, negative, widths across 10^k
        (np.abs(ints), np.full_like(ints, 9), np.zeros_like(ints), ints, ints > 0),
        (ints[:0], ints[:0], ints[:0], ints[:0], ints[:0] > 0),  # an empty segment
    ]
    for digits in range(1, 19):  # one column whose widths cross 10^(digits-1), the rest random signs
        v = np.concatenate((np.arange(10**digits - 12, 10**digits + 12), rng.integers(-(10**digits), 10**digits, 50)))
        cases.append((np.abs(v), rng.integers(3, 2000, len(v)), v, -v[::-1], rng.integers(0, 2, len(v)) == 1))
    for case in cases:
        assert survey._csv_rows(case[:4], case[4]) == _format_rows(*case)


@pytest.mark.parametrize("segment", [(None, 9000, 11_000, True), (9, 0, 10**5, True)], ids=["all-odd", "n=9"])
def test_segment_rows_match_the_format_string(monkeypatch, segment):
    # the columns the worker hands over, d varying in the all-odd scan, and p crossing 10^4
    csv_rows, seen = survey._csv_rows, []

    def spy(columns, flags):
        text = csv_rows(columns, flags)
        assert text == _format_rows(*columns, flags)
        seen.append(columns)
        return text

    monkeypatch.setattr(survey, "_csv_rows", spy)
    text = survey._segment_worker(segment)[2]
    (p, d, _, _), = seen
    assert len(text.splitlines()) == len(p) > 1000 and p.min() < 10**4 <= p.max()
    if segment[0] is None:
        assert len(set(d.tolist())) > 10


def test_segment_worker_edge_segments():
    assert survey._segment_worker((9, 20, 36, True)) == (0, 0, "")  # no p = 1 (mod 18) in [20, 36]
    rec = oracle_record(19, 9)
    assert survey._segment_worker((9, 19, 19, True)) == (1, 1, f"19,9,{rec.two_S},{rec.N},true\n")
    assert survey._segment_worker((21, 211, 211, False)) == (1, oracle_record(211, 21).nonpositive, "")
    # all-odd: p = 3 has only its n = 1 pair, which counts but writes no row
    assert survey._segment_worker((None, 2, 3, True)) == (1, 1, "")
    assert survey._segment_worker((None, 7, 7, True)) == (2, 2, "7,3,1,-1,true\n")


# n = 9 to 2e6: four segments of 5e5 at threads = 1, so a scan stopped in its
# third segment or at its first checkpoint is stopped mid-scan
_MID = (2 * 10**6, 24790, 12796)  # (limit, c_prime, c_leq0)


# From p > 1200000 on, the scan gets a "generator" not of order 9: 2 (2^9 = 1
# only mod 7 and 73), or the cube of a true one, of order 3.
@pytest.mark.parametrize("fake", [lambda h, p: np.full_like(h, 2), lambda h, p: h * h % p * h % p])
def test_audits_abort_the_scan(tmp_path, monkeypatch, fake):
    limit, c_prime, c_leq0 = _MID
    generators = survey._generators
    monkeypatch.setattr(survey, "_generators", lambda n, p: np.where(p > 1200000, fake(generators(n, p), p),
                                                                      generators(n, p)))
    ck, rc = tmp_path / "ck.json", tmp_path / "r.csv"
    with pytest.raises(ArithmeticError, match="order audit"):
        scan_fixed_n(9, limit, checkpoint=str(ck), records=str(rc))
    data = json.loads(ck.read_text())
    ps = [int(ln.split(",")[0]) for ln in rc.read_text().splitlines()[1:]]
    assert 0 < data["last_p"] <= 1200000 and data["records_offset"] == rc.stat().st_size
    assert len(ps) == data["c_prime"] and max(ps) <= data["last_p"]
    monkeypatch.setattr(survey, "_generators", generators)
    rep = resume(str(ck), records=str(rc))
    assert (rep.c_prime, rep.c_leq0) == (c_prime, c_leq0)


# An alternating sum off by 1 on one lane moves 12S by 2 (6 no longer
# divides it); off by 3 it moves 2S by 1 (the parity of 2S breaks).
@pytest.mark.parametrize("delta, audit", [(1, "integrality audit"), (3, "parity audit")])
def test_sum_audits_reject_a_wrong_alternating_sum(monkeypatch, delta, audit):
    euclid = survey._euclid_lanes

    def off_by_delta(c, d):
        t, inv = euclid(c, d)
        t[-1] += delta
        return t, inv

    monkeypatch.setattr(survey, "_euclid_lanes", off_by_delta)
    with pytest.raises(ArithmeticError, match=f"{audit} failed at p=73, n=9"):
        survey._segment_worker((9, 19, 73, True))  # the primes 19, 37 and 73


def test_coset_sum_audit_aborts_the_scan(tmp_path, monkeypatch):
    # one entry of the table of p = 1601 off by 1: the sum of its coset of H_5, the
    # first odd order (1600 = 2^6 * 5^2), is no multiple of p, and the scan stops
    # before that segment's rows or checkpoint are written
    table = survey.power_table

    def off_by_one(x, s, p):
        pows = table(x, s, p)
        if p == 1601:
            pows[7] += 1
        return pows

    monkeypatch.setattr(survey, "power_table", off_by_one)
    ck, rc = tmp_path / "ck.json", tmp_path / "r.csv"
    with pytest.raises(ArithmeticError, match=r"integrality audit failed at p=1601, n=5: \(coset sum\) mod p=1"):
        scan_fixed_n(None, 3000, records=str(rc), checkpoint=str(ck))
    data = json.loads(ck.read_text())
    ps = [row[0] for row in _rows(rc.read_text().split("\n", 1)[1])]
    assert 0 < data["last_p"] < 1601 and data["records_offset"] == rc.stat().st_size
    assert max(ps) <= data["last_p"]


def test_records_csv(tmp_path):
    path = str(tmp_path / "records.csv")
    rep = scan_fixed_n(9, 3000, records=path)
    lines = Path(path).read_text().strip().splitlines()
    assert lines[0] == "p,n,two_S,N,nonpositive"
    assert len(lines) == rep.c_prime + 1
    p, n, two_s, big_n, flag = lines[1].split(",")
    assert n == "9" and int(big_n) == 6 * int(two_s) - int(p)
    assert flag in ("true", "false")
    assert sum(1 for ln in lines[1:] if ln.endswith("true")) == rep.c_leq0
    # rows ascend in p
    ps = [int(ln.split(",")[0]) for ln in lines[1:]]
    assert ps == sorted(ps)


def test_checkpoint_resume_matches_fresh(tmp_path):
    B, mid = 30000, 15000
    full = scan_fixed_n(9, B)
    half = scan_fixed_n(9, mid)
    ck = str(tmp_path / "ck.json")
    with open(ck, "w") as fh:
        json.dump(
            {
                "version": 1,
                "mode": "fixed",
                "n": 9,
                "A": 0,
                "span_or_B": B,
                "last_p": mid,
                "c_prime": half.c_prime,
                "c_leq0": half.c_leq0,
            },
            fh,
        )
    resumed = scan_fixed_n(9, B, checkpoint=ck)
    assert (resumed.c_prime, resumed.c_leq0) == (full.c_prime, full.c_leq0)
    # checkpoint now marks completion: resuming again is a no-op
    again = resume(ck)
    assert again == resumed


def test_checkpoint_mismatch_errors(tmp_path):
    ck = str(tmp_path / "ck.json")
    scan_fixed_n(9, 2000, checkpoint=ck)
    with pytest.raises(ValueError):
        scan_fixed_n(7, 2000, checkpoint=ck)
    with pytest.raises(ValueError):
        scan_fixed_n(9, 4000, checkpoint=ck)
    with pytest.raises(ValueError):
        scan_window(9, 0, 2000, checkpoint=ck)


def test_bad_checkpoints_and_records_are_rejected(tmp_path):
    ck, rc = tmp_path / "ck.json", tmp_path / "r.csv"
    with pytest.raises(ValueError, match="no checkpoint"):
        resume(str(ck))
    scan_fixed_n(9, 5000, checkpoint=str(ck), records=str(rc))
    rc.write_text(rc.read_text()[:40])  # rows lost after the checkpoint vouched for them
    with pytest.raises(ValueError, match="shorter than its checkpoint"):
        resume(str(ck), records=str(rc))
    good = json.loads(ck.read_text())
    ck.write_text(json.dumps({**good, "version": 3}))
    with pytest.raises(ValueError, match="unsupported checkpoint version"):
        resume(str(ck))
    for data, error in (
        ({k: v for k, v in good.items() if k != "c_leq0"}, r"missing \['c_leq0'\], unknown \[\]"),
        ({**good, "elapsed_s": 1.5}, r"missing \[\], unknown \['elapsed_s'\]"),
        ({**good, "last_p": "x"}, "wrong JSON type"),
        ({**good, "c_prime": True}, "wrong JSON type"),
        ({**good, "version": True}, "unsupported checkpoint version"),
        ([good], "not a JSON object"),
    ):
        ck.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=error):
            resume(str(ck), records=str(rc))
    with pytest.raises(ValueError, match="is a directory"):
        resume(str(tmp_path))


# values of the right JSON type that no scan writes: each is refused before either file is opened
@pytest.mark.parametrize("changes", [
    {"mode": "sideways"}, {"A": 700}, {"mode": "window", "A": -50}, {"span_or_B": -1}, {"c_prime": -3},
    {"c_leq0": -1}, {"c_leq0": 10**6}, {"last_p": -1}, {"last_p": 5001}, {"records_offset": -5},
    {"records_offset": 10},
], ids=["unknown mode", "fixed range from A > 0", "window range from A < 0", "negative span_or_B",
        "negative c_prime", "negative c_leq0", "c_leq0 over c_prime", "last_p below A", "last_p past the bound",
        "negative records_offset", "records_offset inside the header"])
def test_resume_refuses_checkpoint_values_no_scan_writes(tmp_path, changes):
    ck, rc = tmp_path / "ck.json", tmp_path / "r.csv"
    scan_fixed_n(9, 5000, checkpoint=str(ck), records=str(rc))
    ck.write_text(json.dumps({**json.loads(ck.read_text()), **changes}))
    saved, rows = ck.read_bytes(), rc.read_bytes()
    with pytest.raises(ValueError, match=f"holds .*{list(changes)[-1]}"):
        resume(str(ck), records=str(rc))
    assert ck.read_bytes() == saved and rc.read_bytes() == rows


def test_scan_refuses_one_file_for_records_and_checkpoint(tmp_path, monkeypatch):
    # the checkpoint's rename would replace the records (or its .tmp would): refused before
    # either file is opened, whether named alike, by another path or as the .tmp
    monkeypatch.chdir(tmp_path)
    (tmp_path / "same.out").write_text("kept")
    for records, checkpoint in (("same.out", "same.out"), (str(tmp_path / "same.out"), "./same.out"),
                                ("same.out.tmp", "same.out")):
        with pytest.raises(ValueError, match="is the checkpoint"):
            scan_fixed_n(9, 10**5, records=records, checkpoint=checkpoint)
    assert (tmp_path / "same.out").read_text() == "kept" and not (tmp_path / "same.out.tmp").exists()
    scan_fixed_n(9, 5000, checkpoint="ck.json")  # a records-less checkpoint, resumed with itself as records
    with pytest.raises(ValueError, match="is the checkpoint"):
        resume("ck.json", records="ck.json")


class _Stop(Exception):
    pass


def _scan_stopped_at_first_checkpoint(monkeypatch, ck, rc):
    """scan_fixed_n(9, 2e6) stopped just after its first checkpoint is saved."""
    save = survey._save_checkpoint

    def save_then_stop(path, data):
        save(path, data)
        raise _Stop

    monkeypatch.setattr(survey, "_save_checkpoint", save_then_stop)
    with pytest.raises(_Stop):
        scan_fixed_n(9, _MID[0], checkpoint=ck, records=rc)
    monkeypatch.undo()
    assert json.loads(Path(ck).read_text())["last_p"] < _MID[0]  # not the final checkpoint


@pytest.mark.parametrize("case, error", [
    ("resume without records", "needs the records file"),
    ("records for a records-less scan", "written without records"),
    ("records file missing", "missing or shorter"),
])
def test_resume_refuses_records_its_checkpoint_does_not_vouch_for(tmp_path, monkeypatch, case, error):
    ck, rc = str(tmp_path / "ck.json"), tmp_path / "r.csv"
    _scan_stopped_at_first_checkpoint(monkeypatch, ck, None if case == "records for a records-less scan" else str(rc))
    if case == "records file missing":
        rc.unlink()
    saved, rows = Path(ck).read_text(), rc.read_text() if rc.exists() else None
    with pytest.raises(ValueError, match=error):
        resume(ck, records=None if case == "resume without records" else str(rc))
    assert Path(ck).read_text() == saved and (rc.read_text() if rc.exists() else None) == rows  # nothing written
    if case == "resume without records":  # the file the checkpoint vouches for completes the scan
        assert resume(ck, records=str(rc)) == scan_fixed_n(9, _MID[0])
        assert len(rc.read_text().splitlines()) == 1 + _MID[1]


def test_version_1_checkpoints_append_records(tmp_path, monkeypatch):
    ck, rc = str(tmp_path / "ck.json"), tmp_path / "r.csv"
    _scan_stopped_at_first_checkpoint(monkeypatch, ck, str(rc))
    data = json.loads(Path(ck).read_text())
    del data["records_offset"]
    Path(ck).write_text(json.dumps({**data, "version": 1}))
    assert resume(ck, records=str(rc)) == scan_fixed_n(9, _MID[0])
    assert len(rc.read_text().splitlines()) == 1 + _MID[1]


def test_checkpoint_written_during_scan(tmp_path):
    ck = str(tmp_path / "ck.json")
    scan_fixed_n(9, 20000, checkpoint=ck)
    data = json.loads(Path(ck).read_text())
    assert data["mode"] == "fixed" and data["n"] == 9
    assert data["last_p"] == 20000
    assert os.path.exists(ck) and not os.path.exists(ck + ".tmp")


def test_scan_rejects_even_n():
    with pytest.raises(ValueError):
        scan_fixed_n(4, 1000)
    with pytest.raises(ValueError):
        scan_fixed_n(1, 1000)


def test_n_record_rejects_bad_input():
    with pytest.raises(ValueError):
        oracle_record(15, 7)  # 15 is not prime
    with pytest.raises(ValueError):
        oracle_record(13, 5)  # 5 does not divide 12


def test_n_record_matches_naive_oracle_for_every_odd_n():
    # H_n is the set of ((p-1)/n)-th powers, built without a generator search.
    for p in range(3, 300):
        if not is_prime(p):
            continue
        for n in divisors(p - 1):
            if n == 1 or n % 2 == 0:
                continue
            sub = {pow(x, (p - 1) // n, p) for x in range(1, p)}
            assert len(sub) == n
            two_s = 2 * sum((dedekind_sum_naive(h, p) for h in sub), Fraction(0))
            rec = oracle_record(p, n)
            assert (rec.two_S, rec.N) == (two_s, 6 * two_s - p), (p, n)


def test_scan_rejects_bad_threads_and_bounds():
    with pytest.raises(ValueError):
        scan_fixed_n(9, 1000, threads=0)
    with pytest.raises(ValueError):
        scan_fixed_n(9, 1 << 63)
    with pytest.raises(ValueError):
        scan_fixed_n(9, 1 << 50)
    with pytest.raises(ValueError):  # n * bound reaches 2^62: the row sums could wrap
        scan_window(1 << 13 | 1, 1 << 49, 10)
    with pytest.raises(ValueError):
        scan_fixed_n(None, 1 << 31)
    with pytest.raises(ValueError, match="lower >= 0"):
        scan_window(9, -1, 100)


# n = 15 to 3e6 (about 2e5 expected lanes) asks for 7 segments of 2^15 lanes, clamped to
# 4 per worker; n = 15 to 1e4 is one segment, which runs in process. The CPUs a scan may
# use are those of its affinity mask (os.sched_getaffinity), which taskset or a cpuset
# can make fewer than os.cpu_count(); without that call it falls back to os.cpu_count().
@pytest.mark.parametrize("affinity, cpu_count, limit, workers, count", [
    pytest.param(2, 64, 3 * 10**6, 2, 8, id="2-2"),  # the mask, not the host's count
    pytest.param(1, 2, 3 * 10**6, 1, 4, id="taskset-1"),
    pytest.param(None, 2, 3 * 10**6, 2, 8, id="cpu_count-2"),  # None: no os.sched_getaffinity
    pytest.param(None, None, 3 * 10**6, 1, 4, id="None-1"),
    pytest.param(2, 2, 10**4, 1, 1, id="2-1"),
])
def test_workers_are_capped_at_the_cpu_count(monkeypatch, affinity, cpu_count, limit, workers, count):
    started, segments, work = [], [], survey._segment_worker

    class SerialPool:  # a stand-in for ProcessPoolExecutor: records its worker count, runs each job at submit
        def __init__(self, max_workers, initializer):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)  # the pool _scan imports when it starts one
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(affinity)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    monkeypatch.setattr(survey, "_segment_worker", lambda args: segments.append(args) or work(args))
    rep = scan_fixed_n(15, limit, threads=100_000)
    assert started == ([workers] if workers > 1 else [])  # a single worker scans in process, with no pool
    assert len(segments) == count  # planned from the capped count, not one per integer
    monkeypatch.undo()
    assert rep == scan_fixed_n(15, limit)


def test_the_1e10_window_runs_in_process_at_two_threads(monkeypatch):
    # about 3.6e4 expected lanes, a fraction of what a pool of two costs to start
    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)  # two CPUs to use
    rep = scan_window(9, 10**10, 10**6, threads=2)
    assert (rep.c_prime, rep.c_leq0, rep.rho) == (7226, 3695, "0.51134")


def test_segment_plan_examples():
    # (n, start, upper, workers) -> (segments, workers)
    for args, count, workers in (
        ((9, 10**10, 10**10 + 10**6, 2), 2, 1),  # the 1e10 window: 3.6e4 lanes, in process
        ((9, 10**10, 10**10 + 10**6, 1), 2, 1),
        ((9, 10**13, 10**13 + 10**6, 2), 1, 1),  # fewer primes per integer: one segment, no pool
        ((9, 2, 10**6, 2), 2, 1),  # 6.0e4 lanes
        ((9, 2, 2 * 10**6, 2), 4, 1),  # 1.15e5 lanes, below the break-even: in process
        ((5, 2, 3 * 10**6, 2), 6, 2),  # 1.51e5 lanes, above it: a pool of two
        ((9, 2, 4 * 10**6, 2), 8, 2),  # 2.19e5 lanes
        ((9, 2, 10**8, 2), 96, 2),  # 2^20 integers at most
        ((None, 2, 1000, 2), 3, 1),  # 7.2e4 lanes: 3 segments, not rounded up to 4 for a pool
        ((None, 2, 3000, 2), 8, 2),  # the all-odd scan's lanes grow with p: 4 segments per worker
        ((None, 2, 30000, 2), 8, 2),
        ((None, 2, 31, 2), 1, 1),
        ((9, 2, 1, 2), 0, 1),  # an empty range
    ):
        assert survey._plan(*args) == (count, workers), args


@settings(max_examples=300, deadline=None)
@given(n=st.sampled_from([None, 3, 5, 9, 15, 21, 105, 1001]), lower=st.integers(0, 10**13),
       span=st.integers(0, 10**9), workers=st.integers(1, 8), data=st.data())
def test_segment_plan_tiles_the_range(n, lower, span, workers, data):
    upper = lower + span
    start = data.draw(st.integers(max(lower, 2), max(upper + 1, 2)), label="start")  # a resume starts later
    count, got = survey._plan(n, start, upper, workers)
    if start > upper:
        assert (count, got) == (0, 1)
        return
    plan = [survey._segment(start, upper, count, i) for i in range(count)]
    assert plan[0][0] == start and plan[-1][1] == upper
    assert all(hi + 1 == lo for (_, hi), (lo, _) in zip(plan, plan[1:]))
    assert all(0 <= hi - lo < 1 << 20 for lo, hi in plan)
    assert got == 1 or got == min(workers, count)
    # whether a scan pools follows its work, not the number of workers it may have
    assert (got > 1) == (workers > 1 and survey._plan(n, start, upper, 2)[1] == 2)
    # the plan is the one for the workers that run it, each of which gets as many
    # segments, unless the plan is one segment or one integer a segment
    assert count == survey._plan(n, start, upper, got)[0]
    assert count % got == 0 or count == 1 or count == upper - start + 1


def test_checkpoint_carries_records_offset(tmp_path):
    ck, rc = str(tmp_path / "ck.json"), str(tmp_path / "r.csv")
    scan_fixed_n(9, 5000, checkpoint=ck, records=rc)
    data = json.loads(Path(ck).read_text())
    assert data["version"] == 2 and data["records_offset"] == os.path.getsize(rc)


# A scan killed with SIGKILL, worker processes and all, at its second
# checkpoint: either just before the checkpoint file is replaced (its rows
# already flushed) or just after. It runs in its own session, so the kill
# reaches nothing else.
_KILLED_SCAN = """
import os, signal, sys
from dsums import survey
save, calls = survey._save_checkpoint, []
def dying_save(path, ck):
    calls.append(ck)
    if len(calls) == 2 and sys.argv[1] == "before":
        os.killpg(0, signal.SIGKILL)
    save(path, ck)
    if len(calls) == 2:
        os.killpg(0, signal.SIGKILL)
survey._save_checkpoint = dying_save
n = None if sys.argv[5] == "all" else int(sys.argv[5])
survey.scan_fixed_n(n, int(sys.argv[6]), threads=int(sys.argv[2]), records=sys.argv[3], checkpoint=sys.argv[4])
"""


# (n, limit, c_prime, c_leq0, the pairs with no row): n = 9 to 4e6, or the all-odd scan to 1e4;
# each plans at least 4 segments, so the second checkpoint is not the last, and at
# threads = 2 each has work enough for a pool of two
_KILLED = {"9": (4 * 10**6, 47129, 24338, 0), "all": (10**4, 6775, 4766, 1228)}


@pytest.mark.parametrize("when, threads, n", [
    pytest.param(w, t, "9", id=f"{w}-{t}") for w in ("before", "after") for t in (1, 2)
] + [pytest.param("after", 2, "all", id="all-odd-after-2")])
def test_kill_and_resume_keeps_records_consistent(tmp_path, when, threads, n):
    rc, ck = str(tmp_path / "r.csv"), str(tmp_path / "ck.json")
    limit, c_prime, c_leq0, ones = _KILLED[n]
    assert survey._plan(None if n == "all" else int(n), 2, limit, threads)[1] == threads  # no lost workers
    env = dict(os.environ, PYTHONPATH=str(Path(dsums.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", _KILLED_SCAN, when, str(threads), rc, ck, n, str(limit)],
                          env=env, timeout=120, start_new_session=True)
    assert proc.returncode == -signal.SIGKILL
    assert json.loads(Path(ck).read_text())["last_p"] < limit  # killed mid-scan
    rep = resume(ck, threads=threads, records=rc)
    assert (rep.c_prime, rep.c_leq0) == (c_prime, c_leq0)
    lines = Path(rc).read_text().splitlines()
    assert lines[0] == "p,n,two_S,N,nonpositive"
    rows = [ln.split(",") for ln in lines[1:]]
    assert len(rows) == rep.c_prime - ones
    assert sum(r[4] == "true" for r in rows) == rep.c_leq0 - ones
    assert len({(r[0], r[1]) for r in rows}) == len(rows)
    full = tmp_path / "full.csv"  # an uninterrupted scan gives the same report and rows
    assert rep == scan_fixed_n(None if n == "all" else int(n), limit, records=str(full))
    assert Path(rc).read_bytes() == full.read_bytes()


# A threads = 2 scan whose workers log their pids, long enough to be killed
# mid-run, under the start method given as argv[2]. Only the parent gets the
# SIGKILL. It runs from a file so that 'forkserver' workers can import logged.
_ORPHANING_SCAN = """
import multiprocessing, os, sys
from dsums import survey
work = survey._segment_worker
def logged(args):
    with open(sys.argv[1], "a") as fh:
        fh.write(f"{os.getpid()}\\n")
    return work(args)
survey._segment_worker = logged
if __name__ == "__main__":
    multiprocessing.set_start_method(sys.argv[2])
    survey.scan_fixed_n(9, 10**9, threads=2)
"""


# `dsums survey` to 1e14, about 9.5e7 segments, under a 1 GiB address-space cap: the scan
# makes each segment as it runs, so it reaches its second checkpoint, where it kills its
# session, workers and all.
_CAPPED_SCAN = """
import os, signal, sys
from dsums import cli, survey
save, calls = survey._save_checkpoint, []
def save_and_die(path, ck):
    save(path, ck)
    calls.append(ck)
    if len(calls) == 2:
        os.killpg(0, signal.SIGKILL)
survey._save_checkpoint = save_and_die
cli.main(sys.argv[1:])
"""


@pytest.mark.parametrize("threads", [1, 2])
def test_a_scan_to_1e14_streams_under_a_1_gib_cap(tmp_path, threads):
    ck = tmp_path / "ck.json"
    env = dict(os.environ, PYTHONPATH=str(Path(dsums.__file__).resolve().parents[1]))
    argv = ["survey", "--n", "9", "--limit", "1e14", "--threads", str(threads), "--checkpoint", str(ck)]
    proc = subprocess.Popen([sys.executable, "-c", _CAPPED_SCAN, *argv], env=env, stderr=subprocess.PIPE, text=True,
                            start_new_session=True,
                            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)))
    try:
        _, err = proc.communicate(timeout=120)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # the whole session, should the scan live on
        except ProcessLookupError:
            pass
        proc.wait(timeout=10)
    assert "MemoryError" not in err
    assert proc.returncode == -signal.SIGKILL, err
    data = json.loads(ck.read_text())
    assert 0 < data["c_prime"] and 2 < data["last_p"] < 10**14


def _running(pid: int) -> bool:
    """True while pid exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads process states from /proc")
@pytest.mark.parametrize("method", ["fork", "forkserver", "spawn"])
def test_workers_exit_when_the_parent_is_killed(tmp_path, method):
    log, script = tmp_path / "pids", tmp_path / "scan.py"
    script.write_text(_ORPHANING_SCAN)
    env = dict(os.environ, PYTHONPATH=str(Path(dsums.__file__).resolve().parents[1]))
    proc = subprocess.Popen([sys.executable, str(script), str(log), method], env=env, start_new_session=True)
    try:
        deadline = time.monotonic() + 60
        pids: set[int] = set()
        while len(pids) < 2 and time.monotonic() < deadline:
            time.sleep(0.1)
            pids = {int(x) for x in log.read_text().split()} if log.exists() else set()
        assert len(pids) == 2
        time.sleep(1.5)  # the watch threads are up and the workers still work
        assert proc.poll() is None and all(map(_running, pids))
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=10)
        deadline = time.monotonic() + 10
        while any(map(_running, pids)) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not any(map(_running, pids))
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # the whole session, should the workers live on
        except ProcessLookupError:
            pass
        proc.wait(timeout=10)
