"""Prime scans for the sign of N(H_n,p) = 12*S(H_n,p) - p.

For each prime p = 1 (mod 2n) the scanner builds the order-n subgroup of
(Z/pZ)* (the first power x^((p-1)/n) of exact order n), sums the n integers
12*p*s(h,p) from the Dedekind kernel, and records the exact integers 2S and
N. No float or fraction enters the N <= 0 decision, and every record passes
the integrality and parity audits (2S = (p-1)/2 mod 2, N odd) or the scan
aborts: a violation would mean the engine is broken, not the data.

Scans checkpoint at segment boundaries (records flushed to disk first, then
an atomic JSON rename that stores the records' byte length) and can resume
after a kill at any point; segments may fan out to worker processes, with
counts merged in ascending order so reports are identical for any worker
count, and each worker exits once the scan process that started it is gone.
Primes come from a sieve, so the scans call n_record with sieved=True and
skip its primality test.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass

from .dedekind import dedekind_sum_parts
from .numkernel import divisors, is_prime, order_n_element, primes_in_progression

__all__ = [
    "DensityReport",
    "SurveyRecord",
    "n_record",
    "ratio_decimal",
    "resume",
    "scan_all_odd_subgroups",
    "scan_fixed_n",
    "scan_window",
]

CSV_HEADER = "p,n,two_S,N,nonpositive"


@dataclass(frozen=True)
class SurveyRecord:
    """Exact survey data for one prime: two_S = 2*S(H_n,p), N = 12*S - p."""

    p: int
    n: int
    two_S: int
    N: int
    nonpositive: bool

    def csv_row(self) -> str:
        return f"{self.p},{self.n},{self.two_S},{self.N},{'true' if self.nonpositive else 'false'}"


@dataclass(frozen=True)
class DensityReport:
    """Aggregate counts for a scan; rho is exactly c_leq0/c_prime as text."""

    n: int | None  # None for the all-odd-subgroups scan
    range_desc: str
    c_prime: int
    c_leq0: int
    rho: str

    def to_json(self) -> dict:
        return {
            "n": self.n if self.n is not None else "all",
            "range": self.range_desc,
            "c_prime": self.c_prime,
            "c_leq0": self.c_leq0,
            "rho": self.rho,
        }


def ratio_decimal(num: int, den: int, digits: int = 5) -> str:
    """Truncated decimal expansion of num/den to `digits` places; "undefined"
    when den = 0, as for the density of an empty range."""
    if den == 0:
        return "undefined"
    whole, rem = divmod(num, den)
    out = [str(whole), "."]
    for _ in range(digits):
        rem *= 10
        d, rem = divmod(rem, den)
        out.append(str(d))
    return "".join(out)


def n_record(p: int, n: int, *, sieved: bool = False) -> SurveyRecord:
    """Exact record for the order-n subgroup of (Z/pZ)*; needs n > 1, n | p-1.

    sieved=True skips the primality test, for a p the segment sieve already
    proved prime."""
    if n <= 1:
        raise ValueError("n_record needs n > 1")
    if not sieved and not is_prime(p):
        raise ValueError(f"{p} is not prime")
    h0 = order_n_element(p, n)
    total = 0  # sum over H of 12*p*s(h,p)
    h = 1
    for _ in range(n):
        total += dedekind_sum_parts(h, p)[0]
        h = h * h0 % p
    twelve_s, rem = divmod(total, p)
    if rem or twelve_s % 6:
        raise ArithmeticError(f"2*S(H_{n},{p}) is not an integer (12*p*S = {total})")
    two_s = twelve_s // 6
    if (two_s - (p - 1) // 2) % 2:
        raise ArithmeticError(f"parity audit failed at p={p}, n={n}: 2S={two_s}")
    big_n = twelve_s - p
    if big_n % 2 == 0:
        raise ArithmeticError(f"N(H_{n},{p}) = {big_n} is even")
    return SurveyRecord(p, n, two_s, big_n, big_n <= 0)


# ---------------------------------------------------------------------------
# checkpointing


@dataclass
class _Checkpoint:
    mode: str  # "fixed" or "window"
    n: int
    A: int
    span_or_B: int
    last_p: int
    c_prime: int
    c_leq0: int
    records_offset: int | None = None  # bytes of the records file covered; absent in version 1


def _load_checkpoint(path: str) -> _Checkpoint | None:
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        data = json.load(fh)
    if data.pop("version", 1) not in (1, 2):
        raise ValueError(f"unsupported checkpoint version in {path}")
    return _Checkpoint(**data)


def _save_checkpoint(path: str, ck: _Checkpoint) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump({"version": 2, **asdict(ck)}, fh)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


class _RecordSink:
    """CSV sink for record streams. A fresh scan writes the header; a resumed
    one appends after cutting the file back to the byte length its checkpoint
    vouches for (a version-1 checkpoint holds none: plain append)."""

    def __init__(self, path: str | None, fresh: bool, offset: int | None = None):
        self.fh = None
        if path is None:
            return
        if fresh or not (os.path.exists(path) and os.path.getsize(path) > 0):
            self.fh = open(path, "w")
            self.fh.write(CSV_HEADER + "\n")
        elif offset is not None and offset > os.path.getsize(path):
            raise ValueError(f"records file {path} is shorter than its checkpoint says")
        else:
            self.fh = open(path, "a")
            self.fh.truncate(offset)  # None: at the current position, the end

    def write(self, records) -> None:
        if self.fh is not None:
            for rec in records:
                self.fh.write(rec.csv_row() + "\n")

    def sync(self) -> int | None:
        """Flush the rows to disk; the file's byte length, or None without a file."""
        if self.fh is None:
            return None
        self.fh.flush()
        os.fsync(self.fh.fileno())
        return os.fstat(self.fh.fileno()).st_size

    def close(self) -> None:
        if self.fh is not None:
            self.fh.close()


# ---------------------------------------------------------------------------
# scan drivers


def _exit_with_parent() -> None:
    """Pool initializer: a daemon thread ends this worker once the process that
    started it is gone, so a scan killed on its own leaves no orphans.

    It waits for EOF on the parent's sentinel pipe, which holds under every
    start method; os.getppid() would name the fork server under 'forkserver'.
    Under 'fork' a later worker inherits an earlier one's pipe, so the
    workers exit one after the other, last started first."""
    parent = multiprocessing.parent_process()

    def watch() -> None:
        parent.join()
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _segment_worker(args: tuple[int, int, int, bool]):
    n, lo, hi, want_records = args
    c_p = c_le = 0
    rows: list[SurveyRecord] = []
    for p in primes_in_progression(lo, hi - lo, 2 * n, 1):
        rec = n_record(p, n, sieved=True)
        c_p += 1
        c_le += rec.nonpositive
        if want_records:
            rows.append(rec)
    return c_p, c_le, rows


def _scan(
    mode: str,
    n: int,
    lower: int,
    upper: int,
    span_or_b: int,
    *,
    threads: int = 1,
    checkpoint: str | None = None,
    records: str | None = None,
) -> DensityReport:
    if n < 3 or n % 2 == 0:
        raise ValueError(f"need odd n >= 3, got {n}")
    if threads < 1:
        raise ValueError(f"need threads >= 1, got {threads}")
    if upper >= 1 << 63:
        raise ValueError("the segment sieve works in int64: need scan bounds below 2^63")
    start = max(lower, 2)
    c_p = c_le = 0
    ck = _load_checkpoint(checkpoint) if checkpoint else None
    if ck is not None:
        if (ck.mode, ck.n, ck.A, ck.span_or_B) != (mode, n, lower, span_or_b):
            raise ValueError(
                f"checkpoint mismatch: file has {(ck.mode, ck.n, ck.A, ck.span_or_B)}, "
                f"scan wants {(mode, n, lower, span_or_b)}"
            )
        start = ck.last_p + 1
        c_p, c_le = ck.c_prime, ck.c_leq0
    sink = _RecordSink(records, ck is None, ck.records_offset if ck else None)
    size = max(1, min(1 << 20, -(-(upper - start + 1) // (4 * threads))))
    segments = [(n, lo, min(lo + size - 1, upper), records is not None) for lo in range(start, upper + 1, size)]
    try:
        with (
            ProcessPoolExecutor(threads, initializer=_exit_with_parent) if threads > 1 else nullcontext()
        ) as pool:
            results = pool.map(_segment_worker, segments, chunksize=1) if pool else map(_segment_worker, segments)
            for (_, _, seg_hi, _), (dp, dl, rows) in zip(segments, results):
                c_p += dp
                c_le += dl
                sink.write(rows)
                if checkpoint:  # rows reach the disk before the checkpoint that counts them
                    ck = _Checkpoint(mode, n, lower, span_or_b, seg_hi, c_p, c_le, sink.sync())
                    _save_checkpoint(checkpoint, ck)
        if checkpoint and ck is None:  # an empty fresh range still leaves a checkpoint
            _save_checkpoint(checkpoint, _Checkpoint(mode, n, lower, span_or_b, upper, c_p, c_le, sink.sync()))
    finally:
        sink.close()
    desc = f"p <= {upper}" if mode == "fixed" else f"{lower} <= p <= {upper}"
    return DensityReport(n, desc, c_p, c_le, ratio_decimal(c_le, c_p))


def scan_fixed_n(n: int, limit: int, **kwargs) -> DensityReport:
    """Density report over primes p = 1 (mod 2n), p <= limit."""
    return _scan("fixed", n, 0, limit, limit, **kwargs)


def scan_window(n: int, lower: int, span: int, **kwargs) -> DensityReport:
    """Density report over primes p = 1 (mod 2n), lower <= p <= lower+span."""
    if lower < 0:
        raise ValueError("need lower >= 0")
    return _scan("window", n, lower, lower + span, span, **kwargs)


def resume(checkpoint: str, *, threads: int = 1, records: str | None = None) -> DensityReport:
    """Continue the scan described by a checkpoint file to completion."""
    ck = _load_checkpoint(checkpoint)
    if ck is None:
        raise ValueError(f"no checkpoint at {checkpoint}")
    if ck.mode == "fixed":
        return scan_fixed_n(ck.n, ck.span_or_B, checkpoint=checkpoint, threads=threads, records=records)
    return scan_window(ck.n, ck.A, ck.span_or_B, checkpoint=checkpoint, threads=threads, records=records)


def scan_all_odd_subgroups(limit: int) -> DensityReport:
    """Pairs (p, n): p odd prime <= limit, n an odd divisor of p-1 (n = 1 included).

    The n = 1 pair carries N = (2-3p)/p < 0 and always counts as
    nonpositive; pairs with n > 1 use the exact integer N.
    """
    if limit < 3:
        raise ValueError("need limit >= 3")
    pairs = nonpos = 0
    for p in primes_in_progression(3, limit - 3, 1, 0):
        for d in divisors(p - 1):
            if d % 2 == 0:
                continue
            pairs += 1
            if d == 1 or n_record(p, d, sieved=True).nonpositive:
                nonpos += 1
    return DensityReport(None, f"p <= {limit}", pairs, nonpos, ratio_decimal(nonpos, pairs))
