"""Prime scans for the sign of N(H_n,p) = 12*S(H_n,p) - p.

For each prime p = 1 (mod 2n) the scanner takes the order-n subgroup H_n of
(Z/pZ)* from its generator h0 = order_n_element(p, n) and records the exact
integers 2S and N, which depend on H_n alone, not on which generator it has.
No float or fraction enters the N <= 0 decision. The all-odd scan (n = None)
takes the pairs (p, n) for every odd n | p - 1, one batch per n, in the same
driver.

H_n is closed under inversion and s(h^-1,p) = s(h,p), so with the kernel
12*p*s(c,p) = c + c* + p*t of dedekind_sum_parts and
1 + sum_{j=1}^{n-1} h0^j = k*p (the elements of H_n sum to 0 mod p),
    12*S(H_n,p) = p - 3 + 2k + 2*sum_{j=1}^{(n-1)/2} t_j.
A batch keeps every step on numpy lanes, one lane per prime or per (p, h0^j):
numkernel's _generators gives h0 (its last few open lanes go on in Python
ints), power_table gives h0^1, ..., h0^(n-1), dedekind's _euclid_lanes gives
(t, c*) of every h0^j/p with j <= (n-1)/2, in float32 while p < 2^23 and in
float64 above, and the column sums give k and 12*S. A segment's CSV rows are
one uint8 matrix of right-aligned ASCII digits, each from one division by the
scalar 10, decoded once. The lane products are exact for p < 2^50; the scans
reject bounds >= 2^50, and n*upper >= 2^62 so that no per-prime sum (each
within about n*p of 0) wraps (n = upper when all-odd). Above 3037000500 the
products are numkernel's reciprocal form, below it the plain a*b % p.

Every record passes the audits or the scan aborts before the segment is
written, since a violation would mean the engine is broken, not the data:
the Euclid's inverse of h0^j is h0^(n-j) and no h0^j is 1 (h0 has order n),
p divides 1 + sum h0^j, 6 divides 12*S, 2S = (p-1)/2 (mod 2) and N is odd.
The batched records are tested against meansquare.n_value, which sums the n
kernel values of H_n one prime at a time and runs the same audits.

A scan cuts its range into a count of segments sized by its expected work
(_plan), and makes each segment's bounds (_segment) as it runs, so any bound
below 2^50 streams through bounded memory: in process one segment at a time,
on a pool with at most 2*workers segments submitted ahead of the one whose
records are being committed. Scans checkpoint at segment boundaries (records
flushed to disk first, then an atomic JSON rename that stores the records'
byte length) and can resume after a kill at any point; segments may fan out to
worker processes, with counts merged in ascending order so reports are
identical for any worker count, and each worker exits once the scan process
that started it is gone. A scan whose expected work is below what a pool's
start-up costs runs in process, with no pool, whatever its thread count; the
pool's modules (multiprocessing, threading, concurrent.futures) are imported
only when a pool starts. Primes come from a sieve, so the scans skip primality
tests.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from typing import get_args, get_type_hints

import numpy as np

from .dedekind import _euclid_lanes
from .numkernel import _generators, divisors, power_table, primes_in_progression, totient

__all__ = [
    "DensityReport",
    "ratio_decimal",
    "resume",
    "scan_fixed_n",
    "scan_window",
]

CSV_HEADER = "p,n,two_S,N,nonpositive"

# Lanes of work per planned segment. A segment's fixed cost (the sieve's set-up,
# the generator search's ladders, the numpy calls of each step) is about 2-3 ms
# near 1e10, the time of about 7k lanes (a line fitted to segments of 1e3 to
# 3.6e4 lanes, 2-core VM), so at 2^15 lanes it is under a fifth of the segment's
# time.
_SEGMENT_LANES = 1 << 15
# Expected lanes below which a scan runs in process at any thread count. Under
# the 'fork' start method a 2-worker pool starts, maps and shuts down in about
# 11 ms, and threads = 2 broke even with threads = 1 near 1.1e5-1.7e5 lanes
# (fixed n = 5 and 9 to 2e6-3e6, fresh-process medians on a 2-core VM). Under
# 'forkserver' or 'spawn' each worker imports numpy and dsums itself, so there
# the break-even would lie far higher.
_POOL_LANES = 1 << 17


@dataclass(frozen=True)
class DensityReport:
    """Aggregate counts for a scan; rho is exactly c_leq0/c_prime as text."""

    n: int | None  # None for the all-odd scan, over every odd n | p - 1
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


def _audit(bad: np.ndarray, p: np.ndarray, n: int, what: str, name: str, value: np.ndarray) -> None:
    """Raise ArithmeticError for the first lane where `bad` holds."""
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise ArithmeticError(f"{what} audit failed at p={p[i]}, n={n}: {name}={value[i]}")


def _batch_records(n: int, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The audited (2S, N) of H_n, one lane for each of the int64 primes
    p = 1 (mod 2n), from the generators h0 of one lane search of order n;
    the caller keeps p < 2^50 and n*p < 2^62 (_scan)."""
    m = (n - 1) // 2
    h0 = _generators(n, p)
    powers = power_table(h0, n, p)[1:]  # row j-1 holds h0^j mod p
    t, inv = _euclid_lanes(powers[:m].ravel(), np.tile(p, m))
    # the inverse of h0^j is h0^(n-j) (so h0^n = 1), and no h0^j with 0 < j < n is 1
    bad = (inv.reshape(m, -1) != powers[::-1][:m]).any(axis=0) | (powers == 1).any(axis=0)
    _audit(bad, p, n, "order", "h0", h0)
    # c* = h0^(n-j) are the rest of the table, so sum_j (c + c*) + 1 is its column sum + 1
    k, rem = np.divmod(1 + powers.sum(axis=0), p)
    _audit(rem != 0, p, n, "integrality", "(1 + sum h0^j) mod p", rem)
    twelve_s = p - 3 + 2 * k + 2 * t.reshape(m, -1).sum(axis=0)
    _audit(twelve_s % 6 != 0, p, n, "integrality", "12S", twelve_s)
    two_s = twelve_s // 6
    _audit((two_s - (p - 1) // 2) % 2 != 0, p, n, "parity", "2S", two_s)
    big_n = twelve_s - p
    _audit(big_n % 2 == 0, p, n, "parity", "N", big_n)
    return two_s, big_n


# ---------------------------------------------------------------------------
# checkpointing


@dataclass
class _Checkpoint:
    mode: str  # "fixed" or "window"
    n: int | None  # None (JSON null) for the all-odd scan
    A: int
    span_or_B: int
    last_p: int
    c_prime: int
    c_leq0: int
    records_offset: int | None = None  # bytes of the records file covered; absent in version 1
    version: int = 2  # 1: no records_offset, records go on by plain append


# the JSON types of each field of a version-2 checkpoint, read off _Checkpoint (int | None
# admits int and null); version 1 has no records_offset
_CHECKPOINT_TYPES = {k: get_args(t) or (t,) for k, t in get_type_hints(_Checkpoint).items()}


def _check_path(path: str, what: str) -> None:
    """ValueError unless a file can stand at path: it is named, is no directory, and its directory exists."""
    if not path:
        raise ValueError(f"empty {what} path")
    if os.path.isdir(path):
        raise ValueError(f"{what} path {path} is a directory")
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise ValueError(f"{what} path {path} lies in no existing directory")


def _load_checkpoint(path: str) -> _Checkpoint | None:
    """The checkpoint at path, None if there is no file; ValueError unless it is a
    JSON object with exactly the fields of its version, each of its JSON type, and
    with values a scan writes: mode "fixed" (A = 0) or "window" (A >= 0), counts
    0 <= c_leq0 <= c_prime, A <= last_p <= A + span_or_B, and a records_offset that
    covers the CSV header."""
    _check_path(path, "checkpoint")
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"checkpoint {path} is not a JSON object")
    version = data.setdefault("version", 1)
    if type(version) is not int or version not in (1, 2):  # type(), since a JSON true is no int
        raise ValueError(f"unsupported checkpoint version in {path}")
    want = {k: t for k, t in _CHECKPOINT_TYPES.items() if version > 1 or k != "records_offset"}
    missing, unknown = sorted(want.keys() - data.keys()), sorted(data.keys() - want.keys())
    if missing or unknown:
        raise ValueError(
            f"checkpoint {path} does not hold the version-{version} fields: missing {missing}, unknown {unknown}"
        )
    wrong = [k for k, v in data.items() if type(v) not in want[k]]
    if wrong:
        raise ValueError(f"checkpoint {path} has values of the wrong JSON type in {wrong}")
    ck = _Checkpoint(**data)
    if ck.mode not in ("fixed", "window"):
        raise ValueError(f"checkpoint {path} holds mode={ck.mode!r}, neither 'fixed' nor 'window'")
    if ck.A < 0 or (ck.mode == "fixed" and ck.A):
        raise ValueError(f"checkpoint {path} holds A={ck.A}, which no {ck.mode} scan starts from")
    if not 0 <= ck.c_leq0 <= ck.c_prime:
        raise ValueError(f"checkpoint {path} holds the counts c_prime={ck.c_prime}, c_leq0={ck.c_leq0}")
    if not ck.A <= ck.last_p <= ck.A + ck.span_or_B:
        raise ValueError(f"checkpoint {path} holds last_p={ck.last_p}, outside A={ck.A}, span_or_B={ck.span_or_B}")
    if ck.records_offset is not None and ck.records_offset <= len(CSV_HEADER):
        raise ValueError(f"checkpoint {path} holds records_offset={ck.records_offset}, short of the CSV header")
    return ck


def _save_checkpoint(path: str, ck: _Checkpoint) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump({"version": ck.version, **asdict(ck)}, fh)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


class _RecordSink:
    """CSV sink for record streams. A fresh scan writes the header; a resumed
    one appends after cutting the file back to the byte length its checkpoint
    vouches for, and refuses a file that is missing or shorter (a version-1
    checkpoint holds no length: plain append, or a fresh file)."""

    def __init__(self, path: str | None, fresh: bool, offset: int | None = None):
        self.fh = None
        if path is None:
            return
        size = os.path.getsize(path) if os.path.exists(path) else 0
        if offset is not None and size < offset:
            raise ValueError(f"records file {path} is missing or shorter than its checkpoint says")
        if fresh or not size:
            self.fh = open(path, "w")
            self.fh.write(CSV_HEADER + "\n")
        else:
            self.fh = open(path, "a")
            self.fh.truncate(offset)  # None: at the current position, the end

    def write(self, text: str) -> None:
        if self.fh is not None:
            self.fh.write(text)

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
    import multiprocessing
    import threading

    parent = multiprocessing.parent_process()

    def watch() -> None:
        parent.join()
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


# the last field of a record row, "false\n" or "true\n" (and a zero byte, dropped)
_FLAG_BYTES = np.frombuffer(b"false\ntrue\n\0", dtype=np.uint8).reshape(2, 6)


def _csv_rows(columns: tuple[np.ndarray, ...], flags: np.ndarray) -> str:
    """The rows "{},...,{},{}\n".format(*ints, "true" or "false") of equal-length
    int64 columns and a bool column, as one uint8 matrix with a row of bytes per
    record: each integer right-aligned in a field as wide as its column's widest
    value, with a sign byte before the leading digit of a negative one, and zero
    bytes for the padding, which one mask drops before the single decode."""
    fields = [(v, len(str(int(np.abs(v).max(initial=0)))), v < 0) for v in columns]
    widths = [digits + bool(neg.any()) for _, digits, neg in fields]
    out = np.zeros((len(flags), sum(widths) + len(widths) + _FLAG_BYTES.shape[1]), dtype=np.uint8)
    end = 0  # one past the field in hand
    for (v, digits, neg), width in zip(fields, widths):
        end += width
        x = np.abs(v)
        for k in range(digits):  # the k-th digit from the right, a zero byte past the leading one
            lead = x != 0
            q = x // 10  # numpy's fast path for a scalar divisor, which np.divmod lacks
            digit = x - 10 * q
            digit += ord("0")
            x = q
            if k:
                digit *= lead
            out[:, end - 1 - k] = digit
        if width > digits:
            rows = np.flatnonzero(neg)
            out[rows, end - 1 - np.count_nonzero(out[rows, end - digits : end], axis=1)] = ord("-")
        out[:, end] = ord(",")
        end += 1
    out[:, end:] = _FLAG_BYTES[flags.view(np.uint8)]
    return out[out != 0].tobytes().decode("ascii")


def _segment_worker(args: tuple[int | None, int, int, bool]) -> tuple[int, int, str]:
    """(pairs, nonpositive count, CSV rows or "") of the segment [lo, hi], lo <= hi.

    n = None takes (p, d) for every odd prime p and odd d > 1 dividing p - 1, and counts
    p's n = 1 pair (no row) as nonpositive. The pairs of each order d, all of them for a
    fixed n, go to one batch of records, which runs its own generator search."""
    n, lo, hi, want_records = args
    p = primes_in_progression(lo, hi - lo, 2 * (n or 1), 1)
    ones = 0 if n else len(p)  # the n = 1 pairs
    if n:
        d = np.full_like(p, n)
    else:
        p_d = [(q, d) for q in p.tolist() for d in divisors(q - 1)[1:] if d % 2]
        p, d = np.array(p_d, dtype=np.int64).reshape(-1, 2).T
    two_s, big_n = np.empty_like(p), np.empty_like(p)
    order = np.argsort(d, kind="stable")
    values, starts = np.unique(d[order], return_index=True)
    for k, lanes in zip(values.tolist(), np.split(order, starts[1:])):
        two_s[lanes], big_n[lanes] = _batch_records(k, p[lanes])
    nonpositive = big_n <= 0
    text = _csv_rows((p, d, two_s, big_n), nonpositive) if want_records else ""  # rows of CSV_HEADER
    return len(p) + ones, int(nonpositive.sum()) + ones, text


def _plan(n: int | None, start: int, upper: int, workers: int) -> tuple[int, int]:
    """The number of segments that tile [start, upper] in ascending order
    (_segment gives their bounds), and the number of workers to run them on.

    The expected work is span/(phi(2n) ln upper) primes of the progression,
    each with (n-1)/2 Euclid lanes and one generator lane (the all-odd scan
    counts (upper+1)/2 lanes a prime). Below _POOL_LANES lanes the plan is for
    one worker, whatever was asked, since a pool would cost more to start than
    its other workers save. The count is one segment per _SEGMENT_LANES lanes,
    at most 4*workers, at least enough that no segment holds more than 2^20
    integers, and past one a multiple of the workers, so that each gets the
    same share. A plan for one worker, or of one segment, runs in process."""
    span = upper - start + 1
    if span <= 0:
        return 0, 1
    lanes = (n + 1) // 2 if n else (upper + 1) // 2
    work = span / (totient(n or 1) * math.log(upper)) * lanes
    if work < _POOL_LANES:
        workers = 1
    count = max(min(math.ceil(work / _SEGMENT_LANES), 4 * workers), -(-span >> 20))
    if count > 1:
        count = min(-(-count // workers) * workers, span)  # at least one integer a segment
    return count, min(workers, count)


def _segment(start: int, upper: int, count: int, i: int) -> tuple[int, int]:
    """The bounds (lo, hi) of segment i of the count that tile [start, upper]."""
    span = upper - start + 1
    return start + i * span // count, start + (i + 1) * span // count - 1


def _pooled(pool, jobs, ahead: int):
    """The results of _segment_worker over jobs, in order, from pool; at most
    `ahead` jobs are submitted beyond the one whose result was yielded last."""
    futures = []
    for job in jobs:
        futures.append(pool.submit(_segment_worker, job))
        if len(futures) > ahead:
            yield futures.pop(0).result()
    yield from (f.result() for f in futures)


def _scan(
    mode: str,
    n: int | None,
    lower: int,
    span_or_b: int,
    *,
    threads: int = 1,
    checkpoint: str | None = None,
    records: str | None = None,
) -> DensityReport:
    if n is not None and (n < 3 or n % 2 == 0):
        raise ValueError(f"need odd n >= 3, got {n}")
    if threads < 1:
        raise ValueError(f"need threads >= 1, got {threads}")
    upper = lower + span_or_b
    # int64 lanes are exact for p < 2^50 and per-prime sums below n*p < 2^62 (an all-odd n is < upper)
    if upper >= 1 << 50 or (n or upper) * upper >= 1 << 62:
        raise ValueError(f"scans work in int64: need bounds below 2^50 and n*bound below 2^62, got n={n}, {upper}")
    start = max(lower, 2)
    c_p = c_le = 0
    if records is not None:
        _check_path(records, "records")
        # the checkpoint's atomic rename would replace the records
        if checkpoint and os.path.realpath(records) in {os.path.realpath(c) for c in (checkpoint, checkpoint + ".tmp")}:
            raise ValueError(f"records file {records} is the checkpoint {checkpoint} or its .tmp")
    ck = _load_checkpoint(checkpoint) if checkpoint is not None else None
    if ck is not None:
        if (ck.mode, ck.n, ck.A, ck.span_or_B) != (mode, n, lower, span_or_b):
            raise ValueError(
                f"checkpoint mismatch: file has {(ck.mode, ck.n, ck.A, ck.span_or_B)}, "
                f"scan wants {(mode, n, lower, span_or_b)}"
            )
        if ck.version > 1 and (ck.records_offset is None) != (records is None):
            wrong = "needs the records file it vouches for" if records is None else "was written without records"
            raise ValueError(f"checkpoint {checkpoint} {wrong}")
        start = ck.last_p + 1
        c_p, c_le = ck.c_prime, ck.c_leq0
    sink = _RecordSink(records, ck is None, ck.records_offset if ck else None)
    # at most one worker per CPU this process may run on (the pool forks them all at its
    # first submit) and per segment
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    count, workers = _plan(n, start, upper, min(threads, cpus))
    jobs = ((n, *_segment(start, upper, count, i), records is not None) for i in range(count))
    if workers > 1:  # imported here, so that a scan in process (and `import dsums`) never loads the pool
        from concurrent.futures import ProcessPoolExecutor
    try:
        with (
            ProcessPoolExecutor(workers, initializer=_exit_with_parent) if workers > 1 else nullcontext()
        ) as pool:
            # segments are made as they run, and a pool holds at most 2*workers ahead of the one committed
            results = _pooled(pool, jobs, 2 * workers) if pool else map(_segment_worker, jobs)
            for i, (dp, dl, text) in enumerate(results):
                c_p += dp
                c_le += dl
                sink.write(text)
                if checkpoint:  # rows reach the disk before the checkpoint that counts them
                    ck = _Checkpoint(mode, n, lower, span_or_b, _segment(start, upper, count, i)[1], c_p, c_le, sink.sync())
                    _save_checkpoint(checkpoint, ck)
        if checkpoint and ck is None:  # an empty fresh range still leaves a checkpoint
            _save_checkpoint(checkpoint, _Checkpoint(mode, n, lower, span_or_b, upper, c_p, c_le, sink.sync()))
    finally:
        sink.close()
    desc = f"p <= {upper}" if mode == "fixed" else f"{lower} <= p <= {upper}"
    return DensityReport(n, desc, c_p, c_le, ratio_decimal(c_le, c_p))


def scan_fixed_n(n: int | None, limit: int, **kwargs) -> DensityReport:
    """Density report over primes p = 1 (mod 2n), p <= limit.

    n = None takes the pairs (p, n) for every odd prime p <= limit and every
    odd n | p - 1. The n = 1 pair has N = (2-3p)/p, no integer 2S or N, so it
    counts as nonpositive and has no record row: a records file holds c_prime
    minus the number of odd primes rows, in (p, n) order, as fixed-n rows.
    """
    return _scan("fixed", n, 0, limit, **kwargs)


def scan_window(n: int | None, lower: int, span: int, **kwargs) -> DensityReport:
    """Density report over primes p = 1 (mod 2n), lower <= p <= lower+span (all odd n for n = None)."""
    if lower < 0:
        raise ValueError("need lower >= 0")
    return _scan("window", n, lower, span, **kwargs)


def resume(checkpoint: str, *, threads: int = 1, records: str | None = None) -> DensityReport:
    """Continue the scan described by a checkpoint file to completion."""
    ck = _load_checkpoint(checkpoint)
    if ck is None:
        raise ValueError(f"no checkpoint at {checkpoint}")
    return _scan(ck.mode, ck.n, ck.A, ck.span_or_B, checkpoint=checkpoint, threads=threads, records=records)

