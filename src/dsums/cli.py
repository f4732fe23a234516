"""Command-line entry point.

Subcommands: dedekind, survey, tables, verify, ef, class-number,
mean-square. Exit codes: 0 success, 1 verification failure, 2 usage error.
Numeric output is exact-rational by default; pass --decimal N for decimals.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from . import survey as survey_mod
from .classnumber import bound_chain, relative_class_number, upper_bound_simple, upper_bound_subfield
from .dedekind import dedekind_sum, dedekind_sum_naive
from .eisenstein import e_f, order3_subgroups_from_ef, representations
from .meansquare import (
    mean_square_closed_h3,
    mean_square_exact,
    mean_square_numeric,
    subgroup_sum_S,
    subgroup_sum_tilde,
)
from .unitgroups import kernel_subgroup, subgroup_from_elements, subgroup_from_generator, subgroup_of_order
from .verify import run_suite

_TABLE_N = {"rho5": 5, "rho7": 7, "rho9": 9, "rho11": 11, "rho13": 13, "rho15": 15}
_THREADS_HELP = ("at most this many worker processes, one per CPU and per segment (default: DSUMS_THREADS "
                 "or 1); a scan planned as one segment runs in process")
_INTEXPR = re.compile(r"(\d+)(?:([eE]|\*\*)(\d{1,4}))?", re.ASCII)  # int() would also read other digits
_INT = re.compile(r"[+-]?[0-9]+")  # int() would also read other digits, "_" separators and surrounding spaces


def _int(text: str) -> int:
    """An integer in ASCII digits with an optional sign, nothing else."""
    if _INT.fullmatch(text) is None:
        raise argparse.ArgumentTypeError(f"want an integer in ASCII digits, got {text!r}")
    return int(text)


def _ints(text: str) -> list[int]:
    return [_int(x) for x in text.split(",")]


def _intexpr(text: str) -> int:
    """Accept 100000, 1e5 or 10**5 on the command line, parsed exactly."""
    m = _INTEXPR.fullmatch(text)
    if m is None:
        raise argparse.ArgumentTypeError(f"want an integer like 100000, 1e5 or 10**5, got {text!r}")
    a, op, k = m.groups()
    if op is None:
        return int(a)
    return int(a) ** int(k) if op == "**" else int(a) * 10 ** int(k)


def _threads(text: str) -> int:
    """A positive integer by _int's rule. argparse prints the message for --threads, and
    main for DSUMS_THREADS."""
    if _INT.fullmatch(text) is None or int(text) < 1:
        raise argparse.ArgumentTypeError(f"--threads and DSUMS_THREADS need a positive integer, got {text!r}")
    return int(text)


def _decimal(fr: Fraction, digits: int) -> str:
    sign = "-" if fr < 0 else ""
    return sign + survey_mod.ratio_decimal(abs(fr.numerator), fr.denominator, digits)


def _fmt_limit(v: int) -> str:
    k = len(str(v)) - 1
    return f"10^{k}" if v == 10**k else str(v)


def cmd_dedekind(args) -> int:
    fn = dedekind_sum_naive if args.naive else dedekind_sum
    value = fn(args.c, args.d)
    print(_decimal(value, args.decimal) if args.decimal else value)
    return 0


def cmd_survey(args) -> int:
    n = None if args.all_odd else 9 if args.n is None else args.n
    kwargs = dict(threads=args.threads, checkpoint=args.checkpoint, records=args.records)
    if args.window_from is not None:
        report = survey_mod.scan_window(n, args.window_from, args.span, **kwargs)
    else:
        report = survey_mod.scan_fixed_n(n, 10**5 if args.limit is None else args.limit, **kwargs)
    if args.out == "csv":
        print("n,range,c_prime,c_leq0,rho")
        d = report.to_json()
        print(f"{d['n']},{d['range']},{d['c_prime']},{d['c_leq0']},{d['rho']}")
    else:
        print(json.dumps(report.to_json()))
    return 0


def _rho_cell(rep) -> str:
    """rho as a table cell: truncated digits end in "...", an empty range has none."""
    return f"{rep.rho}..." if rep.c_prime else rep.rho


def cmd_tables(args) -> int:
    if args.table == "rho9-window":
        rep = survey_mod.scan_window(9, args.window_from, args.span, threads=args.threads)
        print(f"{_fmt_limit(args.window_from)} | {_fmt_limit(args.span)} | "
              f"{rep.c_prime} | {rep.c_leq0} | {_rho_cell(rep)}")
        return 0
    limit = 10**5 if args.limit is None else args.limit
    rep = survey_mod.scan_fixed_n(_TABLE_N[args.table], limit, threads=args.threads)
    print(f"{_fmt_limit(limit)} | {rep.c_prime} | {rep.c_leq0} | {_rho_cell(rep)}")
    return 0


def cmd_verify(args) -> int:
    reports = run_suite(args.suite, args.max_modulus, args.seed)
    if args.json:
        print(json.dumps([rep.to_json() for rep in reports]))
    else:
        for rep in reports:
            print(rep.summary())
    return 0 if all(rep.ok for rep in reports) else 1


def cmd_ef(args) -> int:
    f = args.f
    subs = order3_subgroups_from_ef(f)
    closed = mean_square_closed_h3(f).coefficient * f / 2
    out = {
        "f": f,
        "representations": representations(f),  # (a, b) pairs print as JSON lists
        "ratios": sorted(e_f(f)),
        "subgroups": [list(s.elements) for s in subs],
        "closed_form_tilde_S": str(closed),
        "closed_form_holds": {
            str(list(s.elements)): subgroup_sum_tilde(s) == closed for s in subs
        },
    }
    print(json.dumps(out))
    return 0


def cmd_class_number(args) -> int:
    p = args.p
    m = p - 1 if args.degree is None else args.degree
    h = relative_class_number(p, m)
    special = m == p - 1 or 3 * m == p - 1  # the full field (eq. 12) or the order-3 subfield (eq. 13)
    within, ordered = bound_chain(p, m, h)
    out = {
        "p": p,
        "degree": m,
        "h_minus": h,
        "bound_eq10": upper_bound_subfield(p, m),
        "bound_eq12_or_13": upper_bound_simple(p, m) if special else None,
        "satisfied": within and (ordered or not special),
    }
    print(json.dumps(out))
    return 0 if out["satisfied"] else 1


def _parse_subgroup(args, f: int):
    if args.elements is not None:
        return subgroup_from_elements(f, args.elements)
    if args.gen is not None:
        return subgroup_from_generator(f, args.gen)
    if args.kernel is not None:
        return kernel_subgroup(f, args.kernel)
    if args.order is not None:
        return subgroup_of_order(args.order, f)
    return subgroup_from_elements(f, (1,))


def cmd_mean_square(args) -> int:
    f = args.f
    sub = _parse_subgroup(args, f)
    ms = mean_square_exact(f, sub)
    out = {
        "f": f,
        "subgroup": list(sub.elements),
        "S": str(subgroup_sum_S(sub)),
        "tilde_S": str(subgroup_sum_tilde(sub)),
        "M": ms.to_json(),
    }
    if args.numeric:
        out["M_numeric"] = mean_square_numeric(f, sub)
    print(json.dumps(out))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="dsums", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dedekind", help="print s(c,d) exactly")
    p.add_argument("c", type=_int)
    p.add_argument("d", type=_int)
    p.add_argument("--naive", action="store_true", help="use the O(d) sawtooth oracle")
    p.add_argument("--decimal", type=_int, default=0, metavar="N", help="print N >= 0 decimal places instead")
    p.set_defaults(fn=cmd_dedekind)

    p = sub.add_parser("survey", help="scan primes for the sign of N(H_n,p)")
    p.add_argument("--n", type=_int, default=None, help="subgroup order (default 9)")
    p.add_argument("--limit", type=_intexpr, default=None, help="bound B (default 1e5)")
    p.add_argument("--from", dest="window_from", type=_intexpr, default=None)
    p.add_argument("--span", type=_intexpr, default=None)
    p.add_argument("--threads", type=_threads, default=None, help=_THREADS_HELP)
    p.add_argument("--out", choices=("json", "csv"), default="json")
    p.add_argument("--records", default=None, help="CSV path for per-pair records")
    p.add_argument("--checkpoint", default=None, help="JSON checkpoint path (resume-aware)")
    p.add_argument("--all-odd", action="store_true", help="scan pairs (p,n) over all odd n | p-1 instead of --n")
    p.set_defaults(fn=cmd_survey)

    p = sub.add_parser("tables", help="reproduce the density table rows")
    p.add_argument("--table", choices=sorted(_TABLE_N) + ["rho9-window"], required=True)
    p.add_argument("--limit", type=_intexpr, default=None, help="bound B of the rho rows (default 1e5)")
    p.add_argument("--from", dest="window_from", type=_intexpr, default=None, help="rho9-window only")
    p.add_argument("--span", type=_intexpr, default=None, help="rho9-window only")
    p.add_argument("--threads", type=_threads, default=None, help=_THREADS_HELP)
    p.set_defaults(fn=cmd_tables)

    p = sub.add_parser("verify", help="run an identity-verification suite")
    p.add_argument("--suite", default="all")
    p.add_argument("--max-modulus", type=_intexpr, default=None, help="at least 2 (default: each suite's own)")
    p.add_argument("--seed", type=_int, default=None, help="for reciprocity, denominators or all (default 0)")
    p.add_argument("--json", action="store_true", help="print the reports, with cases and seconds, as JSON")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("ef", help="representations f=a^2+ab+b^2 and their subgroups")
    p.add_argument("--f", type=_int, required=True)
    p.set_defaults(fn=cmd_ef)

    p = sub.add_parser("class-number", help="relative class number and bounds")
    p.add_argument("--p", type=_int, required=True)
    p.add_argument("--degree", type=_int, default=None)
    p.set_defaults(fn=cmd_class_number)

    p = sub.add_parser("mean-square", help="exact M(f,H) as a rational multiple of pi^2")
    p.add_argument("--f", type=_int, required=True)
    h = p.add_mutually_exclusive_group()  # one way to name H (default the trivial H)
    h.add_argument("--elements", type=_ints, default=None, help="comma-separated subgroup elements")
    h.add_argument("--gen", type=_int, default=None, help="subgroup generator")
    h.add_argument("--order", type=_int, default=None, help="order-n subgroup (prime f)")
    h.add_argument("--kernel", type=_int, default=None, help="kernel of reduction mod f'")
    p.add_argument("--numeric", action="store_true", help="also average |L(1,chi)|^2 in floats")
    p.set_defaults(fn=cmd_mean_square)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    # an option that the chosen scan would ignore is a usage error
    window = args.fn in (cmd_survey, cmd_tables) and (args.window_from, args.span) != (None, None)
    if args.fn is cmd_tables and args.table == "rho9-window" and None in (args.window_from, args.span):
        ap.error("rho9-window needs --from and --span")
    if args.fn is cmd_tables and window != (args.table == "rho9-window"):
        ap.error("--from and --span go with rho9-window only")
    if args.fn is cmd_survey and (args.window_from is None) != (args.span is None):
        ap.error("--from and --span go together")
    if window and args.limit is not None:
        ap.error("--limit goes with no window (--from, --span)")
    if args.fn is cmd_survey and args.all_odd and args.n is not None:
        ap.error("--all-odd takes every odd n | p - 1, not --n")
    if args.fn is cmd_dedekind and args.decimal < 0:
        ap.error("--decimal takes N >= 0")
    try:
        if getattr(args, "threads", 1) is None:  # survey or tables without --threads
            args.threads = _threads(os.environ.get("DSUMS_THREADS", "1"))
        return args.fn(args)
    except (ValueError, ArithmeticError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
