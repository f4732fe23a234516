"""Batch verification suites: each runs one family of identities at desk
scale and tallies its checks in one VerifyReport: cases run / passed, the
first failing case and the seconds taken.

The one table SUITES gives each suite's default size and whether it draws
random cases; through it they back the ``dsums verify`` subcommand and the
acceptance tests, at the sizes the acceptance criteria pin down.
"""

from __future__ import annotations

import math
import random
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from fractions import Fraction

from .classnumber import bound_chain, relative_class_number
from .dedekind import (
    dedekind_sum,
    dedekind_sum_naive,
    dedekind_sum_tilde,
    dedekind_sum_tilde_naive,
    s_near_one_closed,
    s_one,
    tilde_s_one,
)
from .eisenstein import e_f, order3_subgroups_from_ef, representations
from .meansquare import (
    euler_correction_pi,
    kernel_sum_closed,
    mean_order_closed,
    mean_square_closed_h3,
    mean_square_closed_trivial,
    mean_square_exact,
    mean_square_numeric,
    n_value,
    subgroup_sum_S,
    subgroup_sum_tilde,
)
from .numkernel import divisors, factorize, primes_in_progression, totient
from .unitgroups import (
    Subgroup,
    cyclic_subgroups,
    elements_of_order,
    kernel_subgroup,
    subgroup_from_elements,
    subgroup_from_generator,
    subgroup_of_order,
    trace,
)

__all__ = ["VerifyReport", "SUITES", "run_suite", "cross_check_pairs", "eisenstein_moduli"]


@dataclass
class VerifyReport:
    suite: str
    run: int = 0
    passed: int = 0
    first_failure: str | None = None
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.passed == self.run > 0

    def to_json(self) -> dict:
        return {**asdict(self), "ok": self.ok}

    def summary(self) -> str:
        line = f"suite {self.suite}: {self.passed}/{self.run} checks passed"
        if self.first_failure:
            line += f"\n  first failure: {self.first_failure}"
        return line

    def check(self, ok: bool, detail: str) -> None:
        self.run += 1
        if ok:
            self.passed += 1
        elif self.first_failure is None:
            self.first_failure = detail

    def equal(self, got, expected, label: str) -> None:
        self.check(got == expected, f"{label}: expected {expected}, got {got}")

    @contextmanager
    def audited(self):
        """Audited code as one check: an ArithmeticError from it is a failed check, and the caller goes on."""
        try:
            yield
        except ArithmeticError as exc:
            self.check(False, str(exc))


def _coprime_pairs(rng: random.Random, count: int, dmax: int):
    out = []
    while len(out) < count:
        d = rng.randrange(2, dmax + 1)
        c = rng.randrange(1, d)
        if math.gcd(c, d) == 1:
            out.append((c, d))
    return out


def suite_reciprocity(t: VerifyReport, dmax: int, seed: int) -> None:
    rng = random.Random(seed)

    for c, d in _coprime_pairs(rng, 500, dmax):
        if c < 2 or d < 2:
            continue
        lhs = dedekind_sum(c, d) + dedekind_sum(d, c)
        rhs = Fraction(c * c + d * d - 3 * c * d + 1, 12 * c * d)
        t.check(lhs == rhs, f"reciprocity ({c},{d}): {lhs} != {rhs}")

    for c, d in _coprime_pairs(rng, 200, dmax):
        v = dedekind_sum(c, d)
        t.check(dedekind_sum(c + d, d) == v == dedekind_sum(c - d, d), f"periodicity ({c},{d})")
        t.equal(dedekind_sum(-c, d), -v, f"odd negation ({c},{d})")

    # exhaustive small-modulus battery against the sawtooth oracle
    for d in range(1, min(dmax, 300) + 1):
        vals = {}
        residues = [0] if d == 1 else [c for c in range(1, d) if math.gcd(c, d) == 1]
        for c in residues:
            naive = dedekind_sum_naive(c, d)
            vals[c] = naive
            t.check(dedekind_sum(c, d) == naive, f"oracle mismatch at ({c},{d})")
        for c, naive in vals.items():
            t.check(vals[(d - c) % d] == -naive, f"oddness at ({c},{d})")
            if d <= 200:
                cstar = pow(c, -1, d) if d > 1 else 0
                t.check(vals[cstar] == naive, f"inverse invariance at ({c},{d})")
    t.equal(dedekind_sum(5, 1), Fraction(0), "s(5,1)")
    t.equal(dedekind_sum(1, 9), Fraction(14, 27), "s(1,9)")


def suite_denominators(t: VerifyReport, dmax: int, seed: int) -> None:
    rng = random.Random(seed)

    for c, d in _coprime_pairs(rng, 10_000, dmax):
        v = 2 * d * math.gcd(3, d) * dedekind_sum(c, d)
        t.check(v.denominator == 1, f"2d*gcd(3,d)*s({c},{d}) = {v} not an integer")

    # p = 7 mod 12: the denominator bound is attained and the witness is odd
    for p in primes_in_progression(0, 10**4, 12, 7).tolist():
        v = 2 * p * math.gcd(3, p) * s_one(p)
        ok = v.denominator == 1 and int(v) == (p - 1) * (p - 2) // 6
        ok = ok and int(v) % 2 == 1 and math.gcd(int(v), p) == 1
        t.check(ok, f"optimality witness failed at p={p}: {v}")

    # Moebius-combination consistency between the fast and naive engines
    for f in range(2, min(dmax, 200) + 1):
        units = [c for c in range(1, f) if math.gcd(c, f) == 1]
        sample = units if len(units) <= 6 else rng.sample(units, 6)
        if 1 not in sample:
            sample.append(1)
        for c in sample:
            t.equal(dedekind_sum_tilde(c, f), dedekind_sum_tilde_naive(c, f), f"tilde({c},{f})")
        t.equal(dedekind_sum_tilde(1, f), tilde_s_one(f), f"tilde closed form f={f}")


def suite_theorem_parity(t: VerifyReport, pcap: int, seed: int) -> None:
    # odd n > 1 forces 2S integral with the parity of (p-1)/2 and N odd; the primes come
    # from windows of at most 2^20 integers, as in the scans, so memory stays bounded at any pcap
    for lo in range(0, pcap + 1, 1 << 20):
        for p in primes_in_progression(lo, min(pcap - lo, (1 << 20) - 1), 2, 1).tolist():
            for n in divisors(p - 1):
                if n == 1 or n % 2 == 0:
                    continue
                with t.audited():
                    n_value(p, subgroup_of_order(n, p))  # raises on any parity/integrality violation
                    t.check(True, "")

    # trace: gcd(f, T(H,f)) > 1 for every cyclic subgroup of order > 1;
    # odd f <= 1000: 2*gcd(3,f)*(f/gcd(f,T))*S has the parity of n*(f-1)/2
    for f in range(3, min(pcap, 2000) + 1):
        for sub in cyclic_subgroups(f):
            d = math.gcd(f, trace(sub))  # gcd(f, 0) = f
            if sub.order > 1:
                t.check(d > 1, f"gcd(f,T)=1 at f={f}, H={sub.elements[:4]}...")
            if f % 2 and f <= 1000:
                v = 2 * math.gcd(3, f) * Fraction(f, d) * subgroup_sum_S(sub)
                ok = v.denominator == 1 and (int(v) - sub.order * (f - 1) // 2) % 2 == 0
                t.check(ok, f"parity (ii) failed at f={f}, n={sub.order}: {v}")


_KERNEL_GRID = [
    (p, n, fp)
    for p in (3, 5, 7, 13)
    for n in (1, 2)
    for fp in sorted({p, 3 * p, p * p, 5 * p})
]


def suite_kernel_theorem(t: VerifyReport, cap: int, seed: int) -> None:
    for p, n, fp in _KERNEL_GRID:
        pn = p**n
        f = pn * fp
        if f > cap:
            continue
        ker = kernel_subgroup(f, fp)
        t.equal(ker.order, pn, f"kernel order at (p,n,f')=({p},{n},{fp})")

        S = subgroup_sum_S(ker)
        t.equal(S, kernel_sum_closed(p, n, fp), f"closed kernel sum at ({p},{n},{fp})")

        raw = sum(ker.elements)
        t.equal(raw, pn + (pn - 1) // 2 * f, f"raw trace at ({p},{n},{fp})")
        t.equal(math.gcd(f, trace(ker)), pn, f"gcd(f,T) at ({p},{n},{fp})")

        v = 2 * math.gcd(3, f) * Fraction(f, pn) * S
        ok = v.denominator == 1 and int(v) % p != 0 and (int(v) % 2 == 1) == (f % 4 == 3)
        t.check(ok, f"integrality/parity consequence at ({p},{n},{fp}): {v}")

        # characters trivial on the kernel are induced mod f', so M matches
        t.equal(
            mean_square_exact(f, ker).coefficient,
            mean_square_closed_trivial(fp).coefficient,
            f"M(f,ker) = M(f',{{1}}) at ({p},{n},{fp})",
        )


def suite_constancy(t: VerifyReport, cap: int, seed: int) -> None:
    for p in (3, 5, 7, 13):
        for m in range(2, 7):
            f = p**m
            if f > cap:
                continue
            for n in range(1, m // 2 + 1):
                want = s_near_one_closed(f, p ** (m - n))
                for h in elements_of_order(p**n, f):
                    t.check(
                        dedekind_sum(h, f) == want,
                        f"constancy failed: s({h},{p}^{m}) != {want}",
                    )
    # mean value over each order layer (heavier: restrict to p <= 7)
    for p in (3, 5, 7):
        for m in range(2, 7):
            f = p**m
            if f > cap:
                continue
            for n in range(1, m):
                els = elements_of_order(p**n, f)
                avg = sum((dedekind_sum(h, f) for h in els), Fraction(0)) / len(els)
                t.equal(avg, mean_order_closed(p, m, n), f"mean over order {p}^{n} mod {p}^{m}")
    # the n <= m/2 restriction is sharp
    t.equal(dedekind_sum(4, 27), Fraction(73, 162), "s(4,27)")
    t.equal(dedekind_sum(13, 27), Fraction(-143, 162), "s(13,27)")
    t.check(
        dedekind_sum(4, 27) != dedekind_sum(13, 27),
        "non-constancy witness collapsed at f=27",
    )


def eisenstein_moduli(cap: int) -> list[int]:
    """All f in (3, cap] whose prime divisors are all 1 mod 3."""
    good = []
    for f in range(4, cap + 1):
        fac = factorize(f)
        if all(p % 3 == 1 for p, _ in fac):
            good.append(f)
    return good


def suite_eisenstein(t: VerifyReport, cap: int, seed: int) -> None:
    for f in eisenstein_moduli(cap):
        with t.audited():  # e_f audits its ratios
            tt = len(factorize(f))
            ratios = e_f(f)
            t.equal(len(ratios), 1 << tt, f"|E_{f}|")
            t.equal(len(representations(f)), 1 << (tt - 1), f"representation count at f={f}")
            t.equal(len(set(ratios)), len(ratios), f"ratio collision at f={f}")

            want = mean_square_closed_h3(f).coefficient * f / 2
            subs = order3_subgroups_from_ef(f)
            t.equal(len(subs), 1 << (tt - 1), f"subgroup count at f={f}")
            for sub in subs:
                t.equal(subgroup_sum_tilde(sub), want, f"closed tilde S at f={f}, H={sub.elements}")

    # every divisor sees s(r mod delta, delta) = (delta-1)/(12 delta), and tilde s(r,f) = phi(f)/(12f)
    for f in (7, 49, 91, 133, 1729):
        if f > cap:
            continue
        with t.audited():
            for r in e_f(f):
                tilde = dedekind_sum_tilde(r, f)
                for delta in divisors(f):
                    got, want = dedekind_sum(r % delta, delta), Fraction(delta - 1, 12 * delta)
                    t.check(got == want and tilde == Fraction(totient(f), 12 * f),
                            f"s({r} mod {delta}, {delta}) = {got} != {want}" if got != want
                            else f"tilde s({r},{f}) = {tilde} != phi(f)/12f")

    # f = 91: order-3 subgroups outside E_f break the closed form
    if cap >= 91:
        h, hp = subgroup_from_generator(91, 29), subgroup_from_generator(91, 53)
        t.equal(subgroup_sum_tilde(h), Fraction(610, 91), "tilde S(<29>, 91)")
        t.equal(subgroup_sum_tilde(hp), Fraction(562, 91), "tilde S(<53>, 91)")
        t.equal(dedekind_sum_tilde(29, 91), Fraction(-22, 91), "tilde s(29,91)")
        t.equal(dedekind_sum_tilde(53, 91), Fraction(-46, 91), "tilde s(53,91)")
        t.equal(dedekind_sum_tilde(9, 91), Fraction(6, 91), "tilde s(9,91)")
        want91 = Fraction(666, 91)
        t.check(
            subgroup_sum_tilde(h) != want91 and subgroup_sum_tilde(hp) != want91,
            "non-E_f subgroups at 91 unexpectedly satisfy the closed form",
        )
        for sub in order3_subgroups_from_ef(91):
            t.equal(subgroup_sum_tilde(sub), want91, f"E_91 subgroup {sub.elements}")


def trivial_subgroup(f: int) -> Subgroup:
    return subgroup_from_elements(f, (1,))


def cross_check_pairs(cap: int) -> list[tuple[int, Subgroup]]:
    """Deterministic (f, H) suite for the exact-vs-numeric comparison.

    Mixes prime and composite moduli, trivial subgroups, odd-order cyclic
    subgroups, kernel subgroups and the E_f order-3 subgroups; no pair repeats.
    """
    pairs: list[tuple[int, Subgroup]] = []
    for f in (5, 7, 9, 11, 12, 13, 16, 19, 21, 24, 25, 31, 37, 43, 45, 61, 100, 241, 625, 1009, 1998):
        if f <= cap:
            pairs.append((f, trivial_subgroup(f)))
    for p in (7, 13, 19, 31, 37, 43, 61, 67, 73, 79, 97, 103, 109, 127, 151, 181, 211, 331, 541, 1009, 1303, 1999):
        if p > cap:
            continue
        for n in (3, 5, 7, 9, 11):
            if (p - 1) % n == 0 and n % 2:
                pairs.append((p, subgroup_of_order(n, p)))
    for p in (3, 5, 7, 11, 13):
        for n in (1, 2):
            for fp in sorted({p, 3 * p, 5 * p, p * p}):
                f = p**n * fp
                if f <= cap and fp >= 3:
                    pairs.append((f, kernel_subgroup(f, fp)))
    composite_ef = [f for f in eisenstein_moduli(cap) if len(factorize(f)) > 1]
    for f in composite_ef[::4]:
        for sub in order3_subgroups_from_ef(f):
            pairs.append((f, sub))
    return pairs


def suite_mean_square(t: VerifyReport, cap: int, seed: int) -> None:
    for f, sub in cross_check_pairs(cap):
        with t.audited():  # the character mask audits its count
            exact = float(mean_square_exact(f, sub))
            numeric = mean_square_numeric(f, sub)
            rel = abs(numeric - exact) / exact
            t.check(rel < 1e-8, f"numeric/exact gap {rel:.3e} at f={f}, |H|={sub.order}")

    for f in range(3, min(cap, 200) + 1):
        t.equal(
            mean_square_exact(f, trivial_subgroup(f)).coefficient,
            mean_square_closed_trivial(f).coefficient,
            f"trivial closed form at f={f}",
        )
    for f in eisenstein_moduli(min(cap, 2000)):
        want = mean_square_closed_h3(f).coefficient
        with t.audited():
            for sub in order3_subgroups_from_ef(f):
                t.equal(mean_square_exact(f, sub).coefficient, want, f"H3 closed form at f={f}")

    # N(H_3, p) = -1 for p = 1 mod 6
    for p in primes_in_progression(0, 10**4, 6, 1).tolist():
        with t.audited():
            t.equal(n_value(p, subgroup_of_order(3, p)), Fraction(-1), f"N(H_3,{p})")

    # Mersenne identity N(p, <2>) = 2p - (6n-3)
    for n, p in ((3, 7), (5, 31), (7, 127), (13, 8191)):
        sub = subgroup_from_generator(p, 2)
        t.equal(sub.order, n, f"order of <2> mod {p}")
        with t.audited():
            t.equal(n_value(p, sub), Fraction(2 * p - (6 * n - 3)), f"Mersenne N at p={p}")


def suite_class_number(t: VerifyReport, size: None, seed: int) -> None:
    # h^-(Q(zeta_37)) and h^-(Q(zeta_97)) as published (Washington, GTM 83, tables)
    for p, m, h, label in ((23, 22, 3, "h^-(Q(zeta_23))"), (7, 6, 1, "h^-(Q(zeta_7))"),
                           (37, 36, 37, "h^-(Q(zeta_37))"), (97, 96, 411322824001, "h^-(Q(zeta_97))"),
                           (13, 4, 1, "h^- degree-4 field at p=13")):
        with t.audited():
            t.equal(relative_class_number(p, m), h, label)

    # h <= sharp <= simple, decided exactly (bound_chain)
    for p, m in [(p, p - 1) for p in (7, 11, 13, 19, 23)] + [(p, (p - 1) // 3) for p in (7, 13, 19, 31, 37, 43)]:
        with t.audited():
            within, ordered = bound_chain(p, m, relative_class_number(p, m))
            t.check(within and ordered, f"bound chain at (p, m) = ({p}, {m}): h <= sharp {within}, sharp <= simple {ordered}")

    # Euler correction factor: 1 at prime powers, 100/91 at the worked case
    # 22 = 9 mod 13 lifted; order 3 mod 169
    h91 = subgroup_from_elements(91, (1, 9, 81))
    for f, sub, want in ((49, trivial_subgroup(49), 1), (121, trivial_subgroup(121), 1),
                         (169, subgroup_from_generator(169, 22), 1), (91, h91, Fraction(100, 91))):
        with t.audited():
            t.equal(euler_correction_pi(f, sub), want, f"Pi({f},H)")


# name -> (suite, default size, draws random cases); class-number has no size
SUITES = {
    "reciprocity": (suite_reciprocity, 10**6, True),
    "denominators": (suite_denominators, 10**6, True),
    "theorem-parity": (suite_theorem_parity, 2000, False),
    "kernel-theorem": (suite_kernel_theorem, 13**4, False),
    "constancy": (suite_constancy, 13**6, False),
    "mean-square": (suite_mean_square, 500, False),
    "eisenstein": (suite_eisenstein, 2000, False),
    "class-number": (suite_class_number, None, False),
}


def run_suite(name: str, max_modulus: int | None = None, seed: int | None = None) -> list[VerifyReport]:
    """The reports of one suite or of all; an ArithmeticError that escapes a
    suite's own checks ends that suite as one more failed check. max_modulus
    replaces each sized suite's default; the seed (default 0) goes only where
    random cases are drawn."""
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    if max_modulus is not None and max_modulus < 2:
        raise ValueError(f"need max_modulus >= 2, got {max_modulus}")
    names = list(SUITES) if name == "all" else [name]
    if max_modulus is not None and all(SUITES[s][1] is None for s in names):
        raise ValueError(f"suite {name} has no size: a max_modulus goes with the other suites or all")
    if seed is not None and not any(SUITES[s][2] for s in names):
        seeded = ", ".join(s for s, (_, _, draws) in SUITES.items() if draws)
        raise ValueError(f"suite {name} draws no random cases: a seed goes with {seeded} or all")
    reports = []
    for suite in names:
        fn, default, _ = SUITES[suite]
        rep, start = VerifyReport(suite), time.perf_counter()
        with rep.audited():
            fn(rep, max_modulus if max_modulus and default else default, seed or 0)
        rep.seconds = time.perf_counter() - start
        reports.append(rep)
    return reports
