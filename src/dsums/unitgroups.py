"""Structure of the multiplicative group mod f.

CRT-factored generators for (Z/fZ)*, explicit subgroups (element lists,
traces, kernels of reduction maps), and the Dirichlet character group with
exact parity and subgroup-triviality tests.

Characters are evaluated on exact phases, never on floats: rational angles
for one character (DirichletCharacter.angle, the term-by-term oracle), or
int64 residues mod the group exponent for the whole grid of exponent vectors
at once (odd_character_mask, and euler_phase_orders for the primitive values
chi*(q) that make the Euler factor Pi(f,H) an exact rational).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .numkernel import crt, factorize, is_prime, mulmod, order_n_element, power_table, totient

__all__ = [
    "DirichletCharacter",
    "Subgroup",
    "UnitGroup",
    "characters",
    "cyclic_subgroups",
    "element_order",
    "elements_of_order",
    "euler_phase_orders",
    "kernel_subgroup",
    "odd_character_mask",
    "odd_characters_trivial_on",
    "subgroup_from_elements",
    "subgroup_from_generator",
    "subgroup_of_order",
    "trace",
    "unit_group",
]


@lru_cache(maxsize=1 << 12)
def _primitive_root_prime_power(p: int, e: int) -> int:
    """Smallest generator of the cyclic group (Z/p^eZ)*, p an odd prime."""
    q = p**e
    return next(g for g in itertools.count(2) if g % p and element_order(g, q) == q // p * (p - 1))


class UnitGroup:
    """(Z/fZ)* as a product of cyclic components with explicit generators.

    generators[i] has exact order orders[i] mod f and is congruent to 1 on
    every other prime-power component, so exponent vectors against
    (generators, orders) parameterize the whole group. For odd prime powers
    the component generator is the smallest primitive root; for 2^k (k>=3)
    the components are <-1> and <5>. axis_primes[i] is the prime whose
    component generators[i] generates.
    """

    def __init__(self, modulus: int):
        if modulus < 2:
            raise ValueError(f"need modulus >= 2, got {modulus}")
        self.modulus = modulus
        gens: list[int] = []
        orders: list[int] = []
        axis_primes: list[int] = []
        for p, e in factorize(modulus):
            q = p**e
            rest = modulus // q
            if p == 2:
                if e == 2:
                    comps = [(3, 2)]
                elif e >= 3:
                    comps = [(q - 1, 2), (5, 2 ** (e - 2))]
                else:
                    comps = []
            else:
                comps = [(_primitive_root_prime_power(p, e), q // p * (p - 1))]
            for g, order in comps:
                gens.append(crt((g, 1), (q, rest)))  # g on this component, 1 on the others
                orders.append(order)
                axis_primes.append(p)
        self.generators = tuple(gens)
        self.orders = tuple(orders)
        self.axis_primes = tuple(axis_primes)
        self.phi = math.prod(self.orders)
        self.exponent = math.lcm(*self.orders) if self.orders else 1
        self._grid: np.ndarray | None = None
        self._index: np.ndarray | None = None
        self._index_view: memoryview | None = None

    def torsion(self, q: int) -> np.ndarray:
        """The units x with x^q = 1 as an int64 array of shape t_i = gcd(orders[i], q):
        entry k is prod b_i^k_i mod f with b_i = generators[i]^(orders[i]/t_i) of order t_i,
        so it has order lcm_i t_i/gcd(t_i, k_i) (_torsion_orders). The lane products
        refuse f >= 2^50 (ValueError)."""
        f = self.modulus
        units = np.ones((), dtype=np.int64)
        for g, s in zip(self.generators, self.orders):
            t = math.gcd(s, q)
            table = power_table(pow(g, s // t, f), t, f)
            units = mulmod(units[..., np.newaxis], table, f) if units.ndim else table  # no product on axis 0
        return units

    def grid(self) -> np.ndarray:
        """The units as a read-only int64 array of shape orders, the torsion of
        the exponent: entry l is prod generators[i]^l[i] mod f, so C order runs
        through the exponent vectors lexicographically."""
        if self._grid is None:
            if self.modulus >= 1 << 31:
                raise ValueError(f"modulus {self.modulus} too large for the int64 unit grid")
            self._grid = self.torsion(self.exponent)
            self._grid.flags.writeable = False
        return self._grid

    def _flat_index(self) -> np.ndarray:
        """For each residue mod f, its flat position in grid(); -1 off the units."""
        if self._index is None:
            index = np.full(self.modulus, -1, dtype=np.int64)
            index[self.grid().ravel()] = np.arange(self.phi, dtype=np.int64)
            self._index = index
        return self._index

    @property
    def units(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self._flat_index() >= 0).tolist())

    def dlog(self, x: int) -> tuple[int, ...]:
        """Exponent vector of x against the generators."""
        if self._index_view is None:  # reads Python ints off the array's buffer, with no numpy scalar
            self._index_view = memoryview(self._flat_index())
        k = self._index_view[x % self.modulus]
        if k < 0:
            raise ValueError(f"{x} is not a unit mod {self.modulus}")
        logs = []
        for s in reversed(self.orders):
            k, e = divmod(k, s)
            logs.append(e)
        return tuple(reversed(logs))

    def __repr__(self) -> str:  # pragma: no cover
        return f"UnitGroup({self.modulus}, orders={self.orders})"


@lru_cache(maxsize=256)
def unit_group(f: int) -> UnitGroup:
    return UnitGroup(f)


def element_order(x: int, f: int) -> int:
    """Multiplicative order of x mod f."""
    if f < 1:
        raise ValueError("need f >= 1")
    x %= f
    if math.gcd(x, f) != 1:
        raise ValueError(f"gcd({x},{f}) > 1: no multiplicative order")
    if f == 1:
        return 1
    order = totient(f)
    for q, _ in factorize(order):
        while order % q == 0 and pow(x, order // q, f) == 1:
            order //= q
    return order


@dataclass(frozen=True)
class Subgroup:
    """A subgroup of (Z/fZ)* held as its sorted element list."""

    modulus: int
    elements: tuple[int, ...]
    generators: tuple[int, ...] = ()

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def contains_minus_one(self) -> bool:
        return self.modulus - 1 in self.elements

    def is_closed(self) -> bool:
        got = set(self.elements)
        f = self.modulus
        return 1 in got and all(a * b % f in got for a in self.elements for b in self.elements)


def subgroup_from_generator(f: int, g: int) -> Subgroup:
    """Cyclic subgroup <g> of (Z/fZ)*; closed by construction."""
    g %= f
    if math.gcd(g, f) != 1:
        raise ValueError(f"gcd({g},{f}) > 1: not a unit")
    elems = [1]
    x = g
    while x != 1:
        elems.append(x)
        x = x * g % f
    return Subgroup(f, tuple(sorted(elems)), (g,))


def subgroup_from_elements(f: int, elements, generators: tuple[int, ...] = ()) -> Subgroup:
    """Build and validate a subgroup from an explicit element list."""
    elems = tuple(sorted(set(x % f for x in elements)))
    sub = Subgroup(f, elems, generators)
    if any(math.gcd(x, f) != 1 for x in elems):
        raise ValueError("element list contains a non-unit")
    if not sub.is_closed():
        raise ValueError("element list is not closed under multiplication")
    return sub


def subgroup_of_order(n: int, p: int) -> Subgroup:
    """The unique order-n subgroup of the cyclic group (Z/pZ)*, p odd prime.

    Generated by order_n_element(p, n); the subgroup does not depend on the generator.
    """
    if p < 3 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    return subgroup_from_generator(p, order_n_element(p, n))


@lru_cache(maxsize=1 << 12)
def kernel_subgroup(f: int, f_prime: int) -> Subgroup:
    """Kernel of the reduction (Z/fZ)* ->> (Z/f'Z)*: units = 1 (mod f')."""
    if f < 2:
        raise ValueError("need f >= 2")
    if f_prime < 1 or f % f_prime != 0:
        raise ValueError(f"{f_prime} does not divide {f}")
    elems = tuple(x for x in range(1, f, f_prime) if math.gcd(x, f) == 1)
    return Subgroup(f, elems)


def _torsion_orders(shape: tuple[int, ...]) -> np.ndarray:
    """The order of each entry of a torsion array of this shape: lcm_i t_i/gcd(t_i, k_i) at k."""
    order = np.ones((), dtype=np.int64)
    for t in shape:
        order = np.lcm.outer(order, t // np.gcd(np.arange(t), t))
    return order


def elements_of_order(q: int, f: int) -> tuple[int, ...]:
    """All units of exact multiplicative order q mod f (possibly empty), for f < 2^50."""
    if f < 2 or q < 1:
        raise ValueError(f"need f >= 2 and q >= 1, got f={f}, q={q}")
    units = unit_group(f).torsion(q)
    return tuple(np.sort(units[_torsion_orders(units.shape) == q]).tolist())


def cyclic_subgroups(f: int) -> list[Subgroup]:
    """Every cyclic subgroup of (Z/fZ)*, each listed once: ascending in order,
    each generated by its least generator."""
    g = unit_group(f)
    units, orders = g.grid().ravel(), _torsion_orders(g.orders).ravel()
    subs: list[Subgroup] = []
    covered: set[int] = set()
    for x in units[np.lexsort((units, orders))].tolist():
        if x not in covered:
            sub = subgroup_from_generator(f, x)
            subs.append(sub)
            covered.update(sub.elements)
    return subs


def trace(sub: Subgroup) -> int:
    """T(H,f), the sum of the subgroup's elements mod f."""
    return sum(sub.elements) % sub.modulus


@dataclass(frozen=True)
class DirichletCharacter:
    """Character mod f as an exponent vector against unit_group(f).

    chi(generators[i]) = exp(2*pi*i * exponents[i] / orders[i]); values off
    the units are 0.
    """

    modulus: int
    exponents: tuple[int, ...]

    @property
    def group(self) -> UnitGroup:
        return unit_group(self.modulus)

    def _phase(self, x: int) -> int:
        """The integer t in [0, E) with angle(x) = t/E, E the group exponent."""
        g = self.group
        big = g.exponent
        return sum(e * l * (big // s) for e, l, s in zip(self.exponents, g.dlog(x), g.orders)) % big

    def angle(self, x: int) -> Fraction:
        """Exact phase in [0,1): chi(x) = exp(2*pi*i*angle(x))."""
        return Fraction(self._phase(x), self.group.exponent)

    @property
    def is_odd(self) -> bool:
        return 2 * self._phase(self.modulus - 1) == self.group.exponent

    @property
    def order(self) -> int:
        return math.lcm(*(s // math.gcd(s, e) for s, e in zip(self.group.orders, self.exponents))) if self.exponents else 1

    def is_trivial_on(self, elements) -> bool:
        return all(self._phase(x) == 0 for x in elements)


@lru_cache(maxsize=64)
def characters(f: int) -> tuple[DirichletCharacter, ...]:
    """All phi(f) characters mod f, lexicographic in the exponent vector."""
    if f < 3:
        raise ValueError(f"need f >= 3, got {f}")
    g = unit_group(f)
    return tuple(
        DirichletCharacter(f, exps) for exps in itertools.product(*(range(s) for s in g.orders))
    )


def _phases(g: UnitGroup, x: int) -> np.ndarray:
    """phase_j(x) = sum_i j_i * dlog_i(x) * E/s_i mod E for every exponent vector j,
    as an array of shape g.orders (each term below E^2, their sum below r*E)."""
    big = g.exponent
    axes = [np.arange(s, dtype=np.int64) * (l * (big // s) % big) % big for l, s in zip(g.dlog(x), g.orders)]
    return sum(np.ix_(*axes)) % big


@lru_cache(maxsize=64)
def odd_character_mask(sub: Subgroup) -> np.ndarray:
    """X_f^-(H) as a read-only boolean array over the exponent grid unit_group(f).orders.

    Entry j is set when chi_j is odd (phase_j(-1) = E/2) and trivial on H
    (phase_j(h) = 0 mod E for each generator h), E the group exponent; the
    test is exact int64 index arithmetic. Needs -1 not in H.
    """
    if sub.contains_minus_one:
        raise ValueError("-1 in H: no odd character is trivial on H")
    g = unit_group(sub.modulus)
    mask = _phases(g, sub.modulus - 1) * 2 == g.exponent
    for h in sub.generators if sub.generators else sub.elements:
        mask &= _phases(g, h) == 0
    got, expected = int(mask.sum()), totient(sub.modulus) // (2 * sub.order)
    if got != expected:
        raise ArithmeticError(f"character count mismatch mod {sub.modulus}: got {got}, expected {expected}")
    mask.flags.writeable = False
    return mask


@lru_cache(maxsize=512)
def odd_characters_trivial_on(sub: Subgroup) -> tuple[DirichletCharacter, ...]:
    """X_f^-(H): the phi(f)/(2n) odd characters trivial on H, in the order of
    characters(f); needs -1 not in H."""
    f = sub.modulus
    return tuple(DirichletCharacter(f, tuple(map(int, j))) for j in np.argwhere(odd_character_mask(sub)))


def euler_phase_orders(sub: Subgroup) -> dict[int, dict[int, int]]:
    """{q: {d: c_d}} over the primes q | f, c_d the number of chi in X_f^-(H)
    whose primitive value chi*(q) is a primitive d-th root of unity.

    chi*(q) = 0 exactly when q divides the conductor of chi, that is when chi
    is nontrivial on q's own axes of the grid; those chi are left out. For the
    others the conductor divides f/q^e, so chi*(q) = chi(x) at the unit
    x = q (mod f/q^e), x = 1 (mod q^e), read off the same int64 phase grid
    as odd_character_mask.
    """
    f = sub.modulus
    g = unit_group(f)
    big = g.exponent
    out = {}
    for q, e in factorize(f):
        kept = odd_character_mask(sub).copy()
        for axis, p in enumerate(g.axis_primes):
            if p == q:
                kept[(slice(None),) * axis + (slice(1, None),)] = False
        phases = _phases(g, crt((q, 1), (f // q**e, q**e)))[kept]
        orders, counts = np.unique(big // np.gcd(phases, big), return_counts=True)
        out[q] = dict(zip(orders.tolist(), counts.tolist()))
    return out
