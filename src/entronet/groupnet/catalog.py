"""Named cocycles: carry, Witt-vector addition, binomials, and PMI.

The carry and Witt cocycles are honest group cocycles and return
:class:`Cocycle2` values over the matching cyclic group.  The binomial
family and pointwise mutual information live on monoids; they are verified
on a bounded range only, multiplicatively for binomials and additively with
a tolerance for PMI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable, Hashable

from ..scalars import is_prime
from .cohomology import Cocycle2
from .groups import GModule, Group


def carry(n: int) -> Cocycle2:
    """Base-n addition carry (i, j) -> (i + j) div n, valued in Z/n."""
    if n < 2:
        raise ValueError("carry needs base n >= 2")
    G = Group.cyclic(n)
    U = GModule.trivial(G, (n,))
    rows = tuple(
        tuple(((i + j) // n % n,) for j in range(n)) for i in range(n)
    )
    return Cocycle2(U, rows)


def witt(p: int) -> Cocycle2:
    """Second Witt component of addition: sum of (1/p) C(p,i) x^i y^(p-i) mod p."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    G = Group.cyclic(p)
    U = GModule.trivial(G, (p,))

    def chi(x: int, y: int) -> int:
        total = 0
        for i in range(1, p):
            total += (comb(p, i) // p) * pow(x, i, p) * pow(y, p - i, p)
        return total % p

    rows = tuple(tuple((chi(x, y),) for y in range(p)) for x in range(p))
    return Cocycle2(U, rows)


@dataclass(frozen=True)
class BoundedMonoidCocycle:
    """A 2-cochain on a commutative monoid, checkable on a bounded range.

    `multiplicative` selects whether the cocycle identity is
    c(x,y)*c(x+y,z) == c(y,z)*c(x,y+z) or its additive form; `checked(x, y, z)`
    says which triples of `elements` the bounded check covers.
    """

    add: Callable[[Hashable, Hashable], Hashable]
    value: Callable[[Hashable, Hashable], object]
    elements: tuple[Hashable, ...]
    multiplicative: bool = True
    tolerance: float = 0.0
    checked: Callable[[Hashable, Hashable, Hashable], bool] = lambda x, y, z: True

    def __call__(self, x, y):
        return self.value(x, y)

    def check_identity(self, x, y, z) -> bool:
        xy, yz = self.add(x, y), self.add(y, z)
        if self.multiplicative:
            lhs = self.value(x, y) * self.value(xy, z)
            rhs = self.value(y, z) * self.value(x, yz)
        else:
            lhs = self.value(x, y) + self.value(xy, z)
            rhs = self.value(y, z) + self.value(x, yz)
        if self.tolerance:
            return abs(lhs - rhs) <= self.tolerance
        return lhs == rhs

    def verify(self) -> bool:
        elems = self.elements
        return all(
            self.check_identity(x, y, z)
            for x in elems
            for y in elems
            for z in elems
            if self.checked(x, y, z)
        )


def binomial_cocycle(max_value: int) -> BoundedMonoidCocycle:
    """c(k1,k2) = C(k1+k2, k1) on {0..max_value}, checked where sums stay in range."""
    if max_value < 0:
        raise ValueError("range bound must be nonnegative")
    return fontene_ward(lambda k: k, max_value)


def fontene_ward(g: Callable[[int], Fraction], max_value: int) -> BoundedMonoidCocycle:
    """Generalized binomial from a nonvanishing g: c = f(k1+k2)/(f(k1) f(k2))."""
    f = [Fraction(1)]
    for k in range(1, 2 * max_value + 1):
        gk = Fraction(g(k))
        if gk == 0:
            raise ValueError(f"g({k}) must be nonzero")
        f.append(f[-1] * gk)
    return BoundedMonoidCocycle(
        lambda a, b: a + b,
        lambda a, b: f[a + b] / (f[a] * f[b]),
        tuple(range(max_value + 1)),
        checked=lambda x, y, z: x + y + z <= max_value,
    )


class ProbSpace:
    """A finite probability space with rational point masses."""

    def __init__(self, masses: dict[Hashable, Fraction]):
        self.masses = {k: Fraction(v) for k, v in masses.items()}
        if any(v < 0 for v in self.masses.values()):
            raise ValueError("masses must be nonnegative")
        if sum(self.masses.values()) != 1:
            raise ValueError("masses must sum to 1")
        self.points = tuple(sorted(self.masses, key=repr))

    def mass(self, event: frozenset) -> Fraction:
        return sum((self.masses[x] for x in event), Fraction(0))

    def events(self) -> tuple[frozenset, ...]:
        pts = self.points
        out = []
        for bits in range(1, 2 ** len(pts)):
            out.append(frozenset(p for i, p in enumerate(pts) if bits >> i & 1))
        return tuple(out)


def pmi_cocycle(space: ProbSpace) -> BoundedMonoidCocycle:
    """log p(x&y) - log p(x) - log p(y) on events of positive mass under intersection."""
    events = tuple(e for e in space.events() if space.mass(e) > 0)

    def value(x: frozenset, y: frozenset) -> float:
        pxy = space.mass(x & y)
        px, py = space.mass(x), space.mass(y)
        if px == 0 or py == 0 or pxy == 0:
            raise ValueError("pmi requires events of positive joint mass")
        return math.log(float(pxy)) - math.log(float(px)) - math.log(float(py))

    # x & y & z lies in both x & y and y & z, so its positive mass is theirs too
    return BoundedMonoidCocycle(
        lambda a, b: a & b,
        value,
        events,
        multiplicative=False,
        tolerance=1e-10,
        checked=lambda x, y, z: space.mass(x & y & z) > 0,
    )
