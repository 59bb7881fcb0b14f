"""Correctness oracles, computed apart from entronet.

Every function here recomputes a value the program also computes, from first
principles: p-adic valuations from ``sympy.factorint`` (sympy is imported on
first use, so it stays out of the measured part of a run), floats from
``math.log``, group laws from their definitions, and H^2 with trivial
coefficients from the universal coefficient theorem.  None of them calls
entronet.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from math import gcd

FLOAT_REL_TOL = 1e-10


class OracleMismatch(AssertionError):
    """A program output disagrees with its oracle."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise OracleMismatch(what)


# ---------------------------------------------------------------------------
# Valuations, symbols and entropies.


@lru_cache(maxsize=None)
def _factorint(n: int) -> tuple[tuple[int, int], ...]:
    import sympy

    return tuple(sorted((int(p), int(e)) for p, e in sympy.factorint(n).items()))


def valuations(q: Fraction) -> dict[int, int]:
    """v_p(q) for every prime p dividing the nonzero rational q."""
    q = Fraction(q)
    out = dict(_factorint(abs(q.numerator)))
    for p, e in _factorint(q.denominator):
        out[p] = out.get(p, 0) - e
    return {p: e for p, e in out.items() if e}


def symbol(a: Fraction, b: Fraction) -> dict[int, Fraction]:
    """<a,b> at p is a*v_p(a) + b*v_p(b) - (a+b)*v_p(a+b); zero arguments drop out."""
    out: dict[int, Fraction] = {}
    for coeff, value in ((a, a), (b, b), (-(a + b), a + b)):
        if value == 0 or coeff == 0:
            continue
        for p, e in valuations(value).items():
            out[p] = out.get(p, Fraction(0)) + coeff * e
    return {p: c for p, c in out.items() if c}


def entropy(dist) -> tuple[Fraction, dict[int, Fraction]]:
    """-sum p_i log p_i as (constant, {q: coefficient of log q}); the constant is 0."""
    out: dict[int, Fraction] = {}
    for p in dist:
        p = Fraction(p)
        if p == 0:
            continue
        for q, e in valuations(p).items():
            out[q] = out.get(q, Fraction(0)) - p * e
    return Fraction(0), {q: c for q, c in out.items() if c}


def entropy_float(dist) -> float:
    return -sum(float(p) * math.log(float(p)) for p in dist if p)


def psi_sum_float(a: Fraction, b: Fraction) -> float:
    """<a,b>_H in floats: psi(a) + psi(b) - psi(a+b), psi(x) = -x log|x|."""

    def psi(x: Fraction) -> float:
        return 0.0 if x == 0 else -float(x) * math.log(abs(float(x)))

    return psi(a) + psi(b) - psi(a + b)


def floats_close(x: float, y: float, scale: float = 1.0) -> bool:
    """Agreement within FLOAT_REL_TOL relative to the magnitude of the terms summed."""
    return abs(x - y) <= FLOAT_REL_TOL * (1.0 + abs(scale))


def tsallis_bracket(a: Fraction, b: Fraction, alpha: int) -> Fraction:
    def psi(x: Fraction) -> Fraction:
        return x * abs(x) ** (alpha - 1)

    return psi(a) + psi(b) - psi(a + b)


def prime_vector_dict(v) -> dict[int, Fraction]:
    """The coefficients of an entronet prime vector, as a plain dict."""
    return dict(v.items())


# ---------------------------------------------------------------------------
# Finite groups by their definitions, indexed the way entronet documents them.


def cyclic_law(n: int):
    return n, lambda i, j: (i + j) % n


def product_law(law1, law2):
    n1, mul1 = law1
    n2, mul2 = law2
    return n1 * n2, lambda i, j: mul1(i // n2, j // n2) * n2 + mul2(i % n2, j % n2)


def aff1_law(p: int):
    """x -> c*x + a over F_p; identity first, then (a, c) with c major, a minor."""
    elems = [(0, 1)] + [(a, c) for c in range(1, p) for a in range(p) if (a, c) != (0, 1)]
    index = {e: i for i, e in enumerate(elems)}

    def mul(i: int, j: int) -> int:
        (a1, c1), (a2, c2) = elems[i], elems[j]
        return index[((a1 + c1 * a2) % p, (c1 * c2) % p)]

    return len(elems), mul


def table_matches(law, table) -> bool:
    n, mul = law
    return len(table) == n and all(
        int(table[i][j]) == mul(i, j) for i in range(n) for j in range(n)
    )


def is_cocycle_trivial(law, m: int, value) -> bool:
    """c(g,h) + c(gh,k) = c(h,k) + c(g,hk) mod m for a trivial Z/m module."""
    n, mul = law
    for g in range(n):
        for h in range(n):
            gh = mul(g, h)
            for k in range(n):
                if (value(g, h) + value(gh, k) - value(h, k) - value(g, mul(h, k))) % m:
                    return False
    return True


def element_order(n: int, mul, x: int) -> int:
    k, y = 1, x
    while y != 0:
        y = mul(y, x)
        k += 1
    return k


def max_order_in_table(table) -> int:
    n = len(table)

    def mul(i: int, j: int) -> int:
        return int(table[i][j])

    return max(element_order(n, mul, x) for x in range(n))


def extension_has_order_p2(p: int, value) -> bool:
    """Whether (1, 0) has order p^2 in Z/p x Z/p with (x,a)(y,b) = (x+y, a+b+c(x,y))."""
    x, a, k = 1, 0, 1
    while (x, a) != (0, 0):
        x, a = (x + 1) % p, (a + value(x, 1)) % p
        k += 1
    return k == p * p


# ---------------------------------------------------------------------------
# H^2(G, Z/m) for trivial action by the universal coefficient theorem:
# Hom(H_2 G, Z/m) + Ext(H_1 G, Z/m).


def _prime_powers(n: int) -> list[tuple[int, int]]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, p**e))
        p += 1
    if n > 1:
        out.append((n, n))
    return out


def invariant_factors(orders) -> list[int]:
    """Invariant factors d_1 | d_2 | ... of the direct sum of Z/k, k in orders, without 1s."""
    by_prime: dict[int, list[int]] = {}
    for k in orders:
        for p, pe in _prime_powers(k):
            by_prime.setdefault(p, []).append(pe)
    width = max((len(v) for v in by_prime.values()), default=0)
    factors = [1] * width
    for powers in by_prime.values():
        for i, pe in enumerate(sorted(powers, reverse=True)):
            factors[width - 1 - i] *= pe
    return [d for d in factors if d > 1]


def h2_trivial(spec: tuple, m: int) -> list[int]:
    """Invariant factors of H^2(G, Z/m), G given as ("cyclic", n), ("product", a, b) or ("aff1", 3)."""
    kind = spec[0]
    if kind == "cyclic":
        return invariant_factors([gcd(spec[1], m)])
    if kind == "product":
        a, b = spec[1], spec[2]
        return invariant_factors([gcd(gcd(a, b), m), gcd(a, m), gcd(b, m)])
    if kind == "aff1" and spec[1] == 3:
        return invariant_factors([gcd(2, m)])
    raise ValueError(f"no oracle for {spec!r}")
