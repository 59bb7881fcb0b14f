"""Exact rational scalars: factorization, coprime bases and p-adic valuations.

Rationals are plain :class:`fractions.Fraction` values (always in lowest
terms, positive denominator, arbitrary precision).  This module supplies the
multiplicative bookkeeping the rest of the package needs: a nonzero rational
decomposed into a sign and finitely many prime exponents, a pairwise coprime
base for a few integers, and p-adic valuations.  `to_double` converts a
rational to a double, or raises DoubleRangeExceeded past the double range;
`format_rational` prints one, or raises DigitLimitExceeded past the digits
str() prints.  The command line reports both as a usage error (exit 4).

Factoring an integer takes three stages:

* one gcd with the product of the 564 primes below TRIAL_DIVISION_BOUND =
  2**12, then trial division by the primes it shows to divide; a cofactor
  below the bound squared is then prime;
* `is_prime` on the cofactor: Miller-Rabin with the thirteen prime witnesses
  2 ... 41, proven correct below 3317044064679887385961981, the smallest
  strong pseudoprime to all of them; from there on strong Baillie-PSW
  (Miller-Rabin to base 2 and a strong Lucas test), which has no known
  counterexample but no proof either;
* Pollard-Brent on composites only, iterating the map y -> y^2 + c, which
  finds most prime factors up to about 2**40 (see FACTORING_BUDGET).

The primality tests and the Pollard-Brent steps of one call draw on one
budget, FACTORING_BUDGET, each paid for before it runs; `is_prime` alone
draws on a budget of the same size.  Past it
FactoringBudgetExceeded is raised, which the command line reports as a usage
error (exit 4).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import gcd, isqrt, prod
from typing import Iterable

Rational = Fraction

TRIAL_DIVISION_BOUND = 2**12

# Work allowed in one factor_int call, in iterations of the Pollard-Brent map
# on a number below 2**128.  The steps needed grow with sqrt(p) for the prime
# factor p found; with the budget scaled to match (400 primes each near 2**24,
# 2**26 and 2**28 under a budget of 2**15), it finds all factors near 2**36,
# 97 % near 2**38 and 71 % near 2**40.  A step on an n of 128*(L-1) to 128*L
# bits counts about L**1.5 times, roughly what its two multiplications cost,
# and a Miller-Rabin round on n counts as many steps as n has bits (a strong
# Lucas test as three rounds), so that the budget bounds the time and not
# only the steps: at most about 1 s per call of any length on a 2-vCPU x86
# host.
FACTORING_BUDGET = 2**21

# Miller-Rabin witnesses, deterministic below _PSI_13: the smallest strong
# pseudoprime to every one of them (psi_13; psi_12 = 318665857834031151167461
# fools 2 ... 37).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981


class NonzeroExpected(ValueError):
    """Raised when an operation defined on Q^x receives zero."""


class NotPrime(ValueError):
    """Raised when a valuation is requested at a composite or unit base."""


class FactoringBudgetExceeded(ValueError):
    """Raised when factor_int cannot finish within FACTORING_BUDGET."""


class DoubleRangeExceeded(ValueError):
    """Raised when a rational converted to a double is past the largest finite one."""


class DigitLimitExceeded(ValueError):
    """Raised when a rational has more digits than str() prints (sys.get_int_max_str_digits)."""


class _Budget:
    """What is left of FACTORING_BUDGET in one factor_int call."""

    def __init__(self):
        self.left = FACTORING_BUDGET

    def spend(self, units: int, n: int) -> None:
        """Pay for work on n before it runs, or raise FactoringBudgetExceeded."""
        self.left -= units
        if self.left < 0:
            raise FactoringBudgetExceeded(
                f"cannot factor a {n.bit_length()}-bit number within the factoring budget"
            )


def _step_units(n: int) -> int:
    """Budget units of one Pollard-Brent step, or one squaring, mod n."""
    return isqrt((1 + n.bit_length() // 128) ** 3)


@lru_cache(maxsize=1)
def prime_table() -> tuple[int, ...]:
    """All primes below TRIAL_DIVISION_BOUND, sieved once on first use."""
    bound = TRIAL_DIVISION_BOUND
    sieve = bytearray([1]) * bound
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(bound) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return tuple(i for i in range(bound) if sieve[i])


@lru_cache(maxsize=1)
def _small_prime_product() -> int:
    """The product of prime_table(): one gcd with it finds every prime below
    TRIAL_DIVISION_BOUND that divides a number."""
    return prod(prime_table())


def _strong_probable_prime(n: int, a: int) -> bool:
    """Miller-Rabin to base a, for odd n > a."""
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2**s with d odd
    x = pow(a, (n - 1) >> s, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test with Selfridge's parameters, for odd n larger than
    every D it tries."""
    if isqrt(n) ** 2 == n:
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4  # P = 1
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    # U_k, V_k and Q**k for k = the leading bits of d = (n + 1) >> s
    U, V, Qk = 1, 1, Q
    for bit in bin((n + 1) >> s)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V = U + V, D * U + V
            U = (U + n if U & 1 else U) // 2 % n
            V = (V + n if V & 1 else V) // 2 % n
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def is_prime(n: int) -> bool:
    """Primality: proven below _PSI_13, strong Baillie-PSW from there on.

    The tests draw on FACTORING_BUDGET as in factor_int, each stage paid
    before it runs; past it, for a prime of about 3,500 bits or more, they
    raise FactoringBudgetExceeded.
    """
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    return _is_odd_prime(n, _Budget())


def _is_odd_prime(n: int, budget: _Budget) -> bool:
    """is_prime for n > 41 without a prime factor up to 41.  Each stage is
    paid from budget before it runs: a Miller-Rabin round on n costs about
    one step per bit of n, and a strong Lucas test three rounds."""
    round_units = n.bit_length() * _step_units(n)
    if n < _PSI_13:
        budget.spend(len(_MR_WITNESSES) * round_units, n)
        return all(_strong_probable_prime(n, a) for a in _MR_WITNESSES)
    budget.spend(round_units, n)
    if not _strong_probable_prime(n, 2):
        return False
    budget.spend(3 * round_units, n)
    return _strong_lucas_probable_prime(n)


def _pollard_brent(n: int, budget: _Budget) -> int:
    """A nontrivial factor of a composite n without prime factors below
    TRIAL_DIVISION_BOUND, or FactoringBudgetExceeded.

    Brent's cycle search runs in blocks of at most 2r steps, r = 1, 2, 4, ...;
    each block is paid for before it starts.
    """
    units = _step_units(n)
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            budget.spend(2 * r * units, n)
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: retrace it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


@lru_cache(maxsize=4096)
def factor_int(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as sorted (prime, exponent) pairs.

    Raises FactoringBudgetExceeded if the primality tests and Pollard-Brent
    splits of the cofactors left by trial division do not fit in
    FACTORING_BUDGET.
    """
    if n < 1:
        raise NonzeroExpected(f"factor_int expects a positive integer, got {n}")
    out: dict[int, int] = {}
    # g: the product of the primes below the bound that divide n and are
    # not yet divided out
    g = gcd(n, _small_prime_product())
    for p in prime_table():
        if g == 1:
            break
        if p * p > g:  # g has no prime factor below p, so it is prime
            p = g
        elif g % p:
            continue
        g //= p
        e = 1
        n //= p
        while n % p == 0:
            n //= p
            e += 1
        out[p] = e
    budget = _Budget()
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m < TRIAL_DIVISION_BOUND**2 or _is_odd_prime(m, budget):
            out[m] = out.get(m, 0) + 1
        else:
            d = _pollard_brent(m, budget)
            stack += [d, m // d]
    return tuple(sorted(out.items()))


def coprime_base(values: Iterable[int]) -> list[int]:
    """Pairwise coprime integers > 1 such that every value >= 1 is a product of
    powers of them (values below 2 contribute nothing).

    Gcd refinement: a value sharing a factor g with an element b of the base
    so far is replaced, together with b, by g, a // g and b // g, until it is
    coprime to every element.  Each replacement divides the product of
    everything pending by g > 1, so the refinement ends.
    """
    base: list[int] = []
    pending = [v for v in values if v > 1]
    while pending:
        a = pending.pop()
        for i, b in enumerate(base):
            g = gcd(a, b)
            if g > 1:
                del base[i]
                pending += [x for x in (g, a // g, b // g) if x > 1]
                break
        else:
            base.append(a)
    return base


@dataclass(frozen=True)
class Factorization:
    """A nonzero rational as sign * prod p**e_p, exponents without zeros."""

    sign: int
    exponents: tuple[tuple[int, int], ...] = field(default=())

    def exponent(self, p: int) -> int:
        for q, e in self.exponents:
            if q == p:
                return e
        return 0

    def reconstruct(self) -> Fraction:
        num, den = self.sign, 1
        for p, e in self.exponents:
            if e >= 0:
                num *= p**e
            else:
                den *= p ** (-e)
        return Fraction(num, den)


def factor(q: Fraction | int) -> Factorization:
    """Factorization of a nonzero rational."""
    q = Fraction(q)
    if q == 0:
        raise NonzeroExpected("cannot factor 0")
    sign = 1 if q > 0 else -1
    merged = dict(factor_int(abs(q.numerator)))
    for p, e in factor_int(q.denominator):
        merged[p] = merged.get(p, 0) - e
    pairs = tuple(sorted((p, e) for p, e in merged.items() if e != 0))
    return Factorization(sign, pairs)


def valuation(q: Fraction | int, p: int) -> int:
    """p-adic valuation v_p(q) for nonzero rational q and prime p."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    q = Fraction(q)
    if q == 0:
        raise NonzeroExpected("valuation of 0 is undefined")
    v = 0
    n = abs(q.numerator)
    while n % p == 0:
        n //= p
        v += 1
    d = q.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


def parse_rational(text: str) -> Fraction:
    """Parse `p/q` or integer form; negative sign on the numerator only."""
    text = text.strip()
    if "/" in text:
        num, _, den = text.partition("/")
        num, den = num.strip(), den.strip()
        if den.startswith(("-", "+")):
            raise ValueError(f"sign allowed on numerator only: {text!r}")
        d = int(den)
        if d == 0:
            raise ZeroDivisionError("zero denominator")
        return Fraction(int(num), d)
    return Fraction(int(text))


def format_rational(q: Fraction) -> str:
    """q in decimal, or DigitLimitExceeded past the interpreter's digit limit."""
    try:
        return str(q)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise DigitLimitExceeded(f"a value past the {limit}-digit limit cannot be printed") from None


def to_double(q: Fraction | int | float) -> float:
    """q as the nearest double, or DoubleRangeExceeded past the double range."""
    try:
        return float(q)
    except OverflowError:
        q = Fraction(q)
        bits = q.numerator.bit_length() - q.denominator.bit_length()
        raise DoubleRangeExceeded(f"a rational near 2**{bits} is past the double range") from None
