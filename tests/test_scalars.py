import math
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from entronet.scalars import (
    TRIAL_DIVISION_BOUND,
    FactoringBudgetExceeded,
    Factorization,
    NonzeroExpected,
    NotPrime,
    coprime_base,
    factor,
    factor_int,
    is_prime,
    parse_rational,
    prime_table,
    valuation,
)

# The smallest strong pseudoprimes to the first 12 and 13 prime bases.
PSI_12 = 318665857834031151167461  # 399165290221 * 798330580441
PSI_13 = 3317044064679887385961981
# A 61-bit prime times an 89-bit prime: past the Pollard-Brent budget.
SEMIPRIME = 1152921504606859327 * 309485009821345068724848949


def test_factor_examples():
    assert factor(F(12)) == Factorization(1, ((2, 2), (3, 1)))
    assert factor(F(-1, 2)) == Factorization(-1, ((2, -1),))
    assert factor(F(1)) == Factorization(1, ())


def test_valuation_examples():
    assert valuation(F(8, 3), 2) == 3
    assert valuation(F(8, 3), 3) == -1
    assert valuation(F(5), 7) == 0


def test_valuation_rejects_nonprime():
    with pytest.raises(NotPrime):
        valuation(F(3), 4)
    with pytest.raises(NotPrime):
        valuation(F(3), 1)


def test_factor_zero_rejected():
    with pytest.raises(NonzeroExpected):
        factor(F(0))


def test_prime_table_certified():
    from sympy import primerange

    table = prime_table()
    assert len(table) == 564
    assert table == tuple(primerange(2, TRIAL_DIVISION_BOUND))
    assert all(is_prime(p) for p in table)


@pytest.mark.parametrize(
    "n",
    [
        PSI_12,
        PSI_13,
        # composite Mersenne numbers are strong pseudoprimes to base 2, so
        # past PSI_13 only the Lucas half of Baillie-PSW rejects them
        2**83 - 1,
        2**97 - 1,
        2**101 - 1,
        2**131 - 1,
    ],
)
def test_is_prime_rejects_strong_pseudoprimes(n):
    assert not is_prime(n)


def test_is_prime_matches_sympy():
    import random

    from sympy import isprime

    rng = random.Random(12)
    for _ in range(2000):
        n = rng.getrandbits(rng.randint(60, 100)) | 1 | 1 << 59
        assert is_prime(n) == isprime(n), n
    for p in (2**89 - 1, 2**107 - 1, 2**127 - 1, 399165290221, 798330580441):
        assert is_prime(p)


def _hard(n):
    """Whether n has two prime factors, with multiplicity, above 2**32."""
    from sympy import factorint

    return sum(e for p, e in factorint(n).items() if p > 2**32) >= 2


def test_factor_int_matches_sympy():
    import random

    from sympy import factorint

    rng = random.Random(8)
    for _ in range(250):
        n = rng.getrandbits(rng.randint(8, 80)) + 1
        try:
            got = dict(factor_int(n))
        except FactoringBudgetExceeded:
            assert _hard(n), n
        else:
            assert got == factorint(n), n


def test_factor_int_seams_match_sympy():
    """The small-prime gcd and the 2**24 cofactor bound, against sympy."""
    import random

    from sympy import factorint, nextprime, prevprime

    table = prime_table()
    last = table[-1]  # 4093, the last prime below the trial-division bound
    first_past = nextprime(TRIAL_DIVISION_BOUND)  # 4099
    below, past = prevprime(TRIAL_DIVISION_BOUND**2), nextprime(TRIAL_DIVISION_BOUND**2)
    cases = [1, last, first_past, last**2, last * first_past, math.prod(table),
             math.prod(table) * first_past**2, below, past, first_past**2,
             first_past * nextprime(first_past)]
    cases += [2**k for k in range(1, 70)]
    # cofactors just below and just past 2**24, behind small primes up to the last
    cases += [s * c for s in (2, 3 * 5, last, 2 * last**3, table[-2] * last)
              for c in (below, past, first_past**2, TRIAL_DIVISION_BOUND**2 - 1,
                        TRIAL_DIVISION_BOUND**2 + 1)]
    rng = random.Random(24)
    cases += [rng.getrandbits(bits) | 1 << (bits - 1) for bits in range(1, 61) for _ in range(25)]
    for n in cases:
        assert dict(factor_int(n)) == factorint(n), n


def test_factor_int_budget():
    import time

    start = time.perf_counter()
    with pytest.raises(FactoringBudgetExceeded):
        factor_int(SEMIPRIME)
    assert time.perf_counter() - start < 5.0
    # within the budget: a 33-bit and a 39-bit smallest factor
    assert factor_int(7602675427 * 79230001811) == ((7602675427, 1), (79230001811, 1))
    assert factor_int(PSI_12) == ((399165290221, 1), (798330580441, 1))


def test_factor_int_budget_covers_primality_tests():
    import time

    from sympy import primerange

    # 882 primes just past trial division: every split leaves a cofactor of
    # thousands of bits to test for primality
    primes = list(primerange(4100, 12100))
    n = math.prod(primes)
    assert n.bit_length() == 11382
    start = time.perf_counter()
    try:
        assert factor_int(n) == tuple((p, 1) for p in primes)
    except FactoringBudgetExceeded:
        pass
    assert time.perf_counter() - start < 5.0
    # a product of the first 77 of them, 933 bits, factors within the budget
    assert factor_int(math.prod(primes[:77])) == tuple((p, 1) for p in primes[:77])


_atoms = st.lists(st.integers(2, 10**15), min_size=1, max_size=4)


@given(_atoms, st.lists(st.lists(st.integers(0, 3), min_size=4, max_size=4), max_size=6),
       st.lists(st.integers(1, 10**30), max_size=2))
def test_coprime_base(atoms, exponents, extra):
    # values that share factors: products of powers of a few atoms, plus any
    values = [math.prod(a**e for a, e in zip(atoms, row)) for row in exponents] + extra
    base = coprime_base(values)
    assert all(b > 1 for b in base)
    assert all(math.gcd(x, y) == 1 for i, x in enumerate(base) for y in base[i + 1 :])
    for v in values:
        for b in base:
            while v % b == 0:
                v //= b
        assert v == 1


def test_large_semiprime():
    # both factors above the small-prime stripping range
    p, q = 104729, 1299709
    assert dict(factor_int(p * q)) == {p: 1, q: 1}


nonzero_rationals = st.fractions(
    min_value=F(-10**4), max_value=F(10**4), max_denominator=10**4
).filter(lambda q: q != 0)


@given(nonzero_rationals, nonzero_rationals)
def test_factor_multiplicative(q, r):
    fq, fr, fqr = factor(q), factor(r), factor(q * r)
    assert fqr.sign == fq.sign * fr.sign
    merged = dict(fq.exponents)
    for p, e in fr.exponents:
        merged[p] = merged.get(p, 0) + e
    assert dict(fqr.exponents) == {p: e for p, e in merged.items() if e}


@given(nonzero_rationals)
def test_factor_round_trip(q):
    assert factor(q).reconstruct() == q


@given(nonzero_rationals, nonzero_rationals, st.sampled_from([2, 3, 5, 7, 11]))
def test_valuation_additive(q, r, p):
    assert valuation(q * r, p) == valuation(q, p) + valuation(r, p)


def test_parse_rational():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("-7") == F(-7)
    assert parse_rational("-7/2") == F(-7, 2)
    with pytest.raises(ZeroDivisionError):
        parse_rational("1/0")
    with pytest.raises(ValueError):
        parse_rational("1/-2")


def test_factor_multiplicative_bulk():
    import random
    from fractions import Fraction as F

    rng = random.Random(7)
    for _ in range(1000):
        q = F(rng.randint(-9999, 9999) or 1, rng.randint(1, 9999))
        r = F(rng.randint(-9999, 9999) or 1, rng.randint(1, 9999))
        fq, fr, fqr = factor(q), factor(r), factor(q * r)
        assert fqr.sign == fq.sign * fr.sign
        merged = dict(fq.exponents)
        for p, e in fr.exponents:
            merged[p] = merged.get(p, 0) + e
        assert dict(fqr.exponents) == {p: e for p, e in merged.items() if e}
        assert fqr.reconstruct() == q * r
