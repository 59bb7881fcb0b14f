import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from entronet.jspace import (
    BetaSymbol,
    EntropyScalar,
    PrimeVector,
    beta_to_j,
    bracket_H_float,
    bracket_tsallis,
    entropy_render,
    j_to_beta,
    render_float,
    scale,
    symbol,
    symbol_sum,
    tensor_vector,
    tsallis_entropy,
)

rationals = st.fractions(min_value=F(-60), max_value=F(60), max_denominator=30)
nonzero = rationals.filter(lambda q: q != 0)


# -- the symbol map ----------------------------------------------------------


def test_symbol_examples():
    assert symbol(F(7), F(0)).is_zero()
    assert symbol(F(0), F(7)).is_zero()
    assert symbol(F(1, 2), F(1, 2)) == PrimeVector({2: F(-1)})
    assert symbol(F(2), F(3)) == PrimeVector({2: F(2), 3: F(3), 5: F(-5)})


def test_symbol_against_tensor_oracle():
    # <a,b> must match a(x)a + b(x)b - (a+b)(x)(a+b) computed independently
    import random

    rng = random.Random(0)
    for _ in range(100):
        a = F(rng.randint(-30, 30), rng.randint(1, 20))
        b = F(rng.randint(-30, 30), rng.randint(1, 20))
        expected = PrimeVector()
        for x in (a, b):
            if x:
                expected = expected + tensor_vector(x, x)
        if a + b:
            expected = expected - tensor_vector(a + b, a + b)
        assert symbol(a, b) == expected


def test_tensor_identification():
    """The prime-vector model of the tensor product, on random tensors."""
    import random

    rng = random.Random(1)
    for _ in range(100):
        a = F(rng.randint(-20, 20), rng.randint(1, 12))
        b = F(rng.randint(-20, 20), rng.randint(1, 12))
        q = F(rng.randint(1, 40), rng.randint(1, 40))
        r = F(rng.randint(1, 40), rng.randint(1, 40))
        lam = F(rng.randint(-6, 6), rng.randint(1, 6))
        # biadditivity in the multiplicative slot, additivity in the first
        assert tensor_vector(a, q * r) == tensor_vector(a, q) + tensor_vector(a, r)
        assert tensor_vector(a + b, q) == tensor_vector(a, q) + tensor_vector(b, q)
        assert tensor_vector(lam * a, q) == tensor_vector(a, q).scaled(lam)
        # the sign dies: 2-torsion is killed by tensoring with the rationals
        assert tensor_vector(a, -q) == tensor_vector(a, q)
    assert tensor_vector(F(1), F(-1)).is_zero()


def _factorizations(a, b, known):
    """(coefficient, {prime: exponent}) for each nonzero term x of <a,b>: a, b
    and a+b.  sympy factors each numerator and denominator after the primes
    in known are divided out."""
    from sympy import factorint

    def factors(n):
        out = {}
        for p in known:
            while n % p == 0:
                n //= p
                out[p] = out.get(p, 0) + 1
        for p, e in factorint(n).items():
            out[p] = out.get(p, 0) + e
        return out

    terms = []
    for coeff, x in ((a, a), (b, b), (-(a + b), a + b)):
        if x:
            num, den = factors(abs(x.numerator)), factors(x.denominator)
            terms.append((coeff, num))
            terms.append((-coeff, den))
    return terms


def _random_rational(rng, bits):
    """A nonzero rational whose numerator and denominator have bits in all."""
    k = rng.randint(1, bits - 1)
    return F(rng.choice((1, -1)) * (rng.getrandbits(k) | 1 << (k - 1)),
             rng.getrandbits(bits - k) | 1 << (bits - k - 1))


def test_symbol_matches_sympy():
    import random

    from sympy import randprime

    from entronet.scalars import FactoringBudgetExceeded

    rng = random.Random(21)
    for i in range(150):
        a, b = _random_rational(rng, rng.randint(8, 80)), _random_rational(rng, rng.randint(8, 80))
        known = ()
        if i % 3 == 0:
            # a pair that shares a large factor, prime or not
            known = (randprime(2**29, 2**40), randprime(2**29, 2**40))[: rng.randint(1, 2)]
            a, b = a * math.prod(known), b * math.prod(known)
        terms = _factorizations(a, b, known)
        try:
            got = dict(symbol(a, b).items())
        except FactoringBudgetExceeded:
            # refused only when some integer has two prime factors past 2**32
            assert any(sum(e for p, e in f.items() if p > 2**32) >= 2 for _, f in terms), (a, b)
            continue
        want = {}
        for coeff, f in terms:
            for p, e in f.items():
                want[p] = want.get(p, 0) + coeff * e
        assert got == {p: c for p, c in want.items() if c}, (a, b)


def test_symbol_near_the_trial_division_bound():
    """symbol factors integers below TRIAL_DIVISION_BOUND**2 directly and the
    rest over a coprime base; both agree with sympy on either side."""
    from sympy import nextprime, prevprime

    from entronet.scalars import TRIAL_DIVISION_BOUND

    bound = TRIAL_DIVISION_BOUND**2
    ints = [bound - 3, bound - 2, bound - 1, bound, bound + 1, prevprime(bound), nextprime(bound)]
    p1 = prevprime(TRIAL_DIVISION_BOUND)
    p0, p2 = prevprime(p1), nextprime(TRIAL_DIVISION_BOUND)
    p3 = nextprime(p2)
    ints += [p0 * p1, p1 * p2, p2 * p3]  # the last two straddle the bound
    assert min(ints) < bound <= max(ints) and p1 * p2 < bound < p2 * p3
    for n in ints:
        for m in ints[::3] + [1, 2, 3]:
            for a, b in ((F(n), F(-m)), (F(n, m), F(1, m)), (F(1, n), F(m, 7)), (F(n, 3), F(-m, 5))):
                want = {}
                for coeff, f in _factorizations(a, b, ()):
                    for p, e in f.items():
                        want[p] = want.get(p, 0) + coeff * e
                assert dict(symbol(a, b).items()) == {p: c for p, c in want.items() if c}, (a, b)


def test_symbol_factors_only_what_survives():
    import time

    # a 61-bit prime times an 89-bit prime, which factor_int refuses
    n = 1152921504606859327 * 309485009821345068724848949
    start = time.perf_counter()
    assert dict(symbol(F(n), F(n)).items()) == {2: -2 * n}
    assert symbol(n * F(3, 7), n * F(-5, 11)) == scale(n, symbol(F(3, 7), F(-5, 11)))
    assert time.perf_counter() - start < 0.1


_P61, _P89 = 1152921504606859327, 309485009821345068724848949
_N = _P61 * _P89


def _sum_by_sympy(terms, known):
    """The sum of s * <a,b> over terms, each symbol from sympy's factorizations."""
    want = {}
    for s, a, b in terms:
        for coeff, f in _factorizations(a, b, known):
            for p, e in f.items():
                want[p] = want.get(p, 0) + s * coeff * e
    return {p: c for p, c in want.items() if c}


def test_symbol_sum_matches_sympy():
    """Sums over shared 29-40-bit primes, the semiprime N, integers on both
    sides of TRIAL_DIVISION_BOUND**2, zero and negative scales, and term
    lists that cancel to zero, against per-term sympy factorizations."""
    import random

    from sympy import nextprime, randprime

    from entronet.scalars import TRIAL_DIVISION_BOUND

    bound = TRIAL_DIVISION_BOUND**2
    rng = random.Random(26)
    for _ in range(60):
        known = tuple(randprime(2**29, 2**40) for _ in range(rng.randint(1, 2)))
        # every a, b and a + b of a term is a multiple of one m by a small rational
        scaled = (1, *known, math.prod(known), _N, bound - 1, bound + 1, nextprime(bound))
        single = (1, *known, bound - 1, nextprime(bound))

        def small():
            return _random_rational(rng, rng.randint(2, 24))

        terms, cancels = [], rng.random() < 0.3
        for _ in range(rng.randint(1, 5)):
            s = rng.choice((F(0), 1, F(-1), F(rng.randint(-9, 9), rng.randint(1, 9))))
            m = rng.choice(scaled)
            a, b, c = m * small(), m * small(), m * small()
            pick = rng.randrange(2 if cancels else 4)
            if pick == 0:  # the cocycle relation: the four symbols cancel
                terms += [(s, a, b), (s, a + b, c), (-s, b, c), (-s, a, b + c)]
            elif pick == 1:  # symmetry cancels, and so does <N,N> - <N,N>
                terms += [(s, a, b), (-s, b, a), (s, _N, _N), (-s, F(_N), F(_N))]
            elif pick == 2:  # a and a + b multiples of two primes that survive
                a = rng.choice(single) * small()
                terms.append((s, a, rng.choice(single) * small() - a))
            else:
                terms.append((s, a, b))
        want = _sum_by_sympy(terms, known + (_P61, _P89))
        assert dict(symbol_sum(terms).items()) == want, terms
        assert not cancels or want == {}


def test_symbol_sum_factors_only_what_survives():
    import time

    start = time.perf_counter()
    # N's multiples differ, so the refinement, not the keys, cancels N
    assert symbol_sum([(1, _N * F(3, 7), _N * F(-5, 11)), (-_N, F(3, 7), F(-5, 11))]).is_zero()
    # N, N + 1 and N + 2 each cancel between two symbols, leaving log 2 alone
    terms = [(1, F(_N), F(1)), (1, F(_N + 1), F(1)), (-1, F(_N), F(2))]
    assert symbol_sum(terms) == symbol(F(1), F(1))
    assert time.perf_counter() - start < 0.1


def test_tensor_vector_of_a_strong_pseudoprime():
    p, q = 399165290221, 798330580441  # p * q fools Miller-Rabin to bases 2 ... 37
    assert tensor_vector(F(1), F(p * q)) == tensor_vector(F(1), F(p)) + tensor_vector(F(1), F(q))
    assert tensor_vector(F(1), F(p * q)) == PrimeVector({p: 1, q: 1})


@given(rationals, rationals)
def test_symbol_symmetry(a, b):
    assert symbol(a, b) == symbol(b, a)


@given(rationals, rationals, rationals)
def test_symbol_cocycle(a, b, c):
    assert symbol(a, b) + symbol(a + b, c) == symbol(b, c) + symbol(a, b + c)


@given(nonzero, rationals, rationals)
def test_symbol_scaling(c, a, b):
    assert scale(c, symbol(a, b)) == symbol(c * a, c * b)


@given(rationals)
def test_symbol_antipode(a):
    assert symbol(a, -a).is_zero()
    assert scale(F(-1), symbol(a, 1 - a)) == symbol(-a, a - 1)


def test_scale_examples():
    assert scale(F(3), PrimeVector()).is_zero()
    assert scale(F(2), symbol(F(1, 2), F(1, 2))) == symbol(F(1), F(1))
    assert symbol(F(1), F(1)) == PrimeVector({2: F(-2)})


# -- the stored form against a plain dict -------------------------------------


def _model_symbol(a, b):
    """<a,b> as a dict prime -> Fraction, from sympy's factorizations."""
    from sympy import factorint

    out = {}
    for coeff, x in ((a, a), (b, b), (-(a + b), a + b)):
        if x:
            for n, sign in ((abs(x.numerator), 1), (x.denominator, -1)):
                for p, e in factorint(n).items():
                    out[p] = out.get(p, 0) + sign * coeff * e
    return {p: c for p, c in out.items() if c}


def _model_add(m1, m2):
    out = {p: m1.get(p, 0) + m2.get(p, 0) for p in m1.keys() | m2.keys()}
    return {p: F(c) for p, c in out.items() if c}


def _same(v, m):
    """v and the model m hold the same coefficients, and v is in its stored form."""
    items = tuple(sorted(m.items()))
    assert v.items() == items
    assert v.to_text() == "{" + ", ".join(f"{p}: {c}" for p, c in items) + "}"
    assert all(type(c) is F and math.gcd(c.numerator, c.denominator) == 1 for _, c in v.items())
    assert v._den > 0 and 0 not in v._num.values()
    assert math.gcd(v._den, *v._num.values()) == 1
    rebuilt = PrimeVector(m)
    assert v == rebuilt and hash(v) == hash(rebuilt)
    assert v.is_zero() == (not m)


_primes = st.sampled_from([2, 3, 5, 7, 4093, 2**61 - 1])
_small = st.fractions(min_value=F(-12), max_value=F(12), max_denominator=12)
_large = st.builds(F, st.integers(-(2**90), 2**90), st.integers(1, 2**90))
_scalars = st.one_of(st.just(F(0)), st.integers(-5, -1).map(F), _small, _large)
_dicts = st.dictionaries(_primes, st.one_of(_small, _large), max_size=4)
_steps = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["add", "sub"]), st.integers(0, 99), st.integers(0, 99)),
        st.tuples(st.just("neg"), st.integers(0, 99)),
        st.tuples(st.just("scaled"), st.integers(0, 99), _scalars),
        st.tuples(st.just("symbol"), _small, _small),
    ),
    max_size=25,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(_dicts, min_size=1, max_size=4), _steps)
def test_prime_vector_matches_dict_model(starts, steps):
    pool = [(PrimeVector(m), {p: F(c) for p, c in m.items() if c}) for m in starts]
    for v, m in pool:
        _same(v, m)
    for op, *args in steps:
        if op == "symbol":
            v, m = symbol(*args), _model_symbol(*args)
        elif op == "scaled":
            (v, m), c = pool[args[0] % len(pool)], args[1]
            v, m = v.scaled(c), {p: c * x for p, x in m.items() if c}
        elif op == "neg":
            v, m = pool[args[0] % len(pool)]
            v, m = -v, {p: -x for p, x in m.items()}
        else:
            (v1, m1), (v2, m2) = (pool[i % len(pool)] for i in args)
            if op == "add":
                v, m = v1 + v2, _model_add(m1, m2)
            else:
                v, m = v1 - v2, _model_add(m1, {p: -x for p, x in m2.items()})
        _same(v, m)
        for w, mw in pool:
            assert (v == w) == (m == mw)
            assert m != mw or hash(v) == hash(w)
        pool.append((v, m))


def test_prime_vector_canonical_form():
    half = PrimeVector({2: F(1, 2)})
    assert half + half == PrimeVector({2: 1}) and hash(half + half) == hash(PrimeVector({2: 1}))
    assert (half + half).items() == ((2, F(1)),)
    assert PrimeVector({2: 0}).is_zero() and PrimeVector({2: 0}) == PrimeVector()
    assert hash(PrimeVector({2: 0})) == hash(PrimeVector())
    third = PrimeVector({3: F(1, 3), 5: F(2, 3)})
    assert third.scaled(F(3, 2)) == PrimeVector({3: F(1, 2), 5: 1})
    assert third - third == PrimeVector() and (third - third).items() == ()
    assert third.coeff(5) == F(2, 3) and third.coeff(7) == 0


# -- beta symbols ------------------------------------------------------------


def test_beta_examples():
    assert beta_to_j(BetaSymbol.of((1, 1))).is_zero()
    assert beta_to_j(BetaSymbol.of((1, F(1, 2)))) == PrimeVector({2: F(-1)})
    assert beta_to_j(BetaSymbol.of((1, 2))) == symbol(F(2), F(-1))


def test_beta_rejects_zero_generator():
    with pytest.raises(ValueError):
        BetaSymbol.of((1, 0))


def test_j_to_beta_examples():
    assert j_to_beta(F(3), F(-3)).terms == ()
    assert j_to_beta(F(1), F(1)).terms == ((F(2), F(1, 2)),)
    assert j_to_beta(F(2), F(3)).terms == ((F(5), F(2, 5)),)
    assert j_to_beta(F(0), F(5)).terms == ()


@given(rationals, rationals)
def test_beta_round_trip(a, b):
    assert beta_to_j(j_to_beta(a, b)) == symbol(a, b)


@given(rationals.filter(lambda a: a not in (0, 1)), rationals.filter(lambda b: b not in (0, 1)))
def test_beta_four_term(a, b):
    total = (
        beta_to_j(BetaSymbol.of((1, a)))
        - beta_to_j(BetaSymbol.of((1, b)))
        + scale(a, beta_to_j(BetaSymbol.of((1, b / a))))
        + scale(1 - a, beta_to_j(BetaSymbol.of((1, (1 - b) / (1 - a)))))
    )
    assert total.is_zero()


# -- entropy scalars ---------------------------------------------------------


def test_entropy_render_examples():
    assert entropy_render(symbol(F(1, 2), F(1, 2))) == EntropyScalar(
        F(0), PrimeVector({2: F(1)})
    )
    assert entropy_render(symbol(F(3), F(0))).is_zero()
    third = entropy_render(symbol(F(1, 3), F(2, 3)))
    assert third == EntropyScalar(F(0), PrimeVector({2: F(-2, 3), 3: F(1)}))
    want = -(1 / 3) * math.log(1 / 3) - (2 / 3) * math.log(2 / 3)
    assert abs(render_float(third) - want) < 1e-12


def test_bracket_float_examples():
    assert abs(bracket_H_float(0.5, 0.5) - math.log(2)) < 1e-15
    assert bracket_H_float(3.25, 0.0) == 0.0
    assert bracket_H_float(2.5, -2.5) == 0.0
    exact = render_float(entropy_render(symbol(F(2), F(3))))
    assert abs(bracket_H_float(2.0, 3.0) - exact) < 1e-12


@given(rationals, rationals)
def test_bracket_float_matches_exact(a, b):
    exact = render_float(entropy_render(symbol(a, b)))
    assert abs(bracket_H_float(float(a), float(b)) - exact) < 1e-12


def test_entropy_symmetry_and_inversion():
    import random

    rng = random.Random(3)
    H = lambda p: entropy_render(symbol(p, 1 - p))
    for _ in range(200):
        p = F(rng.randint(-40, 40), rng.randint(1, 25))
        assert H(1 - p) == H(p)
        if p != 0:
            assert H(1 / p).scaled(p) == -H(p)


# -- deformed brackets -------------------------------------------------------


def test_tsallis_examples():
    assert bracket_tsallis(F(5), F(0), 3) == 0
    assert bracket_tsallis(F(1, 2), F(1, 2), 2) == F(-1, 2)
    assert tsallis_entropy(F(1, 2), 2) == F(1, 2)


@given(rationals, st.sampled_from([2, 3, 4, 5]))
def test_tsallis_identity(p, alpha):
    assert bracket_tsallis(p, 1 - p, alpha) == -(alpha - 1) * tsallis_entropy(p, alpha)


def test_tsallis_argument_validation():
    with pytest.raises(ValueError):
        bracket_tsallis(F(1), F(1), 1)


# -- textual forms ----------------------------------------------------------


def test_prime_vector_text():
    assert PrimeVector({3: F(2, 5), 2: F(-1)}).to_text() == "{2: -1, 3: 2/5}"
    assert PrimeVector().to_text() == "{}"


def test_entropy_scalar_pretty():
    assert EntropyScalar(F(0), PrimeVector({2: F(1)})).pretty() == "log(2)"
    assert EntropyScalar(F(0), PrimeVector()).pretty() == "0"
    text = EntropyScalar(F(1, 2), PrimeVector({2: F(-2, 3)})).pretty()
    assert text == "1/2 - (2/3)*log(2)"
