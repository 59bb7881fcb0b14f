"""The symbol space J(Q) in computable normal form, plus entropy values.

A symbol <a,b> (a, b rational) is stored as its image inside the tensor
product Q (+) Q^x, identified with the direct sum over primes of copies of Q:
the coefficient at a prime p is  a*v_p(a) + b*v_p(b) - (a+b)*v_p(a+b), with
terms at zero arguments omitted.  This normal form is faithful over Q, so
vector equality decides symbol equality exactly.  Entropy values are carried
exactly as a rational constant plus a rational combination of log p; the
log p are linearly independent over Q, so componentwise equality is the
equality of the corresponding real numbers (documented, classical).

A vector is stored as integer numerators over one positive common
denominator, in lowest terms as a whole: gcd(den, *numerators) == 1 and no
zero numerators.  The form is canonical, so equality compares it directly,
and each sum or scaling reduces it with one gcd instead of building one
Fraction per coefficient.

`symbol_sum` adds many s*<a,b> and factors only what survives the sum.  It
adds integer weights over one running denominator: a numerator or
denominator below TRIAL_DIVISION_BOUND**2 through its primes (trial division,
usually factor_int's cache), a larger one keyed by itself.  The large keys of
nonzero total are refined into a pairwise coprime base, and only elements of
nonzero coefficient are factored: a prefix sum that cancels is never
factored, nor N in <N,N> = -2N log 2.  So `scalars.FactoringBudgetExceeded`
means the value itself needs a factorization past the Pollard-Brent budget.
`symbol` is the one-term sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .scalars import (
    TRIAL_DIVISION_BOUND,
    NonzeroExpected,
    coprime_base,
    factor,
    factor_int,
    format_rational,
    to_double,
)

Rational = Fraction


class PrimeVector:
    """Finitely supported map prime -> Q; exact componentwise arithmetic.

    Stored as integer numerators over one common denominator: the coefficient
    at p is ``_num[p] / _den``, with ``_den > 0``, no zero entries in ``_num``
    and ``gcd(_den, *_num.values()) == 1``.  This form is canonical, so two
    vectors are equal exactly when their ``_den`` and ``_num`` are.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs: Mapping[int, Fraction] | None = None):
        fracs = [(p, Fraction(c)) for p, c in (coeffs or {}).items()]
        den = math.lcm(*(c.denominator for _, c in fracs))
        v = PrimeVector._of({p: c.numerator * (den // c.denominator) for p, c in fracs if c}, den)
        self._num, self._den = v._num, v._den

    @classmethod
    def _of(cls, num: dict[int, int], den: int) -> "PrimeVector":
        """The vector num / den, for nonzero integers num and den > 0, in
        lowest terms after one gcd."""
        g = math.gcd(den, *num.values())
        if g != 1:
            num = {p: c // g for p, c in num.items()}
            den //= g
        v = cls.__new__(cls)
        v._num, v._den = num, den
        return v

    @classmethod
    def zero(cls) -> "PrimeVector":
        return cls()

    def items(self) -> tuple[tuple[int, Fraction], ...]:
        return tuple(sorted((p, Fraction(c, self._den)) for p, c in self._num.items()))

    def coeff(self, p: int) -> Fraction:
        return Fraction(self._num.get(p, 0), self._den)

    def is_zero(self) -> bool:
        return not self._num

    def __bool__(self) -> bool:
        return bool(self._num)

    def __add__(self, other: "PrimeVector") -> "PrimeVector":
        if not other._num:
            return self
        if not self._num:
            return other
        a, b = self._den, other._den
        g = math.gcd(a, b)
        sa, sb = b // g, a // g  # a * sa == b * sb == lcm(a, b)
        out = {p: c * sa for p, c in self._num.items()}
        for p, c in other._num.items():
            c = c * sb + out.get(p, 0)
            if c:
                out[p] = c
            else:
                del out[p]
        return PrimeVector._of(out, a * sa)

    def __sub__(self, other: "PrimeVector") -> "PrimeVector":
        return self + (-other)

    def __neg__(self) -> "PrimeVector":
        v = PrimeVector.__new__(PrimeVector)
        v._num, v._den = {p: -c for p, c in self._num.items()}, self._den
        return v

    def scaled(self, c: Fraction) -> "PrimeVector":
        if type(c) is not Fraction:
            c = Fraction(c)
        if not c:
            return PrimeVector()
        k = c.numerator
        return PrimeVector._of({p: k * v for p, v in self._num.items()}, c.denominator * self._den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PrimeVector):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        return hash(self.items())

    def __repr__(self) -> str:
        return f"PrimeVector({self.to_text()})"

    def to_text(self) -> str:
        inner = ", ".join(f"{p}: {format_rational(c)}" for p, c in self.items())
        return "{" + inner + "}"


def tensor_vector(a: Fraction, q: Fraction) -> PrimeVector:
    """Image of the simple tensor a (x) q under Q (+) Q^x ~ sum_p Q.

    Sends a (x) q to the vector with coefficient a*v_p(q) at p.  The sign of
    q carries no information (the 2-torsion dies after tensoring with Q), so
    q and -q map to the same vector.
    """
    a, q = Fraction(a), Fraction(q)
    if q == 0:
        raise NonzeroExpected("second tensor factor must be nonzero")
    if a == 0:
        return PrimeVector()
    return PrimeVector({p: a * e for p, e in factor(q).exponents})


def symbol_sum(terms: Iterable[tuple[Fraction, Fraction, Fraction]]) -> PrimeVector:
    """The sum of s * <a,b> over the (s, a, b) in terms, in normal form."""
    small = TRIAL_DIVISION_BOUND**2
    den, out, large = 1, {}, {}  # out: prime -> numerator; large: n -> numerator
    for s, a, b in terms:
        if type(a) is not Fraction or type(b) is not Fraction:
            a, b = Fraction(a), Fraction(b)
        # Over D, a*v(a) + b*v(b) - (a+b)*v(a+b) is (1/D) * sum of w * v(n) over
        # the integer weights w = A, -A, B, -B, -C, C of the numerators and
        # denominators n of a, b and a+b = C/D; s/D is m/den.
        D = math.lcm(a.denominator, b.denominator)
        t = s.denominator * D
        if den % t:  # bring every numerator over lcm(den, t)
            k = t // math.gcd(den, t)
            den *= k
            out = {p: c * k for p, c in out.items()}
            large = {n: c * k for n, c in large.items()}
        m = s.numerator * (den // t)
        A = a.numerator * (D // a.denominator)
        B = b.numerator * (D // b.denominator)
        C = A + B
        g = math.gcd(C, D)
        for w, num, d in ((A, a.numerator, a.denominator), (B, b.numerator, b.denominator),
                          (-C, C // g, D // g)):
            for n, c in ((abs(num), w * m), (d, -w * m)):
                if n >= small:
                    large[n] = large.get(n, 0) + c
                elif n > 1:
                    for p, k in factor_int(n):
                        out[p] = out.get(p, 0) + c * k
    large = {n: c for n, c in large.items() if c}
    for e in coprime_base(large):
        c = 0
        for n, w in large.items():
            while n % e == 0:
                n //= e
                c += w
        if c:
            for p, k in factor_int(e):
                out[p] = out.get(p, 0) + c * k
    return PrimeVector._of({p: c for p, c in out.items() if c}, den)


def symbol(a: Fraction, b: Fraction) -> PrimeVector:
    """The symbol <a,b> in normal form; a, b, a+b may each be zero."""
    return symbol_sum(((1, a, b),))


def scale(c: Fraction, v: PrimeVector) -> PrimeVector:
    """Scalar action of Q on J(Q): scale(c, <a,b>) = <ca,cb>."""
    return v.scaled(c)


@dataclass(frozen=True)
class BetaSymbol:
    """Formal Q-linear combination of generators [a], a nonzero.

    [1] is an allowed generator and maps to zero under the isomorphism with
    the symbol space.
    """

    terms: tuple[tuple[Fraction, Fraction], ...] = ()

    def __post_init__(self):
        for coeff, gen in self.terms:
            if gen == 0:
                raise ValueError("beta generator [0] is not allowed")

    @classmethod
    def of(cls, *terms: tuple[Fraction | int, Fraction | int]) -> "BetaSymbol":
        return cls(tuple((Fraction(c), Fraction(g)) for c, g in terms))

    def __add__(self, other: "BetaSymbol") -> "BetaSymbol":
        return BetaSymbol(self.terms + other.terms)

    def scaled(self, c: Fraction) -> "BetaSymbol":
        c = Fraction(c)
        return BetaSymbol(tuple((c * k, g) for k, g in self.terms))


def beta_to_j(s: BetaSymbol) -> PrimeVector:
    """[a] |-> <a, 1-a>, extended linearly; [1] contributes zero."""
    return symbol_sum((coeff, gen, 1 - gen) for coeff, gen in s.terms)


def j_to_beta(a: Fraction, b: Fraction) -> BetaSymbol:
    """Inverse direction on generators: <a,b> |-> (a+b)[a/(a+b)].

    <a,-a> maps to the empty combination; so does <0,b>, whose would-be
    generator [0] is the zero of the beta space.
    """
    a, b = Fraction(a), Fraction(b)
    if a + b == 0 or a == 0:
        return BetaSymbol()
    return BetaSymbol(((a + b, a / (a + b)),))


class EntropyScalar:
    """Exact entropy value: rational constant plus sum of q_p * log p."""

    __slots__ = ("constant", "logpart")

    def __init__(self, constant: Fraction = Fraction(0), logpart: PrimeVector | None = None):
        self.constant = constant if type(constant) is Fraction else Fraction(constant)
        self.logpart = logpart if logpart is not None else PrimeVector()

    @classmethod
    def zero(cls) -> "EntropyScalar":
        return cls()

    def is_zero(self) -> bool:
        return self.constant == 0 and self.logpart.is_zero()

    # The constant is 0 for every value entropy_render builds, so the Fraction
    # arithmetic on it is skipped wherever an operand's constant is 0.

    def __add__(self, other: "EntropyScalar") -> "EntropyScalar":
        a, b = self.constant, other.constant
        return EntropyScalar(a + b if a and b else a or b, self.logpart + other.logpart)

    def __sub__(self, other: "EntropyScalar") -> "EntropyScalar":
        a, b = self.constant, other.constant
        return EntropyScalar(a - b if b else a, self.logpart - other.logpart)

    def __neg__(self) -> "EntropyScalar":
        return EntropyScalar(-self.constant, -self.logpart)

    def scaled(self, c: Fraction) -> "EntropyScalar":
        if type(c) is not Fraction:
            c = Fraction(c)
        a = self.constant
        return EntropyScalar(c * a if a else a, self.logpart.scaled(c))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EntropyScalar):
            return NotImplemented
        return self.constant == other.constant and self.logpart == other.logpart

    def __hash__(self) -> int:
        return hash((self.constant, self.logpart))

    def __repr__(self) -> str:
        return f"EntropyScalar({self.to_text()})"

    def to_text(self) -> str:
        return f"{format_rational(self.constant)} + {self.logpart.to_text()}"

    def pretty(self) -> str:
        """Human form like `log(2)` or `log(3) - (2/3)*log(2)`."""
        terms: list[tuple[int, str]] = []
        if self.constant:
            terms.append((-1 if self.constant < 0 else 1, format_rational(abs(self.constant))))
        for p, c in self.logpart.items():
            mag = abs(c)
            text = f"log({p})" if mag == 1 else f"({format_rational(mag)})*log({p})"
            terms.append((-1 if c < 0 else 1, text))
        if not terms:
            return "0"
        out = ("-" if terms[0][0] < 0 else "") + terms[0][1]
        for sign, text in terms[1:]:
            out += (" - " if sign < 0 else " + ") + text
        return out


def entropy_render(v: PrimeVector) -> EntropyScalar:
    """Entropy value of a symbol vector: <a,b> renders to <a,b>_H exactly."""
    return EntropyScalar(logpart=-v)


def render_float(s: EntropyScalar) -> float:
    return to_double(s.constant) + sum(to_double(c) * math.log(p) for p, c in s.logpart.items())


def psi_float(a: float) -> float:
    """psi(a) = -a*log|a| with psi(0) = 0."""
    return 0.0 if a == 0 else -a * math.log(abs(a))


def bracket_H_float(a: float, b: float) -> float:
    """<a,b>_H = psi(a) + psi(b) - psi(a+b) in double precision."""
    return psi_float(a) + psi_float(b) - psi_float(a + b)


def _psi_tsallis(x: Fraction, alpha: int) -> Fraction:
    return x * abs(x) ** (alpha - 1)


def bracket_tsallis(a: Fraction, b: Fraction, alpha: int) -> Fraction:
    """Exact deformed symbol with psi_alpha(x) = x*|x|**(alpha-1), integer alpha >= 2."""
    if not isinstance(alpha, int) or alpha < 2:
        raise ValueError("exact deformed bracket requires integer alpha >= 2")
    a, b = Fraction(a), Fraction(b)
    return _psi_tsallis(a, alpha) + _psi_tsallis(b, alpha) - _psi_tsallis(a + b, alpha)


def tsallis_entropy(p: Fraction, alpha: int) -> Fraction:
    """H_alpha(p) = (1 - psi_alpha(p) - psi_alpha(1-p)) / (alpha - 1), exact."""
    if not isinstance(alpha, int) or alpha < 2:
        raise ValueError("exact deformed entropy requires integer alpha >= 2")
    p = Fraction(p)
    return (1 - _psi_tsallis(p, alpha) - _psi_tsallis(1 - p, alpha)) / (alpha - 1)
