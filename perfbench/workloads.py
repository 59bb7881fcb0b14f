"""The four workloads: seeded rounds of verification operations.

A workload is built from its seed and yields rounds; every round holds the
same make-up of operations, drawn afresh from ``random.Random`` seeded by
(workload, seed, round).  An operation's ``run`` makes only program calls and
is what gets timed; its ``check`` (untimed) tests the result against a
property the method must have or an oracle from ``oracles``, and returns the
oracle checks that need sympy, which the runner makes after measuring.

The program is reached only through the public functions of its modules and
gets its randomness only as an explicit ``random.Random``.
"""

from __future__ import annotations

import random
from xml.parsers import expat
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from entronet import affine as af
from entronet import dsl, jspace, render, rewrite, sampling
from entronet.groupnet import catalog, cohomology
from entronet.groupnet import diagrams as gd
from entronet.groupnet.groups import GModule, Group

from . import oracles as orc
from .oracles import require


@dataclass
class Op:
    """One verification: ``run`` is timed, ``check`` is not.

    ``size`` is the size class ("small", "large" or ""); a check may set it
    once the result shows the size.  ``meta`` keys the traced spans by bit
    class or group order.  ``drawn`` adds inputs the program drew to the digest.
    """

    kind: str
    inputs: str
    run: Callable[[], object]
    check: Callable[[object], list]
    size: str = ""
    meta: dict = field(default_factory=dict)
    fault: bool = False
    limit_s: float = 60.0
    drawn: Callable[[object], str] | None = None


def _well_formed(xml_text: str) -> None:
    """Raise unless the text is well-formed XML (streamed, so no tree is built)."""
    expat.ParserCreate().Parse(xml_text, True)


def _rng(*key) -> random.Random:
    return random.Random(":".join(map(str, key)))


def _sub_seed(rng: random.Random) -> int:
    return rng.getrandbits(64)


# ---------------------------------------------------------------------------
# diagrams: selftest criteria 5, 6, 13 and 14 in their own proportions / 100.


DIAGRAM_MIX = {"diagram": 100, "rule-site": 150, "normalize": 10, "worked-example": 1,
               "roundtrip": 10, "svg": 1}
SMALL_LAYERS, LARGE_LAYERS = 8, 17


def _layers_class(n_layers: int) -> str:
    if n_layers <= SMALL_LAYERS:
        return "small"
    return "large" if n_layers >= LARGE_LAYERS else ""


def _boundary_value(mode: str, src, tgt):
    diff = af.jstar(src) - af.jstar(tgt)
    return diff if mode == af.MODE_J else jspace.entropy_render(diff)


class Diagrams:
    name = "diagrams"

    def __init__(self, seed: int):
        self.seed = seed

    def round(self, r: int, scale_down: int = 1) -> list[Op]:
        rng = _rng(self.name, self.seed, r)
        ops: list[Op] = []
        rules = list(rewrite.RULES)
        for kind, count in DIAGRAM_MIX.items():
            for i in range(max(1, count // scale_down)):
                sub = _sub_seed(rng)
                if kind == "diagram":
                    ops.append(self._diagram(sub, (af.MODE_J, af.MODE_H)[i % 2]))
                elif kind == "rule-site":
                    ops.append(self._rule_site(sub, rules[i % len(rules)]))
                elif kind == "normalize":
                    ops.append(self._normalize(sub, (af.MODE_J, af.MODE_H)[i % 2]))
                elif kind == "worked-example":
                    ops.append(self._worked(random.Random(sub)))
                elif kind == "roundtrip":
                    ops.append(self._roundtrip(sub))
                else:
                    ops.append(self._svg(sub))
        rng.shuffle(ops)
        return ops

    def warmup(self) -> list[Op]:
        return self.round("warmup", scale_down=50)

    @staticmethod
    def _diagram(sub: int, mode: str) -> Op:
        def run():
            d = sampling.random_diagram(random.Random(sub), mode)
            tgt = af.validate(d)
            value = af.j_invariant(d) - af.dot_contribution(d)
            return d, value == _boundary_value(mode, d.source, tgt)

        def check(res):
            d, holds = res
            require(holds, f"boundary theorem fails on diagram {sub}")
            op.size = _layers_class(len(d.layers))
            return []

        op = Op("diagram", f"diagram {mode} {sub}", run, check, drawn=lambda res: repr(res[0]))
        return op

    @staticmethod
    def _rule_site(sub: int, name: str) -> Op:
        rule = rewrite.RULES[name]

        def run():
            d, at = sampling.random_rule_site(random.Random(sub), name)
            sites = rewrite.applicable_sites(d)
            before = (d.source, af.validate(d), af.j_invariant(d))
            out = rewrite.apply(d, rule, at)
            return d, at, sites, before, (out.source, af.validate(out), af.j_invariant(out))

        def check(res):
            d, at, sites, before, after = res
            require((name, at) in sites, f"{name} site {sub} not found by applicable_sites")
            require(after == before, f"{name} changed the boundary or evaluation at {sub}")
            op.size = _layers_class(len(d.layers))
            return []

        op = Op("rule-site", f"rule-site {name} {sub}", run, check, drawn=lambda res: repr(res[0]))
        return op

    @staticmethod
    def _normalize(sub: int, mode: str) -> Op:
        def run():
            d = sampling.random_diagram(random.Random(sub), mode, max_strands=8, max_layers=10,
                                        max_num=6)
            nd = rewrite.normalize(d)
            return (d, af.validate(d), af.j_invariant(d), af.validate(nd), af.j_invariant(nd),
                    rewrite.normalize(nd) == nd)

        def check(res):
            d, tgt, value, ntgt, nvalue, idempotent = res
            require(ntgt == tgt, f"normalize changed the target of {sub}")
            require(nvalue == value, f"normalize changed the evaluation of {sub}")
            require(idempotent, f"normalize is not idempotent on {sub}")
            op.size = _layers_class(len(d.layers))
            return []

        op = Op("normalize", f"normalize {mode} {sub}", run, check, drawn=lambda res: repr(res[0]))
        return op

    @staticmethod
    def _worked(rng: random.Random) -> Op:
        def q(nonzero: bool = False) -> Fraction:
            while True:
                v = Fraction(rng.randint(-12, 12), rng.randint(1, 12))
                if v or not nonzero:
                    return v

        a1, a2, a3, a4 = q(), q(), q(), q()
        c1, c2 = q(True), q(True)

        def run():
            src = (af.xplus(a1 + a2), af.yplus(c1 * c2), af.xplus(a3 / c2 + a4))
            layers = (
                (af.AddSplit(a1, a2), 0),
                (af.MultSplit(c1, c2), 2),
                (af.AddSplit(a3 / c2, a4), 4),
                (af.XYCross(af.yplus(c2), af.xplus(a3 / c2)), 3),
                (af.XYCross(af.yplus(c1), af.xplus(a3)), 2),
                (af.AddMerge(a2, c1 * a3), 1),
            )
            return af.j_invariant(af.Diagram(src, layers))

        def check(value):
            got = orc.prime_vector_dict(value)

            def oracle():
                want: dict[int, Fraction] = {}
                for sign, x, y in ((-1, a1, a2), (1, a2, c1 * a3), (-1, c1 * a3, c1 * c2 * a4)):
                    for p, c in orc.symbol(x, y).items():
                        want[p] = want.get(p, Fraction(0)) + sign * c
                require({p: c for p, c in want.items() if c} == got,
                        f"worked example {(a1, a2, a3, a4, c1, c2)} != oracle symbol sum")

            return [oracle]

        return Op("worked-example", f"worked {(a1, a2, a3, a4, c1, c2)}", run, check, size="small")

    @staticmethod
    def _roundtrip(sub: int) -> Op:
        def run():
            sf = sampling.random_source(random.Random(sub))
            return sf, dsl.parse(dsl.print_source(sf))

        def check(res):
            sf, back = res
            require(back == sf, f"print/parse round trip differs on source {sub}")
            n_layers = sum(len(getattr(decl, "layers", ())) for decl in sf.decls)
            op.size = _layers_class(n_layers)
            return []

        op = Op("roundtrip", f"roundtrip {sub}", run, check, drawn=lambda res: repr(res[0]))
        return op

    @staticmethod
    def _svg(sub: int) -> Op:
        def run():
            d = sampling.random_diagram(random.Random(sub), max_strands=6, max_layers=8)
            return d, render.to_svg(d), render.to_svg(d)

        def check(res):
            d, first, second = res
            require(first == second, f"SVG of diagram {sub} differs between renders")
            _well_formed(first)
            op.size = _layers_class(len(d.layers))
            return []

        op = Op("svg", f"svg {sub}", run, check, drawn=lambda res: repr(res[0]))
        return op


# ---------------------------------------------------------------------------
# wide: folds and chain-rule block diagrams of width 250 to 2000.


WIDTHS = (250, 500, 1000, 2000)
# Folds at the narrowest width are repeated so its size class has enough
# operations for a steady median.  Random folds are the faster kind; with
# five right folds to three, the class median falls inside the right folds.
NARROW_FOLDS = {"right-fold": 5, "random-fold": 3}
RENDER_MAX_WIDTH = 250  # the SVG grows quadratically: 3 MB at 250, 12 MB at 500
# normalize is cubic on the interleaved X/Y boundary of a chain diagram (about
# 2 s at width 250 and 100 s at 1000), so chain diagrams are normalized at 250 only.
CHAIN_NORMALIZE_MAX_WIDTH = 250
CHAIN_BLOCK = 8  # inner points per chain block; a block is Y+, 8 times X+, Y-


def _distribution(rng: random.Random, n: int) -> list[Fraction]:
    ws = [rng.randint(1, 12) for _ in range(n)]
    total = sum(ws)
    return [Fraction(w, total) for w in ws]


def _fold(dist: list[Fraction], positions) -> af.Diagram:
    cur = list(dist)
    layers = []
    for i in positions(cur):
        layers.append((af.AddMerge(cur[i], cur[i + 1]), i))
        cur[i : i + 2] = [cur[i] + cur[i + 1]]
    return af.Diagram(tuple(af.xplus(w) for w in dist), tuple(layers), af.MODE_H)


def _right_positions(cur):
    while len(cur) > 1:
        yield len(cur) - 2


def _random_positions(rng: random.Random):
    def positions(cur):
        while len(cur) > 1:
            yield rng.randrange(len(cur) - 1)

    return positions


def _net_text(d: af.Diagram, tgt) -> str:
    sf = dsl.SourceFile(
        (dsl.object_to_decl("S", d.source), dsl.object_to_decl("T", tgt),
         dsl.diagram_to_decl("D", "S", "T", d)),
        d.mode,
    )
    return dsl.print_source(sf)


@dataclass
class WideItem:
    kind: str
    width: int
    diagram: af.Diagram
    text: str
    dist: list  # the distribution whose entropy the diagram evaluates to
    chain: tuple | None = None


class Wide:
    """Each operation loads one wide diagram from text and verifies it end to end."""

    name = "wide"

    def __init__(self, seed: int, widths=WIDTHS):
        self.seed = seed
        self.widths = widths

    def items(self, r) -> list[WideItem]:
        rng = _rng(self.name, self.seed, r)
        one = (af.xplus(1),)
        out = []
        for n in self.widths:
            for kind, positions in (("right-fold", _right_positions),
                                    ("random-fold", _random_positions(rng))):
                for _ in range(NARROW_FOLDS[kind] if n == min(WIDTHS) else 1):
                    dist = _distribution(rng, n)
                    d = _fold(dist, positions)
                    out.append(WideItem(kind, n, d, _net_text(d, one), dist))
            z = _distribution(rng, n // (CHAIN_BLOCK + 2))
            ys = [_distribution(rng, CHAIN_BLOCK) for _ in z]
            d, _ = af.chain_diagrams(z, ys)
            composite = [p * q for p, y in zip(z, ys) for q in y]
            out.append(WideItem("chain", n, d, _net_text(d, one), composite, (z, ys)))
        return out

    def round(self, r) -> list[Op]:
        # Shuffled, so each width samples the whole round and not one stretch of it.
        ops = [self._op(item) for item in self.items(r)]
        _rng(self.name, self.seed, r, "order").shuffle(ops)
        return ops

    def warmup(self) -> list[Op]:
        return Wide(self.seed, widths=(10,)).round("warmup")

    @staticmethod
    def _op(it: WideItem) -> Op:
        n = it.width
        tag = f"{it.kind} {n}"
        normalize = it.kind != "chain" or n <= CHAIN_NORMALIZE_MAX_WIDTH

        def run():
            d = dsl.resolve(dsl.parse(it.text)).diagrams["D"]
            exact = af.j_invariant(d)
            approx = af.j_invariant(d.with_mode(af.MODE_HFLOAT))
            normal = None
            if normalize:
                nd = rewrite.normalize(d)
                normal = (af.validate(nd), af.j_invariant(nd))
            svgs = (render.to_svg(d), render.to_svg(d)) if n <= RENDER_MAX_WIDTH else None
            chain = af.chain_rule_check(*it.chain) if it.chain is not None else None
            return d, exact, approx, normal, svgs, chain

        def check(res):
            d, exact, approx, normal, svgs, chain = res
            require(d == it.diagram, f"{tag}: diagram loaded from text differs from the built one")
            want = orc.entropy_float(it.dist)
            require(orc.floats_close(approx, want, want), f"{tag}: float {approx} != {want}")
            if normal is not None:
                require(normal == ((af.xplus(1),), exact), f"{tag}: normalize changed the diagram")
            if svgs is not None:
                require(svgs[0] == svgs[1], f"{tag}: SVG differs between renders")
                _well_formed(svgs[0])
            if chain is not None:
                require(chain, f"{tag}: the two chain-rule forms disagree")
            got = (exact.constant, orc.prime_vector_dict(exact.logpart))

            def oracle():
                require(orc.entropy(it.dist) == got, f"{tag}: exact entropy != oracle")

            return [oracle]

        size = "small" if n == min(WIDTHS) else "large" if n == max(WIDTHS) else ""
        return Op(it.kind, f"{tag} {it.text}", run, check, size)


# ---------------------------------------------------------------------------
# exact-arith: functional equations on b-bit rationals, plus the semiprime class.


# Five classes, so the median operation lies inside the middle one.  The
# ladder stops at 24 bits: from 32 bits on, Pollard-Brent on a product of two
# large primes makes single operations take seconds on some seeds, and the
# throughput of a 35 s run would follow those few draws.  The unbounded case
# itself is measured by the fixed semiprime below.
BITS = (8, 12, 16, 20, 24)
# Balanced semiprime: a 61-bit prime times an 89-bit prime.  factor_int runs
# Pollard-Brent on it without a bound, so the operation fails on its limit.
SEMIPRIME_FACTORS = (1152921504606859327, 309485009821345068724848949)
SEMIPRIME_LIMIT_S = 0.1


def _rational(rng: random.Random, bits: int) -> Fraction:
    lo, hi = 1 << (bits - 1), 1 << bits
    return Fraction(rng.choice((1, -1)) * rng.randrange(lo, hi), rng.randrange(lo, hi))


def _rational_not(rng: random.Random, bits: int, bad) -> Fraction:
    while True:
        q = _rational(rng, bits)
        if q not in bad:
            return q


def _weights(rng: random.Random, bits: int, n: int) -> list[Fraction]:
    ws = [rng.randrange(1 << (bits - 1), 1 << bits) for _ in range(n)]
    total = sum(ws)
    return [Fraction(w, total) for w in ws]


def _entropy_of(p: Fraction):
    return jspace.entropy_render(jspace.symbol(p, 1 - p))


class ExactArith:
    """Each operation checks every functional equation on one draw of b-bit inputs."""

    name = "exact-arith"

    def __init__(self, seed: int, bits=BITS):
        self.seed = seed
        self.bits = bits

    def round(self, r) -> list[Op]:
        rng = _rng(self.name, self.seed, r)
        ops = [self._equations(rng, b) for b in self.bits]
        ops.append(self._semiprime())
        return ops

    def warmup(self) -> list[Op]:
        return [op for op in ExactArith(self.seed, bits=(8,)).round("warmup") if not op.fault]

    @staticmethod
    def _equations(rng: random.Random, b: int) -> Op:
        a, c = _rational(rng, b), _rational(rng, b)
        a2 = _rational_not(rng, b, (-a,))
        p, q = _rational_not(rng, b, (0, 1)), _rational_not(rng, b, (0, 1))
        x, y = _rational_not(rng, b, (0, 1)), _rational_not(rng, b, (0, 1))
        t, alpha = _rational(rng, b), rng.choice((2, 3, 4))
        z = _weights(rng, b, rng.randint(2, 4))
        ys = [_weights(rng, b, rng.randint(1, 3)) for _ in z]
        composite = [w * v for w, y_ in zip(z, ys) for v in y_]
        drawn = (a, a2, c, p, q, x, y, t, alpha, z, ys)

        def run():
            s = jspace.symbol(a, a2)
            laws = (s == jspace.symbol(a2, a),
                    s + jspace.symbol(a + a2, c) == jspace.symbol(a2, c) + jspace.symbol(a, a2 + c),
                    jspace.scale(c, s) == jspace.symbol(c * a, c * a2))
            hp, hq = _entropy_of(p), _entropy_of(q)
            four = (hp - hq + _entropy_of(q / p).scaled(p)
                    + _entropy_of((1 - q) / (1 - p)).scaled(1 - p)).is_zero()
            four_sym = (hp + _entropy_of(q / (1 - p)).scaled(1 - p)
                        == hq + _entropy_of(p / (1 - q)).scaled(1 - q))
            bracket = jspace.bracket_H_float
            fp, fq, fr, fs = float(p), float(q), float(q / p), float((1 - q) / (1 - p))
            terms = (bracket(fp, 1 - fp), -bracket(fq, 1 - fq), fp * bracket(fr, 1 - fr),
                     (1 - fp) * bracket(fs, 1 - fs))

            def beta_j(g):
                return jspace.beta_to_j(jspace.BetaSymbol.of((1, g)))

            jx = beta_j(x)
            beta = (jx - beta_j(y) + jspace.scale(x, beta_j(y / x))
                    + jspace.scale(1 - x, beta_j((1 - y) / (1 - x)))).is_zero()
            tsallis = (jspace.bracket_tsallis(t, 1 - t, alpha),
                       -(alpha - 1) * jspace.tsallis_entropy(t, alpha))
            chain = (af.chain_rule_check(z, ys), af.shannon_entropy(composite))
            return s, laws, hp, jspace.render_float(hp), four, four_sym, terms, jx, beta, tsallis, chain

        def check(res):
            s, laws, hp, hp_float, four, four_sym, terms, jx, beta, tsallis, chain = res
            require(all(laws), f"symbol laws fail at {(a, a2, c)}")
            require(four and four_sym, f"four-term equation fails at {(p, q)}")
            require(orc.floats_close(sum(terms), 0.0, sum(map(abs, terms))),
                    f"float four-term residual {sum(terms)} at {(p, q)}")
            want = orc.psi_sum_float(p, 1 - p)
            require(orc.floats_close(hp_float, want, want), f"H({p}) = {hp_float} != {want}")
            require(beta, f"beta four-term relation fails at {(x, y)}")
            require(tsallis[0] == tsallis[1] == orc.tsallis_bracket(t, 1 - t, alpha),
                    f"Tsallis identity fails at {(t, alpha)}")
            holds, h = chain
            require(holds, f"chain rule fails at {(z, ys)}")
            got_s, got_jx = orc.prime_vector_dict(s), orc.prime_vector_dict(jx)
            got_hp = (hp.constant, {r: -v for r, v in hp.logpart.items()})
            got_h = (h.constant, orc.prime_vector_dict(h.logpart))

            def oracle():
                require(orc.symbol(a, a2) == got_s, f"<{a},{a2}> != oracle")
                require(got_hp == (0, orc.symbol(p, 1 - p)), f"H({p}) != oracle")
                require(orc.symbol(x, 1 - x) == got_jx, f"[{x}] != oracle")
                require(orc.entropy(composite) == got_h, f"H{composite} != oracle")

            return [oracle]

        size = "small" if b == min(BITS) else "large" if b == max(BITS) else ""
        return Op("equations", f"equations {b} {drawn}", run, check, size, {"bits": b})

    @staticmethod
    def _semiprime() -> Op:
        p1, p2 = SEMIPRIME_FACTORS
        n = Fraction(p1 * p2)

        def run():
            return jspace.symbol(n, n)

        def check(s):
            # <N,N> = N v(N) + N v(N) - 2N v(2N): only the prime 2 survives.
            require(orc.prime_vector_dict(s) == {2: -2 * n}, "<N,N> != -2N log 2")
            return []

        return Op("semiprime", "semiprime symbol <N,N>", run, check, size="semiprime",
                  fault=True, limit_s=SEMIPRIME_LIMIT_S)


# ---------------------------------------------------------------------------
# cohomology: H^2 with trivial coefficients, closed networks, carry and Witt.


# Group spec -> coefficient moduli m to draw from.  For orders 4 and 5 the
# moduli whose exhaustive search space m^((|G|-1)^2) lies between 2^12 and
# 2^20 are left out: every H^2 below 2^20 is cross-checked by enumeration,
# and those few would take seconds to minutes each.  The order-8 solves, the
# largest systems, keep one modulus each, so that their time and the peak
# memory of a run do not depend on the seed.
H2_GROUPS = {
    ("cyclic", 2): (2, 3, 4, 5, 6),
    ("cyclic", 3): (2, 3, 4, 5, 6),
    ("cyclic", 4): (2, 5, 6),
    ("cyclic", 5): (3, 4, 5, 6),
    ("cyclic", 6): (2, 3, 4, 5, 6),
    ("cyclic", 7): (2, 3, 4, 5, 6, 7),
    ("cyclic", 8): (8,),
    ("product", 2, 2): (2, 5, 6),
    ("product", 2, 4): (4,),
    ("aff1", 3): (2, 3, 4, 5, 6),
}
NETWORK_GROUPS = [("cyclic", n) for n in range(2, 9)] + [("aff1", 3)]
NETWORKS_PER_GROUP = 25
EXHAUSTIVE_SPACE = 2**20
CARRY_N = range(2, 13)
WITT_P = (2, 3, 5, 7)


def _law(spec):
    if spec[0] == "cyclic":
        return orc.cyclic_law(spec[1])
    if spec[0] == "product":
        return orc.product_law(orc.cyclic_law(spec[1]), orc.cyclic_law(spec[2]))
    return orc.aff1_law(spec[1])


def _group(spec) -> Group:
    if spec[0] == "cyclic":
        return Group.cyclic(spec[1])
    if spec[0] == "product":
        return Group.direct_product(Group.cyclic(spec[1]), Group.cyclic(spec[2]))
    return Group.aff1_mod_p(spec[1])


def _element_order_multiset(factors) -> tuple[int, ...]:
    """Element orders of the direct sum of Z/f, f in factors, by enumeration."""
    from itertools import product
    from math import gcd, lcm

    orders = []
    for elem in product(*(range(f) for f in factors)):
        orders.append(lcm(*(f // gcd(x, f) for x, f in zip(elem, factors))) if factors else 1)
    return tuple(sorted(orders))


def _table(c: cohomology.Cocycle2, n: int) -> list[list[int]]:
    return [[c(g, h)[0] for h in range(n)] for g in range(n)]


class Cohomology:
    name = "cohomology"

    def __init__(self, seed: int):
        self.seed = seed
        specs = set(H2_GROUPS) | set(NETWORK_GROUPS)
        self.groups = {spec: _group(spec) for spec in specs}
        for spec, G in self.groups.items():
            require(orc.table_matches(_law(spec), G.table), f"table of {spec} is not the group law")
        # H^2(G, Z/|G|) representatives for the abelian groups of order <= 6,
        # mixed into the closed networks as criterion 8 does.
        self.reps = {}
        for spec in NETWORK_GROUPS:
            G = self.groups[spec]
            if G.order <= 6 and G.is_abelian():
                self.reps[spec] = cohomology.h_solver(G, GModule.trivial(G, (G.order,)), 2)[1]

    def round(self, r, networks: int = NETWORKS_PER_GROUP, solve: bool = True) -> list[Op]:
        rng = _rng(self.name, self.seed, r)
        ops = []
        if solve:
            for spec, moduli in H2_GROUPS.items():
                ops.append(self._h2(spec, rng.choice(moduli)))
        for spec in NETWORK_GROUPS:
            reps = self.reps.get(spec, [])
            for i in range(networks):
                rep = reps[i // 3 % len(reps)] if reps and i % 3 == 0 else None
                ops.append(self._network(spec, _sub_seed(rng), rep))
        if solve:
            ops += [self._carry(n) for n in CARRY_N]
            ops += [self._witt(p) for p in WITT_P]
        rng.shuffle(ops)
        return ops

    def warmup(self) -> list[Op]:
        small = [self._h2(("cyclic", 2), 2), self._carry(2), self._witt(2)]
        return self.round("warmup", networks=2, solve=False) + small

    def _h2(self, spec, m: int) -> Op:
        G = self.groups[spec]
        n = G.order
        exhaustive = m ** ((n - 1) ** 2) <= EXHAUSTIVE_SPACE

        def run():
            U = GModule.trivial(G, (m,))
            factors, reps = cohomology.h_solver(G, U, 2)
            valid = [cohomology.verify_cocycle2(rep) for rep in reps]
            trivial = [cohomology.is_coboundary2(rep) for rep in reps]
            ex = cohomology.h_exhaustive(G, U) if exhaustive else None
            return factors, reps, valid, trivial, ex

        def check(res):
            factors, reps, valid, trivial, ex = res
            want = orc.h2_trivial(spec, m)
            require(list(factors) == want, f"H2({spec}, Z/{m}) = {factors}, oracle {want}")
            require(len(reps) == len(factors), f"H2({spec}, Z/{m}): one representative per factor")
            require(all(valid) and not any(trivial), f"H2({spec}, Z/{m}): bad representative")
            law = _law(spec)
            for rep in reps:
                tab = _table(rep, n)
                require(orc.is_cocycle_trivial(law, m, lambda g, h: tab[g][h]),
                        f"H2({spec}, Z/{m}): representative fails the oracle cocycle law")
            if ex is not None:
                order = 1
                for f in factors:
                    order *= f
                require(ex == (order, _element_order_multiset(factors)),
                        f"H2({spec}, Z/{m}): solver and enumeration disagree")
            return []

        size = "large" if n == 8 else ""
        return Op("h2", f"h2 {spec} {m}", run, check, size, {"order": n})

    def _network(self, spec, sub: int, rep) -> Op:
        G = self.groups[spec]

        def run():
            rng = random.Random(sub)
            if rep is None:
                U = sampling.random_gmodule(rng, G)
                c = sampling.random_normalized_cocycle(rng, U)
            else:
                U, c = rep.module, rep
            d = sampling.random_closed_gdiagram(rng, G, grow_layers=rng.randint(2, 9))
            return gd.is_closed(d), gd.eval_alpha_c(d, c), U.zero(), d

        def check(res):
            closed, value, zero, _ = res
            require(closed, f"network {sub} over {spec} is not closed")
            require(value == zero, f"closed network {sub} over {spec} evaluates to {value}")
            return []

        size = "small" if G.order <= 4 else ""
        return Op("network", f"network {spec} {sub} {rep is not None}", run, check, size,
                  {"order": G.order}, drawn=lambda res: repr(res[3].layers))

    @staticmethod
    def _carry(n: int) -> Op:
        def run():
            c = catalog.carry(n)
            return c, cohomology.verify_cocycle2(c), cohomology.central_extension(c)

        def check(res):
            c, valid, T = res
            require(valid, f"carry({n}) fails verify_cocycle2")
            require(orc.is_cocycle_trivial(orc.cyclic_law(n), n, lambda g, h: c(g, h)[0]),
                    f"carry({n}) fails the oracle cocycle law")
            require(T.order == n * n and orc.max_order_in_table(T.table) == n * n,
                    f"extension of carry({n}) is not cyclic of order {n * n}")
            return []

        return Op("carry", f"carry {n}", run, check, meta={"order": n})

    @staticmethod
    def _witt(p: int) -> Op:
        def run():
            c = catalog.witt(p)
            return c, cohomology.verify_cocycle2(c), p in (2, 3) and not cohomology.is_coboundary2(c)

        def check(res):
            c, valid, nontrivial = res
            value = lambda g, h: c(g, h)[0]
            require(valid, f"witt({p}) fails verify_cocycle2")
            require(orc.is_cocycle_trivial(orc.cyclic_law(p), p, value),
                    f"witt({p}) fails the oracle cocycle law")
            if p in (2, 3):
                require(nontrivial and orc.extension_has_order_p2(p, value),
                        f"witt({p}) is a coboundary")
            return []

        return Op("witt", f"witt {p}", run, check, meta={"order": p})


WORKLOADS = {w.name: w for w in (Diagrams, Wide, ExactArith, Cohomology)}

# Which quantile op_tail_ms reports on each workload: the highest of p90, p99
# and p99.9 with at least ten operations beyond it in one run.
TAIL_QUANTILE = {"diagrams": 0.99, "wide": 0.90, "exact-arith": 0.90, "cohomology": 0.90}

