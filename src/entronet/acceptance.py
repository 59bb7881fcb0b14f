"""The acceptance suite: one function per criterion, used by `selftest`.

Each criterion returns (ok, detail) and is timed against its stated budget.
All randomness is driven by ENTRONET_SEED (fixed default), so runs are
reproducible.  The criteria call the random generators of `sampling` through
timed wrappers, so `selftest --json` splits each criterion's time into data
generation and checking.
"""

from __future__ import annotations

import json
import math
import time
from fractions import Fraction

from . import affine as af
from . import dsl, render, rewrite, sampling
from .groupnet.catalog import carry, witt
from .groupnet.cohomology import (
    central_extension,
    h_exhaustive,
    h_solver,
    is_coboundary2,
    verify_cocycle2,
)
from .groupnet.diagrams import eval_alpha_c, is_closed
from .groupnet.groups import GModule, Group
from .jspace import (
    BetaSymbol,
    EntropyScalar,
    PrimeVector,
    beta_to_j,
    bracket_H_float,
    bracket_tsallis,
    entropy_render,
    render_float,
    scale,
    symbol,
    tsallis_entropy,
)
from .sampling import seeded_rng

# Seconds spent in the sampling generators below, over every criterion run.
_generate_s = 0.0


def _generating(fn):
    """fn, with the time of each call added to _generate_s."""

    def timed(*args, **kwargs):
        global _generate_s
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            _generate_s += time.perf_counter() - t0

    return timed


random_closed_gdiagram = _generating(sampling.random_closed_gdiagram)
random_diagram = _generating(sampling.random_diagram)
random_distribution = _generating(sampling.random_distribution)
random_gmodule = _generating(sampling.random_gmodule)
random_normalized_cocycle = _generating(sampling.random_normalized_cocycle)
random_rational = _generating(sampling.random_rational)
random_rule_site = _generating(sampling.random_rule_site)
random_source = _generating(sampling.random_source)


def _entropy_of(p: Fraction) -> EntropyScalar:
    return entropy_render(symbol(p, 1 - p))


def crit01_normalization():
    """H(1/2) = log 2, exactly and in floats."""
    value = af.shannon_entropy([Fraction(1, 2), Fraction(1, 2)])
    ok = value == EntropyScalar(Fraction(0), PrimeVector({2: Fraction(1)}))
    approx = render_float(value)
    ok = ok and abs(approx - 0.6931471805599453) <= 1e-12
    return ok, f"exact {value.pretty()}, float {approx!r}"


def crit02_symbol_relations():
    """Symmetry, scaling, and the cocycle law on 1000 random triples."""
    rng = seeded_rng(2)

    def rq():
        return Fraction(rng.randint(-10**4, 10**4), rng.randint(1, 10**4))

    for i in range(1000):
        a, b, c = rq(), rq(), rq()
        if symbol(a, b) != symbol(b, a):
            return False, f"symmetry failed at {i}"
        if symbol(a, b) + symbol(a + b, c) != symbol(b, c) + symbol(a, b + c):
            return False, f"cocycle law failed at {i}"
        if c != 0 and scale(c, symbol(a, b)) != symbol(c * a, c * b):
            return False, f"scaling failed at {i}"
    return True, "1000 triples, exact"


def crit03_entropy_four_term():
    """The four-term equation and its symmetric form, exact plus float."""
    rng = seeded_rng(3)
    count = 0
    while count < 1000:
        p, q = random_rational(rng, 40), random_rational(rng, 40)
        if p in (0, 1) or q == 1:
            continue
        count += 1
        lhs = (
            _entropy_of(p)
            - _entropy_of(q)
            + _entropy_of(q / p).scaled(p)
            + _entropy_of((1 - q) / (1 - p)).scaled(1 - p)
        )
        if not lhs.is_zero():
            return False, f"four-term failed at ({p},{q})"
        sym_l = _entropy_of(p) + _entropy_of(q / (1 - p)).scaled(1 - p)
        sym_r = _entropy_of(q) + _entropy_of(p / (1 - q)).scaled(1 - q)
        if sym_l != sym_r:
            return False, f"symmetric form failed at ({p},{q})"
        residual = (
            bracket_H_float(float(p), 1 - float(p))
            - bracket_H_float(float(q), 1 - float(q))
            + float(p) * bracket_H_float(float(q / p), 1 - float(q / p))
            + (1 - float(p))
            * bracket_H_float(float((1 - q) / (1 - p)), 1 - float((1 - q) / (1 - p)))
        )
        if abs(residual) >= af.FLOAT_TOL:
            return False, f"float residual {residual} at ({p},{q})"
    return True, "1000 pairs, exact and float"


def crit04_beta_four_term():
    """[a]-[b]+a[b/a]+(1-a)[(1-b)/(1-a)] maps to zero, 1000 random pairs."""
    rng = seeded_rng(4)
    count = 0
    while count < 1000:
        a, b = random_rational(rng, 40), random_rational(rng, 40)
        if a in (0, 1) or b in (0, 1):
            continue
        count += 1
        total = (
            beta_to_j(BetaSymbol.of((1, a)))
            - beta_to_j(BetaSymbol.of((1, b)))
            + scale(a, beta_to_j(BetaSymbol.of((1, b / a))))
            + scale(1 - a, beta_to_j(BetaSymbol.of((1, (1 - b) / (1 - a)))))
        )
        if not total.is_zero():
            return False, f"failed at ({a},{b})"
    return True, "1000 pairs, exact"


def crit05_boundary_theorem():
    """Evaluation = boundary difference plus dot terms, 10^4 random diagrams."""
    rng = seeded_rng(5)
    for i in range(10_000):
        d = random_diagram(rng)
        tgt = af.validate(d)
        j = af.j_invariant(d)
        dots = af.dot_contribution(d)
        if j - dots != af.jstar(d.source) - af.jstar(tgt):
            return False, f"failed at diagram {i}"
    return True, "10000 diagrams, exact"


def crit06_rewrites():
    """Every catalogued rule preserves boundary and evaluation; normalize is
    idempotent and evaluation-preserving."""
    rng = seeded_rng(6)
    for name in rewrite.RULES:
        for i in range(1000):
            d, at = random_rule_site(rng, name)
            if not rewrite.RULES[name].matcher(d, at):
                return False, f"generated site does not match {name}"
            before = (d.source, af.validate(d), af.j_invariant(d))
            out = rewrite.apply(d, rewrite.RULES[name], at)
            if (out.source, af.validate(out), af.j_invariant(out)) != before:
                return False, f"{name} broke an invariant"
    for i in range(1000):
        d = random_diagram(rng, max_strands=8, max_layers=10, max_num=6)
        nd = rewrite.normalize(d)
        if af.validate(nd) != af.validate(d) or not af.values_equal(
            d.mode, af.j_invariant(nd), af.j_invariant(d)
        ):
            return False, f"normalize broke diagram {i}"
        if rewrite.normalize(nd) != nd:
            return False, f"normalize not idempotent at {i}"
    return True, "15 rules x 1000 sites; 1000 normalizations"


def crit07_chain_rule():
    """Grouping identity for 200 random nested distributions plus diagrams."""
    rng = seeded_rng(7)
    for i in range(200):
        n = rng.randint(1, 5)
        z = random_distribution(rng, n)
        ys = [random_distribution(rng, rng.randint(1, 4)) for _ in range(n)]
        if not af.chain_rule_check(z, ys):
            return False, f"failed at case {i}"
    return True, "200 nested distributions, exact"


def crit08_closed_vanishing():
    """alpha_c of closed dotless networks is zero for every listed group."""
    rng = seeded_rng(8)
    groups = [Group.cyclic(n) for n in range(2, 9)] + [Group.aff1_mod_p(3)]
    total = 0
    for G in groups:
        reps = []
        if G.order <= 6 and G.is_abelian():
            U0 = GModule.trivial(G, (G.order,))
            _, reps = h_solver(G, U0, 2)
        for i in range(1000):
            if reps and i % 3 == 0:
                c = reps[i // 3 % len(reps)]
                U = c.module
            else:
                U = random_gmodule(rng, G)
                c = random_normalized_cocycle(rng, U)
            d = random_closed_gdiagram(rng, G, grow_layers=rng.randint(2, 9))
            if not is_closed(d):
                return False, "generator produced a non-closed diagram"
            if eval_alpha_c(d, c) != U.zero():
                return False, f"nonzero value over group of order {G.order}"
            total += 1
    return True, f"{total} closed diagrams, all zero"


def crit09_carry():
    """carry(N) is a cocycle and presents the cyclic group of order N^2."""
    for n in range(2, 13):
        c = carry(n)
        if not verify_cocycle2(c):
            return False, f"carry({n}) fails the cocycle law"
        T = central_extension(c)
        if T.order != n * n or max(T.element_orders) != n * n:
            return False, f"extension of carry({n}) is not cyclic of order {n*n}"
    return True, "N = 2..12"


def crit10_h2_solver():
    """Solver vs exhaustive enumeration, plus the cyclic gcd law."""
    cases = [
        (Group.cyclic(2), (2,)),
        (Group.cyclic(2), (3,)),
        (Group.cyclic(3), (3,)),
        (Group.direct_product(Group.cyclic(2), Group.cyclic(2)), (2,)),
    ]
    for G, moduli in cases:
        U = GModule.trivial(G, moduli)
        factors, reps = h_solver(G, U, 2)
        order = 1
        for f in factors:
            order *= f
        solver_orders = _factor_order_multiset(factors)
        ex_order, ex_orders = h_exhaustive(G, U)
        if order != ex_order or solver_orders != ex_orders:
            return False, f"mismatch for |G|={G.order}, U=Z/{moduli}"
        for rep in reps:
            if is_coboundary2(rep):
                return False, "solver returned a trivial representative"
    for n in range(2, 7):
        for m in range(2, 7):
            G = Group.cyclic(n)
            U = GModule.trivial(G, (m,))
            factors, _ = h_solver(G, U, 2)
            g = math.gcd(n, m)
            want = [] if g == 1 else [g]
            if factors != want:
                return False, f"H2(Z/{n}, Z/{m}) gave {factors}, wanted {want}"
    return True, "4 exhaustive cases + cyclic pairs up to 6"


def _factor_order_multiset(factors):
    """Element-order multiset of the direct sum of Z/f for f in factors."""
    orders = [1]
    for f in factors:
        divisors = [d for d in range(1, f + 1) if f % d == 0]
        counts = {d: sum(1 for x in range(f) if f // math.gcd(x, f) == d) for d in divisors}
        new = []
        for o in orders:
            for d, cnt in counts.items():
                new.extend([o * d // math.gcd(o, d)] * cnt)
        orders = new
    return tuple(sorted(orders))


def crit11_witt():
    """Witt addition cocycle: valid for p in {2,3,5,7}, nontrivial for 2 and 3."""
    for p in (2, 3, 5, 7):
        if not verify_cocycle2(witt(p)):
            return False, f"witt({p}) fails the cocycle law"
    for p in (2, 3):
        if is_coboundary2(witt(p)):
            return False, f"witt({p}) is a coboundary"
    return True, "p in {2,3,5,7}; nontrivial for 2, 3"


def crit12_tsallis():
    """Exact deformed identity <p,1-p>_alpha = -(alpha-1) H_alpha(p)."""
    rng = seeded_rng(12)
    for alpha in (2, 3, 4):
        for _ in range(200):
            p = random_rational(rng, 60)
            lhs = bracket_tsallis(p, 1 - p, alpha)
            rhs = -(alpha - 1) * tsallis_entropy(p, alpha)
            if lhs != rhs:
                return False, f"failed at p={p}, alpha={alpha}"
    return True, "alpha in {2,3,4}, 200 rationals each"


def crit13_worked_example():
    """The three-vertex worked diagram evaluates to its tabulated symbol sum."""
    rng = seeded_rng(13)
    for i in range(50):
        a1, a2, a3, a4 = (random_rational(rng, 12) for _ in range(4))
        c1 = random_rational(rng, 12, nonzero=True)
        c2 = random_rational(rng, 12, nonzero=True)
        src = (af.xplus(a1 + a2), af.yplus(c1 * c2), af.xplus(a3 / c2 + a4))
        layers = (
            (af.AddSplit(a1, a2), 0),
            (af.MultSplit(c1, c2), 2),
            (af.AddSplit(a3 / c2, a4), 4),
            (af.XYCross(af.yplus(c2), af.xplus(a3 / c2)), 3),
            (af.XYCross(af.yplus(c1), af.xplus(a3)), 2),
            (af.AddMerge(a2, c1 * a3), 1),
        )
        d = af.Diagram(src, layers)
        want = -symbol(a1, a2) + symbol(a2, c1 * a3) - symbol(c1 * a3, c1 * c2 * a4)
        if af.j_invariant(d) != want:
            return False, f"failed at instance {i}"
    return True, "50 instances, exact"


def crit14_dsl_roundtrip():
    """parse . print identity on fixtures and generated sources; SVG determinism."""
    import os

    fixture_dir = os.path.join(os.path.dirname(__file__), "fixtures")
    fixture_count = 0
    for name in sorted(os.listdir(fixture_dir)):
        if not name.endswith(".net"):
            continue
        with open(os.path.join(fixture_dir, name), "r", encoding="utf-8") as fh:
            sf = dsl.parse(fh.read())
        if dsl.parse(dsl.print_source(sf)) != sf:
            return False, f"fixture {name} does not round-trip"
        fixture_count += 1
    rng = seeded_rng(14)
    for i in range(1000):
        sf = random_source(rng)
        text = dsl.print_source(sf)
        if dsl.parse(text) != sf:
            return False, f"generated source {i} does not round-trip"
    d = random_diagram(seeded_rng(140), max_strands=6, max_layers=8)
    svg1, svg2 = render.to_svg(d), render.to_svg(d)
    if svg1 != svg2:
        return False, "renderer is not deterministic"
    import xml.etree.ElementTree as ET

    ET.fromstring(svg1)
    return True, f"{fixture_count} fixtures + 1000 generated sources"


CRITERIA = [
    ("1", "entropy normalization", crit01_normalization, 1.0),
    ("2", "symbol relations", crit02_symbol_relations, 10.0),
    ("3", "entropy four-term equation", crit03_entropy_four_term, 10.0),
    ("4", "beta four-term relation", crit04_beta_four_term, 10.0),
    ("5", "boundary theorem", crit05_boundary_theorem, 60.0),
    ("6", "rewrite invariance", crit06_rewrites, 60.0),
    ("7", "chain rule", crit07_chain_rule, 10.0),
    ("8", "closed-diagram vanishing", crit08_closed_vanishing, 60.0),
    ("9", "carry cocycle", crit09_carry, 5.0),
    ("10", "H2 solver vs enumeration", crit10_h2_solver, 120.0),
    ("11", "Witt cocycle", crit11_witt, 10.0),
    ("12", "deformed entropy identity", crit12_tsallis, 5.0),
    ("13", "worked three-vertex example", crit13_worked_example, 5.0),
    ("14", "DSL round-trip and SVG determinism", crit14_dsl_roundtrip, 10.0),
]


def run_all(json_output: bool = False) -> int:
    results = []
    all_ok = True
    for num, title, fn, budget in CRITERIA:
        g0, t0 = _generate_s, time.perf_counter()
        try:
            ok, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"exception: {exc!r}"
        elapsed = time.perf_counter() - t0
        seconds, generate_s = round(elapsed, 3), round(_generate_s - g0, 3)
        in_budget = elapsed < budget
        ok = ok and in_budget
        all_ok = all_ok and ok
        results.append(
            {
                "criterion": num,
                "title": title,
                "ok": ok,
                "seconds": seconds,
                "generate_s": generate_s,
                "check_s": round(seconds - generate_s, 3),
                "budget": budget,
                "detail": detail,
            }
        )
        if not json_output:
            status = "PASS" if ok else "FAIL"
            print(f"{status} criterion {num:>2} ({elapsed:6.2f}s < {budget:g}s): {title} -- {detail}")
    if json_output:
        print(json.dumps({"ok": all_ok, "results": results}, indent=2))
    return 0 if all_ok else 1


if __name__ == "__main__":
    raise SystemExit(run_all())
