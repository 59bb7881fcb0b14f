"""Seeded random generators for diagrams, objects, and scalars.

Used by the property suite and the self test.  The seed comes from the
ENTRONET_SEED environment variable when set, so runs are reproducible.

`random_diagram` draws lazily.  At each step it makes the same draws, in the
same order, as if it built every applicable move: one rational (two integers)
per split and cup, and the cups' gap and orientations.  It keeps each move as
a builder and its raw arguments, and builds only the move it picks, so a seed
gives the same diagrams as eager building would.  `random_closed_gdiagram`
draws its growing moves the same way.

A draw costs its bits.  The diagram and network generators draw integers with
`_below`, CPython's own rejection loop behind `randint`, `randrange` and
`choice` (`Random._randbelow`), without their argument handling: the same
bits in the same order, so a seed gives the same stream as those calls.  The
streams depend on that loop, as the hashes in tests/test_pins.py already do.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable

from . import affine as af
from . import dsl, rewrite
from .groupnet.cohomology import Cocycle2, coboundary2
from .groupnet.diagrams import (
    GCapLR,
    GCapRL,
    GCupLR,
    GCupRL,
    GDiagram,
    GDot,
    GFlip,
    GPt,
    T2MergeLL,
    T2MergeRR,
    T2SplitLL,
    T2SplitRR,
    VMergeL,
    VMergeR,
    VSplitL,
    VSplitR,
    calculus,
)
from .groupnet.groups import GModule, Group
from .jspace import EntropyScalar, PrimeVector, symbol

DEFAULT_SEED = 20240801


def seeded_rng(offset: int = 0) -> random.Random:
    seed = int(os.environ.get("ENTRONET_SEED", DEFAULT_SEED))
    return random.Random(seed + offset)


def _below(getrandbits: Callable[[int], int], n: int) -> int:
    """rng.randrange(n), given rng.getrandbits: k = n.bit_length() bits, drawn
    again while they read n or more.  randint(a, b) is a + _below(., b - a + 1)
    and choice(seq) is seq[_below(., len(seq))], bit for bit."""
    if n <= 0:
        raise ValueError(f"empty range below {n}")
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _draw_rational(rng: random.Random, max_num: int, nonzero: bool = False) -> tuple[int, int]:
    """The numerator and denominator random_rational draws, before any Fraction:
    randint(-max_num, max_num), then randint(1, max_num)."""
    bits = rng.getrandbits
    while True:
        n, d = _below(bits, 2 * max_num + 1) - max_num, _below(bits, max_num) + 1
        if n != 0 or not nonzero:
            return n, d


def random_rational(rng: random.Random, max_num: int = 30, nonzero: bool = False) -> Fraction:
    return Fraction(*_draw_rational(rng, max_num, nonzero))


def random_distribution(rng: random.Random, n: int, max_num: int = 12) -> list[Fraction]:
    """A positive rational probability vector of length n."""
    ws = [Fraction(rng.randint(1, max_num), rng.randint(1, max_num)) for _ in range(n)]
    total = sum(ws)
    return [w / total for w in ws]


def random_object(rng: random.Random, max_points: int = 5, max_num: int = 9) -> af.Obj:
    pts = []
    bits = rng.getrandbits
    for _ in range(_below(bits, max_points + 1)):
        kind = "xXyY"[_below(bits, 4)]
        if kind == "x":
            pts.append(af.xplus(random_rational(rng, max_num)))
        elif kind == "X":
            pts.append(af.xminus(random_rational(rng, max_num)))
        elif kind == "y":
            pts.append(af.yplus(random_rational(rng, max_num, nonzero=True)))
        else:
            pts.append(af.yminus(random_rational(rng, max_num, nonzero=True)))
    return tuple(pts)


def _split(cls, n: int, d: int, w: Fraction) -> af.Generator:
    a = Fraction(n, d)
    return cls(a, w - a)


def _mult_split(cls, n: int, d: int, w: Fraction) -> af.Generator:
    c = Fraction(n, d)
    return cls(c, w / c)


def _cup(cls, n: int, d: int, plus_on_left: bool) -> af.Generator:
    return cls(Fraction(n, d), plus_on_left)


def _applicable_generators(
    rng: random.Random, obj: af.Obj, max_num: int
) -> list[tuple[Callable[..., af.Generator], tuple, int, int]]:
    """All single-layer moves applicable to obj (one random parameter choice each),
    each as (build, args, position, growth): build(*args) is the generator and
    growth is len(cod) - len(dom)."""
    out: list[tuple[Callable[..., af.Generator], tuple, int, int]] = []
    K = af.Kind
    for i, pt in enumerate(obj):
        kind, w = pt.kind, pt.weight
        if kind.additive:
            split = af.AddSplit if kind is K.XP else af.AddSplitDual
            n, d = _draw_rational(rng, max_num)
            out.append((_split, (split, n, d, w), i, 1))
        else:
            split = af.MultSplit if kind is K.YP else af.MultSplitDual
            n, d = _draw_rational(rng, max_num, nonzero=True)
            out.append((_mult_split, (split, n, d, w), i, 1))
            out.append((af.CoorientRev, (w, kind is K.YP), i, 0))
    for i in range(len(obj) - 1):
        p, q = obj[i], obj[i + 1]
        kp, kq = p.kind, q.kind
        if kp.additive:
            if kp is kq:
                if kp is K.XP:
                    out.append((af.AddMerge, (p.weight, q.weight), i, -1))
                else:
                    out.append((af.AddMergeDual, (q.weight, p.weight), i, -1))
            if kq.additive:
                out.append((af.AddCross, (p, q), i, 0))
        elif kq.additive:
            out.append((af.XYCross, (p, q), i, 0))
        elif kp is kq:
            merge = af.MultMerge if kp is K.YP else af.MultMergeDual
            out.append((merge, (p.weight, q.weight), i, -1))
        # a cap: the two orientations of one kind of line, of equal weight
        if kp is not kq and kp.additive is kq.additive and p.weight == q.weight:
            cap = af.CapX if kp.additive else af.CapY
            out.append((cap, (p.weight, kp is K.XP or kp is K.YP), i, -2))
    gap = _below(rng.getrandbits, len(obj) + 1)
    n, d = _draw_rational(rng, max_num)
    out.append((_cup, (af.CupX, n, d, rng.random() < 0.5), gap, 2))
    n, d = _draw_rational(rng, max_num, nonzero=True)
    out.append((_cup, (af.CupY, n, d, rng.random() < 0.5), gap, 2))
    return out


def random_dot_payload(rng: random.Random, mode: str):
    if mode == af.MODE_J:
        v = PrimeVector()
        for _ in range(_below(rng.getrandbits, 3)):
            v = v + symbol(random_rational(rng, 9), random_rational(rng, 9)).scaled(
                random_rational(rng, 5)
            )
        return v
    if mode == af.MODE_H:
        v = PrimeVector()
        for _ in range(_below(rng.getrandbits, 3)):
            v = v + symbol(random_rational(rng, 9), random_rational(rng, 9))
        return EntropyScalar(random_rational(rng, 9), v)
    return rng.uniform(-2.0, 2.0)


def random_diagram(
    rng: random.Random,
    mode: str = af.MODE_J,
    max_strands: int = 12,
    max_layers: int = 25,
    max_dots: int = 3,
    max_num: int = 9,
) -> af.Diagram:
    """A random valid diagram built by applying applicable moves in turn."""
    obj = random_object(rng, max_points=min(5, max_strands), max_num=max_num)
    layers: list[af.Layer] = []
    dots = 0
    bits = rng.getrandbits
    n_layers = _below(bits, max_layers + 1)
    cur = obj
    for _ in range(n_layers):
        if dots < max_dots and rng.random() < 0.12:
            gap = _below(bits, len(cur) + 1)
            layers.append((af.Dot(random_dot_payload(rng, mode)), gap))
            dots += 1
            continue
        room = max_strands - len(cur)
        options = [
            (build, args, pos)
            for build, args, pos, growth in _applicable_generators(rng, cur, max_num)
            if growth <= room
        ]
        if not options:
            break
        build, args, pos = options[_below(bits, len(options))]
        gen = build(*args)
        layers.append((gen, pos))
        cur = af.apply_layer(cur, gen, pos)
    return af.Diagram(obj, tuple(layers), mode)


# ---------------------------------------------------------------------------
# Group networks.


def random_gmodule(rng: random.Random, group: Group) -> GModule:
    """A cyclic module Z/m over the group, m from 2 to 6, with trivial action."""
    m = rng.choice([2, 3, 4, 5, 6])
    return GModule.trivial(group, (m,))


def random_normalized_cocycle(rng: random.Random, module: GModule) -> Cocycle2:
    """The coboundary of a random cochain that is zero at the identity: a
    normalized two-cocycle in the trivial class."""
    G = module.group
    b = [module.zero()] + [
        module.reduce(tuple(rng.randrange(m) for m in module.moduli))
        for _ in range(G.order - 1)
    ]
    return coboundary2(module, b)


def random_closed_gdiagram(
    rng: random.Random,
    group: Group,
    grow_layers: int = 8,
    module: GModule | None = None,
) -> GDiagram:
    """A random closed diagram: grow from the empty object, then close up.
    Dots, labelled in `module`, are drawn only when a module is given."""
    G = group
    apply = calculus(G).apply
    table, inverse, order = G.table, G.inverse, G.order
    bits = rng.getrandbits
    layers: list = []
    cur: tuple[GPt, ...] = ()

    def emit(gen, pos):
        nonlocal cur
        layers.append((gen, pos))
        cur = apply(cur, gen, pos)

    for _ in range(grow_layers):
        # each move as (build, args, position); only the chosen one is built
        choices = []
        g = _below(bits, order)
        gap = _below(bits, len(cur) + 1)
        choices.append((GCupLR, (g,), gap))
        choices.append((GCupRL, (g,), gap))
        if module is not None and rng.random() < 0.3:
            u = module.reduce(tuple(_below(bits, m) for m in module.moduli))
            choices.append((GDot, (u,), gap))
        for i, pt in enumerate(cur):
            choices.append((GFlip, (pt.g, pt.left), i))
            g_inv = inverse[pt.g]
            if pt.left:
                s = _below(bits, order)
                t = table[inverse[s]][pt.g]
                choices.append((VSplitL, (s, t), i))
                s2 = _below(bits, order)
                t2 = table[inverse[s2]][g_inv]  # t*s = g^-1
                choices.append((T2SplitRR, (t2, s2), i))
            else:
                s = _below(bits, order)
                t = table[pt.g][inverse[s]]
                choices.append((VSplitR, (s, t), i))
                s2 = _below(bits, order)
                t2 = table[inverse[s2]][g_inv]  # s*t = g^-1
                choices.append((T2SplitLL, (s2, t2), i))
        for i in range(len(cur) - 1):
            p, q = cur[i], cur[i + 1]
            if p.left and q.left:
                choices.append((VMergeL, (p.g, q.g), i))
                choices.append((T2MergeLL, (p.g, q.g), i))
            if not p.left and not q.left:
                choices.append((VMergeR, (p.g, q.g), i))
                choices.append((T2MergeRR, (p.g, q.g), i))
            if p.g == q.g and p.left and not q.left:
                choices.append((GCapLR, (p.g,), i))
            if p.g == q.g and not p.left and q.left:
                choices.append((GCapRL, (p.g,), i))
        build, args, pos = choices[_below(bits, len(choices))]
        emit(build(*args), pos)

    # close: flip everything left-co-oriented, merge down to one strand, kill it
    while len(cur) > 1:
        i = _below(bits, len(cur) - 1)
        p, q = cur[i], cur[i + 1]
        if not p.left:
            emit(GFlip(p.g, False), i)
            continue
        if not q.left:
            emit(GFlip(q.g, False), i + 1)
            continue
        emit(VMergeL(p.g, q.g), i)
    if cur:
        pt = cur[0]
        if not pt.left:
            emit(GFlip(pt.g, False), 0)
            pt = cur[0]
        # total winding of a closed-up single strand is the identity
        emit(GCupLR(0), 1)
        emit(VMergeL(pt.g, 0), 0)
        emit(GCapLR(0), 0)
    return GDiagram(G, (), tuple(layers))


# ---------------------------------------------------------------------------
# Random syntax trees (round-trip testing).


# Written arguments of each kind in the DSL layer tables.
_ARG_DRAWS = {
    dsl.RATIONAL: lambda rng: (random_rational(rng, 9),),
    dsl.NONZERO: lambda rng: (random_rational(rng, 9, nonzero=True),),
    dsl.SIGN: lambda rng: (rng.choice("+-"),),
    dsl.ELEMENT: lambda rng: (rng.randint(0, 7),),
    dsl.ENTRIES: lambda rng: tuple(rng.randint(0, 7) for _ in range(rng.randint(1, 2))),
}


def _random_layer_spec(rng: random.Random, table: dict, mode: str):
    """A layer of a random name from the table, its arguments drawn by kind."""
    name = rng.choice(tuple(table))
    rule = table[name]
    args = tuple(a for kind in rule.args for a in _ARG_DRAWS[kind](rng))
    payload = random_dot_payload(rng, mode) if rule.build is af.Dot else None
    return dsl.LayerSpec(name, args, rng.randint(0, 9), payload)


def _random_gpoints(rng: random.Random, max_order: int):
    return tuple(
        dsl.GPointSpec(rng.randrange(max_order), rng.random() < 0.5)
        for _ in range(rng.randint(0, 4))
    )


def random_source(rng: random.Random):
    """A random well-formed syntax tree (not necessarily resolvable)."""
    decls = []
    mode = af.MODE_J
    n = rng.randint(1, 7)
    for k in range(n):
        kind = rng.choice(("object", "diagram", "group", "module", "cocycle", "gdiagram"))
        name = f"n{k}"
        if kind == "object":
            points = []
            for _ in range(rng.randint(0, 5)):
                pk = rng.choice(("X+", "X-", "Y+", "Y-"))
                w = random_rational(rng, 9, nonzero=pk.startswith("Y"))
                points.append(dsl.PointSpec(pk, w))
            decls.append(dsl.ObjectDecl(name, tuple(points)))
        elif kind == "diagram":
            mode = rng.choice(af.MODES)
            layers = tuple(
                _random_layer_spec(rng, dsl.AFFINE_LAYERS, mode) for _ in range(rng.randint(0, 6))
            )
            decls.append(dsl.DiagramDecl(name, f"s{k}", f"t{k}", layers, mode))
        elif kind == "group":
            ctor = rng.choice(("cyclic", "aff1modp", "table", "product"))
            if ctor == "cyclic":
                args: tuple = (rng.randint(1, 9),)
            elif ctor == "aff1modp":
                args = (rng.choice((2, 3, 5)),)
            elif ctor == "product":
                args = (f"a{k}", f"b{k}")
            else:
                m = rng.randint(1, 3)
                args = (tuple(tuple(rng.randint(0, 5) for _ in range(m)) for _ in range(m)),)
            decls.append(dsl.GroupDecl(name, ctor, args))
        elif kind == "module":
            moduli = tuple(rng.randint(1, 8) for _ in range(rng.randint(1, 2)))
            action = None
            if rng.random() < 0.4:
                r = len(moduli)
                action = tuple(
                    sorted(
                        (g, tuple(tuple(rng.randint(0, 5) for _ in range(r)) for _ in range(r)))
                        for g in range(rng.randint(1, 3))
                    )
                )
            decls.append(dsl.ModuleDecl(name, f"g{k}", moduli, action))
        elif kind == "cocycle":
            degree = rng.choice((1, 2))
            r = rng.randint(1, 2)
            entries = []
            for _ in range(rng.randint(0, 4)):
                u = tuple(rng.randint(0, 9) for _ in range(r))
                if degree == 2:
                    entries.append(((rng.randint(0, 5), rng.randint(0, 5)), u))
                else:
                    entries.append((rng.randint(0, 5), u))
            entries = sorted(set(entries), key=lambda e: e[0])
            dedup = []
            seen = set()
            for key, u in entries:
                if key not in seen:
                    seen.add(key)
                    dedup.append((key, u))
            decls.append(dsl.CocycleDecl(degree, name, f"g{k}", f"u{k}", tuple(dedup)))
        else:
            layers = tuple(
                _random_layer_spec(rng, dsl.GROUP_LAYERS, mode) for _ in range(rng.randint(0, 5))
            )
            decls.append(
                dsl.GDiagramDecl(
                    name, f"g{k}", _random_gpoints(rng, 8), _random_gpoints(rng, 8), layers
                )
            )
    return dsl.SourceFile(tuple(decls), mode)


# ---------------------------------------------------------------------------
# Constructive rewrite sites: a diagram containing a given rule's pattern,
# placed in a random context (so windings vary), with the site at layer 0.


def random_rule_site(rng: random.Random, rule_name: str, max_num: int = 7):
    """(diagram, 0): the rule's pattern on drawn params, between random strands."""
    left = random_object(rng, max_points=3, max_num=max_num)
    right = random_object(rng, max_points=2, max_num=max_num)
    rule = rewrite.RULES.get(rule_name)
    if rule is None:
        raise ValueError(f"unknown rule {rule_name!r}")
    params = rule.draw(
        SimpleNamespace(
            rational=lambda: random_rational(rng, max_num),
            nonzero=lambda: random_rational(rng, max_num, nonzero=True),
            coin=lambda: rng.random() < 0.5,
            points=lambda: random_object(rng, max_points=2, max_num=max_num),
        )
    )
    src = left + rule.domain(*params) + right
    return af.Diagram(src, rule.lhs(len(left), *params), af.MODE_J), 0
