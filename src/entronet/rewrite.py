"""Local diagram moves as invariant-preserving rewrites, plus normalization.

Each rule matches a short window of layers at one strand position and
replaces it by an equivalent window: boundary and evaluation are preserved
exactly (asserted in debug runs).  Each rule is one row of `CATALOG`, and
`sampling.random_rule_site` builds its test sites from the same rows.
Normalization does not search this rule set; the canonical form is computed
directly from the boundary and the evaluation, which determine the morphism.
The rules exist to be tested.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import affine as af
from .affine import (
    AddCross,
    AddMerge,
    AddMergeDual,
    AddSplit,
    CapX,
    CapY,
    CoorientRev,
    CupX,
    CupY,
    Diagram,
    Dot,
    Kind,
    Layer,
    MultMerge,
    MultSplit,
    XYCross,
    xminus,
    xplus,
    yminus,
    yplus,
)


class RuleNotApplicable(Exception):
    pass


def _always(*params) -> bool:
    return True


@dataclass(frozen=True)
class RewriteRule:
    """One local move, declared once as a row.

    `classes` are the window's generator classes, layer by layer (None stands
    for any generator).  `read(window)` returns the window's base strand
    position p and its params; `lhs(p, *params)` rebuilds the pattern,
    `rhs(p, *params)` is its replacement and `guard(*params)` any condition
    the pattern cannot state.  A window matches when its classes agree, the
    pattern rebuilt from what `read` found equals the window, and the guard
    holds: the pattern is the one statement of what the rule matches.

    A constructed site takes its params from `draw(rand)`, where rand offers
    rational(), nonzero(), coin() and points() (see
    `sampling.random_rule_site`), and puts `lhs(p, *params)` on the strands
    `domain(*params)`, which begin at p.
    """

    name: str
    classes: tuple[type | None, ...]
    read: Callable[[tuple[Layer, ...]], tuple[int, tuple]]
    lhs: Callable[..., tuple[Layer, ...]]
    rhs: Callable[..., tuple[Layer, ...]]
    domain: Callable[..., af.Obj]
    draw: Callable[..., tuple]
    guard: Callable[..., bool] = _always

    def matcher(self, d: Diagram, at: int) -> bool:
        layers, classes = d.layers, self.classes
        end = at + len(classes)
        if at < 0 or end > len(layers):
            return False
        # the classes first: most windows fail here, before any slice or read
        i = at
        for cls in classes:
            if type(layers[i][0]) is not cls and cls is not None:
                return False
            i += 1
        window = layers[at:end]
        p, params = self.read(window)
        return self.lhs(p, *params) == window and self.guard(*params)


def _removed(p, *params) -> tuple[Layer, ...]:
    return ()


def _x_point(rand) -> af.Pt:
    """An additive point of a random orientation (the coin, then the weight)."""
    return (xplus if rand.coin() else xminus)(rand.rational())


def _y_point(rand, c: Fraction) -> af.Pt:
    return (yplus if rand.coin() else yminus)(c)


def _skein_draw(rand) -> tuple[Fraction, Fraction, Fraction]:
    a1, a2 = rand.rational(), rand.rational()
    b = rand.rational()
    while b == a1:
        b = rand.rational()
    return a1, a2, b


def _through_merge(p: int, y: af.Pt, a: Fraction, b: Fraction) -> tuple[Layer, ...]:
    first, second = XYCross(y, xplus(a)), XYCross(y, xplus(b))
    merge = AddMerge(first.cod()[0].weight, second.cod()[0].weight)
    return ((first, p), (second, p + 1), (merge, p))


def _reversal(y: af.Pt) -> CoorientRev:
    """The co-orientation reversal whose domain is y."""
    return CoorientRev(y.weight, y.kind is Kind.YP)


def _reversal_first(p: int, y: af.Pt, x: af.Pt) -> tuple[Layer, ...]:
    rev = _reversal(y)
    return ((rev, p), (XYCross(rev.cod()[0], x), p))


def _arity(gen) -> tuple[int, int]:
    dom, cod = af.boundary(gen)
    return len(dom), len(cod)


def _disjoint(g1, g2, offset: int) -> bool:
    # g2 lies right of g1's codomain, or wholly left of g1
    return offset >= _arity(g1)[1] or offset + _arity(g2)[0] <= 0


def _exchange(p: int, g1, g2, offset: int) -> tuple[Layer, ...]:
    n1, m1 = _arity(g1)
    n2, m2 = _arity(g2)
    if offset >= m1:
        # g2 acts right of g1: shift it back below, shift g1 not at all
        return ((g2, p + offset - (m1 - n1)), (g1, p))
    # g2 acts strictly left of g1
    return ((g2, p + offset), (g1, p + m2 - n2))


def _exchange_draw(rand) -> tuple:
    a, b, c = rand.rational(), rand.rational(), rand.nonzero()
    mid = rand.points()
    return AddMerge(a, b), CoorientRev(c, True), 1 + len(mid), mid


CATALOG: tuple[RewriteRule, ...] = (
    # -- additive rules
    RewriteRule(
        "merge_assoc",
        (AddMerge, AddMerge),
        read=lambda w: (w[0][1], (w[0][0].a, w[0][0].b, w[1][0].b)),
        lhs=lambda p, a, b, c: ((AddMerge(a, b), p), (AddMerge(a + b, c), p)),
        rhs=lambda p, a, b, c: ((AddMerge(b, c), p + 1), (AddMerge(a, b + c), p)),
        domain=lambda a, b, c: (xplus(a), xplus(b), xplus(c)),
        draw=lambda rand: (rand.rational(), rand.rational(), rand.rational()),
    ),
    RewriteRule(
        "split_assoc",
        (AddSplit, AddSplit),
        read=lambda w: (w[0][1], (w[0][0].a, w[1][0].a, w[1][0].b)),
        lhs=lambda p, a, b, c: ((AddSplit(a, b + c), p), (AddSplit(b, c), p + 1)),
        rhs=lambda p, a, b, c: ((AddSplit(a + b, c), p), (AddSplit(a, b), p)),
        domain=lambda a, b, c: (xplus(a + b + c),),
        draw=lambda rand: (rand.rational(), rand.rational(), rand.rational()),
    ),
    RewriteRule(
        "cancel_merge_split",
        (AddMerge, AddSplit),
        read=lambda w: (w[0][1], (w[0][0].a, w[0][0].b)),
        lhs=lambda p, a, b: ((AddMerge(a, b), p), (AddSplit(a, b), p)),
        rhs=_removed,
        domain=lambda a, b: (xplus(a), xplus(b)),
        draw=lambda rand: (rand.rational(), rand.rational()),
    ),
    RewriteRule(
        "cancel_split_merge",
        (AddSplit, AddMerge),
        read=lambda w: (w[0][1], (w[0][0].a, w[0][0].b)),
        lhs=lambda p, a, b: ((AddSplit(a, b), p), (AddMerge(a, b), p)),
        rhs=_removed,
        domain=lambda a, b: (xplus(a + b),),
        draw=lambda rand: (rand.rational(), rand.rational()),
    ),
    RewriteRule(
        "cross_as_merge_split",
        (AddCross,),
        read=lambda w: (w[0][1], (w[0][0].first.weight, w[0][0].second.weight)),
        lhs=lambda p, a, b: ((AddCross(xplus(a), xplus(b)), p),),
        rhs=lambda p, a, b: ((AddMerge(a, b), p), (AddSplit(b, a), p)),
        domain=lambda a, b: (xplus(a), xplus(b)),
        draw=lambda rand: (rand.rational(), rand.rational()),
    ),
    RewriteRule(
        "cross_pull_apart",
        (AddCross, AddCross),
        read=lambda w: (w[0][1], (w[0][0].first, w[0][0].second)),
        lhs=lambda p, x1, x2: ((AddCross(x1, x2), p), (AddCross(x2, x1), p)),
        rhs=_removed,
        domain=lambda x1, x2: (x1, x2),
        draw=lambda rand: (_x_point(rand), _x_point(rand)),
    ),
    RewriteRule(
        "curl_remove",
        (CupX, AddCross, CapX),
        read=lambda w: (w[1][1], (w[0][0].a,)),
        lhs=lambda p, a: (
            (CupX(a, True), p + 1),
            (AddCross(xplus(a), xplus(a)), p),
            (CapX(a, True), p + 1),
        ),
        rhs=_removed,
        domain=lambda a: (xplus(a),),
        draw=lambda rand: (rand.rational(),),
    ),
    RewriteRule(
        "additive_skein",
        (AddMerge, AddSplit),
        read=lambda w: (w[0][1], (w[0][0].a, w[0][0].b, w[1][0].a)),
        lhs=lambda p, a1, a2, b: ((AddMerge(a1, a2), p), (AddSplit(b, a1 + a2 - b), p)),
        rhs=lambda p, a1, a2, b: (
            (AddSplit(b - a1, a1 + a2 - b), p + 1),
            (AddMerge(a1, b - a1), p),
        ),
        # b = a1 is cancel_merge_split
        guard=lambda a1, a2, b: b != a1,
        domain=lambda a1, a2, b: (xplus(a1), xplus(a2)),
        draw=_skein_draw,
    ),
    RewriteRule(
        "zero_circle",
        (CupX, CapX),
        read=lambda w: (w[0][1], (w[0][0].plus_on_left,)),
        lhs=lambda p, on_left: ((CupX(Fraction(0), on_left), p), (CapX(Fraction(0), on_left), p)),
        rhs=_removed,
        domain=lambda on_left: (),
        draw=lambda rand: (rand.coin(),),
    ),
    # -- multiplicative rules
    RewriteRule(
        "mult_assoc",
        (MultMerge, MultMerge),
        read=lambda w: (w[0][1], (w[0][0].c1, w[0][0].c2, w[1][0].c2)),
        lhs=lambda p, c1, c2, c3: ((MultMerge(c1, c2), p), (MultMerge(c1 * c2, c3), p)),
        rhs=lambda p, c1, c2, c3: ((MultMerge(c2, c3), p + 1), (MultMerge(c1, c2 * c3), p)),
        domain=lambda c1, c2, c3: (yplus(c1), yplus(c2), yplus(c3)),
        draw=lambda rand: (rand.nonzero(), rand.nonzero(), rand.nonzero()),
    ),
    RewriteRule(
        "mult_cancel",
        (MultMerge, MultSplit),
        read=lambda w: (w[0][1], (w[0][0].c1, w[0][0].c2)),
        lhs=lambda p, c1, c2: ((MultMerge(c1, c2), p), (MultSplit(c1, c2), p)),
        rhs=_removed,
        domain=lambda c1, c2: (yplus(c1), yplus(c2)),
        draw=lambda rand: (rand.nonzero(), rand.nonzero()),
    ),
    RewriteRule(
        "unit_circle",
        (CupY, CapY),
        read=lambda w: (w[0][1], (w[0][0].plus_on_left,)),
        lhs=lambda p, on_left: ((CupY(Fraction(1), on_left), p), (CapY(Fraction(1), on_left), p)),
        rhs=_removed,
        domain=lambda on_left: (),
        draw=lambda rand: (rand.coin(),),
    ),
    RewriteRule(
        "mult_through_merge",
        (XYCross, XYCross, AddMerge),
        read=lambda w: (w[0][1], (w[0][0].y, w[0][0].x.weight, w[1][0].x.weight)),
        lhs=_through_merge,
        rhs=lambda p, y, a, b: ((AddMerge(a, b), p + 1), (XYCross(y, xplus(a + b)), p)),
        domain=lambda y, a, b: (y, xplus(a), xplus(b)),
        draw=lambda rand: (_y_point(rand, rand.nonzero()), rand.rational(), rand.rational()),
    ),
    RewriteRule(
        "cross_past_coorient_rev",
        (XYCross, CoorientRev),
        read=lambda w: (w[0][1], (w[0][0].y, w[0][0].x)),
        lhs=lambda p, y, x: ((XYCross(y, x), p), (_reversal(y), p + 1)),
        rhs=_reversal_first,
        domain=lambda y, x: (y, x),
        draw=lambda rand: (_y_point(rand, rand.nonzero()), _x_point(rand)),
    ),
    # -- any two generators on disjoint strands.  This rule matches on
    # arities, not on a pattern: the rebuilt pair always equals the window and
    # the guard decides.  A site's params add the strands `mid` between the
    # two, which no window shows.
    RewriteRule(
        "exchange_disjoint",
        (None, None),
        read=lambda w: (w[0][1], (w[0][0], w[1][0], w[1][1] - w[0][1])),
        lhs=lambda p, g1, g2, offset, mid=(): ((g1, p), (g2, p + offset)),
        rhs=_exchange,
        guard=_disjoint,
        domain=lambda g1, g2, offset, mid: g1.dom() + mid + g2.dom(),
        draw=_exchange_draw,
    ),
)

RULES = {rule.name: rule for rule in CATALOG}


def apply(d: Diagram, rule: RewriteRule, at: int) -> Diagram:
    """Apply a rule at a layer index; boundary and evaluation are preserved.

    A diagram that does not validate raises its own DiagramError, also under
    ``python -O``.
    """
    target = af.validate(d)
    if not rule.matcher(d, at):
        raise RuleNotApplicable(f"{rule.name} does not match at layer {at}")
    end = at + len(rule.classes)
    p, params = rule.read(d.layers[at:end])
    out = Diagram(d.source, d.layers[:at] + rule.rhs(p, *params) + d.layers[end:], d.mode)
    if __debug__:
        assert af.validate(out) == target, rule.name
        assert af.values_equal(d.mode, af.j_invariant(out), af.j_invariant(d)), rule.name
    return out


def applicable_sites(d: Diagram) -> list[tuple[str, int]]:
    sites = []
    for rule in CATALOG:
        for at in range(len(d.layers)):
            if rule.matcher(d, at):
                sites.append((rule.name, at))
    return sites


# ---------------------------------------------------------------------------
# Normalization.


def _kill_xminus(pos: int, b: Fraction) -> tuple[Layer, ...]:
    """Turn the X-(b) point at pos into X+(-b) (five-layer gadget)."""
    return (
        (CupX(-b, True), pos),
        (AddMergeDual(b, -b), pos + 1),
        (CupX(Fraction(0), True), pos + 1),
        (AddMergeDual(Fraction(0), Fraction(0)), pos + 2),
        (CapX(Fraction(0), True), pos + 1),
    )


def reduction_layers(obj: af.Obj) -> tuple[Layer, ...]:
    """Canonical layers taking obj to [X+(a(obj)), Y+(c(obj))].

    Stages: cross every additive point left of every multiplicative one,
    normalize additive orientations, left-fold the additive merges, reverse
    right co-orientations, then left-fold the multiplicative merges.  Missing
    additive or multiplicative parts are created with weight 0 and 1 lines.
    """
    layers: list[Layer] = []
    cur = tuple(obj)

    def emit(gen: af.Generator, pos: int) -> None:
        nonlocal cur
        layers.append((gen, pos))
        cur = af.apply_layer(cur, gen, pos)

    # 1: from left to right, each additive point crosses the multiplicative
    # points before it; the n_add additive points already passed lie left of them.
    n_add = 0
    for j in range(len(cur)):
        if cur[j].kind.additive:
            for i in range(j - 1, n_add - 1, -1):
                emit(XYCross(cur[i], cur[i + 1]), i)
            n_add += 1

    # 2: reverse downward additive points; each gadget keeps the length.
    for i in range(len(cur)):
        if cur[i].kind is Kind.XM:
            for gen, pos in _kill_xminus(i, cur[i].weight):
                emit(gen, pos)

    # 3: ensure at least one additive point, then left-fold.
    if not cur or cur[0].kind.multiplicative:
        emit(CupX(Fraction(0), True), 0)
        for gen, pos in _kill_xminus(1, Fraction(0)):
            emit(gen, pos)
        emit(AddMerge(Fraction(0), Fraction(0)), 0)
    for _ in range(sum(pt.kind.additive for pt in cur) - 1):
        emit(AddMerge(cur[0].weight, cur[1].weight), 0)

    # 4: reverse right co-orientations.
    for i in range(len(cur)):
        if cur[i].kind is Kind.YM:
            emit(CoorientRev(cur[i].weight, False), i)

    # 5: ensure at least one multiplicative point, then left-fold.
    if len(cur) == 1:
        emit(CupY(Fraction(1), True), 1)
        emit(CoorientRev(Fraction(1), False), 2)
        emit(MultMerge(Fraction(1), Fraction(1)), 1)
    while len(cur) > 2:
        emit(MultMerge(cur[1].weight, cur[2].weight), 1)

    return tuple(layers)


def normalize(d: Diagram) -> Diagram:
    """Canonical two-stage diagram with the same boundary and evaluation.

    The skeleton reduces the source to its weight object and expands back to
    the target.  A single dot in the leftmost gap between the two halves
    carries whatever the skeleton's evaluation misses.  The dot is emitted
    even when its label is zero, so every normal form has the same shape.
    """
    src = tuple(d.source)
    tgt = af.validate(d)
    down = reduction_layers(src)
    up = af.inverse_layers(reduction_layers(tgt))
    skeleton = Diagram(src, down + up, d.mode)
    label = af.j_invariant(d) - af.j_invariant(skeleton)
    return Diagram(src, down + ((Dot(label), 0),) + up, d.mode)
