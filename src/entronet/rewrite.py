"""Local diagram moves as invariant-preserving rewrites, plus normalization.

Each rule matches a short window of layers at one strand position and
replaces it by an equivalent window: boundary and evaluation are preserved
exactly (asserted in debug runs).  Normalization does not search this rule
set; the canonical form is computed directly from the boundary and the
evaluation, which determine the morphism.  The rules exist to be tested.
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
    xplus,
)


class RuleNotApplicable(Exception):
    pass


@dataclass(frozen=True)
class RewriteRule:
    name: str
    matcher: Callable[[Diagram, int], bool]
    transform: Callable[[Diagram, int], Diagram]


def _layers(d: Diagram, at: int, count: int):
    if at < 0 or at + count > len(d.layers):
        return None
    return d.layers[at : at + count]


def _splice(d: Diagram, at: int, count: int, replacement: tuple[Layer, ...]) -> Diagram:
    layers = d.layers[:at] + replacement + d.layers[at + count :]
    return Diagram(d.source, layers, d.mode)


def _window_rule(name: str, count: int, match_fn, replace_fn) -> RewriteRule:
    def matcher(d: Diagram, at: int) -> bool:
        window = _layers(d, at, count)
        return window is not None and match_fn(window)

    def transform(d: Diagram, at: int) -> Diagram:
        window = _layers(d, at, count)
        if window is None or not match_fn(window):
            raise RuleNotApplicable(f"{name} does not match at layer {at}")
        return _splice(d, at, count, replace_fn(window))

    return RewriteRule(name, matcher, transform)


# -- additive rules ---------------------------------------------------------


merge_assoc = _window_rule(
    "merge_assoc",
    2,
    lambda w: (
        isinstance(w[0][0], AddMerge)
        and isinstance(w[1][0], AddMerge)
        and w[0][1] == w[1][1]
        and w[1][0].a == w[0][0].a + w[0][0].b
    ),
    lambda w: (
        (AddMerge(w[0][0].b, w[1][0].b), w[0][1] + 1),
        (AddMerge(w[0][0].a, w[0][0].b + w[1][0].b), w[0][1]),
    ),
)

split_assoc = _window_rule(
    "split_assoc",
    2,
    lambda w: (
        isinstance(w[0][0], AddSplit)
        and isinstance(w[1][0], AddSplit)
        and w[1][1] == w[0][1] + 1
        and w[1][0].a + w[1][0].b == w[0][0].b
    ),
    lambda w: (
        (AddSplit(w[0][0].a + w[1][0].a, w[1][0].b), w[0][1]),
        (AddSplit(w[0][0].a, w[1][0].a), w[0][1]),
    ),
)

cancel_merge_split = _window_rule(
    "cancel_merge_split",
    2,
    lambda w: (
        isinstance(w[0][0], AddMerge)
        and isinstance(w[1][0], AddSplit)
        and w[0][1] == w[1][1]
        and (w[0][0].a, w[0][0].b) == (w[1][0].a, w[1][0].b)
    ),
    lambda w: (),
)

cancel_split_merge = _window_rule(
    "cancel_split_merge",
    2,
    lambda w: (
        isinstance(w[0][0], AddSplit)
        and isinstance(w[1][0], AddMerge)
        and w[0][1] == w[1][1]
        and (w[0][0].a, w[0][0].b) == (w[1][0].a, w[1][0].b)
    ),
    lambda w: (),
)

cross_as_merge_split = _window_rule(
    "cross_as_merge_split",
    1,
    lambda w: (
        isinstance(w[0][0], AddCross)
        and w[0][0].first.kind is Kind.XP
        and w[0][0].second.kind is Kind.XP
    ),
    lambda w: (
        (AddMerge(w[0][0].first.weight, w[0][0].second.weight), w[0][1]),
        (AddSplit(w[0][0].second.weight, w[0][0].first.weight), w[0][1]),
    ),
)

cross_pull_apart = _window_rule(
    "cross_pull_apart",
    2,
    lambda w: (
        isinstance(w[0][0], AddCross)
        and isinstance(w[1][0], AddCross)
        and w[0][1] == w[1][1]
        and w[1][0].first == w[0][0].second
        and w[1][0].second == w[0][0].first
    ),
    lambda w: (),
)

curl_remove = _window_rule(
    "curl_remove",
    3,
    lambda w: (
        isinstance(w[0][0], CupX)
        and isinstance(w[1][0], AddCross)
        and isinstance(w[2][0], CapX)
        and w[0][0].plus_on_left
        and w[2][0].plus_on_left
        and w[0][0].a == w[2][0].a
        and w[1][1] == w[0][1] - 1
        and w[2][1] == w[0][1]
        and w[1][0].first == xplus(w[0][0].a)
        and w[1][0].second == xplus(w[0][0].a)
    ),
    lambda w: (),
)

additive_skein = _window_rule(
    "additive_skein",
    2,
    lambda w: (
        isinstance(w[0][0], AddMerge)
        and isinstance(w[1][0], AddSplit)
        and w[0][1] == w[1][1]
        and w[0][0].a + w[0][0].b == w[1][0].a + w[1][0].b
        and (w[0][0].a, w[0][0].b) != (w[1][0].a, w[1][0].b)
    ),
    lambda w: (
        (AddSplit(w[1][0].a - w[0][0].a, w[1][0].b), w[0][1] + 1),
        (AddMerge(w[0][0].a, w[1][0].a - w[0][0].a), w[0][1]),
    ),
)

zero_circle = _window_rule(
    "zero_circle",
    2,
    lambda w: (
        isinstance(w[0][0], CupX)
        and isinstance(w[1][0], CapX)
        and w[0][0] == CupX(Fraction(0), w[0][0].plus_on_left)
        and w[1][0] == CapX(Fraction(0), w[0][0].plus_on_left)
        and w[0][1] == w[1][1]
    ),
    lambda w: (),
)

# -- multiplicative rules ---------------------------------------------------

mult_assoc = _window_rule(
    "mult_assoc",
    2,
    lambda w: (
        isinstance(w[0][0], MultMerge)
        and isinstance(w[1][0], MultMerge)
        and w[0][1] == w[1][1]
        and w[1][0].c1 == w[0][0].c1 * w[0][0].c2
    ),
    lambda w: (
        (MultMerge(w[0][0].c2, w[1][0].c2), w[0][1] + 1),
        (MultMerge(w[0][0].c1, w[0][0].c2 * w[1][0].c2), w[0][1]),
    ),
)

mult_cancel = _window_rule(
    "mult_cancel",
    2,
    lambda w: (
        isinstance(w[0][0], MultMerge)
        and isinstance(w[1][0], MultSplit)
        and w[0][1] == w[1][1]
        and (w[0][0].c1, w[0][0].c2) == (w[1][0].c1, w[1][0].c2)
    ),
    lambda w: (),
)

unit_circle = _window_rule(
    "unit_circle",
    2,
    lambda w: (
        isinstance(w[0][0], CupY)
        and isinstance(w[1][0], CapY)
        and w[0][0].c == 1
        and w[1][0].c == 1
        and w[0][0].plus_on_left == w[1][0].plus_on_left
        and w[0][1] == w[1][1]
    ),
    lambda w: (),
)

mult_through_merge = _window_rule(
    "mult_through_merge",
    3,
    lambda w: (
        isinstance(w[0][0], XYCross)
        and isinstance(w[1][0], XYCross)
        and isinstance(w[2][0], AddMerge)
        and w[1][1] == w[0][1] + 1
        and w[2][1] == w[0][1]
        and w[1][0].y == w[0][0].y
        and w[0][0].x.kind is Kind.XP
        and w[1][0].x.kind is Kind.XP
        and w[2][0].a == w[0][0].cod()[0].weight
        and w[2][0].b == w[1][0].cod()[0].weight
    ),
    lambda w: (
        (AddMerge(w[0][0].x.weight, w[1][0].x.weight), w[0][1] + 1),
        (XYCross(w[0][0].y, xplus(w[0][0].x.weight + w[1][0].x.weight)), w[0][1]),
    ),
)

cross_past_coorient_rev = _window_rule(
    "cross_past_coorient_rev",
    2,
    lambda w: (
        isinstance(w[0][0], XYCross)
        and isinstance(w[1][0], CoorientRev)
        and w[1][1] == w[0][1] + 1
        and w[1][0].dom()[0] == w[0][0].y
    ),
    lambda w: (
        (w[1][0], w[0][1]),
        (XYCross(w[1][0].cod()[0], w[0][0].x), w[0][1]),
    ),
)


def _arity(gen) -> tuple[int, int]:
    dom, cod = af.boundary(gen)
    return len(dom), len(cod)


def _exchange_matcher(d: Diagram, at: int) -> bool:
    window = _layers(d, at, 2)
    if window is None:
        return False
    (g1, p1), (g2, p2) = window
    # g2 lies right of g1's codomain, or wholly left of g1
    return p2 >= p1 + _arity(g1)[1] or p2 + _arity(g2)[0] <= p1


def _exchange_transform(d: Diagram, at: int) -> Diagram:
    window = _layers(d, at, 2)
    if window is None or not _exchange_matcher(d, at):
        raise RuleNotApplicable(f"exchange_disjoint does not match at layer {at}")
    (g1, p1), (g2, p2) = window
    n1, m1 = _arity(g1)
    n2, m2 = _arity(g2)
    delta1, delta2 = m1 - n1, m2 - n2
    if p2 >= p1 + m1:
        # g2 acts right of g1: shift it back below, shift g1 not at all
        new = ((g2, p2 - delta1), (g1, p1))
    else:
        # g2 acts strictly left of g1
        new = ((g2, p2), (g1, p1 + delta2))
    return _splice(d, at, 2, new)


exchange_disjoint = RewriteRule("exchange_disjoint", _exchange_matcher, _exchange_transform)


CATALOG: tuple[RewriteRule, ...] = (
    merge_assoc,
    split_assoc,
    cancel_merge_split,
    cancel_split_merge,
    cross_as_merge_split,
    cross_pull_apart,
    curl_remove,
    additive_skein,
    zero_circle,
    mult_assoc,
    mult_cancel,
    unit_circle,
    mult_through_merge,
    cross_past_coorient_rev,
    exchange_disjoint,
)

RULES = {rule.name: rule for rule in CATALOG}


def apply(d: Diagram, rule: RewriteRule, at: int) -> Diagram:
    """Apply a rule at a layer index; boundary and evaluation are preserved."""
    if not rule.matcher(d, at):
        raise RuleNotApplicable(f"{rule.name} does not match at layer {at}")
    out = rule.transform(d, at)
    if __debug__:
        assert af.validate(out) == af.validate(d), rule.name
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
    cur = list(obj)

    def emit(gen: af.Generator, pos: int) -> None:
        nonlocal cur
        layers.append((gen, pos))
        cur = list(af.apply_layer(tuple(cur), gen, pos))

    # 1: bubble additive points left across multiplicative ones.
    changed = True
    while changed:
        changed = False
        for i in range(len(cur) - 1):
            if cur[i].kind.multiplicative and cur[i + 1].kind.additive:
                emit(XYCross(cur[i], cur[i + 1]), i)
                changed = True
                break

    # 2: reverse downward additive points.
    i = 0
    while i < len(cur):
        if cur[i].kind is Kind.XM:
            for gen, pos in _kill_xminus(i, cur[i].weight):
                emit(gen, pos)
        i += 1

    # 3: ensure at least one additive point, then left-fold.
    if not cur or cur[0].kind.multiplicative:
        emit(CupX(Fraction(0), True), 0)
        for gen, pos in _kill_xminus(1, Fraction(0)):
            emit(gen, pos)
        emit(AddMerge(Fraction(0), Fraction(0)), 0)
    n_add = sum(1 for pt in cur if pt.kind.additive)
    while n_add > 1:
        emit(AddMerge(cur[0].weight, cur[1].weight), 0)
        n_add -= 1

    # 4: reverse right co-orientations.
    i = 0
    while i < len(cur):
        if cur[i].kind is Kind.YM:
            emit(CoorientRev(cur[i].weight, False), i)
        i += 1

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
    the target; a single dot in the leftmost middle gap carries whatever the
    skeleton misses (always present outside the dotless J mode's needs: it is
    emitted whenever the diagram's mode supports dots, i.e. always).
    """
    src = tuple(d.source)
    tgt = af.validate(d)
    down = reduction_layers(src)
    up = af.inverse_layers(reduction_layers(tgt))
    skeleton = Diagram(src, down + up, d.mode)
    label = af.j_invariant(d) - af.j_invariant(skeleton)
    return Diagram(src, down + ((Dot(label), 0),) + up, d.mode)
