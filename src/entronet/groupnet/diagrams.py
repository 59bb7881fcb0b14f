"""Sliced group-labelled networks and their twisted evaluations.

Strands carry a group element and a co-orientation side (left or right).
Windings are ordered products, leftmost strand first, with exponent +1 for
left co-orientation and -1 for right.  The evaluations:

* plain: dots only, each contributing its label twisted by its winding;
* one-cocycle twist: adds contributions from extrema whose apex
  co-orientation points up and from flip points;
* two-cocycle twist: adds contributions from trivalent vertices and from
  all extrema, with the reference gap sitting on the apex co-orientation
  side of the extremum and left of a vertex.

Vertices of the second kind (consistently rotating co-orientations) are
macros expanding to a flip point plus a vertex of the first kind; every
evaluation works on the expansion.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Union

from ..mirror import mirrored, record, signed_pairs
from ..slices import Calculus, LayerError
from .cohomology import Cocycle1, Cocycle2, is_normalized
from .groups import GModule, Group, UElt


class GDiagramError(LayerError):
    pass


@dataclass(frozen=True)
class GPt:
    """A strand end: group element index plus co-orientation side."""

    g: int
    left: bool

    def __repr__(self) -> str:
        return f"{self.g}{'L' if self.left else 'R'}"


GObj = tuple[GPt, ...]


# (g R, g L) for each g below the largest group order a boundary was built for
_POINTS: list[tuple[GPt, GPt]] = []


def _pt(G: Group, g: int, left: bool) -> GPt:
    """GPt(g, left), one shared instance for each element g of G."""
    if not 0 <= g < G.order:
        return GPt(g, left)
    if len(_POINTS) < G.order:
        _POINTS.extend((GPt(i, False), GPt(i, True)) for i in range(len(_POINTS), G.order))
    return _POINTS[g][left]


def _L(G: Group, g: int) -> GPt:
    return _pt(G, g, True)


def _R(G: Group, g: int) -> GPt:
    return _pt(G, g, False)


# -- generators -------------------------------------------------------------
# Records of group element indices (int), bool sides or a module element.
# Splits, caps and second-kind splits are the mirrors of merges, cups and
# second-kind merges: the same fields, domain and codomain swapped.


class VMergeL(record("s t")):
    """[s L, t L] -> [st L]."""

    def dom(self, G: Group) -> GObj:
        return (_L(G, self.s), _L(G, self.t))

    def cod(self, G: Group) -> GObj:
        return (_L(G, G.mul(self.s, self.t)),)


VSplitL = mirrored(VMergeL, "VSplitL", "[st L] -> [s L, t L].")


class VMergeR(record("s t")):
    """[s R, t R] -> [ts R]."""

    def dom(self, G: Group) -> GObj:
        return (_R(G, self.s), _R(G, self.t))

    def cod(self, G: Group) -> GObj:
        return (_R(G, G.mul(self.t, self.s)),)


VSplitR = mirrored(VMergeR, "VSplitR", "[ts R] -> [s R, t R].")


class GFlip(record("g from_left")):
    """Reversal mark on a strand: [g s] -> [g^-1 sbar]."""

    def dom(self, G: Group) -> GObj:
        return (_pt(G, self.g, self.from_left),)

    def cod(self, G: Group) -> GObj:
        return (_pt(G, G.inv(self.g), not self.from_left),)


class GCupLR(record("g")):
    """Outward arc from below: [] -> [g L, g R] (apex co-oriented down)."""

    def dom(self, G: Group) -> GObj:
        return ()

    def cod(self, G: Group) -> GObj:
        return (_L(G, self.g), _R(G, self.g))


class GCupRL(record("g")):
    """Inward arc from below: [] -> [g R, g L] (apex co-oriented up)."""

    def dom(self, G: Group) -> GObj:
        return ()

    def cod(self, G: Group) -> GObj:
        return (_R(G, self.g), _L(G, self.g))


GCapLR = mirrored(GCupLR, "GCapLR", "Closing arc over [g L, g R] (apex co-oriented up).")
GCapRL = mirrored(GCupRL, "GCapRL", "Closing arc over [g R, g L] (apex co-oriented down).")


class GDot(record("u")):
    """A module label floating in a gap."""

    def dom(self, G: Group) -> GObj:
        return ()

    def cod(self, G: Group) -> GObj:
        return ()


# Vertices of the second kind, as macros over a flip plus a first-kind vertex.


def _split_expand(self, G: Group):
    """The reflection of the mirror merge's expansion: a flip then a split."""
    merge, flip = self.mirror(*self).expand(G)
    return (GFlip(G.inv(flip.g), not flip.from_left), merge.mirror(*merge))


class T2MergeRR(record("s t")):
    """[s R, t R] -> [(ts)^-1 L]; expands to a right merge then a flip."""

    def dom(self, G: Group) -> GObj:
        return (_R(G, self.s), _R(G, self.t))

    def cod(self, G: Group) -> GObj:
        return (_L(G, G.inv(G.mul(self.t, self.s))),)

    def expand(self, G: Group):
        return (VMergeR(self.s, self.t), GFlip(G.mul(self.t, self.s), False))


class T2MergeLL(record("s t")):
    """[s L, t L] -> [(st)^-1 R]; expands to a left merge then a flip."""

    def dom(self, G: Group) -> GObj:
        return (_L(G, self.s), _L(G, self.t))

    def cod(self, G: Group) -> GObj:
        return (_R(G, G.inv(G.mul(self.s, self.t))),)

    def expand(self, G: Group):
        return (VMergeL(self.s, self.t), GFlip(G.mul(self.s, self.t), True))


T2SplitLL = mirrored(
    T2MergeLL, "T2SplitLL", "[(st)^-1 R] -> [s L, t L]; expands to a flip then a left split.",
    expand=_split_expand,
)
T2SplitRR = mirrored(
    T2MergeRR, "T2SplitRR", "[(ts)^-1 L] -> [s R, t R]; expands to a flip then a right split.",
    expand=_split_expand,
)


GGenerator = Union[
    VMergeL,
    VSplitL,
    VMergeR,
    VSplitR,
    GFlip,
    GCupLR,
    GCupRL,
    GCapLR,
    GCapRL,
    GDot,
    T2SplitLL,
    T2MergeRR,
    T2SplitRR,
    T2MergeLL,
]

GLayer = tuple[GGenerator, int]

_MACROS = (T2SplitLL, T2MergeRR, T2SplitRR, T2MergeLL)


def _expand(G: Group, gen: GGenerator) -> tuple[GGenerator, ...]:
    """A macro's generators, each at the macro's position, or the generator itself."""
    return gen.expand(G) if isinstance(gen, _MACROS) else (gen,)


@dataclass(frozen=True)
class GDiagram:
    """A network over a group.  Its walk is kept as an affine Diagram's is:
    computed once, outside the fields, left behind by copies and pickles."""

    group: Group
    source: GObj
    layers: tuple[GLayer, ...]

    def __reduce__(self):
        return GDiagram, (self.group, self.source, self.layers)

    @cached_property
    def _walk(self) -> tuple[GObj, list[tuple[int, GGenerator]]]:
        """(target, [(w, gen)] for each layer, bottom to top)."""
        obj, steps = tuple(self.source), []
        for w, gen, obj in calculus(self.group).walk(self.source, self.layers):
            steps.append((w, gen))
        return obj, steps

    def expanded(self) -> "GDiagram":
        layers = tuple((part, pos) for gen, pos in self.layers for part in _expand(self.group, gen))
        return GDiagram(self.group, self.source, layers)


def calculus(G: Group) -> Calculus:
    """Networks over G as a sliced calculus: the winding of a gap is the
    ordered product of the strands left of it, g for g L and g^-1 for g R."""

    def boundary(gen: GGenerator) -> tuple[GObj, GObj]:
        """(gen.dom(G), gen.cod(G)), kept on the instance with G as (G, pair)
        and rebuilt when asked under another group.  The pair is kept in the
        record's __dict__, not among its fields, so repr, == and hash ignore it."""
        kept = getattr(gen, "_boundary", None)
        if kept is not None and kept[0] is G:
            return kept[1]
        pair = (gen.dom(G), gen.cod(G))
        gen._boundary = (G, pair)
        return pair

    return Calculus(
        boundary,
        GDiagramError,
        lambda dom, found, layer: GDiagramError(f"expected {dom!r}, found {found!r}", layer),
        0,
        lambda w, pt: G.mul(w, pt.g if pt.left else G.inv(pt.g)),
    )


def validate_gdiagram(d: GDiagram) -> GObj:
    """Target object of a well-formed network; raises at the first bad layer."""
    return d._walk[0]


def g_winding(d: GDiagram, layer: int, gap: int) -> int:
    return calculus(d.group).winding_at(d.source, d.layers, layer, gap)


def is_closed(d: GDiagram) -> bool:
    return not d.source and not validate_gdiagram(d)


# -- evaluations ------------------------------------------------------------


# A piece of an evaluation is (sign, mat, u), standing for sign * mat u: the
# module element u acted on by a group element, whose matrix is mat.


def _alpha_f_layer(G: Group, f: Cocycle1, w: int, gen: GGenerator):
    """Twist piece under a one-cocycle of one expanded layer at winding w."""
    act = f.module.action
    if isinstance(gen, GCapLR):
        # apex co-oriented up; reference gap above the cap, legs removed
        return 1, act[w], f(gen.g)
    if isinstance(gen, GCupRL):
        # apex co-oriented up; reference gap between the created legs
        return -1, act[G.mul(w, G.inv(gen.g))], f(gen.g)
    if isinstance(gen, GFlip):
        if gen.from_left:
            # new co-orientation points right: gap right of the strand
            w = G.mul(w, gen.g)
        return -1, act[w], f(G.inv(gen.g))
    return None


# Sign of each vertex's and extremum's two-cocycle term; a split or cap takes
# the opposite sign of its merge or cup.
_C_SIGNS = signed_pairs({VMergeL: 1, VMergeR: 1, GCupLR: -1, GCupRL: -1})


def _alpha_c_layer(G: Group, c: Cocycle2, w: int, gen: GGenerator):
    """Twist piece under a two-cocycle of one expanded layer at winding w."""
    sign = _C_SIGNS.get(type(gen))
    if sign is None:
        return None
    if isinstance(gen, (VMergeL, VSplitL)):
        value = c(gen.s, gen.t)
    elif isinstance(gen, (VMergeR, VSplitR)):
        value = c(G.inv(gen.s), G.inv(gen.t))
    else:  # an extremum; an R-then-L arc's reference gap lies between its legs
        value = c(gen.g, G.inv(gen.g))
        if isinstance(gen, (GCupRL, GCapRL)):
            w = G.mul(w, G.inv(gen.g))
    return sign, c.module.action[w], value


def _evaluate(d: GDiagram, U: GModule, terms) -> UElt:
    """Sum over dots of the label twisted by its winding, plus the piece
    term(G, z, w, gen) for each (term, z) in terms on every generator of the
    expansion, read from the kept walk of d.

    A macro is applied whole and its generators all sit at its position, so
    they share its winding, and an error names the layer of d.  The pieces
    are summed as plain integers and reduced once: every action matrix is
    well-defined modulo the moduli, so the sum is exact.
    """
    G = d.group
    pieces = []
    for w, macro in d._walk[1]:
        for gen in _expand(G, macro):
            if isinstance(gen, GDot):
                pieces.append((1, U.action[w], U.reduce(gen.u)))
            for term, z in terms:
                piece = term(G, z, w, gen)
                if piece is not None:
                    pieces.append(piece)
    if not pieces:
        return U.zero()
    acted = [[sign * sum(map(operator.mul, row, u)) for row in mat] for sign, mat, u in pieces]
    return tuple(sum(col) % m for col, m in zip(zip(*acted), U.moduli))


def _check_cocycles(d: GDiagram, *cocycles) -> None:
    for z in cocycles:
        if z.module.group is not d.group:
            raise GDiagramError("cocycle is over a different group")
        if isinstance(z, Cocycle2) and not is_normalized(z):
            raise GDiagramError("two-cocycle must be normalized")


def eval_alpha_u(d: GDiagram, module: GModule) -> UElt:
    """Sum over dots of the label twisted by the dot's winding."""
    if module.group is not d.group:
        raise GDiagramError("module is over a different group")
    return _evaluate(d, module, ())


def eval_alpha_f(d: GDiagram, f: Cocycle1) -> UElt:
    """Dot evaluation shifted by a one-cocycle on extrema and flip points."""
    _check_cocycles(d, f)
    return _evaluate(d, f.module, ((_alpha_f_layer, f),))


def eval_alpha_c(d: GDiagram, c: Cocycle2) -> UElt:
    """Dot evaluation shifted by a normalized two-cocycle on vertices and extrema."""
    _check_cocycles(d, c)
    return _evaluate(d, c.module, ((_alpha_c_layer, c),))


def eval_alpha_cf(d: GDiagram, c: Cocycle2, f: Cocycle1) -> UElt:
    """Combined twist: the two evaluations added, dots counted once."""
    _check_cocycles(d, c, f)
    if f.module is not c.module and f.module.moduli != c.module.moduli:
        raise GDiagramError("the two cocycles must share a module")
    return _evaluate(d, c.module, ((_alpha_c_layer, c), (_alpha_f_layer, f)))
