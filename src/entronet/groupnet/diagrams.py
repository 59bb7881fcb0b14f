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

from dataclasses import dataclass
from typing import Union

from ..mirror import mirrored, signed_pairs
from .cohomology import Cocycle1, Cocycle2, is_normalized
from .groups import GModule, Group, UElt


class GDiagramError(Exception):
    def __init__(self, message: str, layer: int | None = None):
        self.layer = layer
        if layer is not None:
            message = f"layer {layer}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class GPt:
    """A strand end: group element index plus co-orientation side."""

    g: int
    left: bool

    def __repr__(self) -> str:
        return f"{self.g}{'L' if self.left else 'R'}"


GObj = tuple[GPt, ...]


def _L(g: int) -> GPt:
    return GPt(g, True)


def _R(g: int) -> GPt:
    return GPt(g, False)


# -- generators -------------------------------------------------------------
# Splits, caps and second-kind splits are the mirrors of merges, cups and
# second-kind merges: the same fields, domain and codomain swapped.


@dataclass(frozen=True)
class VMergeL:
    """[s L, t L] -> [st L]."""

    s: int
    t: int

    def dom(self, G: Group) -> GObj:
        return (_L(self.s), _L(self.t))

    def cod(self, G: Group) -> GObj:
        return (_L(G.mul(self.s, self.t)),)


VSplitL = mirrored(VMergeL, "VSplitL", "[st L] -> [s L, t L].")


@dataclass(frozen=True)
class VMergeR:
    """[s R, t R] -> [ts R]."""

    s: int
    t: int

    def dom(self, G: Group) -> GObj:
        return (_R(self.s), _R(self.t))

    def cod(self, G: Group) -> GObj:
        return (_R(G.mul(self.t, self.s)),)


VSplitR = mirrored(VMergeR, "VSplitR", "[ts R] -> [s R, t R].")


@dataclass(frozen=True)
class GFlip:
    """Reversal mark on a strand: [g s] -> [g^-1 sbar]."""

    g: int
    from_left: bool

    def dom(self, G: Group) -> GObj:
        return (GPt(self.g, self.from_left),)

    def cod(self, G: Group) -> GObj:
        return (GPt(G.inv(self.g), not self.from_left),)


@dataclass(frozen=True)
class GCupLR:
    """Outward arc from below: [] -> [g L, g R] (apex co-oriented down)."""

    g: int

    def dom(self, G: Group) -> GObj:
        return ()

    def cod(self, G: Group) -> GObj:
        return (_L(self.g), _R(self.g))


@dataclass(frozen=True)
class GCupRL:
    """Inward arc from below: [] -> [g R, g L] (apex co-oriented up)."""

    g: int

    def dom(self, G: Group) -> GObj:
        return ()

    def cod(self, G: Group) -> GObj:
        return (_R(self.g), _L(self.g))


GCapLR = mirrored(GCupLR, "GCapLR", "Closing arc over [g L, g R] (apex co-oriented up).")
GCapRL = mirrored(GCupRL, "GCapRL", "Closing arc over [g R, g L] (apex co-oriented down).")


@dataclass(frozen=True)
class GDot:
    """A module label floating in a gap."""

    u: UElt

    def dom(self, G: Group) -> GObj:
        return ()

    def cod(self, G: Group) -> GObj:
        return ()


# Vertices of the second kind, as macros over a flip plus a first-kind vertex.


def _split_expand(self, G: Group, pos: int):
    """The reflection of the mirror merge's expansion: a flip then a split."""
    (merge, _), (flip, _) = self.mirror(**vars(self)).expand(G, pos)
    return ((GFlip(G.inv(flip.g), not flip.from_left), pos), (merge.mirror(**vars(merge)), pos))


@dataclass(frozen=True)
class T2MergeRR:
    """[s R, t R] -> [(ts)^-1 L]; expands to a right merge then a flip."""

    s: int
    t: int

    def dom(self, G: Group) -> GObj:
        return (_R(self.s), _R(self.t))

    def cod(self, G: Group) -> GObj:
        return (_L(G.inv(G.mul(self.t, self.s))),)

    def expand(self, G: Group, pos: int):
        return ((VMergeR(self.s, self.t), pos), (GFlip(G.mul(self.t, self.s), False), pos))


@dataclass(frozen=True)
class T2MergeLL:
    """[s L, t L] -> [(st)^-1 R]; expands to a left merge then a flip."""

    s: int
    t: int

    def dom(self, G: Group) -> GObj:
        return (_L(self.s), _L(self.t))

    def cod(self, G: Group) -> GObj:
        return (_R(G.inv(G.mul(self.s, self.t))),)

    def expand(self, G: Group, pos: int):
        return ((VMergeL(self.s, self.t), pos), (GFlip(G.mul(self.s, self.t), True), pos))


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


def _expand(G: Group, gen: GGenerator, pos: int) -> tuple[GLayer, ...]:
    """A macro's layers, or the layer itself."""
    return gen.expand(G, pos) if isinstance(gen, _MACROS) else ((gen, pos),)


@dataclass(frozen=True)
class GDiagram:
    group: Group
    source: GObj
    layers: tuple[GLayer, ...]

    def expanded(self) -> "GDiagram":
        layers = tuple(part for gen, pos in self.layers for part in _expand(self.group, gen, pos))
        return GDiagram(self.group, self.source, layers)


def apply_glayer(G: Group, obj: GObj, gen: GGenerator, pos: int, layer: int | None = None) -> GObj:
    dom = gen.dom(G)
    n = len(dom)
    if pos < 0 or pos + n > len(obj):
        raise GDiagramError(
            f"position {pos} with arity {n} in object of length {len(obj)}", layer
        )
    actual = obj[pos : pos + n]
    if actual != dom:
        raise GDiagramError(f"expected {dom!r}, found {actual!r}", layer)
    return obj[:pos] + gen.cod(G) + obj[pos + n :]


def gstates(d: GDiagram) -> list[GObj]:
    out = [tuple(d.source)]
    for i, (gen, pos) in enumerate(d.layers):
        out.append(apply_glayer(d.group, out[-1], gen, pos, i))
    return out


def validate_gdiagram(d: GDiagram) -> GObj:
    return gstates(d)[-1]


def winding_of(G: Group, obj: GObj, gap: int) -> int:
    """Ordered product of strand labels left of the gap, leftmost first."""
    if gap < 0 or gap > len(obj):
        raise GDiagramError(f"gap {gap} in object of length {len(obj)}")
    w = 0
    for pt in obj[:gap]:
        w = G.mul(w, pt.g if pt.left else G.inv(pt.g))
    return w


def g_winding(d: GDiagram, layer: int, gap: int) -> int:
    st = gstates(d)
    if layer < 0 or layer >= len(st):
        raise GDiagramError(f"layer {layer} of {len(st)} states")
    return winding_of(d.group, st[layer], gap)


def is_closed(d: GDiagram) -> bool:
    return not d.source and not validate_gdiagram(d)


# -- evaluations ------------------------------------------------------------


def _alpha_f_layer(G: Group, f: Cocycle1, obj: GObj, gen: GGenerator, pos: int) -> UElt | None:
    """Twist contribution of one expanded layer under a one-cocycle."""
    U = f.module
    if isinstance(gen, GCapLR):
        # apex co-oriented up; reference gap above the cap, legs removed
        w = winding_of(G, obj, pos)
        return U.act(w, f(gen.g))
    if isinstance(gen, GCupRL):
        # apex co-oriented up; reference gap between the created legs
        w = G.mul(winding_of(G, obj, pos), G.inv(gen.g))
        return U.neg(U.act(w, f(gen.g)))
    if isinstance(gen, GFlip):
        new = G.inv(gen.g)
        if gen.from_left:
            # new co-orientation points right: gap right of the strand
            w = G.mul(winding_of(G, obj, pos), gen.g)
        else:
            w = winding_of(G, obj, pos)
        return U.neg(U.act(w, f(new)))
    return None


# Sign of each vertex's and extremum's two-cocycle term; a split or cap takes
# the opposite sign of its merge or cup.
_C_SIGNS = signed_pairs({VMergeL: 1, VMergeR: 1, GCupLR: -1, GCupRL: -1})


def _alpha_c_layer(G: Group, c: Cocycle2, obj: GObj, gen: GGenerator, pos: int) -> UElt | None:
    """Twist contribution of one expanded layer under a two-cocycle."""
    sign = _C_SIGNS.get(type(gen))
    if sign is None:
        return None
    w = winding_of(G, obj, pos)
    if isinstance(gen, (VMergeL, VSplitL)):
        value = c(gen.s, gen.t)
    elif isinstance(gen, (VMergeR, VSplitR)):
        value = c(G.inv(gen.s), G.inv(gen.t))
    else:  # an extremum; an R-then-L arc's reference gap lies between its legs
        value = c(gen.g, G.inv(gen.g))
        if isinstance(gen, (GCupRL, GCapRL)):
            w = G.mul(w, G.inv(gen.g))
    piece = c.module.act(w, value)
    return piece if sign > 0 else c.module.neg(piece)


def _evaluate(d: GDiagram, U: GModule, terms) -> UElt:
    """Sum over dots of the label twisted by its winding, plus term(G, z, obj,
    gen, pos) for each (term, z) in terms on every layer of the expansion.

    Macros expand in place, so an error names the layer of d, not of the
    expansion.
    """
    G = d.group
    total = U.zero()
    obj = tuple(d.source)
    for i, (macro, at) in enumerate(d.layers):
        for gen, pos in _expand(G, macro, at):
            nxt = apply_glayer(G, obj, gen, pos, i)
            if isinstance(gen, GDot):
                total = U.add(total, U.act(winding_of(G, obj, pos), U.reduce(gen.u)))
            for term, z in terms:
                piece = term(G, z, obj, gen, pos)
                if piece is not None:
                    total = U.add(total, piece)
            obj = nxt
    return total


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
