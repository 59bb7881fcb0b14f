"""Sliced two-type diagrams for the affine group of the rational line.

A diagram is an ordered list of layers applied bottom-to-top to a boundary
object.  Objects are tensor words in four kinds of points: additive points
X+(a) / X-(a) (upward / downward oriented lines carrying a rational weight)
and multiplicative points Y+(c) / Y-(c) (left / right co-oriented lines
carrying a nonzero rational weight).  Each generator knows its exact domain
and codomain, so validation is a fold over layers.

The evaluation of a diagram collects a signed, winding-scaled symbol from
every additive merge and split, plus winding-scaled dot labels.  It depends
only on the boundary for dotless diagrams; equality of morphisms is decided
by (boundary, evaluation).

Modes: "J" evaluates into the symbol space (prime vectors), "H" into exact
entropy scalars, "Hfloat" into doubles.  Boundary weights stay rational in
every mode; only evaluation arithmetic and dot payloads change, one row of
MODE_TABLE per mode.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, NamedTuple, Sequence, Union

from .jspace import (
    EntropyScalar,
    PrimeVector,
    bracket_H_float,
    entropy_render,
    symbol,
)
from .mirror import mirrored, record, signed_pairs
from .scalars import to_double
from .slices import Calculus, LayerError

Rational = Fraction

MODE_J = "J"
MODE_H = "H"
MODE_HFLOAT = "Hfloat"

FLOAT_TOL = 1e-10


class DiagramError(LayerError):
    """Base class for diagram validation failures."""


class KindMismatch(DiagramError):
    pass


class WeightMismatch(DiagramError):
    pass


class PositionOutOfRange(DiagramError):
    pass


class ZeroMultiplicativeWeight(DiagramError):
    pass


class BoundaryMismatch(DiagramError):
    pass


class Kind(enum.Enum):
    XP = "X+"
    XM = "X-"
    YP = "Y+"
    YM = "Y-"

    def __init__(self, value: str):
        # plain member attributes: they are read on every move and layer
        self.additive = value[0] == "X"
        self.multiplicative = not self.additive


@dataclass(frozen=True)
class Pt:
    """A boundary point: kind plus rational weight (nonzero for Y kinds)."""

    kind: Kind
    weight: Fraction

    def __post_init__(self):
        if type(self.weight) is not Fraction:  # skip the copy on the hot path
            object.__setattr__(self, "weight", Fraction(self.weight))
        if self.kind.multiplicative and self.weight == 0:
            raise ZeroMultiplicativeWeight("multiplicative weight must be nonzero")

    def __repr__(self) -> str:
        return f"{self.kind.value}({self.weight})"


def xplus(a) -> Pt:
    return Pt(Kind.XP, a)


def xminus(a) -> Pt:
    return Pt(Kind.XM, a)


def yplus(c) -> Pt:
    return Pt(Kind.YP, c)


def yminus(c) -> Pt:
    return Pt(Kind.YM, c)


Obj = tuple[Pt, ...]


@dataclass(frozen=True)
class AffWeight:
    """Element (a, c) of the affine group: x |-> c*x + a."""

    a: Fraction
    c: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "c", Fraction(self.c))
        if self.c == 0:
            raise ZeroMultiplicativeWeight("multiplicative part must be nonzero")

    def __mul__(self, other: "AffWeight") -> "AffWeight":
        return AffWeight(self.a + self.c * other.a, self.c * other.c)

    @classmethod
    def identity(cls) -> "AffWeight":
        return cls(Fraction(0), Fraction(1))

    def inverse(self) -> "AffWeight":
        return AffWeight(-self.a / self.c, 1 / self.c)


# ---------------------------------------------------------------------------
# Generators.  Each is a record of what it needs: Fraction weights, Pts, bool
# orientations or a dot payload; domain and codomain are a total function of
# the generator.  Splits and caps are the mirrors of merges and cups: the same
# fields, domain and codomain swapped.


class AddMerge(record("a b")):
    def dom(self) -> Obj:
        return (xplus(self.a), xplus(self.b))

    def cod(self) -> Obj:
        return (xplus(self.a + self.b),)


AddSplit = mirrored(AddMerge, "AddSplit")


class AddMergeDual(record("a b")):
    """Merge of downward lines: [X-(b), X-(a)] -> [X-(a+b)]."""

    def dom(self) -> Obj:
        return (xminus(self.b), xminus(self.a))

    def cod(self) -> Obj:
        return (xminus(self.a + self.b),)


AddSplitDual = mirrored(AddMergeDual, "AddSplitDual")


class AddCross(record("first second")):
    """Transposition of two adjacent additive points, any orientations."""

    def __new__(cls, first: Pt, second: Pt):
        if not (first.kind.additive and second.kind.additive):
            raise KindMismatch("additive crossing needs two X points")
        return super().__new__(cls, first, second)

    def dom(self) -> Obj:
        return (self.first, self.second)

    def cod(self) -> Obj:
        return (self.second, self.first)


def _cross_scale(y: Pt) -> Fraction:
    return y.weight if y.kind is Kind.YP else 1 / y.weight


class XYCross(record("y x")):
    """Move an additive point left across a multiplicative one.

    [Y(c), X(a)] -> [X(c'a), Y(c)] where c' is c for a left co-oriented line
    and 1/c for a right co-oriented one, independent of the X orientation.
    """

    def __new__(cls, y: Pt, x: Pt):
        if not y.kind.multiplicative or not x.kind.additive:
            raise KindMismatch("xy crossing needs a Y point then an X point")
        return super().__new__(cls, y, x)

    def dom(self) -> Obj:
        return (self.y, self.x)

    def cod(self) -> Obj:
        return (Pt(self.x.kind, _cross_scale(self.y) * self.x.weight), self.y)


class MultMerge(record("c1 c2")):
    def dom(self) -> Obj:
        return (yplus(self.c1), yplus(self.c2))

    def cod(self) -> Obj:
        return (yplus(self.c1 * self.c2),)


MultSplit = mirrored(MultMerge, "MultSplit")


class MultMergeDual(record("c1 c2")):
    def dom(self) -> Obj:
        return (yminus(self.c1), yminus(self.c2))

    def cod(self) -> Obj:
        return (yminus(self.c1 * self.c2),)


MultSplitDual = mirrored(MultMergeDual, "MultSplitDual")


class CoorientRev(record("c from_plus")):
    """Reversal node: Y+(c) <-> Y-(1/c)."""

    def dom(self) -> Obj:
        return (yplus(self.c) if self.from_plus else yminus(self.c),)

    def cod(self) -> Obj:
        inv = 1 / Fraction(self.c)
        return (yminus(inv) if self.from_plus else yplus(inv),)


class CupX(record("a plus_on_left")):
    def dom(self) -> Obj:
        return ()

    def cod(self) -> Obj:
        pair = (xplus(self.a), xminus(self.a))
        return pair if self.plus_on_left else pair[::-1]


CapX = mirrored(CupX, "CapX")


class CupY(record("c plus_on_left")):
    def dom(self) -> Obj:
        return ()

    def cod(self) -> Obj:
        pair = (yplus(self.c), yminus(self.c))
        return pair if self.plus_on_left else pair[::-1]


CapY = mirrored(CupY, "CapY")


DotPayload = Union[PrimeVector, EntropyScalar, float]


class Dot(record("payload")):
    """A floating label in a region gap; contributes its winding-scaled value."""

    def dom(self) -> Obj:
        return ()

    def cod(self) -> Obj:
        return ()


Generator = Union[
    AddMerge,
    AddSplit,
    AddMergeDual,
    AddSplitDual,
    AddCross,
    XYCross,
    MultMerge,
    MultSplit,
    MultMergeDual,
    MultSplitDual,
    CoorientRev,
    CupX,
    CapX,
    CupY,
    CapY,
    Dot,
]

Layer = tuple[Generator, int]


@dataclass(frozen=True)
class Diagram:
    """A source object, its layers bottom to top, and an evaluation mode.

    One walk over the layers (`_walk`) gives the target and the winding of
    every additive vertex and dot; it and the value (`j_invariant`) are
    computed on the first call and kept on the instance, so each diagram
    object applies its layers once and is evaluated once.  The fields never
    change, so neither goes stale; a call that raises keeps nothing.  Both
    are kept outside the fields, so repr, == and hash ignore them, and a copy
    or pickle leaves them behind.
    """

    source: Obj
    layers: tuple[Layer, ...]
    mode: str = MODE_J

    def __post_init__(self):
        if self.mode not in MODE_TABLE:
            raise ValueError(f"unknown mode {self.mode!r}")

    def __reduce__(self):
        return Diagram, (self.source, self.layers, self.mode)

    def with_mode(self, mode: str) -> "Diagram":
        return Diagram(self.source, self.layers, mode)

    @cached_property
    def _walk(self) -> tuple[Obj, list[tuple[Fraction, Generator]]]:
        """(target, [(w, gen)] for each additive vertex and dot, bottom to top)."""
        obj, terms = tuple(self.source), []
        for w, gen, obj in AFFINE.walk(self.source, self.layers):
            if type(gen) in _VERTEX_SIGNS or isinstance(gen, Dot):
                terms.append((w, gen))
        return obj, terms

    @cached_property
    def _value(self):
        return _fold(self.mode, self._walk[1])


def identity_diagram(obj: Sequence[Pt], mode: str = MODE_J) -> Diagram:
    return Diagram(tuple(obj), (), mode)


def boundary(gen: Generator) -> tuple[Obj, Obj]:
    """(gen.dom(), gen.cod()), built on the first call and kept on the instance.

    A generator's fields never change, so the pair never goes stale; it is kept
    in the record's __dict__, not among its fields, so repr, == and hash ignore it.
    """
    pair = getattr(gen, "_boundary", None)
    if pair is None:
        pair = gen._boundary = (gen.dom(), gen.cod())
    return pair


def _step(w: Fraction, pt: Pt) -> Fraction:
    kind = pt.kind
    if kind.additive:
        return w
    return w * pt.weight if kind is Kind.YP else w / pt.weight


def _mismatch(dom: Obj, found: Obj, layer: int | None) -> DiagramError:
    want, got = next((want, got) for want, got in zip(dom, found) if want != got)
    error = KindMismatch if want.kind is not got.kind else WeightMismatch
    return error(f"expected {want!r}, found {got!r}", layer)


# Affine diagrams as a sliced calculus: the winding of a gap is the product
# over the multiplicative points left of it, c for Y+(c) and 1/c for Y-(c).
AFFINE = Calculus(boundary, PositionOutOfRange, _mismatch, Fraction(1), _step)

apply_layer = AFFINE.apply
winding_product = AFFINE.winding


def validate(d: Diagram) -> Obj:
    """Target object of a well-formed diagram; raises at the first bad layer."""
    return d._walk[0]


# ---------------------------------------------------------------------------
# Weights, windings, and effective weights.


def winding(d: Diagram, layer: int, gap: int) -> Fraction:
    """Winding of a gap in the object just below the given layer index."""
    return AFFINE.winding_at(d.source, d.layers, layer, gap)


def effective_weights(obj: Obj) -> list[Fraction]:
    """Signed, winding-scaled additive weights, in left-to-right order."""
    pairs = zip(AFFINE.windings(obj), obj)
    return [(w if pt.kind is Kind.XP else -w) * pt.weight for w, pt in pairs if pt.kind.additive]


def object_weight(obj: Obj) -> AffWeight:
    a = sum(effective_weights(obj), Fraction(0))
    return AffWeight(a, winding_product(obj, len(obj)))


def jstar(obj: Obj) -> PrimeVector:
    """Sum of symbols of successive prefixes of the effective weights."""
    bs = effective_weights(obj)
    out = PrimeVector()
    prefix = Fraction(0)
    for i in range(len(bs) - 1):
        prefix += bs[i]
        out = out + symbol(prefix, bs[i + 1])
    return out


# ---------------------------------------------------------------------------
# Evaluation.


class Mode(NamedTuple):
    """One row of MODE_TABLE.  dot(payload) raises KindMismatch for a payload
    of the wrong kind; entropy is None where a value is no entropy scalar."""

    zero: object
    vertex: Callable[[Fraction, Fraction], object]
    scale: Callable[[object, Fraction], object]
    dot: Callable[[DotPayload], object]
    equal: Callable[[object, object], bool]
    entropy: Callable[[object], EntropyScalar] | None


def _payloads(kinds, message: str, value=lambda payload: payload):
    def dot(payload):
        if not isinstance(payload, kinds):
            raise KindMismatch(message)
        return value(payload)

    return dot


MODE_TABLE = {
    MODE_J: Mode(
        PrimeVector(),
        symbol,
        PrimeVector.scaled,
        _payloads(PrimeVector, "J-mode dots carry prime vectors"),
        operator.eq,
        entropy_render,
    ),
    MODE_H: Mode(
        EntropyScalar.zero(),
        lambda a, b: entropy_render(symbol(a, b)),
        EntropyScalar.scaled,
        _payloads(EntropyScalar, "H-mode dots carry entropy scalars"),
        operator.eq,
        lambda value: value,
    ),
    MODE_HFLOAT: Mode(
        0.0,
        lambda a, b: bracket_H_float(to_double(a), to_double(b)),
        lambda value, w: to_double(w) * value,
        _payloads((float, int), "Hfloat-mode dots carry floats", to_double),
        lambda x, y: x == y or abs(x - y) <= FLOAT_TOL,  # inf - inf is nan
        None,
    ),
}
MODES = tuple(MODE_TABLE)


# Sign of each additive vertex's winding-scaled symbol; a split takes the
# opposite sign of its merge.
_VERTEX_SIGNS = signed_pairs({AddMerge: 1, AddMergeDual: -1})


def _fold(mode: str, terms) -> object:
    """Sum of a walk's winding-scaled terms (w, gen) in one mode's row."""
    row = MODE_TABLE[mode]
    total = row.zero
    for w, gen in terms:
        sign = _VERTEX_SIGNS.get(type(gen))
        if sign is None:  # a dot
            total = total + row.scale(row.dot(gen.payload), w)
        else:
            total = total + row.scale(row.vertex(gen.a, gen.b), w if sign > 0 else -w)
    return total


def j_invariant(d: Diagram):
    """Evaluation of the diagram: prime vector, entropy scalar, or float.
    Every layer is checked before any payload is valued."""
    return d._value


def dot_contribution(d: Diagram):
    """Winding-scaled sum of dot labels alone (the non-boundary part), from the
    walk `j_invariant` folds; every layer is checked before any payload."""
    return _fold(d.mode, [(w, gen) for w, gen in d._walk[1] if isinstance(gen, Dot)])


def values_equal(mode: str, x, y) -> bool:
    return MODE_TABLE[mode].equal(x, y)


# ---------------------------------------------------------------------------
# Category structure.


def compose(d1: Diagram, d2: Diagram) -> Diagram:
    """Stack d2 on top of d1; boundaries must match exactly."""
    if d1.mode != d2.mode:
        raise BoundaryMismatch("cannot compose diagrams of different modes")
    t = validate(d1)
    if t != tuple(d2.source):
        raise BoundaryMismatch(f"target {t!r} != source {tuple(d2.source)!r}")
    return Diagram(d1.source, d1.layers + d2.layers, d1.mode)


def tensor(d1: Diagram, d2: Diagram) -> Diagram:
    """Place d2 to the right of d1."""
    if d1.mode != d2.mode:
        raise BoundaryMismatch("cannot tensor diagrams of different modes")
    offset = len(validate(d1))
    shifted = tuple((gen, pos + offset) for gen, pos in d2.layers)
    return Diagram(tuple(d1.source) + tuple(d2.source), d1.layers + shifted, d1.mode)


def morphism_exists(z0: Sequence[Pt], z1: Sequence[Pt]) -> bool:
    return object_weight(tuple(z0)) == object_weight(tuple(z1))


def equal_morphisms(d1: Diagram, d2: Diagram) -> bool:
    """Equality in the dotted calculus: same boundary and equal evaluation.

    For dotless diagrams the evaluation comparison is automatic (it depends
    only on the boundary), so this also decides equality in the dotless
    category.
    """
    if d1.mode != d2.mode:
        raise BoundaryMismatch("cannot compare diagrams of different modes")
    if tuple(d1.source) != tuple(d2.source) or validate(d1) != validate(d2):
        raise BoundaryMismatch("boundaries differ")
    return values_equal(d1.mode, j_invariant(d1), j_invariant(d2))


def inverse_layers(layers: Iterable[Layer]) -> tuple[Layer, ...]:
    """Layer list of the vertically reflected diagram.

    A paired generator reverses to its mirror, the others individually; the
    one-directional crossing reverses to a three-layer conjugate by a cup and
    a cap.
    """
    out: list[Layer] = []
    for gen, pos in reversed(tuple(layers)):
        mirror = getattr(gen, "mirror", None)
        if mirror is not None:
            out.append((mirror(*gen), pos))
        elif isinstance(gen, CoorientRev):
            out.append((CoorientRev(1 / Fraction(gen.c), not gen.from_plus), pos))
        elif isinstance(gen, AddCross):
            out.append((AddCross(gen.second, gen.first), pos))
        elif isinstance(gen, XYCross):
            c, plus = gen.y.weight, gen.y.kind is Kind.YP
            y = yminus(c) if plus else yplus(c)
            out.append((CupY(c, plus), pos))
            out.append((XYCross(y, gen.cod()[0]), pos + 1))
            out.append((CapY(c, not plus), pos + 2))
        elif isinstance(gen, Dot):
            payload = gen.payload
            neg = -payload if not isinstance(payload, (float, int)) else -float(payload)
            out.append((Dot(neg), pos))
        else:  # pragma: no cover
            raise TypeError(f"cannot invert {gen!r}")
    return tuple(out)


def inverse(d: Diagram) -> Diagram:
    return Diagram(validate(d), inverse_layers(d.layers), d.mode)


# ---------------------------------------------------------------------------
# Entropy diagrams.


def merge_fold_diagram(weights: Sequence[Fraction], mode: str = MODE_H) -> Diagram:
    """Left-fold of merges collapsing n additive lines into one."""
    ws = [Fraction(w) for w in weights]
    if not ws:
        raise ValueError("need at least one weight")
    src = tuple(xplus(w) for w in ws)
    layers = []
    prefix = ws[0]
    for w in ws[1:]:
        layers.append((AddMerge(prefix, w), 0))
        prefix += w
    return Diagram(src, tuple(layers), mode)


def shannon_entropy(weights: Sequence[Fraction]) -> EntropyScalar:
    """Exact entropy of a weight sequence via the fold diagram.

    For a probability distribution this is the Shannon entropy; general
    rational sequences give the additivity defect of psi on the sequence.
    """
    return j_invariant(merge_fold_diagram(weights, MODE_H))


def _chain_distributions(z: Sequence[Fraction], ys: Sequence[Sequence[Fraction]]):
    z = [Fraction(p) for p in z]
    ys = [[Fraction(q) for q in y] for y in ys]
    if len(ys) != len(z):
        raise ValueError("need one inner distribution per outer weight")
    if any(not y for y in ys):
        raise ValueError("inner distributions must be nonempty")
    return z, ys


def chain_diagrams(z: Sequence[Fraction], ys: Sequence[Sequence[Fraction]]) -> tuple[Diagram, Diagram]:
    """The two sliced forms of the grouped-merge picture for the chain rule.

    Both start from blocks [Y+(p_i), X+(q_1i) ... X+(q_ki), Y-(p_i)] and end
    in a single additive line.  The first folds each block inside its
    multiplicative arc before crossing out; the second crosses every additive
    line out of the arc first.  Outer weights must be nonzero.
    """
    z, ys = _chain_distributions(z, ys)
    if any(p == 0 for p in z):
        raise ZeroMultiplicativeWeight("outer weights must be nonzero to form the arcs")

    src = []
    for p, y in zip(z, ys):
        src.append(yplus(p))
        src.extend(xplus(q) for q in y)
        src.append(yminus(p))
    src = tuple(src)

    def close_blocks(fold_first: bool) -> tuple[Layer, ...]:
        layers: list[Layer] = []
        base = 0  # position of the current block's Y+ point
        for p, y in zip(z, ys):
            k = len(y)
            if fold_first:
                prefix = y[0]
                for q in y[1:]:
                    layers.append((AddMerge(prefix, q), base + 1))
                    prefix += q
                layers.append((XYCross(yplus(p), xplus(prefix)), base))
                layers.append((CapY(p, True), base + 1))
            else:
                for j, q in enumerate(y):
                    layers.append((XYCross(yplus(p), xplus(q)), base + j))
                layers.append((CapY(p, True), base + k))
                prefix = p * y[0]
                for q in y[1:]:
                    layers.append((AddMerge(prefix, p * q), base))
                    prefix += p * q
            base += 1
        prefix = z[0] * sum(ys[0], Fraction(0))
        for p, y in zip(z[1:], ys[1:]):
            block = p * sum(y, Fraction(0))
            layers.append((AddMerge(prefix, block), 0))
            prefix += block
        return tuple(layers)

    lhs = Diagram(src, close_blocks(fold_first=True), MODE_H)
    rhs = Diagram(src, close_blocks(fold_first=False), MODE_H)
    return lhs, rhs


def chain_rule_check(z: Sequence[Fraction], ys: Sequence[Sequence[Fraction]]) -> bool:
    """Exact grouping identity for entropy, plus the diagram-level equality.

    Verifies H(X) = H(Z) + sum_i p_i H(Y_i) with X the composite sequence
    (p_i * q_ji), and, when every p_i is nonzero, that the two sliced forms
    of the grouped-merge picture evaluate identically.
    """
    z, ys = _chain_distributions(z, ys)
    composite = [p * q for p, y in zip(z, ys) for q in y]
    lhs_value = shannon_entropy(composite)
    rhs_value = shannon_entropy(z)
    for p, y in zip(z, ys):
        rhs_value = rhs_value + shannon_entropy(y).scaled(p)
    if lhs_value != rhs_value:
        return False
    if all(p != 0 for p in z):
        da, db = chain_diagrams(z, ys)
        return equal_morphisms(da, db) and j_invariant(da) == lhs_value
    return True


def is_finprob(d: Diagram) -> bool:
    """Upward merge-and-permutation diagrams of total weight one.

    Every boundary point must be X+ with weight in [0, 1], every layer an
    additive merge or crossing of upward strands, and every slice must have
    total weight 1.
    """
    obj = tuple(d.source)
    if any(pt.kind is not Kind.XP or not 0 <= pt.weight <= 1 for pt in obj):
        return False
    if sum((pt.weight for pt in obj), Fraction(0)) != 1:
        return False
    for gen, _ in d.layers:
        upward_cross = isinstance(gen, AddCross) and gen.first.kind is gen.second.kind is Kind.XP
        if not (upward_cross or isinstance(gen, AddMerge)):
            return False
    try:
        validate(d)
    except DiagramError:
        return False
    return True


def aff_cocycle(w1: AffWeight, w2: AffWeight) -> PrimeVector:
    """The symbol-valued pairing on the affine group: <(a1,c1),(a2,c2)> = <a1, c1*a2>."""
    return symbol(w1.a, w1.c * w2.a)
