"""Text format for objects, diagrams, groups, modules, and cocycles.

Line-oriented with `#` comments; declarations in order, forward references
rejected; layers inside `{...}` separated by semicolons.  The printer emits
a canonical form and `parse(print(x))` returns an identical syntax tree.

    mode J
    object Z = X+(1/2) Y-(3) X-(2/5)
    diagram D : Z0 -> Z1 { add_merge @0; dot @2 {2: -1}; }
    group G = cyclic(6)
    module U over G = z(4)
    cocycle2 c : G -> U = { (1,1): (1); }
    gdiagram N over G : [1 L, 1 R] -> [] { cap @0; }
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Callable, Optional, TypeVar, Union

from . import affine as af
from .jspace import EntropyScalar, PrimeVector
from .groupnet.cohomology import (
    Cocycle1,
    Cocycle2,
    SizeBoundExceeded,
    check_system_size,
    is_normalized,
    verify_cocycle1,
    verify_cocycle2,
)
from .groupnet.diagrams import (
    GCapLR,
    GCapRL,
    GCupLR,
    GCupRL,
    GDiagram,
    GDiagramError,
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
from .groupnet.groups import GModule, Group, GroupValidationError
from .scalars import format_rational
from .slices import Calculus, LayerError


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        self.line, self.col = line, col
        super().__init__(f"{line}:{col}: {message}")


class ResolveError(Exception):
    def __init__(self, message: str, line: int, col: int):
        self.line, self.col = line, col
        super().__init__(f"{line}:{col}: {message}")


# ---------------------------------------------------------------------------
# Layer tables, one per calculus.

# Kinds of written layer arguments.
RATIONAL = "a rational"
NONZERO = "a nonzero rational"
SIGN = "+ or -"
ELEMENT = "a group element"
ENTRIES = "module entries"  # any number of integers, together one field

_DOT = "dot"


@dataclass(frozen=True)
class LayerRule:
    """How one DSL layer name builds its generator.

    build takes the written arguments, checked and converted by the kinds in
    args; or, when infer is given, the fields infer(pt) reads off the strands
    pt(0), pt(1), ... at the layer's position, and the layer takes no
    arguments.  An affine dot's payload comes last.
    """

    build: Callable
    args: tuple[str, ...] = ()
    infer: Optional[Callable] = None


def _weights(pt):
    return pt(0).weight, pt(1).weight


def _strands(pt):
    return pt(0), pt(1)


def _elements(pt):
    return pt(0).g, pt(1).g


def _cap(p: GPt, q: GPt):
    if p.left and not q.left:
        return GCapLR(p.g)
    if not p.left and q.left:
        return GCapRL(p.g)
    raise GDiagramError("cap needs opposite co-orientations")


# Splits and cups carry the weights their domain does not determine; merges
# and caps read theirs off the strands.  Random sources draw names in this order.
AFFINE_LAYERS = {
    "add_merge": LayerRule(af.AddMerge, infer=_weights),
    "add_split": LayerRule(af.AddSplit, (RATIONAL, RATIONAL)),
    "add_merge_dual": LayerRule(af.AddMergeDual, infer=lambda pt: _weights(pt)[::-1]),
    "add_split_dual": LayerRule(af.AddSplitDual, (RATIONAL, RATIONAL)),
    "add_cross": LayerRule(af.AddCross, infer=_strands),
    "xy_cross": LayerRule(af.XYCross, infer=_strands),
    "mult_merge": LayerRule(af.MultMerge, infer=_weights),
    "mult_split": LayerRule(af.MultSplit, (NONZERO, NONZERO)),
    "mult_merge_dual": LayerRule(af.MultMergeDual, infer=_weights),
    "mult_split_dual": LayerRule(af.MultSplitDual, (NONZERO, NONZERO)),
    "coorient_rev": LayerRule(
        af.CoorientRev, infer=lambda pt: (pt(0).weight, pt(0).kind is af.Kind.YP)
    ),
    "cup_x": LayerRule(af.CupX, (RATIONAL, SIGN)),
    "cap_x": LayerRule(af.CapX, infer=lambda pt: (pt(0).weight, pt(0).kind is af.Kind.XP)),
    "cup_y": LayerRule(af.CupY, (NONZERO, SIGN)),
    "cap_y": LayerRule(af.CapY, infer=lambda pt: (pt(0).weight, pt(0).kind is af.Kind.YP)),
    _DOT: LayerRule(af.Dot),
}

GROUP_LAYERS = {
    "merge_l": LayerRule(VMergeL, infer=_elements),
    "merge_r": LayerRule(VMergeR, infer=_elements),
    "split_l": LayerRule(VSplitL, (ELEMENT, ELEMENT)),
    "split_r": LayerRule(VSplitR, (ELEMENT, ELEMENT)),
    "flip": LayerRule(GFlip, infer=lambda pt: (pt(0).g, pt(0).left)),
    "cup_lr": LayerRule(GCupLR, (ELEMENT,)),
    "cup_rl": LayerRule(GCupRL, (ELEMENT,)),
    "cap": LayerRule(_cap, infer=_strands),
    "t2_merge_ll": LayerRule(T2MergeLL, infer=_elements),
    "t2_merge_rr": LayerRule(T2MergeRR, infer=_elements),
    "t2_split_ll": LayerRule(T2SplitLL, (ELEMENT, ELEMENT)),
    "t2_split_rr": LayerRule(T2SplitRR, (ELEMENT, ELEMENT)),
    _DOT: LayerRule(GDot, (ENTRIES,)),
}


def _layer_arg(kind: str, a, order: int):
    """The generator field for a written argument of the kind, or None."""
    if kind == SIGN:
        return {"+": True, "-": False}.get(a)
    if kind == ELEMENT:
        return a if type(a) is int and 0 <= a < order else None
    if isinstance(a, (int, Fraction)) and (kind == RATIONAL or a != 0):
        return a
    return None


# ---------------------------------------------------------------------------
# Lexer.

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r]+)
  | (?P<comment>\#[^\n]*)
  | (?P<newline>\n)
  | (?P<arrow>->)
  | (?P<float>\d+\.\d+(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+)
  | (?P<int>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<sym>[-+(){}\[\],:;@=/])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col, i = 1, 1, 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if not m:
            raise ParseError(f"unexpected character {text[i]!r}", line, col)
        kind = m.lastgroup
        value = m.group()
        if kind == "newline":
            line += 1
            col = 1
        elif kind in ("ws", "comment"):
            col += len(value)
        else:
            tokens.append(Token(kind, value, line, col))
            col += len(value)
        i = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# Syntax tree.


@dataclass(frozen=True)
class PointSpec:
    kind: str  # "X+", "X-", "Y+", "Y-"
    weight: Fraction


@dataclass(frozen=True)
class ObjectDecl:
    name: str
    points: tuple[PointSpec, ...]
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


Payload = Union[PrimeVector, EntropyScalar, float]


@dataclass(frozen=True)
class LayerSpec:
    name: str
    args: tuple
    pos: int
    payload: Optional[Payload] = None
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass(frozen=True)
class DiagramDecl:
    name: str
    source: str
    target: str
    layers: tuple[LayerSpec, ...]
    mode: str
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass(frozen=True)
class GroupDecl:
    name: str
    ctor: str  # cyclic | aff1modp | product | table
    args: tuple
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass(frozen=True)
class ModuleDecl:
    name: str
    group: str
    moduli: tuple[int, ...]
    action: Optional[tuple[tuple[int, tuple[tuple[int, ...], ...]], ...]]
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass(frozen=True)
class CocycleDecl:
    degree: int
    name: str
    group: str
    module: str
    entries: tuple  # degree 1: ((g, u), ...); degree 2: (((g, h), u), ...)
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass(frozen=True)
class GPointSpec:
    g: int
    left: bool


@dataclass(frozen=True)
class GDiagramDecl:
    name: str
    group: str
    source: tuple[GPointSpec, ...]
    target: tuple[GPointSpec, ...]
    layers: tuple[LayerSpec, ...]
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


Decl = Union[ObjectDecl, DiagramDecl, GroupDecl, ModuleDecl, CocycleDecl, GDiagramDecl]


@dataclass(frozen=True)
class SourceFile:
    decls: tuple[Decl, ...]
    final_mode: str = af.MODE_J


# ---------------------------------------------------------------------------
# Parser.

T = TypeVar("T")


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def next(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, message: str, tok: Token | None = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind
            self.fail(f"expected {want!r}, found {tok.text or tok.kind!r}")
        return self.next()

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        tok = self.peek()
        if tok.kind == kind and (text is None or tok.text == text):
            return self.next()
        return None

    def items(self, close: str, sep: str, item: Callable[[], T]) -> list[T]:
        """Items parsed by `item`, each but the last followed by `sep`, up to
        `close`; the opener is already read, and a trailing `sep` is allowed."""
        out = []
        while not self.accept("sym", close):
            out.append(item())
            if not self.accept("sym", sep):
                self.expect("sym", close)
                break
        return out

    # -- scalars ------------------------------------------------------------

    def parse_int(self) -> int:
        neg = self.accept("sym", "-") is not None
        tok = self.expect("int")
        return -int(tok.text) if neg else int(tok.text)

    def parse_rational(self) -> Fraction:
        neg = self.accept("sym", "-") is not None
        tok = self.expect("int")
        num = int(tok.text)
        if self.accept("sym", "/"):
            den_tok = self.expect("int")
            den = int(den_tok.text)
            if den == 0:
                self.fail("zero denominator", den_tok)
            value = Fraction(num, den)
        else:
            value = Fraction(num)
        return -value if neg else value

    def parse_number(self):
        """Rational or float; floats carry a dot or exponent."""
        start = self.i
        neg = self.accept("sym", "-") is not None
        if self.peek().kind != "float":
            self.i = start
            return self.parse_rational()
        val = float(self.next().text)
        return -val if neg else val

    def parse_prime_vector(self) -> PrimeVector:
        self.expect("sym", "{")
        return PrimeVector(dict(self.items("}", ",", self.parse_coefficient)))

    def parse_coefficient(self) -> tuple[int, Fraction]:
        p = int(self.expect("int").text)
        self.expect("sym", ":")
        return p, self.parse_rational()

    # -- declarations ---------------------------------------------------------

    def parse(self) -> SourceFile:
        decls: list[Decl] = []
        names: set[str] = set()
        mode = af.MODE_J
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.kind != "ident":
                self.fail(f"expected a declaration, found {tok.text!r}")
            if tok.text == "mode":
                self.next()
                mtok = self.expect("ident")
                if mtok.text not in af.MODES:
                    self.fail(f"unknown mode {mtok.text!r}", mtok)
                mode = mtok.text
                continue
            if tok.text == "object":
                decl = self.parse_object()
            elif tok.text == "diagram":
                decl = self.parse_diagram(mode)
            elif tok.text == "group":
                decl = self.parse_group()
            elif tok.text == "module":
                decl = self.parse_module()
            elif tok.text in ("cocycle1", "cocycle2"):
                decl = self.parse_cocycle()
            elif tok.text == "gdiagram":
                decl = self.parse_gdiagram()
            else:
                self.fail(f"unknown declaration {tok.text!r}")
            if decl.name in names:
                raise ParseError(f"duplicate name {decl.name!r}", decl.line, decl.col)
            names.add(decl.name)
            decls.append(decl)
        return SourceFile(tuple(decls), mode)

    def parse_object(self) -> ObjectDecl:
        head = self.expect("ident", "object")
        name = self.expect("ident").text
        self.expect("sym", "=")
        points = []
        while self.peek().kind == "ident" and self.peek().text in ("X", "Y"):
            k = self.next().text
            sign = self.next()
            if sign.kind != "sym" or sign.text not in "+-":
                self.fail("expected + or - after point kind", sign)
            self.expect("sym", "(")
            w = self.parse_rational()
            self.expect("sym", ")")
            points.append(PointSpec(k + sign.text, w))
        return ObjectDecl(name, tuple(points), head.line, head.col)

    def parse_layer(self, mode: Optional[str]) -> LayerSpec:
        """One layer; with mode None a group-network layer: integer arguments, no payload."""
        name_tok = self.expect("ident")
        args: list = []
        if self.accept("sym", "("):
            args = self.items(")", ",", self.parse_int if mode is None else self.parse_layer_arg)
        self.expect("sym", "@")
        pos = self.parse_int()
        payload: Optional[Payload] = None
        if name_tok.text == _DOT and mode is not None:
            payload = self.parse_payload(mode)
        return LayerSpec(name_tok.text, tuple(args), pos, payload, name_tok.line, name_tok.col)

    def parse_layer_arg(self) -> Fraction | str:
        """A rational, or a bare sign + or -; a - followed by an integer starts a rational."""
        tok = self.peek()
        if tok.kind == "sym" and tok.text == "+":
            self.next()
            return "+"
        if tok.kind == "sym" and tok.text == "-" and self.tokens[self.i + 1].kind != "int":
            self.next()
            return "-"
        return self.parse_rational()

    def parse_payload(self, mode: str) -> Payload:
        tok = self.peek()
        if mode == af.MODE_HFLOAT:
            value = self.parse_number()
            return float(value)
        if tok.kind == "sym" and tok.text == "{":
            vec = self.parse_prime_vector()
            if mode == af.MODE_H:
                return EntropyScalar(Fraction(0), vec)
            return vec
        const = self.parse_rational()
        self.expect("sym", "+")
        vec = self.parse_prime_vector()
        if mode != af.MODE_H:
            self.fail("constant + map payloads belong to H mode", tok)
        return EntropyScalar(const, vec)

    def parse_diagram(self, mode: str) -> DiagramDecl:
        head = self.expect("ident", "diagram")
        name = self.expect("ident").text
        self.expect("sym", ":")
        src = self.expect("ident").text
        self.expect("arrow")
        tgt = self.expect("ident").text
        layers = self.parse_layer_block(mode)
        return DiagramDecl(name, src, tgt, layers, mode, head.line, head.col)

    def parse_layer_block(self, mode: Optional[str]) -> tuple[LayerSpec, ...]:
        self.expect("sym", "{")
        return tuple(self.items("}", ";", lambda: self.parse_layer(mode)))

    def parse_group(self) -> GroupDecl:
        head = self.expect("ident", "group")
        name = self.expect("ident").text
        self.expect("sym", "=")
        ctor_tok = self.expect("ident")
        ctor = ctor_tok.text
        if ctor in ("cyclic", "aff1modp"):
            self.expect("sym", "(")
            n = self.parse_int()
            self.expect("sym", ")")
            args: tuple = (n,)
        elif ctor == "product":
            self.expect("sym", "(")
            g1 = self.expect("ident").text
            self.expect("sym", ",")
            g2 = self.expect("ident").text
            self.expect("sym", ")")
            args = (g1, g2)
        elif ctor == "table":
            args = (self.parse_int_matrix(),)
        else:
            self.fail(f"unknown group constructor {ctor!r}", ctor_tok)
        return GroupDecl(name, ctor, args, head.line, head.col)

    def parse_int_matrix(self) -> tuple[tuple[int, ...], ...]:
        self.expect("sym", "[")
        return tuple(self.items("]", ",", self.parse_int_row))

    def parse_int_row(self) -> tuple[int, ...]:
        self.expect("sym", "[")
        return tuple(self.items("]", ",", self.parse_int))

    def parse_module(self) -> ModuleDecl:
        head = self.expect("ident", "module")
        name = self.expect("ident").text
        self.expect("ident", "over")
        group = self.expect("ident").text
        self.expect("sym", "=")
        self.expect("ident", "z")
        self.expect("sym", "(")
        moduli = [self.parse_int()]
        while self.accept("sym", ","):
            moduli.append(self.parse_int())
        self.expect("sym", ")")
        action = None
        if self.peek().kind == "ident" and self.peek().text == "action":
            self.next()
            self.expect("sym", "{")
            action = tuple(sorted(self.items("}", ";", self.parse_action_entry)))
        return ModuleDecl(name, group, tuple(moduli), action, head.line, head.col)

    def parse_action_entry(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        g = self.parse_int()
        self.expect("sym", ":")
        return g, self.parse_int_matrix()

    def parse_uelt(self) -> tuple[int, ...]:
        self.expect("sym", "(")
        vals = [self.parse_int()]
        while self.accept("sym", ","):
            vals.append(self.parse_int())
        self.expect("sym", ")")
        return tuple(vals)

    def parse_cocycle(self) -> CocycleDecl:
        head = self.next()
        degree = 1 if head.text == "cocycle1" else 2
        name = self.expect("ident").text
        self.expect("sym", ":")
        group = self.expect("ident").text
        self.expect("arrow")
        module = self.expect("ident").text
        self.expect("sym", "=")
        self.expect("sym", "{")
        entries = tuple(sorted(self.items("}", ";", lambda: self.parse_cocycle_entry(degree))))
        return CocycleDecl(degree, name, group, module, entries, head.line, head.col)

    def parse_cocycle_entry(self, degree: int) -> tuple[object, tuple[int, ...]]:
        if degree == 2:
            self.expect("sym", "(")
            g = self.parse_int()
            self.expect("sym", ",")
            h = self.parse_int()
            self.expect("sym", ")")
            key: object = (g, h)
        else:
            key = self.parse_int()
        self.expect("sym", ":")
        return key, self.parse_uelt()

    def parse_gpoints(self) -> tuple[GPointSpec, ...]:
        self.expect("sym", "[")
        return tuple(self.items("]", ",", self.parse_gpoint))

    def parse_gpoint(self) -> GPointSpec:
        g = self.parse_int()
        side = self.expect("ident")
        if side.text not in ("L", "R"):
            self.fail("expected side L or R", side)
        return GPointSpec(g, side.text == "L")

    def parse_gdiagram(self) -> GDiagramDecl:
        head = self.expect("ident", "gdiagram")
        name = self.expect("ident").text
        self.expect("ident", "over")
        group = self.expect("ident").text
        self.expect("sym", ":")
        src = self.parse_gpoints()
        self.expect("arrow")
        tgt = self.parse_gpoints()
        layers = self.parse_layer_block(None)
        return GDiagramDecl(name, group, src, tgt, layers, head.line, head.col)


def parse(text: str) -> SourceFile:
    return _Parser(tokenize(text)).parse()


# ---------------------------------------------------------------------------
# Printer.


def _format_payload(payload: Payload) -> str:
    if isinstance(payload, (PrimeVector, EntropyScalar)):
        return payload.to_text()
    return repr(float(payload))


def _format_layer(layer: LayerSpec) -> str:
    text = layer.name
    if layer.args:
        parts = []
        for a in layer.args:
            parts.append(a if isinstance(a, str) else format_rational(a) if isinstance(a, Fraction) else str(a))
        text += "(" + ", ".join(parts) + ")"
    text += f" @{layer.pos}"
    if layer.payload is not None:
        text += " " + _format_payload(layer.payload)
    return text


def _print_layers(layers: tuple[LayerSpec, ...]) -> str:
    if not layers:
        return "{}"
    inner = "".join(f"  {_format_layer(l)};\n" for l in layers)
    return "{\n" + inner + "}"


def print_source(sf: SourceFile) -> str:
    out: list[str] = []
    mode = af.MODE_J
    for decl in sf.decls:
        if isinstance(decl, DiagramDecl) and decl.mode != mode:
            out.append(f"mode {decl.mode}")
            mode = decl.mode
        if isinstance(decl, ObjectDecl):
            pts = " ".join(f"{p.kind}({format_rational(p.weight)})" for p in decl.points)
            out.append(f"object {decl.name} ={' ' + pts if pts else ''}")
        elif isinstance(decl, DiagramDecl):
            out.append(
                f"diagram {decl.name} : {decl.source} -> {decl.target} "
                + _print_layers(decl.layers)
            )
        elif isinstance(decl, GroupDecl):
            if decl.ctor in ("cyclic", "aff1modp"):
                out.append(f"group {decl.name} = {decl.ctor}({decl.args[0]})")
            elif decl.ctor == "product":
                out.append(f"group {decl.name} = product({decl.args[0]}, {decl.args[1]})")
            else:
                rows = ", ".join("[" + ", ".join(map(str, row)) + "]" for row in decl.args[0])
                out.append(f"group {decl.name} = table [{rows}]")
        elif isinstance(decl, ModuleDecl):
            text = f"module {decl.name} over {decl.group} = z({', '.join(map(str, decl.moduli))})"
            if decl.action is not None:
                entries = "; ".join(
                    f"{g}: [{', '.join('[' + ', '.join(map(str, row)) + ']' for row in mat)}]"
                    for g, mat in decl.action
                )
                text += " action { " + entries + "; }"
            out.append(text)
        elif isinstance(decl, CocycleDecl):
            head = f"cocycle{decl.degree} {decl.name} : {decl.group} -> {decl.module} = "
            parts = []
            for key, u in decl.entries:
                k = f"({key[0]}, {key[1]})" if decl.degree == 2 else str(key)
                parts.append(f"{k}: ({', '.join(map(str, u))})")
            out.append(head + "{ " + "; ".join(parts) + ("; }" if parts else "}"))
        elif isinstance(decl, GDiagramDecl):
            def gp(pts):
                return "[" + ", ".join(f"{p.g} {'L' if p.left else 'R'}" for p in pts) + "]"

            out.append(
                f"gdiagram {decl.name} over {decl.group} : {gp(decl.source)} -> {gp(decl.target)} "
                + _print_layers(decl.layers)
            )
    if sf.final_mode != mode:
        out.append(f"mode {sf.final_mode}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Resolver: syntax tree -> semantic objects.

_POINT_KINDS = {"X+": af.Kind.XP, "X-": af.Kind.XM, "Y+": af.Kind.YP, "Y-": af.Kind.YM}


@dataclass
class Resolved:
    objects: dict[str, af.Obj] = field(default_factory=dict)
    diagrams: dict[str, af.Diagram] = field(default_factory=dict)
    groups: dict[str, Group] = field(default_factory=dict)
    modules: dict[str, GModule] = field(default_factory=dict)
    cocycles1: dict[str, Cocycle1] = field(default_factory=dict)
    cocycles2: dict[str, Cocycle2] = field(default_factory=dict)
    gdiagrams: dict[str, GDiagram] = field(default_factory=dict)


def _resolve_layers(table: dict, decl, src: tuple, tgt: tuple, calc: Calculus, order: int = 0):
    """The layers of a diagram declaration, built on src and ending in tgt.

    Each spec is checked against its row of the calculus's layer table
    (argument count and kinds; group elements below order), then applied in
    calc to the object below it.
    """
    cur, layers = src, []
    for spec in decl.layers:
        name, args, pos = spec.name, spec.args, spec.pos

        def fail(msg: str):
            raise ResolveError(msg, spec.line, spec.col)

        def pt(k: int):
            if not 0 <= pos + k < len(cur):
                fail(f"position {pos} out of range")
            return cur[pos + k]

        rule = table.get(name)
        if rule is None:
            fail(f"unknown layer kind {name!r}")
        if rule.args == (ENTRIES,):
            values = (tuple(args),)
        elif len(args) != len(rule.args):
            fail(
                f"wrong number of arguments for {name!r}: "
                f"expected {len(rule.args)}, found {len(args)}"
            )
        elif rule.infer is not None:
            values = rule.infer(pt)
        else:
            values = []
            for k, (kind, a) in enumerate(zip(rule.args, args), 1):
                value = _layer_arg(kind, a, order)
                if value is None:
                    what = f"{kind} below {order}" if kind == ELEMENT else kind
                    fail(f"argument {k} of {name!r} must be {what}, found {a}")
                values.append(value)
        if spec.payload is not None:
            values = (*values, spec.payload)
        try:
            gen = rule.build(*values)
            cur = calc.apply(cur, gen, pos)
        except LayerError as exc:
            fail(str(exc))
        layers.append((gen, pos))
    if cur != tgt:
        raise ResolveError(f"declared target does not match computed {cur!r}", decl.line, decl.col)
    return tuple(layers)


def resolve(sf: SourceFile) -> Resolved:
    """Build semantics in declaration order; names resolve backwards only."""
    out = Resolved()

    def lookup(table: dict, name: str, what: str, line: int, col: int):
        if name not in table:
            raise ResolveError(f"unknown {what} {name!r}", line, col)
        return table[name]

    for decl in sf.decls:
        if isinstance(decl, ObjectDecl):
            try:
                out.objects[decl.name] = tuple(
                    af.Pt(_POINT_KINDS[p.kind], p.weight) for p in decl.points
                )
            except af.DiagramError as exc:
                raise ResolveError(str(exc), decl.line, decl.col)
        elif isinstance(decl, DiagramDecl):
            src = lookup(out.objects, decl.source, "object", decl.line, decl.col)
            tgt = lookup(out.objects, decl.target, "object", decl.line, decl.col)
            layers = _resolve_layers(AFFINE_LAYERS, decl, src, tgt, af.AFFINE)
            out.diagrams[decl.name] = af.Diagram(src, layers, decl.mode)
        elif isinstance(decl, GroupDecl):
            if decl.ctor == "product":
                g1 = lookup(out.groups, decl.args[0], "group", decl.line, decl.col)
                g2 = lookup(out.groups, decl.args[1], "group", decl.line, decl.col)
                order = g1.order * g2.order
            elif decl.ctor == "aff1modp":
                order = decl.args[0] * (decl.args[0] - 1)
            else:  # cyclic(n), or a table with a row per element
                order = decl.args[0] if decl.ctor == "cyclic" else len(decl.args[0])
            try:
                # before the group's tables are built: H^1 over it stays within the bound
                check_system_size(order, 1, 1)
                if decl.ctor == "cyclic":
                    out.groups[decl.name] = Group.cyclic(decl.args[0])
                elif decl.ctor == "aff1modp":
                    out.groups[decl.name] = Group.aff1_mod_p(decl.args[0])
                elif decl.ctor == "product":
                    out.groups[decl.name] = Group.direct_product(g1, g2)
                else:
                    out.groups[decl.name] = Group.from_table(decl.args[0])
            except SizeBoundExceeded as exc:
                raise ResolveError(f"group {decl.name!r} is too large: {exc}", decl.line, decl.col)
            except GroupValidationError as exc:
                raise ResolveError(str(exc), decl.line, decl.col)
        elif isinstance(decl, ModuleDecl):
            G = lookup(out.groups, decl.group, "group", decl.line, decl.col)
            action = None
            if decl.action is not None:
                action = {g: [list(row) for row in mat] for g, mat in decl.action}
                for g in G.elements():
                    if g not in action:
                        raise ResolveError(
                            f"action table missing element {g}", decl.line, decl.col
                        )
            try:
                out.modules[decl.name] = GModule(G, decl.moduli, action)
            except GroupValidationError as exc:
                raise ResolveError(str(exc), decl.line, decl.col)
        elif isinstance(decl, CocycleDecl):
            G = lookup(out.groups, decl.group, "group", decl.line, decl.col)
            U = lookup(out.modules, decl.module, "module", decl.line, decl.col)
            if U.group is not G:
                raise ResolveError("module is over a different group", decl.line, decl.col)
            if decl.degree == 1:
                values = [U.zero()] * G.order
                for g, u in decl.entries:
                    if not 0 <= g < G.order:
                        raise ResolveError(f"element {g} out of range", decl.line, decl.col)
                    values[g] = U.reduce(u)
                f = Cocycle1(U, tuple(values))
                if not verify_cocycle1(f):
                    raise ResolveError(
                        f"{decl.name!r} is not a 1-cocycle", decl.line, decl.col
                    )
                out.cocycles1[decl.name] = f
            else:
                table = [[U.zero()] * G.order for _ in range(G.order)]
                for (g, h), u in decl.entries:
                    if not (0 <= g < G.order and 0 <= h < G.order):
                        raise ResolveError(f"pair ({g},{h}) out of range", decl.line, decl.col)
                    table[g][h] = U.reduce(u)
                c = Cocycle2(U, tuple(tuple(row) for row in table))
                if not is_normalized(c):
                    raise ResolveError(
                        f"{decl.name!r} is not normalized", decl.line, decl.col
                    )
                if not verify_cocycle2(c):
                    raise ResolveError(
                        f"{decl.name!r} is not a 2-cocycle", decl.line, decl.col
                    )
                out.cocycles2[decl.name] = c
        elif isinstance(decl, GDiagramDecl):
            G = lookup(out.groups, decl.group, "group", decl.line, decl.col)
            for p in decl.source + decl.target:
                if not 0 <= p.g < G.order:
                    raise ResolveError(f"element {p.g} out of range", decl.line, decl.col)
            src = tuple(GPt(p.g, p.left) for p in decl.source)
            tgt = tuple(GPt(p.g, p.left) for p in decl.target)
            layers = _resolve_layers(GROUP_LAYERS, decl, src, tgt, calculus(G), G.order)
            out.gdiagrams[decl.name] = GDiagram(G, src, layers)
    return out


# ---------------------------------------------------------------------------
# Unparsing semantic diagrams back into declarations (used by normalize -o).


_AFFINE_NAMES = {rule.build: (name, rule.args) for name, rule in AFFINE_LAYERS.items()}


def diagram_to_decl(name: str, src_name: str, tgt_name: str, d: af.Diagram) -> DiagramDecl:
    specs = []
    for gen, pos in d.layers:
        layer, kinds = _AFFINE_NAMES[type(gen)]
        values = [getattr(gen, f.name) for f in fields(gen)]
        args = tuple(("+" if v else "-") if k == SIGN else v for k, v in zip(kinds, values))
        specs.append(LayerSpec(layer, args, pos, getattr(gen, "payload", None)))
    return DiagramDecl(name, src_name, tgt_name, tuple(specs), d.mode)


def object_to_decl(name: str, obj: af.Obj) -> ObjectDecl:
    kinds = {af.Kind.XP: "X+", af.Kind.XM: "X-", af.Kind.YP: "Y+", af.Kind.YM: "Y-"}
    return ObjectDecl(name, tuple(PointSpec(kinds[p.kind], p.weight) for p in obj))
