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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

from . import affine as af
from .jspace import EntropyScalar, PrimeVector
from .groupnet.cohomology import Cocycle1, Cocycle2, is_normalized, verify_cocycle1, verify_cocycle2
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
)
from .groupnet.groups import GModule, Group, GroupValidationError
from .scalars import format_rational


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        self.line, self.col = line, col
        super().__init__(f"{line}:{col}: {message}")


class ResolveError(Exception):
    def __init__(self, message: str, line: int, col: int):
        self.line, self.col = line, col
        super().__init__(f"{line}:{col}: {message}")


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
        neg = self.accept("sym", "-") is not None
        tok = self.peek()
        if tok.kind == "float":
            self.next()
            val = float(tok.text)
            return -val if neg else val
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

    def parse_prime_vector(self) -> PrimeVector:
        self.expect("sym", "{")
        coeffs: dict[int, Fraction] = {}
        while not self.accept("sym", "}"):
            p_tok = self.expect("int")
            p = int(p_tok.text)
            self.expect("sym", ":")
            coeffs[p] = self.parse_rational()
            if not self.accept("sym", ","):
                self.expect("sym", "}")
                break
        return PrimeVector(coeffs)

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

    def parse_layer(self, mode: str) -> LayerSpec:
        name_tok = self.expect("ident")
        args: list = []
        if self.accept("sym", "("):
            while not self.accept("sym", ")"):
                tok = self.peek()
                if tok.kind == "sym" and tok.text == "+":
                    self.next()
                    args.append("+")
                elif (
                    tok.kind == "sym"
                    and tok.text == "-"
                    and self.tokens[self.i + 1].kind != "int"
                ):
                    self.next()
                    args.append("-")
                else:
                    args.append(self.parse_rational())
                if not self.accept("sym", ","):
                    self.expect("sym", ")")
                    break
        self.expect("sym", "@")
        pos = self.parse_int()
        payload: Optional[Payload] = None
        if name_tok.text == "dot":
            payload = self.parse_payload(mode)
        return LayerSpec(name_tok.text, tuple(args), pos, payload, name_tok.line, name_tok.col)

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

    def parse_layer_block(self, mode: str) -> tuple[LayerSpec, ...]:
        self.expect("sym", "{")
        layers = []
        while not self.accept("sym", "}"):
            layers.append(self.parse_layer(mode))
            if not self.accept("sym", ";"):
                self.expect("sym", "}")
                break
        return tuple(layers)

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
        rows = []
        while not self.accept("sym", "]"):
            self.expect("sym", "[")
            row = []
            while not self.accept("sym", "]"):
                row.append(self.parse_int())
                if not self.accept("sym", ","):
                    self.expect("sym", "]")
                    break
            rows.append(tuple(row))
            if not self.accept("sym", ","):
                self.expect("sym", "]")
                break
        return tuple(rows)

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
            entries = []
            while not self.accept("sym", "}"):
                g = self.parse_int()
                self.expect("sym", ":")
                entries.append((g, self.parse_int_matrix()))
                if not self.accept("sym", ";"):
                    self.expect("sym", "}")
                    break
            action = tuple(sorted(entries))
        return ModuleDecl(name, group, tuple(moduli), action, head.line, head.col)

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
        entries = []
        while not self.accept("sym", "}"):
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
            entries.append((key, self.parse_uelt()))
            if not self.accept("sym", ";"):
                self.expect("sym", "}")
                break
        return CocycleDecl(degree, name, group, module, tuple(sorted(entries)), head.line, head.col)

    def parse_gpoints(self) -> tuple[GPointSpec, ...]:
        self.expect("sym", "[")
        pts = []
        while not self.accept("sym", "]"):
            g = self.parse_int()
            side = self.expect("ident")
            if side.text not in ("L", "R"):
                self.fail("expected side L or R", side)
            pts.append(GPointSpec(g, side.text == "L"))
            if not self.accept("sym", ","):
                self.expect("sym", "]")
                break
        return tuple(pts)

    def parse_gdiagram(self) -> GDiagramDecl:
        head = self.expect("ident", "gdiagram")
        name = self.expect("ident").text
        self.expect("ident", "over")
        group = self.expect("ident").text
        self.expect("sym", ":")
        src = self.parse_gpoints()
        self.expect("arrow")
        tgt = self.parse_gpoints()
        self.expect("sym", "{")
        layers = []
        while not self.accept("sym", "}"):
            name_tok = self.expect("ident")
            args: list = []
            if self.accept("sym", "("):
                while not self.accept("sym", ")"):
                    args.append(self.parse_int())
                    if not self.accept("sym", ","):
                        self.expect("sym", ")")
                        break
            self.expect("sym", "@")
            pos = self.parse_int()
            layers.append(LayerSpec(name_tok.text, tuple(args), pos, None, name_tok.line, name_tok.col))
            if not self.accept("sym", ";"):
                self.expect("sym", "}")
                break
        return GDiagramDecl(name, group, src, tgt, tuple(layers), head.line, head.col)


def parse(text: str) -> SourceFile:
    return _Parser(tokenize(text)).parse()


# ---------------------------------------------------------------------------
# Printer.


def _format_payload(payload: Payload) -> str:
    if isinstance(payload, PrimeVector):
        return payload.to_text()
    if isinstance(payload, EntropyScalar):
        return f"{format_rational(payload.constant)} + {payload.logpart.to_text()}"
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


def _resolve_affine_layer(obj: af.Obj, spec: LayerSpec) -> af.Layer:
    def fail(msg: str):
        raise ResolveError(msg, spec.line, spec.col)

    def pt(i: int) -> af.Pt:
        if i < 0 or i >= len(obj):
            fail(f"position {spec.pos} out of range")
        return obj[i]

    name, args, pos = spec.name, spec.args, spec.pos
    try:
        if name == "add_merge":
            return af.AddMerge(pt(pos).weight, pt(pos + 1).weight), pos
        if name == "add_split":
            return af.AddSplit(args[0], args[1]), pos
        if name == "add_merge_dual":
            return af.AddMergeDual(pt(pos + 1).weight, pt(pos).weight), pos
        if name == "add_split_dual":
            return af.AddSplitDual(args[0], args[1]), pos
        if name == "add_cross":
            return af.AddCross(pt(pos), pt(pos + 1)), pos
        if name == "xy_cross":
            return af.XYCross(pt(pos), pt(pos + 1)), pos
        if name == "mult_merge":
            return af.MultMerge(pt(pos).weight, pt(pos + 1).weight), pos
        if name == "mult_split":
            return af.MultSplit(args[0], args[1]), pos
        if name == "mult_merge_dual":
            return af.MultMergeDual(pt(pos).weight, pt(pos + 1).weight), pos
        if name == "mult_split_dual":
            return af.MultSplitDual(args[0], args[1]), pos
        if name == "coorient_rev":
            return af.CoorientRev(pt(pos).weight, pt(pos).kind is af.Kind.YP), pos
        if name == "cup_x":
            return af.CupX(args[0], args[1] == "+"), pos
        if name == "cap_x":
            return af.CapX(pt(pos).weight, pt(pos).kind is af.Kind.XP), pos
        if name == "cup_y":
            return af.CupY(args[0], args[1] == "+"), pos
        if name == "cap_y":
            return af.CapY(pt(pos).weight, pt(pos).kind is af.Kind.YP), pos
        if name == "dot":
            return af.Dot(spec.payload), pos
    except IndexError:
        fail(f"wrong number of arguments for {name!r}")
    except af.DiagramError as exc:
        fail(str(exc))
    fail(f"unknown layer kind {name!r}")


def _resolve_glayer(G: Group, obj, spec: LayerSpec):
    def fail(msg: str):
        raise ResolveError(msg, spec.line, spec.col)

    def pt(i: int) -> GPt:
        if i < 0 or i >= len(obj):
            fail(f"position {spec.pos} out of range")
        return obj[i]

    def elt(k: int) -> int:
        if not 0 <= args[k] < G.order:
            fail(f"element {args[k]} out of range")
        return args[k]

    name, args, pos = spec.name, spec.args, spec.pos
    try:
        if name == "merge_l":
            return VMergeL(pt(pos).g, pt(pos + 1).g), pos
        if name == "merge_r":
            return VMergeR(pt(pos).g, pt(pos + 1).g), pos
        if name == "split_l":
            return VSplitL(elt(0), elt(1)), pos
        if name == "split_r":
            return VSplitR(elt(0), elt(1)), pos
        if name == "flip":
            return GFlip(pt(pos).g, pt(pos).left), pos
        if name == "cup_lr":
            return GCupLR(elt(0)), pos
        if name == "cup_rl":
            return GCupRL(elt(0)), pos
        if name == "cap":
            p, q = pt(pos), pt(pos + 1)
            if p.left and not q.left:
                return GCapLR(p.g), pos
            if not p.left and q.left:
                return GCapRL(p.g), pos
            fail("cap needs opposite co-orientations")
        if name == "t2_merge_ll":
            return T2MergeLL(pt(pos).g, pt(pos + 1).g), pos
        if name == "t2_merge_rr":
            return T2MergeRR(pt(pos).g, pt(pos + 1).g), pos
        if name == "t2_split_ll":
            return T2SplitLL(elt(0), elt(1)), pos
        if name == "t2_split_rr":
            return T2SplitRR(elt(0), elt(1)), pos
        if name == "dot":
            return GDot(tuple(args)), pos
    except IndexError:
        fail(f"wrong number of arguments for {name!r}")
    fail(f"unknown layer kind {name!r}")


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
            cur = src
            layers = []
            for spec in decl.layers:
                gen, pos = _resolve_affine_layer(cur, spec)
                try:
                    cur = af.apply_layer(cur, gen, pos)
                except af.DiagramError as exc:
                    raise ResolveError(str(exc), spec.line, spec.col)
                layers.append((gen, pos))
            if cur != tgt:
                raise ResolveError(
                    f"declared target {decl.target!r} does not match computed {cur!r}",
                    decl.line,
                    decl.col,
                )
            out.diagrams[decl.name] = af.Diagram(src, tuple(layers), decl.mode)
        elif isinstance(decl, GroupDecl):
            try:
                if decl.ctor == "cyclic":
                    out.groups[decl.name] = Group.cyclic(decl.args[0])
                elif decl.ctor == "aff1modp":
                    out.groups[decl.name] = Group.aff1_mod_p(decl.args[0])
                elif decl.ctor == "product":
                    g1 = lookup(out.groups, decl.args[0], "group", decl.line, decl.col)
                    g2 = lookup(out.groups, decl.args[1], "group", decl.line, decl.col)
                    out.groups[decl.name] = Group.direct_product(g1, g2)
                else:
                    out.groups[decl.name] = Group.from_table(decl.args[0])
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
            cur = src
            layers = []
            for spec in decl.layers:
                gen, pos = _resolve_glayer(G, cur, spec)
                from .groupnet.diagrams import GDiagramError, apply_glayer

                try:
                    cur = apply_glayer(G, cur, gen, pos)
                except GDiagramError as exc:
                    raise ResolveError(str(exc), spec.line, spec.col)
                layers.append((gen, pos))
            if cur != tgt:
                raise ResolveError(
                    f"declared target does not match computed {cur!r}", decl.line, decl.col
                )
            out.gdiagrams[decl.name] = GDiagram(G, src, tuple(layers))
    return out


# ---------------------------------------------------------------------------
# Unparsing semantic diagrams back into declarations (used by normalize -o).


def diagram_to_decl(name: str, src_name: str, tgt_name: str, d: af.Diagram) -> DiagramDecl:
    specs = []
    for gen, pos in d.layers:
        if isinstance(gen, af.AddMerge):
            specs.append(LayerSpec("add_merge", (), pos))
        elif isinstance(gen, af.AddSplit):
            specs.append(LayerSpec("add_split", (gen.a, gen.b), pos))
        elif isinstance(gen, af.AddMergeDual):
            specs.append(LayerSpec("add_merge_dual", (), pos))
        elif isinstance(gen, af.AddSplitDual):
            specs.append(LayerSpec("add_split_dual", (gen.a, gen.b), pos))
        elif isinstance(gen, af.AddCross):
            specs.append(LayerSpec("add_cross", (), pos))
        elif isinstance(gen, af.XYCross):
            specs.append(LayerSpec("xy_cross", (), pos))
        elif isinstance(gen, af.MultMerge):
            specs.append(LayerSpec("mult_merge", (), pos))
        elif isinstance(gen, af.MultSplit):
            specs.append(LayerSpec("mult_split", (gen.c1, gen.c2), pos))
        elif isinstance(gen, af.MultMergeDual):
            specs.append(LayerSpec("mult_merge_dual", (), pos))
        elif isinstance(gen, af.MultSplitDual):
            specs.append(LayerSpec("mult_split_dual", (gen.c1, gen.c2), pos))
        elif isinstance(gen, af.CoorientRev):
            specs.append(LayerSpec("coorient_rev", (), pos))
        elif isinstance(gen, af.CupX):
            specs.append(LayerSpec("cup_x", (gen.a, "+" if gen.plus_on_left else "-"), pos))
        elif isinstance(gen, af.CapX):
            specs.append(LayerSpec("cap_x", (), pos))
        elif isinstance(gen, af.CupY):
            specs.append(LayerSpec("cup_y", (gen.c, "+" if gen.plus_on_left else "-"), pos))
        elif isinstance(gen, af.CapY):
            specs.append(LayerSpec("cap_y", (), pos))
        elif isinstance(gen, af.Dot):
            specs.append(LayerSpec("dot", (), pos, gen.payload))
        else:  # pragma: no cover
            raise TypeError(f"cannot unparse {gen!r}")
    return DiagramDecl(name, src_name, tgt_name, tuple(specs), d.mode)


def object_to_decl(name: str, obj: af.Obj) -> ObjectDecl:
    kinds = {af.Kind.XP: "X+", af.Kind.XM: "X-", af.Kind.YP: "Y+", af.Kind.YM: "Y-"}
    return ObjectDecl(name, tuple(PointSpec(kinds[p.kind], p.weight) for p in obj))
