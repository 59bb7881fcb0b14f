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

Each keyword is one row of `DECLARATIONS`: its syntax-tree class, how it is
parsed, printed and resolved.  The syntax tree is made of named-tuple records,
equal only within a class; a declaration's trailing line and col show in its
repr but not in == or hash.
"""

from __future__ import annotations

import math
import re
import sys
from collections import namedtuple
from dataclasses import dataclass, field
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
from .scalars import (
    DoubleRangeExceeded,
    FactoringBudgetExceeded,
    format_rational,
    is_prime,
    to_double,
)
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


def _record(name: str, fields: str, defaults: tuple = ()) -> type:
    """A named-tuple class, shown as Name(field=value, ...) and equal only to
    an instance of its own class.  Fields line and col at the end, given
    defaults, are a position: the repr shows them, == and hash leave them out."""
    cls = namedtuple(name, fields, defaults=defaults, module=__name__)
    n = len(cls._fields) - 2 if "line" in cls._field_defaults else len(cls._fields)

    def eq(self, other) -> bool:
        return type(other) is type(self) and self[:n] == other[:n]

    cls.__eq__ = eq
    cls.__ne__ = lambda self, other: not eq(self, other)
    cls.__hash__ = lambda self: hash(self[:n])
    return cls


Token = _record("Token", "kind text line col")


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

PointSpec = _record("PointSpec", "kind weight")  # kind: "X+", "X-", "Y+" or "Y-"
GPointSpec = _record("GPointSpec", "g left")
ObjectDecl = _record("ObjectDecl", "name points line col", (0, 0))
# payload: a PrimeVector, EntropyScalar or float on an affine dot, else None
LayerSpec = _record("LayerSpec", "name args pos payload line col", (None, 0, 0))
DiagramDecl = _record("DiagramDecl", "name source target layers mode line col", (0, 0))
# ctor: cyclic, aff1modp or product, args (n,) or (A, B); or table, args (rows,)
GroupDecl = _record("GroupDecl", "name ctor args line col", (0, 0))
# action: None, or ((g, matrix), ...) sorted by g
ModuleDecl = _record("ModuleDecl", "name group moduli action line col", (0, 0))
# entries, sorted: degree 1 ((g, u), ...); degree 2 (((g, h), u), ...)
CocycleDecl = _record("CocycleDecl", "degree name group module entries line col", (0, 0))
# source and target: tuples of GPointSpec
GDiagramDecl = _record("GDiagramDecl", "name group source target layers line col", (0, 0))
SourceFile = _record("SourceFile", "decls final_mode", (af.MODE_J,))

Payload = Union[PrimeVector, EntropyScalar, float]
Decl = Union[ObjectDecl, DiagramDecl, GroupDecl, ModuleDecl, CocycleDecl, GDiagramDecl]


# ---------------------------------------------------------------------------
# Parser.

T = TypeVar("T")


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0
        self.mode = af.MODE_J  # set by a mode line, read by the diagrams below it

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

    def items(self, opener: str, close: str, sep: str, item: Callable[[], T]) -> tuple[T, ...]:
        """After `opener`, items parsed by `item`, each but the last followed by
        `sep`, up to `close`; a trailing `sep` is allowed."""
        self.expect("sym", opener)
        out = []
        while not self.accept("sym", close):
            out.append(item())
            if not self.accept("sym", sep):
                self.expect("sym", close)
                break
        return tuple(out)

    # -- scalars ------------------------------------------------------------

    def parse_nat(self) -> int:
        """An integer literal.  One longer than the interpreter's limit on
        str-to-int conversion, which bounds that quadratic work, is refused."""
        tok = self.expect("int")
        try:
            return int(tok.text)
        except ValueError:
            limit = sys.get_int_max_str_digits()
            self.fail(f"integer literal of {len(tok.text)} digits, past the limit of {limit}", tok)

    def parse_int(self) -> int:
        neg = self.accept("sym", "-") is not None
        value = self.parse_nat()
        return -value if neg else value

    def parse_rational(self) -> Fraction:
        neg = self.accept("sym", "-") is not None
        num = self.parse_nat()
        if self.accept("sym", "/"):
            den_tok = self.peek()
            den = self.parse_nat()
            if den == 0:
                self.fail("zero denominator", den_tok)
            value = Fraction(num, den)
        else:
            value = Fraction(num)
        return -value if neg else value

    def parse_double(self) -> float:
        """A finite double: a float literal (with a dot or an exponent) or a rational."""
        start = self.i
        neg = self.accept("sym", "-") is not None
        tok = self.peek()
        if tok.kind != "float":
            self.i = start
            try:
                return to_double(self.parse_rational())
            except DoubleRangeExceeded as exc:
                self.fail(str(exc), tok)
        val = float(self.next().text)
        if not math.isfinite(val):
            self.fail("float literal past the double range", tok)
        return -val if neg else val

    def parse_prime_vector(self) -> PrimeVector:
        """Coefficients `p: q` in braces.  Once its coefficient is read, a key
        must be a prime not given before."""
        coeffs: dict[int, Fraction] = {}

        def coefficient() -> None:
            tok = self.peek()
            p = self.parse_nat()
            self.expect("sym", ":")
            q = self.parse_rational()
            if p in coeffs:
                self.fail(f"payload key {p} given twice", tok)
            try:
                if not is_prime(p):
                    self.fail(f"payload key {p} is not a prime", tok)
            except FactoringBudgetExceeded as exc:
                self.fail(f"payload key: {exc}", tok)
            coeffs[p] = q

        self.items("{", "}", ",", coefficient)
        return PrimeVector(coeffs)

    def parse_ints(self) -> tuple[int, ...]:
        """One or more integers in parentheses, separated by commas."""
        self.expect("sym", "(")
        vals = [self.parse_int()]
        while self.accept("sym", ","):
            vals.append(self.parse_int())
        self.expect("sym", ")")
        return tuple(vals)

    # -- declarations: each reader starts after its keyword, the token head ----

    def parse(self) -> SourceFile:
        decls: list[Decl] = []
        names: set[str] = set()
        while self.peek().kind != "eof":
            tok = self.next()
            if tok.kind != "ident":
                self.fail(f"expected a declaration, found {tok.text!r}", tok)
            if tok.text == "mode":
                mtok = self.expect("ident")
                if mtok.text not in af.MODES:
                    self.fail(f"unknown mode {mtok.text!r}", mtok)
                self.mode = mtok.text
                continue
            row = DECLARATIONS.get(tok.text)
            if row is None:
                self.fail(f"unknown declaration {tok.text!r}", tok)
            decl = row.parse(self, tok)
            if decl.name in names:
                raise ParseError(f"duplicate name {decl.name!r}", decl.line, decl.col)
            names.add(decl.name)
            decls.append(decl)
        return SourceFile(tuple(decls), self.mode)

    def parse_object(self, head: Token) -> ObjectDecl:
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
        arg = self.parse_int if mode is None else self.parse_layer_arg
        args = self.items("(", ")", ",", arg) if self.peek().text == "(" else ()
        self.expect("sym", "@")
        pos = self.parse_int()
        payload: Optional[Payload] = None
        if name_tok.text == _DOT and mode is not None:
            payload = self.parse_payload(mode)
        return LayerSpec(name_tok.text, args, pos, payload, name_tok.line, name_tok.col)

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
            return self.parse_double()
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

    def parse_diagram(self, head: Token) -> DiagramDecl:
        name = self.expect("ident").text
        self.expect("sym", ":")
        src = self.expect("ident").text
        self.expect("arrow")
        tgt = self.expect("ident").text
        layers = self.parse_layer_block(self.mode)
        return DiagramDecl(name, src, tgt, layers, self.mode, head.line, head.col)

    def parse_layer_block(self, mode: Optional[str]) -> tuple[LayerSpec, ...]:
        return self.items("{", "}", ";", lambda: self.parse_layer(mode))

    def parse_group(self, head: Token) -> GroupDecl:
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
        return self.items("[", "]", ",", lambda: self.items("[", "]", ",", self.parse_int))

    def parse_module(self, head: Token) -> ModuleDecl:
        name = self.expect("ident").text
        self.expect("ident", "over")
        group = self.expect("ident").text
        self.expect("sym", "=")
        self.expect("ident", "z")
        moduli = self.parse_ints()
        action = None
        if self.accept("ident", "action"):
            action = tuple(sorted(self.items("{", "}", ";", self.parse_action_entry)))
        return ModuleDecl(name, group, moduli, action, head.line, head.col)

    def parse_action_entry(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        g = self.parse_int()
        self.expect("sym", ":")
        return g, self.parse_int_matrix()

    def parse_cocycle(self, head: Token) -> CocycleDecl:
        degree = 1 if head.text == "cocycle1" else 2
        name = self.expect("ident").text
        self.expect("sym", ":")
        group = self.expect("ident").text
        self.expect("arrow")
        module = self.expect("ident").text
        self.expect("sym", "=")
        entries = self.items("{", "}", ";", lambda: self.parse_cocycle_entry(degree))
        entries = tuple(sorted(entries))
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
        return key, self.parse_ints()

    def parse_gpoint(self) -> GPointSpec:
        g = self.parse_int()
        side = self.expect("ident")
        if side.text not in ("L", "R"):
            self.fail("expected side L or R", side)
        return GPointSpec(g, side.text == "L")

    def parse_gdiagram(self, head: Token) -> GDiagramDecl:
        name = self.expect("ident").text
        self.expect("ident", "over")
        group = self.expect("ident").text
        self.expect("sym", ":")
        src = self.items("[", "]", ",", self.parse_gpoint)
        self.expect("arrow")
        tgt = self.items("[", "]", ",", self.parse_gpoint)
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
        args = (format_rational(a) if isinstance(a, Fraction) else str(a) for a in layer.args)
        text += "(" + ", ".join(args) + ")"
    text += f" @{layer.pos}"
    if layer.payload is not None:
        text += " " + _format_payload(layer.payload)
    return text


def _print_layers(layers: tuple[LayerSpec, ...]) -> str:
    if not layers:
        return "{}"
    inner = "".join(f"  {_format_layer(l)};\n" for l in layers)
    return "{\n" + inner + "}"


def _ints(values) -> str:
    return ", ".join(map(str, values))


def _matrix(rows) -> str:
    return "[" + ", ".join(f"[{_ints(row)}]" for row in rows) + "]"


def _table(entries) -> str:
    """Entries in braces, each followed by a semicolon: `{ }` when there are none."""
    return "{ " + "".join(f"{e}; " for e in entries) + "}"


def _print_object(decl: ObjectDecl) -> str:
    pts = "".join(f" {p.kind}({format_rational(p.weight)})" for p in decl.points)
    return f"object {decl.name} ={pts}"


def _print_diagram(decl: DiagramDecl) -> str:
    return f"diagram {decl.name} : {decl.source} -> {decl.target} " + _print_layers(decl.layers)


def _print_group(decl: GroupDecl) -> str:
    if decl.ctor == "table":
        return f"group {decl.name} = table {_matrix(decl.args[0])}"
    return f"group {decl.name} = {decl.ctor}({_ints(decl.args)})"


def _print_module(decl: ModuleDecl) -> str:
    text = f"module {decl.name} over {decl.group} = z({_ints(decl.moduli)})"
    if decl.action is None:
        return text
    return text + " action " + _table(f"{g}: {_matrix(mat)}" for g, mat in decl.action)


def _print_cocycle(decl: CocycleDecl) -> str:
    parts = []
    for key, u in decl.entries:
        k = f"({key[0]}, {key[1]})" if decl.degree == 2 else str(key)
        parts.append(f"{k}: ({_ints(u)})")
    return f"cocycle{decl.degree} {decl.name} : {decl.group} -> {decl.module} = " + _table(parts)


def _print_gdiagram(decl: GDiagramDecl) -> str:
    def gp(pts):
        return "[" + ", ".join(f"{p.g} {'L' if p.left else 'R'}" for p in pts) + "]"

    head = f"gdiagram {decl.name} over {decl.group} : {gp(decl.source)} -> {gp(decl.target)} "
    return head + _print_layers(decl.layers)


def print_source(sf: SourceFile) -> str:
    out: list[str] = []
    mode = af.MODE_J
    for decl in sf.decls:
        if isinstance(decl, DiagramDecl) and decl.mode != mode:
            out.append(f"mode {decl.mode}")
            mode = decl.mode
        out.append(_ROWS[type(decl)].print(decl))
    if sf.final_mode != mode:
        out.append(f"mode {sf.final_mode}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Resolver: syntax tree -> semantic objects.


@dataclass
class Resolved:
    objects: dict[str, af.Obj] = field(default_factory=dict)
    diagrams: dict[str, af.Diagram] = field(default_factory=dict)
    groups: dict[str, Group] = field(default_factory=dict)
    modules: dict[str, GModule] = field(default_factory=dict)
    cocycles1: dict[str, Cocycle1] = field(default_factory=dict)
    cocycles2: dict[str, Cocycle2] = field(default_factory=dict)
    gdiagrams: dict[str, GDiagram] = field(default_factory=dict)


def _lookup(table: dict, name: str, what: str, decl: Decl):
    if name not in table:
        raise ResolveError(f"unknown {what} {name!r}", decl.line, decl.col)
    return table[name]


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


def _resolve_object(decl: ObjectDecl, out: Resolved) -> None:
    out.objects[decl.name] = tuple(af.Pt(af.Kind(p.kind), p.weight) for p in decl.points)


def _resolve_diagram(decl: DiagramDecl, out: Resolved) -> None:
    src = _lookup(out.objects, decl.source, "object", decl)
    tgt = _lookup(out.objects, decl.target, "object", decl)
    layers = _resolve_layers(AFFINE_LAYERS, decl, src, tgt, af.AFFINE)
    out.diagrams[decl.name] = af.Diagram(src, layers, decl.mode)


def _resolve_group(decl: GroupDecl, out: Resolved) -> None:
    if decl.ctor == "product":
        g1 = _lookup(out.groups, decl.args[0], "group", decl)
        g2 = _lookup(out.groups, decl.args[1], "group", decl)
        order = g1.order * g2.order
    elif decl.ctor == "aff1modp":
        order = decl.args[0] * (decl.args[0] - 1)
    else:  # cyclic(n), or a table with a row per element
        order = decl.args[0] if decl.ctor == "cyclic" else len(decl.args[0])
    try:
        # before the group's tables are built: H^1 over it stays within the bound
        check_system_size(order, 1, 1)
    except SizeBoundExceeded as exc:
        raise ResolveError(f"group {decl.name!r} is too large: {exc}", decl.line, decl.col)
    if decl.ctor == "product":
        out.groups[decl.name] = Group.direct_product(g1, g2)
    else:
        build = {"cyclic": Group.cyclic, "aff1modp": Group.aff1_mod_p, "table": Group.from_table}
        out.groups[decl.name] = build[decl.ctor](decl.args[0])


def _resolve_module(decl: ModuleDecl, out: Resolved) -> None:
    G = _lookup(out.groups, decl.group, "group", decl)
    action = None
    if decl.action is not None:
        action = {}
        for g, mat in decl.action:
            if g in action:
                raise ResolveError(f"action table gives element {g} twice", decl.line, decl.col)
            action[g] = [list(row) for row in mat]
        for g in G.elements():
            if g not in action:
                raise ResolveError(f"action table missing element {g}", decl.line, decl.col)
    out.modules[decl.name] = GModule(G, decl.moduli, action)


def _resolve_cocycle(decl: CocycleDecl, out: Resolved) -> None:
    G = _lookup(out.groups, decl.group, "group", decl)
    U = _lookup(out.modules, decl.module, "module", decl)
    if U.group is not G:
        raise ResolveError("module is over a different group", decl.line, decl.col)
    values = {}  # element (degree 1) or pair (degree 2) -> module element
    for key, u in decl.entries:
        elements = key if decl.degree == 2 else (key,)
        where = "pair ({},{})".format(*key) if decl.degree == 2 else f"element {key}"
        if not all(0 <= g < G.order for g in elements):
            raise ResolveError(f"{where} out of range", decl.line, decl.col)
        if key in values:
            raise ResolveError(f"{where} given twice", decl.line, decl.col)
        values[key] = U.reduce(u)
    zero, n = U.zero(), range(G.order)
    if decl.degree == 1:
        f = Cocycle1(U, tuple(values.get(g, zero) for g in n))
        if not verify_cocycle1(f):
            raise ResolveError(f"{decl.name!r} is not a 1-cocycle", decl.line, decl.col)
        out.cocycles1[decl.name] = f
        return
    c = Cocycle2(U, tuple(tuple(values.get((g, h), zero) for h in n) for g in n))
    if not is_normalized(c):
        raise ResolveError(f"{decl.name!r} is not normalized", decl.line, decl.col)
    if not verify_cocycle2(c):
        raise ResolveError(f"{decl.name!r} is not a 2-cocycle", decl.line, decl.col)
    out.cocycles2[decl.name] = c


def _resolve_gdiagram(decl: GDiagramDecl, out: Resolved) -> None:
    G = _lookup(out.groups, decl.group, "group", decl)
    for p in decl.source + decl.target:
        if not 0 <= p.g < G.order:
            raise ResolveError(f"element {p.g} out of range", decl.line, decl.col)
    src = tuple(GPt(p.g, p.left) for p in decl.source)
    tgt = tuple(GPt(p.g, p.left) for p in decl.target)
    layers = _resolve_layers(GROUP_LAYERS, decl, src, tgt, calculus(G), G.order)
    out.gdiagrams[decl.name] = GDiagram(G, src, layers)


def resolve(sf: SourceFile) -> Resolved:
    """Build semantics in declaration order; names resolve backwards only.  A
    group or diagram error inside a declaration is refused at the declaration."""
    out = Resolved()
    for decl in sf.decls:
        try:
            _ROWS[type(decl)].resolve(decl, out)
        except (GroupValidationError, af.DiagramError) as exc:
            raise ResolveError(str(exc), decl.line, decl.col)
    return out


# A declaration keyword's row: its syntax-tree class; its reader, a _Parser
# method called with the keyword token; its printer; and its resolver, which
# adds what the declaration names to a Resolved.
Declaration = _record("Declaration", "node parse print resolve")

DECLARATIONS = {
    "object": Declaration(ObjectDecl, _Parser.parse_object, _print_object, _resolve_object),
    "diagram": Declaration(DiagramDecl, _Parser.parse_diagram, _print_diagram, _resolve_diagram),
    "group": Declaration(GroupDecl, _Parser.parse_group, _print_group, _resolve_group),
    "module": Declaration(ModuleDecl, _Parser.parse_module, _print_module, _resolve_module),
    "cocycle1": Declaration(CocycleDecl, _Parser.parse_cocycle, _print_cocycle, _resolve_cocycle),
    "cocycle2": Declaration(CocycleDecl, _Parser.parse_cocycle, _print_cocycle, _resolve_cocycle),
    "gdiagram": Declaration(
        GDiagramDecl, _Parser.parse_gdiagram, _print_gdiagram, _resolve_gdiagram
    ),
}

# the row print_source and resolve use for a declaration: both cocycle rows are alike
_ROWS = {row.node: row for row in DECLARATIONS.values()}


# ---------------------------------------------------------------------------
# Unparsing semantic diagrams back into declarations (used by normalize -o).


_AFFINE_NAMES = {rule.build: (name, rule.args) for name, rule in AFFINE_LAYERS.items()}


def diagram_to_decl(name: str, src_name: str, tgt_name: str, d: af.Diagram) -> DiagramDecl:
    specs = []
    for gen, pos in d.layers:
        layer, kinds = _AFFINE_NAMES[type(gen)]
        args = tuple(("+" if v else "-") if k == SIGN else v for k, v in zip(kinds, gen))
        specs.append(LayerSpec(layer, args, pos, getattr(gen, "payload", None)))
    return DiagramDecl(name, src_name, tgt_name, tuple(specs), d.mode)


def object_to_decl(name: str, obj: af.Obj) -> ObjectDecl:
    return ObjectDecl(name, tuple(PointSpec(p.kind.value, p.weight) for p in obj))
