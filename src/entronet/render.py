"""Static SVG emission for sliced diagrams.

One horizontal band per layer; additive strands are thin black lines with an
arrowhead tick showing orientation, multiplicative strands are thicker red
lines with a co-orientation tick, dots are labelled circles.  Output is
deterministic: identical input and options give byte-identical text.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from html import escape

from . import affine as af
from .groupnet.diagrams import GDiagram, gstates


@dataclass(frozen=True)
class RenderOptions:
    layer_height: float = 48.0
    strand_gap: float = 42.0
    font_size: float = 11.0
    margin: float = 24.0
    colors: dict = field(
        default_factory=lambda: {
            "X": "#000000",
            "Y": "#cc2222",
            "G": "#225599",
            "dot": "#000000",
        }
    )

    def __post_init__(self):
        if self.layer_height <= 0 or self.strand_gap <= 0 or self.font_size <= 0:
            raise ValueError("render dimensions must be positive")


def _fmt(x: float) -> str:
    return f"{x:.1f}"


class _Canvas:
    def __init__(self):
        self.elements: list[str] = []

    def line(self, x1, y1, x2, y2, stroke):
        color, width = stroke
        self.elements.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{color}" stroke-width="{width}" />'
        )

    def path(self, points, stroke):
        color, width = stroke
        coords = " L ".join(f"{_fmt(x)} {_fmt(y)}" for x, y in points)
        self.elements.append(
            f'<path d="M {coords}" fill="none" stroke="{color}" stroke-width="{width}" />'
        )

    def circle(self, x, y, r, color):
        self.elements.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(r)}" fill="{color}" />'
        )

    def text(self, x, y, s, size, color="#333333"):
        self.elements.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="{_fmt(size)}" '
            f'fill="{color}" font-family="monospace">{escape(s, quote=False)}</text>'
        )


def _point_label(pt: af.Pt) -> str:
    return f"{pt.kind.value}{pt.weight}"


def to_svg(d, opts: RenderOptions | None = None) -> str:
    """Render an affine diagram or a group network to SVG text."""
    opts = opts or RenderOptions()
    if isinstance(d, GDiagram):
        G, g_stroke = d.group, (opts.colors["G"], 1.4)
        return _svg(
            opts,
            gstates(d),
            d.layers,
            arity=lambda gen: (len(gen.dom(G)), len(gen.cod(G))),
            stroke=lambda pt: g_stroke,
            label=repr,
            label_dx=8,
            dot_label=lambda gen: str(gen.u),
        )
    x_stroke, y_stroke = (opts.colors["X"], 1.2), (opts.colors["Y"], 2.2)
    return _svg(
        opts,
        af.states(d),
        d.layers,
        arity=lambda gen: (len(gen.dom()), len(gen.cod())),
        stroke=lambda pt: x_stroke if pt.kind in (af.Kind.XP, af.Kind.XM) else y_stroke,
        label=_point_label,
        label_dx=10,
    )


def _band_positions(n: int, opts: RenderOptions) -> list[float]:
    return [opts.margin + opts.strand_gap * (i + 0.5) for i in range(n)]


def _svg(
    opts: RenderOptions, sts, layers, *, arity, stroke, label, label_dx, dot_label=None
) -> str:
    """One band per layer over the states sts; a layer of arity (0, 0) is a dot.

    arity(gen) gives (len(dom), len(cod)); stroke(pt) gives the color and width
    of a strand; label(pt) names a boundary point, drawn label_dx left of its
    strand; dot_label(gen), when given, writes next to each dot.
    """
    canvas = _Canvas()
    height = opts.margin * 2 + opts.layer_height * max(1, len(layers))
    width = opts.margin * 2 + opts.strand_gap * max(1, max(len(s) for s in sts))
    y = height - opts.margin

    for li, (gen, pos) in enumerate(layers):
        lower, upper = sts[li], sts[li + 1]
        y0, y1 = y - opts.layer_height * li, y - opts.layer_height * (li + 1)
        xs0, xs1 = _band_positions(len(lower), opts), _band_positions(len(upper), opts)
        ndom, ncod = arity(gen)
        ymid = (y0 + y1) / 2
        for i in range(pos):
            canvas.line(xs0[i], y0, xs1[i], y1, stroke(lower[i]))
        for i in range(pos + ndom, len(lower)):
            canvas.line(xs0[i], y0, xs1[i - ndom + ncod], y1, stroke(lower[i]))
        if not (ndom or ncod):
            x = opts.margin + opts.strand_gap * pos
            canvas.circle(x, ymid, 3.0, opts.colors["dot"])
            if dot_label is not None:
                canvas.text(x + 5, ymid - 4, dot_label(gen), opts.font_size)
            continue
        span = [xs0[pos + k] for k in range(ndom)] + [xs1[pos + k] for k in range(ncod)]
        mx = sum(span) / len(span)
        for k in range(ndom):
            canvas.path([(xs0[pos + k], y0), (mx, ymid)], stroke(lower[pos + k]))
        for k in range(ncod):
            canvas.path([(mx, ymid), (xs1[pos + k], y1)], stroke(upper[pos + k]))
    if not layers:
        xs = _band_positions(len(sts[0]), opts)
        for i, pt in enumerate(sts[0]):
            canvas.line(xs[i], y, xs[i], y - opts.layer_height, stroke(pt))

    xs_bot = _band_positions(len(sts[0]), opts)
    for i, pt in enumerate(sts[0]):
        canvas.text(xs_bot[i] - label_dx, height - 6, label(pt), opts.font_size)
    xs_top = _band_positions(len(sts[-1]), opts)
    for i, pt in enumerate(sts[-1]):
        canvas.text(xs_top[i] - label_dx, opts.margin - 8, label(pt), opts.font_size)

    body = "\n".join(canvas.elements)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">\n'
        f"{body}\n</svg>\n"
    )
