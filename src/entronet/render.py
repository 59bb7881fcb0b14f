"""Static SVG emission for sliced diagrams.

One horizontal band per layer; additive strands are thin black lines with an
arrowhead tick showing orientation, multiplicative strands are thicker red
lines with a co-orientation tick, dots are labelled circles.  Output is
deterministic: identical input gives byte-identical text.
"""

from __future__ import annotations

from html import escape

from . import affine as af
from .groupnet.diagrams import GDiagram, calculus

LAYER_HEIGHT = 48.0
STRAND_GAP = 42.0
FONT_SIZE = 11.0
MARGIN = 24.0
X_STROKE = ("#000000", 1.2)
Y_STROKE = ("#cc2222", 2.2)
G_STROKE = ("#225599", 1.4)
DOT_COLOR = "#000000"


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


def to_svg(d) -> str:
    """Render an affine diagram or a group network to SVG text."""
    if isinstance(d, GDiagram):
        return _svg(
            calculus(d.group),
            d,
            stroke=lambda pt: G_STROKE,
            label=repr,
            label_dx=8,
            dot_label=lambda gen: str(gen.u),
        )
    return _svg(
        af.AFFINE,
        d,
        stroke=lambda pt: X_STROKE if pt.kind.additive else Y_STROKE,
        label=_point_label,
        label_dx=10,
    )


def _band_positions(n: int) -> list[float]:
    return [MARGIN + STRAND_GAP * (i + 0.5) for i in range(n)]


def _svg(calc, d, *, stroke, label, label_dx, dot_label=None) -> str:
    """One band per layer of d over its objects in calc; a layer of arity (0, 0) is a dot.

    stroke(pt) gives the color and width of a strand; label(pt) names a
    boundary point, drawn label_dx left of its strand; dot_label(gen), when
    given, writes next to each dot.
    """
    sts = [tuple(d.source)] + [obj for _, _, obj in calc.walk(d.source, d.layers)]
    canvas = _Canvas()
    height = MARGIN * 2 + LAYER_HEIGHT * max(1, len(d.layers))
    width = MARGIN * 2 + STRAND_GAP * max(1, max(len(s) for s in sts))
    y = height - MARGIN

    for li, (gen, pos) in enumerate(d.layers):
        lower, upper = sts[li], sts[li + 1]
        y0, y1 = y - LAYER_HEIGHT * li, y - LAYER_HEIGHT * (li + 1)
        xs0, xs1 = _band_positions(len(lower)), _band_positions(len(upper))
        ndom, ncod = map(len, calc.boundary(gen))
        ymid = (y0 + y1) / 2
        for i in range(pos):
            canvas.line(xs0[i], y0, xs1[i], y1, stroke(lower[i]))
        for i in range(pos + ndom, len(lower)):
            canvas.line(xs0[i], y0, xs1[i - ndom + ncod], y1, stroke(lower[i]))
        if not (ndom or ncod):
            x = MARGIN + STRAND_GAP * pos
            canvas.circle(x, ymid, 3.0, DOT_COLOR)
            if dot_label is not None:
                canvas.text(x + 5, ymid - 4, dot_label(gen), FONT_SIZE)
            continue
        span = [xs0[pos + k] for k in range(ndom)] + [xs1[pos + k] for k in range(ncod)]
        mx = sum(span) / len(span)
        for k in range(ndom):
            canvas.path([(xs0[pos + k], y0), (mx, ymid)], stroke(lower[pos + k]))
        for k in range(ncod):
            canvas.path([(mx, ymid), (xs1[pos + k], y1)], stroke(upper[pos + k]))
    if not d.layers:
        xs = _band_positions(len(sts[0]))
        for i, pt in enumerate(sts[0]):
            canvas.line(xs[i], y, xs[i], y - LAYER_HEIGHT, stroke(pt))

    xs_bot = _band_positions(len(sts[0]))
    for i, pt in enumerate(sts[0]):
        canvas.text(xs_bot[i] - label_dx, height - 6, label(pt), FONT_SIZE)
    xs_top = _band_positions(len(sts[-1]))
    for i, pt in enumerate(sts[-1]):
        canvas.text(xs_top[i] - label_dx, MARGIN - 8, label(pt), FONT_SIZE)

    body = "\n".join(canvas.elements)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">\n'
        f"{body}\n</svg>\n"
    )
