"""One engine for the sliced diagrams of both calculi.

A diagram is a source object and layers (generator, position) applied bottom
to top, each replacing the span at its position that equals the generator's
domain by its codomain.  The winding of a gap is the ordered product of the
points left of it in a monoid: Q^x on the Y points of affine diagrams, the
group on the strands of group networks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Any, Callable, Iterable, Iterator


class LayerError(Exception):
    """A layer or gap that does not fit its object; names the layer index when known."""

    def __init__(self, message: str, layer: int | None = None):
        self.layer = layer
        if layer is not None:
            message = f"layer {layer}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class Calculus:
    """A sliced calculus: boundary(gen) is (dom, cod); out_of_range(message, layer)
    and mismatch(dom, found, layer) build the errors for a bad span; step(w, pt)
    extends the winding w, which is unit at gap 0, by one point."""

    boundary: Callable[[Any], tuple[tuple, tuple]]
    out_of_range: type[LayerError]
    mismatch: Callable[[tuple, tuple, int | None], LayerError]
    unit: Any
    step: Callable[[Any, Any], Any]

    def _splice(self, obj: tuple, dom: tuple, cod: tuple, pos: int, layer: int | None) -> tuple:
        end = pos + len(dom)
        if pos < 0 or end > len(obj):
            raise self.out_of_range(
                f"position {pos} with arity {len(dom)} in object of length {len(obj)}", layer
            )
        if obj[pos:end] != dom:
            raise self.mismatch(dom, obj[pos:end], layer)
        return obj[:pos] + cod + obj[end:]

    def apply(self, obj: tuple, gen, pos: int, layer: int | None = None) -> tuple:
        """obj with gen applied at pos, where the span must equal gen's domain."""
        return self._splice(obj, *self.boundary(gen), pos, layer)

    def windings(self, obj: Iterable) -> list:
        """The winding of every gap of obj, from gap 0 to gap len(obj)."""
        out, step = [self.unit], self.step
        for pt in obj:
            out.append(step(out[-1], pt))
        return out

    def winding(self, obj: tuple, gap: int):
        """Winding of one gap: the product over the points left of it."""
        if gap < 0 or gap > len(obj):
            raise self.out_of_range(f"gap {gap} in object of length {len(obj)}")
        return self.windings(obj[:gap])[-1]

    def winding_at(self, source: Iterable, layers: Iterable, layer: int, gap: int):
        """Winding of a gap in the object just below the given layer index;
        the layers from that index up are not applied."""
        states = chain([(None, None, tuple(source))], self.walk(source, layers))
        for i, (_, _, obj) in enumerate(states):  # the source at least
            if i == layer:
                return self.winding(obj, gap)
        raise self.out_of_range(f"layer {layer} of {i + 1} states")

    def walk(self, source: Iterable, layers: Iterable) -> Iterator[tuple[Any, Any, tuple]]:
        """Apply each layer in turn and yield (w, gen, obj): w the winding at its
        position, obj the object above it, so the last obj is the target.

        Windings are found left to right as far as a layer needs them, then kept,
        one per gap.  Every generator keeps the winding of the span it replaces,
        so a layer changes only the len(cod) - 1 gaps inside its codomain.  A bad
        layer raises, naming its index, before it is yielded.
        """
        obj, ws = tuple(source), [self.unit]
        boundary, step = self.boundary, self.step
        for i, (gen, pos) in enumerate(layers):
            dom, cod = boundary(gen)
            for pt in obj[len(ws) - 1 : pos]:
                ws.append(step(ws[-1], pt))
            obj = self._splice(obj, dom, cod, pos, i)
            end, new = pos + len(dom), [ws[pos]]
            for pt in cod[:-1]:
                new.append(step(new[-1], pt))
            # gaps pos to pos + len(cod): left edge, inner gaps, right edge if known
            ws[pos : end + 1] = new + ws[end : end + 1] if cod else new
            yield new[0], gen, obj
