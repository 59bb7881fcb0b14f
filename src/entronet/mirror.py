"""Vertical reflection of generator classes, shared by both calculi.

Every merge, cup and second-kind merge of a network has a reflection (a
split, a cap, a second-kind split) with the same fields and its domain and
codomain swapped.  `mirrored` derives the reflected class from the one that
is written out.  The two are separate classes, not a subclass pair, because
rewrite patterns and evaluations tell them apart with isinstance.
"""

from __future__ import annotations

from dataclasses import fields, make_dataclass


def mirrored(cls: type, name: str, doc: str | None = None, **methods) -> type:
    """The frozen dataclass `name` with cls's fields and dom/cod swapped, plus
    methods; cls.mirror and the new class's mirror name each other."""
    partner = make_dataclass(
        name,
        [(f.name, f.type) for f in fields(cls)],
        # __module__ through the namespace: make_dataclass takes module= only from 3.12
        namespace={
            "__module__": cls.__module__, "__doc__": doc, "dom": cls.cod, "cod": cls.dom, **methods
        },
        frozen=True,
    )
    cls.mirror, partner.mirror = partner, cls
    return partner


def signed_pairs(signs: dict[type, int]) -> dict[type, int]:
    """signs, plus each class's mirror with the opposite sign."""
    return {**signs, **{cls.mirror: -s for cls, s in signs.items()}}
