"""Generator records and their vertical reflection, shared by both calculi.

A generator is its field values: `record` gives every generator class an
immutable named-tuple base, shown as Name(field=value, ...) and equal only to
an instance of its own class with the same values.

Every merge, cup and second-kind merge of a network has a reflection (a
split, a cap, a second-kind split) with the same fields and its domain and
codomain swapped.  `mirrored` derives the reflected class from the one that
is written out.  The two are separate classes, not a subclass pair, because
rewrite patterns, evaluations and equality tell them apart by class.
"""

from __future__ import annotations

from collections import namedtuple


def _eq(self, other) -> bool:
    return type(other) is type(self) and tuple.__eq__(self, other)


def _ne(self, other) -> bool:
    # needed as well: tuple's own != ignores the class
    return not _eq(self, other)


def record(fields: str) -> type:
    """A named-tuple base with the space-separated fields.  == and != also
    compare the class, so two classes with the same values stay apart; the
    hash of a record is the hash of the tuple of its values.

    A subclass that declares no __slots__ keeps a __dict__ for values derived
    from the fields; repr, == and hash ignore it.
    """
    base = namedtuple("Record", fields)
    base.__eq__, base.__ne__ = _eq, _ne  # set after the class is made, so hash is kept
    return base


def mirrored(cls: type, name: str, doc: str | None = None, **methods) -> type:
    """The class `name` on cls's record base with dom/cod swapped, plus methods;
    cls.mirror and the new class's mirror name each other."""
    namespace = {"__module__": cls.__module__, "__doc__": doc, "dom": cls.cod, "cod": cls.dom}
    partner = type(name, cls.__bases__, {**namespace, **methods})
    cls.mirror, partner.mirror = partner, cls
    return partner


def signed_pairs(signs: dict[type, int]) -> dict[type, int]:
    """signs, plus each class's mirror with the opposite sign."""
    return {**signs, **{cls.mirror: -s for cls, s in signs.items()}}
