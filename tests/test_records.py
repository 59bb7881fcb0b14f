"""Generators of both calculi are records: immutable, shown and compared by
their class and field values, and the same under copy and pickle."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction as F
from itertools import combinations
from typing import get_args

import pytest

from entronet import affine as af
from entronet.groupnet import diagrams as gd
from entronet.groupnet.groups import Group
from entronet.jspace import EntropyScalar, PrimeVector

# field name -> one value, for building one instance of every generator class
_VALUES = {
    "a": F(1, 2),
    "b": F(3),
    "c1": F(1, 2),
    "c2": F(3),
    "c": F(-2, 5),
    "from_plus": True,
    "plus_on_left": False,
    "first": af.xplus(F(1, 2)),
    "second": af.xminus(F(4)),
    "y": af.yminus(F(3)),
    "x": af.xplus(F(-1, 7)),
    "payload": PrimeVector(),
    "s": 1,
    "t": 2,
    "g": 1,
    "from_left": True,
    "u": (1,),
}

CLASSES = get_args(af.Generator) + get_args(gd.GGenerator)

# classes whose instances above have equal field values
SAME_VALUES = [
    (af.AddMerge, af.AddSplit, af.AddMergeDual, af.MultMerge),
    (af.CupX, af.CapX),
    (gd.GCupLR, gd.GCapLR, gd.GCupRL),
    (gd.VMergeL, gd.VSplitL, gd.T2MergeLL),
]


def _build(cls):
    return cls(*(_VALUES[f] for f in cls._fields))


def test_every_generator_class_is_covered():
    assert len(CLASSES) == len(set(CLASSES)) == 30
    assert set().union(*SAME_VALUES) <= set(CLASSES)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_record_contract(cls):
    gen = _build(cls)
    shown = ", ".join(f"{f}={getattr(gen, f)!r}" for f in cls._fields)
    assert repr(gen) == f"{cls.__name__}({shown})"
    assert hash(gen) == hash(tuple(gen))
    twin = _build(cls)
    assert gen == twin and not gen != twin and hash(gen) == hash(twin)
    # not equal to the plain tuple of its values, from either side
    assert gen != tuple(gen) and tuple(gen) != gen and not gen == tuple(gen)
    for f in cls._fields:
        with pytest.raises(AttributeError):
            setattr(gen, f, _VALUES[f])
    # copies carry the kept boundary along and still compare as the record
    affine = cls in get_args(af.Generator)
    (af.boundary if affine else gd.calculus(Group.cyclic(3)).boundary)(gen)
    for back in (copy.copy(gen), copy.deepcopy(gen), pickle.loads(pickle.dumps(gen))):
        assert type(back) is cls and back == gen and not back != gen and hash(back) == hash(gen)


def test_equal_values_of_different_classes_are_unequal():
    for group in SAME_VALUES:
        gens = [_build(cls) for cls in group]
        assert len({tuple(gen) for gen in gens}) == 1
        for x, y in combinations(gens, 2):
            assert not x == y and not y == x
            assert x != y and y != x
        assert len(set(gens)) == len(gens)


def test_ne_is_not_eq():
    gens = [_build(cls) for cls in CLASSES]
    gens += [af.AddMerge(F(1), F(2)), af.AddMerge(F(1), F(2)), af.AddMerge(F(2), F(1))]
    gens += [gd.VMergeL(1, 2), gd.VMergeL(1, 2), gd.VMergeL(2, 1), (F(1), F(2)), (1, 2)]
    for x in gens:
        for y in gens:
            assert (x != y) is (not x == y), (x, y)


_CROSS_CHECKS = """
from fractions import Fraction as F
from entronet import affine as af

for build in (
    lambda: af.AddCross(af.xplus(F(1)), af.yplus(F(2))),
    lambda: af.AddCross(first=af.yminus(F(1)), second=af.xplus(F(2))),
    lambda: af.XYCross(af.xplus(F(1)), af.xplus(F(2))),
    lambda: af.XYCross(y=af.yplus(F(1)), x=af.yminus(F(2))),
):
    try:
        build()
    except af.KindMismatch as exc:
        print("refused:", exc)
    else:
        raise SystemExit("a crossing of the wrong kinds was built")
"""


def test_crossing_checks_hold_without_asserts():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    run = subprocess.run([sys.executable, "-O", "-c", _CROSS_CHECKS],
                         env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr + run.stdout
    assert run.stdout.splitlines() == [
        "refused: additive crossing needs two X points",
        "refused: additive crossing needs two X points",
        "refused: xy crossing needs a Y point then an X point",
        "refused: xy crossing needs a Y point then an X point",
    ]


@pytest.mark.parametrize("evaluate", (af.dot_contribution, af.j_invariant), ids=lambda f: f.__name__)
def test_dot_contribution_checks_every_layer_before_any_payload(evaluate):
    """A bad payload below a bad layer: the layer's error, naming its index,
    from both evaluators."""
    src = (af.xplus(F(1)), af.xplus(F(2)))
    layers = (
        (af.Dot(PrimeVector()), 1),  # a J-mode payload in an H-mode diagram
        (af.AddMerge(F(1), F(2)), 0),
        (af.Dot(EntropyScalar.zero()), 2),  # past the single strand left
    )
    d = af.Diagram(src, layers, af.MODE_H)
    with pytest.raises(af.PositionOutOfRange, match=r"^layer 2: ") as exc:
        evaluate(d)
    assert exc.value.layer == 2
    # without the bad layer, the payload is refused
    with pytest.raises(af.KindMismatch, match="H-mode dots"):
        evaluate(af.Diagram(src, layers[:2], af.MODE_H))
