import copy
import dataclasses
import os
import pickle
from fractions import Fraction as F
from itertools import combinations
from typing import get_args

import pytest

from entronet import affine as af
from entronet import dsl
from entronet.jspace import EntropyScalar, PrimeVector, symbol
from entronet.sampling import random_source, seeded_rng

FIXTURES = os.path.join(os.path.dirname(dsl.__file__), "fixtures")


def parse_fixture(name):
    with open(os.path.join(FIXTURES, name), "r", encoding="utf-8") as fh:
        return dsl.parse(fh.read())


def test_single_point_object():
    sf = dsl.parse("object Z = X+(1)\n")
    r = dsl.resolve(sf)
    assert r.objects["Z"] == (af.xplus(1),)


def test_empty_object_is_unit():
    r = dsl.resolve(dsl.parse("object E =\n"))
    assert r.objects["E"] == ()


def test_affine_mult_fixture_weight():
    r = dsl.resolve(parse_fixture("affine_mult.net"))
    w = af.object_weight(r.objects["Z0"])
    a1, c1, a2, c2 = F(1, 2), F(3), F(2, 5), F(7, 2)
    assert w == af.AffWeight(a1 + c1 * a2, c1 * c2)
    assert af.object_weight(r.objects["Z1"]) == w
    assert af.validate(r.diagrams["mult"]) == r.objects["Z1"]


def test_worked_example_fixture():
    r = dsl.resolve(parse_fixture("worked_example.net"))
    d = r.diagrams["worked"]
    a1, a2, a3, a4 = F(2), F(3), F(5), F(7)
    c1, c2 = F(2), F(3)
    want = -symbol(a1, a2) + symbol(a2, c1 * a3) - symbol(c1 * a3, c1 * c2 * a4)
    assert af.j_invariant(d) == want


def test_entropy_fixture_modes():
    r = dsl.resolve(parse_fixture("entropy_fold.net"))
    fold = r.diagrams["fold"]
    assert fold.mode == af.MODE_H
    assert af.j_invariant(fold) == EntropyScalar(F(0), PrimeVector({2: F(3, 2)}))
    dotted = r.diagrams["fold_dotted"]
    assert af.j_invariant(dotted) == EntropyScalar(F(0), PrimeVector({2: F(5, 2)}))


def test_zero_denominator_position():
    with pytest.raises(dsl.ParseError) as info:
        dsl.parse("object Z = X+(1/0)\n")
    assert "zero denominator" in str(info.value)
    assert info.value.line == 1 and info.value.col == 17  # points at the denominator


@pytest.mark.parametrize("payload", ["1e999", "-1e999", "1.5e400", str(10**400)],
                         ids=lambda p: p if len(p) < 10 else f"{len(p)}-digit")
def test_float_payload_past_the_double_range_position(payload):
    text = f"mode Hfloat\nobject Z = X+(1)\ndiagram D : Z -> Z {{ dot @0 {payload}; }}\n"
    with pytest.raises(dsl.ParseError) as info:
        dsl.parse(text)
    assert "past the double range" in str(info.value)
    col = 30 if payload.startswith("-") else 29
    assert info.value.line == 3 and info.value.col == col  # points at the literal


_DOT = "object Z = X+(1)\ndiagram D : Z -> Z {{ dot @0 {}; }}\n"
_LONG = "9" * 5000  # past the interpreter's 4,300-digit str-to-int limit


@pytest.mark.parametrize(
    "text, message",
    [
        (_DOT.format("{4: 1}"), "2:30: payload key 4 is not a prime"),
        (_DOT.format("{0: 1, 1: 5}"), "2:30: payload key 0 is not a prime"),
        (_DOT.format("{2: 1, 3: 1, 2: 3}"), "2:42: payload key 2 given twice"),
        # a key is checked once its coefficient is read, so a syntax error there comes first
        (_DOT.format("{4: x}"), "2:33: expected 'int', found 'x'"),
        ("mode H\n" + _DOT.format("0 + {2: 1, 1: 1}"), "3:40: payload key 1 is not a prime"),
        (f"object E = X+({_LONG})\n",
         "1:15: integer literal of 5000 digits, past the limit of 4300"),
        (f"object E = X+(-1/{_LONG})\n",
         "1:18: integer literal of 5000 digits, past the limit of 4300"),
        (_DOT.format(f"{{{_LONG}: 1}}"),
         "2:30: integer literal of 5000 digits, past the limit of 4300"),
        # a key that could be prime but is too long to test within the factoring budget
        (_DOT.format(f"{{{2**14000 + 1}: 1}}"),
         "2:30: payload key: cannot factor a 14001-bit number within the factoring budget"),
    ],
    ids=["composite", "zero", "repeated", "syntax-first", "one-in-H", "long-weight",
         "long-denominator", "long-key", "untestable-key"],
)
def test_payload_keys_and_long_literals_are_refused_at_the_literal(text, message):
    with pytest.raises(dsl.ParseError) as info:
        dsl.parse(text)
    assert str(info.value) == message


def test_largest_float_payloads_round_trip():
    text = ("mode Hfloat\nobject Z = X+(1)\n"
            "diagram D : Z -> Z { dot @0 1.7976931348623157e308; dot @0 -5e-324; }\n")
    sf = dsl.parse(text)
    assert dsl.parse(dsl.print_source(sf)) == sf


def test_errors_carry_positions():
    with pytest.raises(dsl.ParseError) as info:
        dsl.parse("object Z = X+(1)\nobject W = X*(2)\n")
    assert info.value.line == 2
    with pytest.raises(dsl.ParseError):
        dsl.parse("mode Q\n")
    with pytest.raises(dsl.ParseError):
        dsl.parse("object Z = X+(1)\nobject Z = X+(2)\n")


def test_forward_reference_rejected():
    text = "diagram D : Z -> Z {}\nobject Z = X+(1)\n"
    with pytest.raises(dsl.ResolveError):
        dsl.resolve(dsl.parse(text))


def test_declared_target_checked():
    text = "object A = X+(1) X+(2)\nobject B = X+(4)\ndiagram D : A -> B { add_merge @0; }\n"
    with pytest.raises(dsl.ResolveError):
        dsl.resolve(dsl.parse(text))


def test_layer_validation_error_carries_position():
    text = "object A = X+(1)\nobject B = X+(1)\ndiagram D : A -> B {\n  add_merge @0;\n}\n"
    with pytest.raises(dsl.ResolveError) as info:
        dsl.resolve(dsl.parse(text))
    assert info.value.line == 4


def test_bad_cocycle_rejected():
    text = (
        "group G = cyclic(2)\n"
        "module U over G = z(2)\n"
        "cocycle2 c : G -> U = { (1, 0): (1); }\n"
    )
    with pytest.raises(dsl.ResolveError) as info:
        dsl.resolve(dsl.parse(text))
    assert "normalized" in str(info.value)


def test_whitespace_normalization():
    sf = dsl.parse("object Z = X+( 1/2 )\n")
    assert dsl.print_source(sf) == "object Z = X+(1/2)\n"


def test_payload_key_sorting():
    sf = dsl.parse("object E =\ndiagram D : E -> E { dot @0 {5: 1, 2: -1}; }\n")
    assert "{2: -1, 5: 1}" in dsl.print_source(sf)


def test_round_trip_fixtures():
    for name in sorted(os.listdir(FIXTURES)):
        if name.endswith(".net"):
            sf = parse_fixture(name)
            assert dsl.parse(dsl.print_source(sf)) == sf


def test_round_trip_generated():
    rng = seeded_rng(401)
    for _ in range(300):
        sf = random_source(rng)
        assert dsl.parse(dsl.print_source(sf)) == sf


def test_round_trip_empty_action():
    sf = dsl.parse("group G = cyclic(1)\nmodule U over G = z(2) action {}\n")
    assert sf.decls[1].action == ()
    text = dsl.print_source(sf)
    assert text.endswith("module U over G = z(2) action { }\n")
    assert dsl.parse(text) == sf


@pytest.mark.parametrize(
    "text, message",
    [
        ("group G = cyclic(3)\nmodule U over G = z(3)\n"
         "cocycle1 f : G -> U = { 1: (0); 1: (1); 2: (2); }\n", "3:1: element 1 given twice"),
        ("group G = cyclic(3)\nmodule U over G = z(3)\n"
         "cocycle2 c : G -> U = { (1, 2): (1); (2, 1): (0); (1, 2): (0); }\n",
         "3:1: pair (1,2) given twice"),
        ("group G = cyclic(2)\nmodule U over G = z(3) action { 0: [[1]]; 1: [[2]]; 1: [[1]]; }\n",
         "2:1: action table gives element 1 twice"),
        ("group G = cyclic(3)\nmodule U over G = z(3)\ncocycle1 f : G -> U = { 1: (1, 1); }\n",
         "3:1: element has wrong rank"),
    ],
)
def test_table_entries_are_refused_at_the_declaration(text, message):
    with pytest.raises(dsl.ResolveError) as info:
        dsl.resolve(dsl.parse(text))
    assert str(info.value) == message


def test_position_is_not_part_of_a_declaration():
    for name in sorted(os.listdir(FIXTURES)):
        if name.endswith(".net"):
            sf = parse_fixture(name)
            with open(os.path.join(FIXTURES, name), "r", encoding="utf-8") as fh:
                moved = dsl.parse("\n\n" + fh.read().replace("\n", "\n  "))
            assert [d.line for d in moved.decls] != [d.line for d in sf.decls]
            assert moved == sf and hash(moved) == hash(sf)
            for a, b in zip(moved.decls, sf.decls):
                assert a == b and hash(a) == hash(b)


def test_networks_fixture_semantics():
    r = dsl.resolve(parse_fixture("networks.net"))
    from entronet.groupnet.catalog import carry
    from entronet.groupnet.diagrams import eval_alpha_c

    assert r.cocycles2["cy"].table() == carry(4).table()
    assert eval_alpha_c(r.gdiagrams["circ"], r.cocycles2["cy"]) == (0,)
    m = r.gdiagrams["merge3"]
    assert eval_alpha_c(m, r.cocycles2["cy"]) == r.cocycles2["cy"](1, 2)


def test_mode_statement_scopes_following_diagrams():
    text = "mode H\nobject E =\ndiagram D : E -> E {}\nmode J\nobject E2 =\ndiagram D2 : E2 -> E2 {}\n"
    sf = dsl.parse(text)
    modes = [d.mode for d in sf.decls if isinstance(d, dsl.DiagramDecl)]
    assert modes == [af.MODE_H, af.MODE_J]
    assert dsl.parse(dsl.print_source(sf)) == sf


def test_diagram_to_decl_round_trip():
    from entronet.sampling import random_diagram

    rng = seeded_rng(402)
    for _ in range(40):
        d = random_diagram(rng, max_strands=7, max_layers=10)
        src_decl = dsl.object_to_decl("S", d.source)
        tgt_decl = dsl.object_to_decl("T", af.validate(d))
        decl = dsl.diagram_to_decl("D", "S", "T", d)
        text = dsl.print_source(dsl.SourceFile((src_decl, tgt_decl, decl), d.mode))
        r = dsl.resolve(dsl.parse(text))
        d2 = r.diagrams["D"]
        assert d2.source == d.source and d2.layers == d.layers and d2.mode == d.mode


# ---------------------------------------------------------------------------
# The syntax tree is made of records.

NODES = (
    dsl.Token, dsl.PointSpec, dsl.GPointSpec, dsl.LayerSpec, dsl.ObjectDecl, dsl.DiagramDecl,
    dsl.GroupDecl, dsl.ModuleDecl, dsl.CocycleDecl, dsl.GDiagramDecl, dsl.SourceFile,
)


def _parsed_nodes():
    """One parsed instance or more of every node class, positions included."""
    out = []
    for name in sorted(os.listdir(FIXTURES)):
        if name.endswith(".net"):
            with open(os.path.join(FIXTURES, name), "r", encoding="utf-8") as fh:
                text = fh.read()
            sf = dsl.parse(text)
            out += [sf, *sf.decls, *dsl.tokenize(text)]
            for decl in sf.decls:
                out += getattr(decl, "points", ()) + getattr(decl, "layers", ())
                out += getattr(decl, "source", ()) if isinstance(decl, dsl.GDiagramDecl) else ()
    assert {type(x) for x in out} == set(NODES)
    return out


def test_declarations_table():
    assert tuple(dsl.DECLARATIONS) == (
        "object", "diagram", "group", "module", "cocycle1", "cocycle2", "gdiagram",
    )
    assert {row.node for row in dsl.DECLARATIONS.values()} == set(get_args(dsl.Decl))


def test_node_repr_is_the_dataclass_repr():
    """Each node shows as the frozen dataclass it replaced would, position included."""
    shown = {cls: dataclasses.make_dataclass(cls.__name__, cls._fields, frozen=True)
             for cls in NODES}
    for x in _parsed_nodes():
        assert repr(x) == repr(shown[type(x)](*x))
    (decl,) = dsl.parse("\n  object Z = X+(1/2)\n").decls
    assert repr(decl) == (
        "ObjectDecl(name='Z', points=(PointSpec(kind='X+', weight=Fraction(1, 2)),), line=2, col=3)"
    )


def test_node_equality_ignores_position_only():
    for x in _parsed_nodes():
        if "line" in x._field_defaults:
            moved = x._replace(line=x.line + 7, col=x.col + 1)
            assert moved == x and not moved != x and hash(moved) == hash(x)
            assert moved.line != x.line and repr(moved) != repr(x)
        changed = x._replace(**{x._fields[0]: "other"})
        assert changed != x and not changed == x


def test_node_never_equals_a_tuple_or_another_class():
    for x in _parsed_nodes():
        assert x != tuple(x) and tuple(x) != x and not x == tuple(x)
    same = [cls(*range(len(cls._fields))) for cls in NODES]
    for a, b in combinations(same, 2):
        if len(a) == len(b):
            assert a != b and b != a and not a == b


def test_node_copies_and_pickles_keep_positions():
    for x in _parsed_nodes():
        for twin in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert type(twin) is type(x) and twin == x and hash(twin) == hash(x)
            assert repr(twin) == repr(x)
