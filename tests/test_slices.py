"""The sliced-diagram engine on both calculi.

`Calculus.walk` keeps one winding per gap and recomputes only the gaps inside
each new codomain.  That is exact only because every generator keeps the
winding of the span it replaces, which the first tests check class by class.
"""

from fractions import Fraction as F
from itertools import product
from typing import get_args

import pytest

from entronet import affine as af
from entronet.groupnet import diagrams as gd
from entronet.groupnet.catalog import carry
from entronet.groupnet.cohomology import Cocycle1, coboundary1, coboundary2
from entronet.groupnet.groups import GModule, Group
from entronet.jspace import PrimeVector
from entronet.slices import LayerError
from entronet.sampling import random_closed_gdiagram, random_diagram, seeded_rng

# field name -> values, for building every affine generator class
_AFFINE_VALUES = {
    "a": (F(-3, 2), F(0), F(2, 5)),
    "b": (F(-3, 2), F(0), F(7)),
    "c1": (F(-2), F(1, 3)),
    "c2": (F(5), F(-4, 7)),
    "c": (F(-2), F(1, 3), F(5)),
    "from_plus": (True, False),
    "plus_on_left": (True, False),
    "first": (af.xplus(F(1, 2)), af.xminus(F(-3))),
    "second": (af.xplus(F(4)), af.xminus(F(2, 9))),
    "x": (af.xplus(F(1, 2)), af.xminus(F(-3))),
    "y": (af.yplus(F(3)), af.yminus(F(-2, 7))),
    "payload": (PrimeVector(),),
}


def _instances(classes, values):
    for cls in classes:
        for args in product(*(values[f] for f in cls._fields)):
            yield cls(*args)


def _aff3():
    G = Group.aff1_mod_p(3)
    elems = [(0, 1)] + [(a, c) for c in range(1, 3) for a in range(3) if (a, c) != (0, 1)]
    U = GModule.scaling_action(G, 3, {i: c for i, (a, c) in enumerate(elems)})
    b = [(0,), (1,), (2,), (0,), (2,), (1,)]
    return U, coboundary1(U, (1,)), coboundary2(U, b)


def _modules():
    """(module, 1-cocycle, normalized 2-cocycle) over a cyclic and a nonabelian group."""
    c = carry(4)
    U = c.module
    return [(U, Cocycle1(U, tuple((g,) for g in U.group.elements())), c), _aff3()]


def test_affine_generators_keep_span_winding():
    classes = get_args(af.Generator)
    gens = list(_instances(classes, _AFFINE_VALUES))
    assert {type(g) for g in gens} == set(classes)
    for gen in gens:
        dom, cod = af.boundary(gen)
        assert af.AFFINE.windings(dom)[-1] == af.AFFINE.windings(cod)[-1], gen


def test_group_generators_keep_span_winding():
    G = Group.aff1_mod_p(3)
    calc = gd.calculus(G)
    elements = tuple(G.elements())
    values = {"s": elements, "t": elements, "g": elements, "from_left": (True, False), "u": ((1,),)}
    classes = get_args(gd.GGenerator)
    gens = list(_instances(classes, values))
    assert {type(g) for g in gens} == set(classes)
    macros = 0
    for gen in gens:
        dom, cod = calc.boundary(gen)
        assert calc.windings(dom)[-1] == calc.windings(cod)[-1], gen
        if not hasattr(gen, "expand"):
            continue
        # a macro's parts each keep their span's winding, and compose to the macro
        macros += 1
        obj = dom
        for part in gen.expand(G):
            pdom, pcod = calc.boundary(part)
            assert calc.windings(pdom)[-1] == calc.windings(pcod)[-1], part
            obj = calc.apply(obj, part, 0)
        assert obj == cod
    assert macros == 4 * len(elements) ** 2


def _check_walk(calc, source, layers, seen):
    states = list(calc.states(source, layers))
    walked = list(calc.walk(source, layers))
    assert [gen for _, gen in walked] == [gen for gen, _ in layers]
    for (w, gen), (_, pos), below, above in zip(walked, layers, states, states[1:]):
        assert w == calc.winding(below, pos)
        dom, cod = calc.boundary(gen)
        if cod and not dom and pos == len(below):
            seen["cup at the right end"] += 1
        elif dom and not cod:
            seen["cap"] += 1
        elif not (dom or cod) and pos == len(below):
            seen["dot at the last gap"] += 1


def _empty_seen():
    return dict.fromkeys(("cup at the right end", "cap", "dot at the last gap"), 0)


def test_walk_matches_fresh_winding_affine():
    rng = seeded_rng(61)
    seen = _empty_seen()
    for i in range(300):
        d = random_diagram(rng, max_strands=8 + i % 8, max_layers=30)
        _check_walk(af.AFFINE, d.source, d.layers, seen)
    assert all(seen.values()), seen


def test_walk_matches_fresh_winding_networks():
    rng = seeded_rng(62)
    seen = _empty_seen()
    for U, _, _ in _modules():
        calc = gd.calculus(U.group)
        for k in range(60):
            d = random_closed_gdiagram(rng, U.group, grow_layers=k % 12, module=U)
            _check_walk(calc, d.source, d.layers, seen)
    assert all(seen.values()), seen


def _shifted(rng, layers):
    """layers with one layer's position moved, and that layer's index."""
    k = rng.randrange(len(layers))
    gen, pos = layers[k]
    shift = rng.choice((-2, -1, 1, 2))
    return layers[:k] + ((gen, pos + shift),) + layers[k + 1 :], k


def _refusal(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value), info.value.layer


def test_affine_evaluations_refuse_like_validate():
    rng = seeded_rng(63)
    refused = dots = 0
    for i in range(400):
        d = random_diagram(rng, mode=af.MODES[i % 2])
        if not d.layers:
            continue
        layers, k = _shifted(rng, d.layers)
        bad = af.Diagram(d.source, layers, d.mode)
        try:
            af.validate(bad)
        except af.DiagramError as exc:
            expected = (type(exc), exc.layer)
        else:
            continue
        refused += 1
        dots += isinstance(layers[k][0], af.Dot)
        assert _refusal(af.j_invariant, bad) == expected
        assert _refusal(af.dot_contribution, bad) == expected
    assert refused >= 100 and dots >= 5, (refused, dots)


def test_network_evaluations_refuse_like_validate():
    rng = seeded_rng(64)
    refused = 0
    for U, f, c in _modules():
        for i in range(80):
            grow = 1 + i % 10
            d = random_closed_gdiagram(rng, U.group, grow_layers=grow, module=U)
            bad = gd.GDiagram(d.group, d.source, _shifted(rng, d.layers)[0])
            try:
                gd.validate_gdiagram(bad)
            except gd.GDiagramError as exc:
                expected = (type(exc), exc.layer)
            else:
                continue
            refused += 1
            assert _refusal(gd.eval_alpha_u, bad, U) == expected
            assert _refusal(gd.eval_alpha_f, bad, f) == expected
            assert _refusal(gd.eval_alpha_c, bad, c) == expected
            assert _refusal(gd.eval_alpha_cf, bad, c, f) == expected
    assert refused >= 100, refused


def _outcome(fn, *args):
    try:
        return "target", fn(*args)
    except LayerError as exc:
        return "refused", type(exc), exc.layer, str(exc)


def test_target_is_the_last_state():
    """target gives states' last object, or raises the same error at the same layer."""
    rng = seeded_rng(65)
    cases = []
    for i in range(200):
        d = random_diagram(rng, mode=af.MODES[i % 2])
        cases.append((af.AFFINE, d.source, d.layers))
    for U, _, _ in _modules():
        for k in range(60):
            d = random_closed_gdiagram(rng, U.group, grow_layers=k % 12, module=U)
            cases.append((gd.calculus(U.group), d.source, d.layers))
    refused = 0
    for calc, source, layers in cases:
        for ls in (layers, _shifted(rng, layers)[0]) if layers else (layers,):
            want = _outcome(lambda: list(calc.states(source, ls))[-1])
            assert _outcome(calc.target, source, ls) == want
            refused += want[0] == "refused"
    assert refused >= 100, refused
