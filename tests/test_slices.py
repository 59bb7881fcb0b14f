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
from entronet.slices import Calculus, LayerError
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


def _states(calc, source, layers):
    """The objects between layers, source to target, by one apply per layer."""
    out = [tuple(source)]
    for i, (gen, pos) in enumerate(layers):
        out.append(calc.apply(out[-1], gen, pos, i))
    return out


def _check_walk(calc, source, layers, seen):
    states = _states(calc, source, layers)
    walked = list(calc.walk(source, layers))
    assert [gen for _, gen, _ in walked] == [gen for gen, _ in layers]
    assert [obj for _, _, obj in walked] == states[1:]
    for (w, gen, _), (_, pos), below in zip(walked, layers, states):
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


def _walk_target(calc, source, layers):
    obj = tuple(source)
    for _, _, obj in calc.walk(source, layers):
        pass
    return obj


def test_target_is_the_last_state():
    """The walk's last object and the kept target give the last object of one
    apply per layer, or raise the same error at the same layer."""
    rng = seeded_rng(65)
    cases = []
    for i in range(200):
        d = random_diagram(rng, mode=af.MODES[i % 2])
        cases.append((af.AFFINE, d.source, d.layers,
                      lambda ls, d=d: af.validate(af.Diagram(d.source, ls, d.mode))))
    for U, _, _ in _modules():
        for k in range(60):
            d = random_closed_gdiagram(rng, U.group, grow_layers=k % 12, module=U)
            cases.append((gd.calculus(U.group), d.source, d.layers,
                          lambda ls, d=d: gd.validate_gdiagram(gd.GDiagram(d.group, d.source, ls))))
    refused = 0
    for calc, source, layers, kept_target in cases:
        for ls in (layers, _shifted(rng, layers)[0]) if layers else (layers,):
            want = _outcome(lambda: _states(calc, source, ls)[-1])
            assert _outcome(_walk_target, calc, source, ls) == want
            assert _outcome(kept_target, ls) == want
            refused += want[0] == "refused"
    assert refused >= 100, refused


def _counted_splices(monkeypatch) -> list:
    """The layer index of every later `Calculus._splice` call, in call order."""
    calls, splice = [], Calculus._splice

    def counted(self, obj, dom, cod, pos, layer):
        calls.append(layer)
        return splice(self, obj, dom, cod, pos, layer)

    monkeypatch.setattr(Calculus, "_splice", counted)
    return calls


@pytest.mark.parametrize("mode", (af.MODE_J, af.MODE_H))
def test_affine_evaluations_splice_each_layer_once(monkeypatch, mode):
    """validate, j_invariant and dot_contribution share one walk of a diagram."""
    rng = seeded_rng(66)
    ds = [random_diagram(rng, mode=mode) for _ in range(150)]
    ds = [af.Diagram(d.source, d.layers, d.mode) for d in ds]  # nothing kept yet
    calls = _counted_splices(monkeypatch)
    for d in ds:
        af.validate(d)
        af.j_invariant(d)
        af.dot_contribution(d)
    assert calls == [i for d in ds for i in range(len(d.layers))]
    assert len(calls) > 500


def test_network_evaluations_splice_each_layer_once(monkeypatch):
    """is_closed, eval_alpha_c and eval_alpha_f share one walk of a network."""
    rng = seeded_rng(67)
    nets = []
    for U, f, c in _modules():
        for k in range(40):
            d = random_closed_gdiagram(rng, U.group, grow_layers=k % 12, module=U)
            nets.append((gd.GDiagram(d.group, d.source, d.layers), f, c))
    calls = _counted_splices(monkeypatch)
    for d, f, c in nets:
        assert gd.is_closed(d)
        gd.eval_alpha_c(d, c)
        gd.eval_alpha_f(d, f)
    assert calls == [i for d, _, _ in nets for i in range(len(d.layers))]
    assert len(calls) > 500
