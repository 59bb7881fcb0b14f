"""Reproducibility of the seeded generators."""

import os
import subprocess
import sys


def test_env_seed_fixes_streams(monkeypatch):
    from entronet import sampling

    monkeypatch.setenv("ENTRONET_SEED", "12345")
    a = [sampling.seeded_rng(3).random() for _ in range(5)]
    b = [sampling.seeded_rng(3).random() for _ in range(5)]
    assert a == b
    monkeypatch.setenv("ENTRONET_SEED", "54321")
    c = [sampling.seeded_rng(3).random() for _ in range(5)]
    assert a != c
    monkeypatch.delenv("ENTRONET_SEED")
    d = [sampling.seeded_rng(3).random() for _ in range(5)]
    assert d == [sampling.seeded_rng(3).random() for _ in range(5)]


def test_random_diagram_reproducible(monkeypatch):
    from entronet import affine as af
    from entronet.sampling import random_diagram, seeded_rng

    monkeypatch.setenv("ENTRONET_SEED", "777")
    d1 = random_diagram(seeded_rng(0))
    d2 = random_diagram(seeded_rng(0))
    assert d1 == d2
    assert af.j_invariant(d1) == af.j_invariant(d2)


# ---------------------------------------------------------------------------
# The generators draw with `_below`, Random's own rejection loop, in place of
# randint, randrange and choice.  The same bits in the same order give the
# same streams: checked here against the draws of the Random methods and
# against copies of the generators written with them.


def _sizes():
    yield from range(1, 301)
    for k in range(1, 65):
        yield from (2**k - 1, 2**k, 2**k + 1)


def test_below_is_randrange():
    import random

    from entronet.sampling import _below

    for n in _sizes():
        a, b = random.Random(n), random.Random(n)
        assert [_below(a.getrandbits, n) for _ in range(20)] == [b.randrange(n) for _ in range(20)]
        assert a.getstate() == b.getstate(), n


def test_below_refuses_an_empty_range():
    import random

    import pytest

    from entronet.sampling import _below, random_rational

    rng = random.Random(0)
    for n in (0, -1, -8):
        with pytest.raises(ValueError):
            _below(rng.getrandbits, n)
    # randint(1, 0) raised here before
    with pytest.raises(ValueError):
        random_rational(rng, 0)


def _old_draw_rational(rng, max_num, nonzero=False):
    while True:
        n, d = rng.randint(-max_num, max_num), rng.randint(1, max_num)
        if n != 0 or not nonzero:
            return n, d


def _old_random_rational(rng, max_num=30, nonzero=False):
    from fractions import Fraction

    return Fraction(*_old_draw_rational(rng, max_num, nonzero))


def _old_random_object(rng, max_points=5, max_num=9):
    from entronet import affine as af

    pts = []
    for _ in range(rng.randint(0, max_points)):
        kind = rng.choice("xXyY")
        if kind == "x":
            pts.append(af.xplus(_old_random_rational(rng, max_num)))
        elif kind == "X":
            pts.append(af.xminus(_old_random_rational(rng, max_num)))
        elif kind == "y":
            pts.append(af.yplus(_old_random_rational(rng, max_num, nonzero=True)))
        else:
            pts.append(af.yminus(_old_random_rational(rng, max_num, nonzero=True)))
    return tuple(pts)


def _old_applicable_generators(rng, obj, max_num):
    from entronet import affine as af
    from entronet.sampling import _cup, _mult_split, _split

    out = []
    K = af.Kind
    for i, pt in enumerate(obj):
        kind, w = pt.kind, pt.weight
        if kind.additive:
            split = af.AddSplit if kind is K.XP else af.AddSplitDual
            n, d = _old_draw_rational(rng, max_num)
            out.append((_split, (split, n, d, w), i, 1))
        else:
            split = af.MultSplit if kind is K.YP else af.MultSplitDual
            n, d = _old_draw_rational(rng, max_num, nonzero=True)
            out.append((_mult_split, (split, n, d, w), i, 1))
            out.append((af.CoorientRev, (w, kind is K.YP), i, 0))
    for i in range(len(obj) - 1):
        p, q = obj[i], obj[i + 1]
        kp, kq = p.kind, q.kind
        if kp.additive:
            if kp is kq:
                if kp is K.XP:
                    out.append((af.AddMerge, (p.weight, q.weight), i, -1))
                else:
                    out.append((af.AddMergeDual, (q.weight, p.weight), i, -1))
            if kq.additive:
                out.append((af.AddCross, (p, q), i, 0))
        elif kq.additive:
            out.append((af.XYCross, (p, q), i, 0))
        elif kp is kq:
            merge = af.MultMerge if kp is K.YP else af.MultMergeDual
            out.append((merge, (p.weight, q.weight), i, -1))
        if kp is not kq and kp.additive is kq.additive and p.weight == q.weight:
            cap = af.CapX if kp.additive else af.CapY
            out.append((cap, (p.weight, kp is K.XP or kp is K.YP), i, -2))
    gap = rng.randint(0, len(obj))
    n, d = _old_draw_rational(rng, max_num)
    out.append((_cup, (af.CupX, n, d, rng.random() < 0.5), gap, 2))
    n, d = _old_draw_rational(rng, max_num, nonzero=True)
    out.append((_cup, (af.CupY, n, d, rng.random() < 0.5), gap, 2))
    return out


def _old_random_dot_payload(rng, mode):
    from entronet import affine as af
    from entronet.jspace import EntropyScalar, PrimeVector, symbol

    if mode == af.MODE_J:
        v = PrimeVector()
        for _ in range(rng.randint(0, 2)):
            v = v + symbol(_old_random_rational(rng, 9), _old_random_rational(rng, 9)).scaled(
                _old_random_rational(rng, 5)
            )
        return v
    if mode == af.MODE_H:
        v = PrimeVector()
        for _ in range(rng.randint(0, 2)):
            v = v + symbol(_old_random_rational(rng, 9), _old_random_rational(rng, 9))
        return EntropyScalar(_old_random_rational(rng, 9), v)
    return rng.uniform(-2.0, 2.0)


def _old_random_diagram(rng, mode, max_strands=12, max_layers=25, max_dots=3, max_num=9):
    from entronet import affine as af

    obj = _old_random_object(rng, max_points=min(5, max_strands), max_num=max_num)
    layers = []
    dots = 0
    cur = obj
    for _ in range(rng.randint(0, max_layers)):
        if dots < max_dots and rng.random() < 0.12:
            gap = rng.randint(0, len(cur))
            layers.append((af.Dot(_old_random_dot_payload(rng, mode)), gap))
            dots += 1
            continue
        room = max_strands - len(cur)
        options = [
            (build, args, pos)
            for build, args, pos, growth in _old_applicable_generators(rng, cur, max_num)
            if growth <= room
        ]
        if not options:
            break
        build, args, pos = rng.choice(options)
        gen = build(*args)
        layers.append((gen, pos))
        cur = af.apply_layer(cur, gen, pos)
    return af.Diagram(obj, tuple(layers), mode)


def _old_random_closed_gdiagram(rng, G, grow_layers=8, module=None):
    from entronet.groupnet import diagrams as gd

    apply = gd.calculus(G).apply
    layers = []
    cur = ()

    def emit(gen, pos):
        nonlocal cur
        layers.append((gen, pos))
        cur = apply(cur, gen, pos)

    for _ in range(grow_layers):
        choices = []
        g = rng.randrange(G.order)
        gap = rng.randint(0, len(cur))
        choices.append((gd.GCupLR, (g,), gap))
        choices.append((gd.GCupRL, (g,), gap))
        if module is not None and rng.random() < 0.3:
            u = module.reduce(tuple(rng.randrange(m) for m in module.moduli))
            choices.append((gd.GDot, (u,), gap))
        for i, pt in enumerate(cur):
            choices.append((gd.GFlip, (pt.g, pt.left), i))
            if pt.left:
                s = rng.randrange(G.order)
                choices.append((gd.VSplitL, (s, G.mul(G.inv(s), pt.g)), i))
                s2 = rng.randrange(G.order)
                choices.append((gd.T2SplitRR, (G.mul(G.inv(s2), G.inv(pt.g)), s2), i))
            else:
                s = rng.randrange(G.order)
                choices.append((gd.VSplitR, (s, G.mul(pt.g, G.inv(s))), i))
                s2 = rng.randrange(G.order)
                choices.append((gd.T2SplitLL, (s2, G.mul(G.inv(s2), G.inv(pt.g))), i))
        for i in range(len(cur) - 1):
            p, q = cur[i], cur[i + 1]
            if p.left and q.left:
                choices.append((gd.VMergeL, (p.g, q.g), i))
                choices.append((gd.T2MergeLL, (p.g, q.g), i))
            if not p.left and not q.left:
                choices.append((gd.VMergeR, (p.g, q.g), i))
                choices.append((gd.T2MergeRR, (p.g, q.g), i))
            if p.g == q.g and p.left and not q.left:
                choices.append((gd.GCapLR, (p.g,), i))
            if p.g == q.g and not p.left and q.left:
                choices.append((gd.GCapRL, (p.g,), i))
        build, args, pos = rng.choice(choices)
        emit(build(*args), pos)
    while len(cur) > 1:
        i = rng.randrange(len(cur) - 1)
        p, q = cur[i], cur[i + 1]
        if not p.left:
            emit(gd.GFlip(p.g, False), i)
            continue
        if not q.left:
            emit(gd.GFlip(q.g, False), i + 1)
            continue
        emit(gd.VMergeL(p.g, q.g), i)
    if cur:
        pt = cur[0]
        if not pt.left:
            emit(gd.GFlip(pt.g, False), 0)
            pt = cur[0]
        emit(gd.GCupLR(0), 1)
        emit(gd.VMergeL(pt.g, 0), 0)
        emit(gd.GCapLR(0), 0)
    return gd.GDiagram(G, (), tuple(layers))


def _same_stream(seed, new, old):
    """new(rng) and old(rng) give equal reprs and leave equal generator states."""
    import random

    a, b = random.Random(seed), random.Random(seed)
    got, want = [repr(new(a)) for _ in range(30)], [repr(old(b)) for _ in range(30)]
    assert got == want
    assert a.getstate() == b.getstate()


def test_random_diagram_stream_is_the_randint_stream():
    from entronet import affine as af
    from entronet.sampling import random_diagram

    for max_num in (1, 6, 7, 30):
        for max_strands in (1, 2, 3, 5):
            for mode in af.MODES:
                kw = dict(max_strands=max_strands, max_layers=12, max_num=max_num)
                _same_stream(
                    max_num * 100 + max_strands,
                    lambda rng: random_diagram(rng, mode, **kw),
                    lambda rng: _old_random_diagram(rng, mode, **kw),
                )


def test_random_closed_gdiagram_stream_is_the_randrange_stream():
    from entronet.groupnet.groups import GModule, Group
    from entronet.sampling import random_closed_gdiagram

    groups = [Group.cyclic(n) for n in (1, 2, 3, 5, 8)] + [Group.aff1_mod_p(3)]
    for k, G in enumerate(groups):
        for moduli in (None, (1,), (2,), (6,), (3, 4)):
            module = None if moduli is None else GModule.trivial(G, moduli)
            for grow in (0, 3, 9):
                _same_stream(
                    k * 1000 + grow,
                    lambda rng: random_closed_gdiagram(rng, G, grow, module),
                    lambda rng: _old_random_closed_gdiagram(rng, G, grow, module),
                )


def test_applicable_generators_contract():
    """Each move is (build, args, position, growth): build(*args) applies at
    the position and changes the length by growth."""
    import random

    from entronet import affine as af
    from entronet.sampling import _applicable_generators, random_object

    rng = random.Random(21)
    for _ in range(300):
        obj = random_object(rng, max_points=5, max_num=7)
        for move in _applicable_generators(rng, obj, 7):
            build, args, pos, growth = move
            after = af.apply_layer(obj, build(*args), pos)
            assert len(after) - len(obj) == growth
