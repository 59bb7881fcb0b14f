import pytest

from entronet.groupnet.cohomology import (
    Cocycle1,
    Cocycle2,
    coboundary1,
    coboundary2,
    verify_cocycle1,
)
from entronet.groupnet.diagrams import (
    GCapLR,
    GCapRL,
    GCupLR,
    GCupRL,
    GDiagram,
    GDiagramError,
    GDot,
    GFlip,
    GPt,
    T2MergeLL,
    T2MergeRR,
    T2SplitLL,
    T2SplitRR,
    VMergeL,
    VMergeR,
    VSplitL,
    VSplitR,
    calculus,
    eval_alpha_c,
    eval_alpha_cf,
    eval_alpha_f,
    eval_alpha_u,
    g_winding,
    is_closed,
    validate_gdiagram,
)
from entronet.groupnet.groups import GModule, Group, GroupValidationError
from entronet.sampling import (
    random_closed_gdiagram,
    random_normalized_cocycle,
    seeded_rng,
)


def L(g):
    return GPt(g, True)


def R(g):
    return GPt(g, False)


def aff3():
    """The nonabelian group of affine maps of a three-element field, with the
    scaling action on that field and a handy nontrivial 1-cocycle."""
    G = Group.aff1_mod_p(3)
    elems = [(0, 1)] + [(a, c) for c in range(1, 3) for a in range(3) if (a, c) != (0, 1)]
    scalars = {i: c for i, (a, c) in enumerate(elems)}
    U = GModule.scaling_action(G, 3, scalars)
    f = coboundary1(U, (1,))
    b = [(0,), (1,), (2,), (0,), (2,), (1,)]
    c = coboundary2(U, b)
    return G, U, f, c


# -- structure ----------------------------------------------------------------


def test_winding_examples():
    G = Group.aff1_mod_p(3)
    s1, s2, s3 = 1, 2, 3
    d = GDiagram(G, (L(s1), R(s2), L(s3)), ())
    assert g_winding(d, 0, 0) == 0
    assert g_winding(d, 0, 1) == s1
    expected = G.mul(G.mul(s1, G.inv(s2)), s3)
    assert g_winding(d, 0, 3) == expected


def test_winding_single_strand():
    G = Group.cyclic(5)
    d = GDiagram(G, (L(2),), ())
    assert g_winding(d, 0, 1) == 2


def test_flow_validation():
    G = Group.cyclic(6)
    good = GDiagram(G, (L(2), L(3)), ((VMergeL(2, 3), 0),))
    assert validate_gdiagram(good) == (L(5),)
    bad = GDiagram(G, (L(2), L(3)), ((VMergeL(2, 2), 0),))
    with pytest.raises(GDiagramError):
        validate_gdiagram(bad)
    with pytest.raises(GDiagramError):
        validate_gdiagram(GDiagram(G, (L(2),), ((VMergeL(2, 3), 0),)))


def test_merge_r_flow():
    G = Group.aff1_mod_p(3)
    s, t = 1, 4
    d = GDiagram(G, (R(s), R(t)), ((VMergeR(s, t), 0),))
    assert validate_gdiagram(d) == (R(G.mul(t, s)),)


def test_flip_involution():
    G = Group.aff1_mod_p(3)
    d = GDiagram(G, (L(3),), ((GFlip(3, True), 0), (GFlip(G.inv(3), False), 0)))
    assert validate_gdiagram(d) == (L(3),)


def test_type_two_expansion_boundaries():
    G = Group.aff1_mod_p(3)
    for s in G.elements():
        for t in G.elements():
            for gen in (T2MergeLL(s, t), T2MergeRR(s, t), T2SplitLL(s, t), T2SplitRR(s, t)):
                src = gen.dom(G)
                d = GDiagram(G, src, ((gen, 0),))
                expanded = d.expanded()
                assert validate_gdiagram(expanded) == validate_gdiagram(d) == gen.cod(G)


@pytest.mark.parametrize(
    "merge, split, args",
    [
        (VMergeL, VSplitL, (1, 2)),
        (VMergeR, VSplitR, (1, 2)),
        (GCupLR, GCapLR, (1,)),
        (GCupRL, GCapRL, (1,)),
        (T2MergeLL, T2SplitLL, (1, 2)),
        (T2MergeRR, T2SplitRR, (1, 2)),
    ],
)
def test_mirror_pairs(merge, split, args):
    G = Group.aff1_mod_p(3)
    assert merge.mirror is split and split.mirror is merge and not issubclass(split, merge)
    m, s = merge(*args), split(*args)
    assert (s.dom(G), s.cod(G)) == (m.cod(G), m.dom(G))
    assert repr(s) == repr(m).replace(merge.__name__, split.__name__, 1)


def test_second_kind_splits_after_their_boundary_is_kept():
    """expand and the evaluations rebuild a split from its fields, so a boundary
    kept on the instance by an earlier apply changes nothing."""
    G, U, f, c = aff3()
    calc = calculus(G)
    for cls in (T2SplitLL, T2SplitRR):
        for s in G.elements():
            for t in G.elements():
                gen = cls(s, t)
                want = cls(s, t).expand(G)
                src = gen.dom(G)
                calc.apply(src, gen, 0)
                assert "_boundary" in vars(gen)
                assert gen.expand(G) == want
                dot = (GDot((1,)), 0)
                d = GDiagram(G, src, (dot, (gen, 0)))
                ref = GDiagram(G, src, (dot,) + tuple((part, 0) for part in want))
                for ev, args in (
                    (eval_alpha_u, (U,)),
                    (eval_alpha_f, (f,)),
                    (eval_alpha_c, (c,)),
                    (eval_alpha_cf, (c, f)),
                ):
                    assert ev(d, *args) == ev(ref, *args)


def test_boundary_is_kept_per_group():
    gen = VMergeL(1, 2)
    shown = (repr(gen), hash(gen), gen._fields)
    c3, c5 = Group.cyclic(3), Group.cyclic(5)
    for G, product in ((c3, 0), (c5, 3), (c3, 0)):
        assert calculus(G).apply((L(1), L(2)), gen, 0) == (L(product),)
        assert calculus(G).boundary(gen) == (gen.dom(G), gen.cod(G))
    assert (repr(gen), hash(gen), gen._fields) == shown
    assert gen == VMergeL(1, 2) and VMergeL(1, 2) == gen
    # points of the group's elements are shared; others are built afresh
    assert GCupLR(4).cod(c5)[0] is VMergeL(2, 2).cod(c5)[0]
    assert GCupLR(7).cod(c5) == (L(7), R(7))


# -- plain evaluation ----------------------------------------------------------


def test_alpha_u_examples():
    G, U, f, c = aff3()
    dotless = GDiagram(G, (), ((GCupLR(3), 0), (GCapLR(3), 0)))
    assert eval_alpha_u(dotless, U) == U.zero()
    lone = GDiagram(G, (), ((GDot((1,)), 0),))
    assert eval_alpha_u(lone, U) == (1,)
    behind = GDiagram(G, (L(4),), ((GDot((1,)), 1),))
    assert eval_alpha_u(behind, U) == U.act(4, (1,))


def test_alpha_u_additive_under_juxtaposition():
    G, U, f, c = aff3()
    rng = seeded_rng(201)
    for _ in range(40):
        d1 = random_closed_gdiagram(rng, G, grow_layers=4, module=U)
        d2 = random_closed_gdiagram(rng, G, grow_layers=4, module=U)
        offset = len(validate_gdiagram(d1))
        combined = GDiagram(
            G, d1.source + d2.source, d1.layers + tuple((g, p + offset) for g, p in d2.layers)
        )
        assert eval_alpha_u(combined, U) == U.add(eval_alpha_u(d1, U), eval_alpha_u(d2, U))


# -- one-cocycle twist -----------------------------------------------------------


def test_alpha_f_circles():
    G, U, f, c = aff3()
    assert verify_cocycle1(f)
    for s in G.elements():
        outward = GDiagram(G, (), ((GCupLR(s), 0), (GCapLR(s), 0)))
        assert eval_alpha_f(outward, f) == f(s)
        inward = GDiagram(G, (), ((GCupRL(s), 0), (GCapRL(s), 0)))
        assert eval_alpha_f(inward, f) == f(G.inv(s))
        assert f(G.inv(s)) == U.neg(U.act(G.inv(s), f(s)))


def test_alpha_f_concentric_circles():
    G, U, f, c = aff3()
    for s in G.elements():
        for t in G.elements():
            d = GDiagram(
                G,
                (),
                ((GCupLR(s), 0), (GCupLR(t), 1), (GCapLR(t), 1), (GCapLR(s), 0)),
            )
            assert eval_alpha_f(d, f) == f(G.mul(s, t))


def test_alpha_f_zigzags_vanish():
    G, U, f, c = aff3()
    for s in G.elements():
        z1 = GDiagram(G, (L(s),), ((GCupRL(s), 1), (GCapLR(s), 0)))
        assert validate_gdiagram(z1) == (L(s),)
        assert eval_alpha_f(z1, f) == U.zero()
        z2 = GDiagram(G, (L(s),), ((GCupLR(s), 0), (GCapRL(s), 1)))
        assert validate_gdiagram(z2) == (L(s),)
        assert eval_alpha_f(z2, f) == U.zero()


def test_alpha_f_flip_cancellation():
    G, U, f, c = aff3()
    for s in G.elements():
        for side in (True, False):
            d = GDiagram(
                G,
                (GPt(s, side),),
                ((GFlip(s, side), 0), (GFlip(G.inv(s), not side), 0)),
            )
            assert validate_gdiagram(d) == (GPt(s, side),)
            assert eval_alpha_f(d, f) == U.zero()


def test_alpha_f_type_two_table():
    """The four second-kind vertices against their tabulated contributions."""
    G, U, f, c = aff3()
    for s in G.elements():
        for t in G.elements():
            st, ts = G.mul(s, t), G.mul(t, s)
            # split into two left-co-oriented legs: -f(st), reference gap left
            d = GDiagram(G, (R(G.inv(st)),), ((T2SplitLL(s, t), 0),))
            assert eval_alpha_f(d, f) == U.neg(f(st))
            # merge of right-co-oriented legs: -f((ts)^-1), reference gap left
            d = GDiagram(G, (R(s), R(t)), ((T2MergeRR(s, t), 0),))
            assert eval_alpha_f(d, f) == U.neg(f(G.inv(ts)))
            # split into right-co-oriented legs: -omega f(ts), gap right of leg
            d = GDiagram(G, (L(G.inv(ts)),), ((T2SplitRR(s, t), 0),))
            assert eval_alpha_f(d, f) == U.neg(U.act(G.inv(ts), f(ts)))
            # merge of left-co-oriented legs: -omega f((st)^-1), gap right
            d = GDiagram(G, (L(s), L(t)), ((T2MergeLL(s, t), 0),))
            assert eval_alpha_f(d, f) == U.neg(U.act(st, f(G.inv(st))))


def test_alpha_f_isotopy_slides():
    """Sliding a far-away strand past contributions does not change them."""
    G, U, f, c = aff3()
    rng = seeded_rng(202)
    for _ in range(60):
        d = random_closed_gdiagram(rng, G, grow_layers=6)
        base = eval_alpha_f(d, f)
        # same network placed after a spectator circle
        spect = ((GCupLR(5), 0), (GCapLR(5), 0))
        shifted = GDiagram(G, (), spect + d.layers)
        assert eval_alpha_f(shifted, f) == U.add(f(5), base)


# -- two-cocycle twist -----------------------------------------------------------


def test_alpha_c_vertices():
    G, U, f, c = aff3()
    for s in G.elements():
        for t in G.elements():
            m = GDiagram(G, (L(s), L(t)), ((VMergeL(s, t), 0),))
            assert eval_alpha_c(m, c) == c(s, t)
            sp = GDiagram(G, (L(G.mul(s, t)),), ((VSplitL(s, t), 0),))
            assert eval_alpha_c(sp, c) == U.neg(c(s, t))
            mr = GDiagram(G, (R(s), R(t)), ((VMergeR(s, t), 0),))
            assert eval_alpha_c(mr, c) == c(G.inv(s), G.inv(t))


def test_alpha_c_boundary_arc():
    G, U, f, c = aff3()
    for s in G.elements():
        arc = GDiagram(G, (L(s), R(s)), ((GCapLR(s), 0),))
        assert eval_alpha_c(arc, c) == c(s, G.inv(s))


def test_alpha_c_flip_contributes_nothing():
    G, U, f, c = aff3()
    for s in G.elements():
        d = GDiagram(G, (L(s),), ((GFlip(s, True), 0),))
        assert eval_alpha_c(d, c) == U.zero()


def test_alpha_c_flip_past_extremum():
    """A reversal mark slides across a cap without changing the value."""
    G, U, f, c = aff3()
    for s in G.elements():
        src = (L(s), L(G.inv(s)))
        d1 = GDiagram(G, src, ((GFlip(G.inv(s), True), 1), (GCapLR(s), 0)))
        d2 = GDiagram(G, src, ((GFlip(s, True), 0), (GCapRL(G.inv(s)), 0)))
        assert validate_gdiagram(d1) == validate_gdiagram(d2) == ()
        assert eval_alpha_c(d1, c) == eval_alpha_c(d2, c)


def test_alpha_c_vertex_rotation():
    """Two routes from one strand to two legs: the direct second-kind vertex
    and a rotation through a cup; their values must agree."""
    G, U, f, c = aff3()
    for s in G.elements():
        for t in G.elements():
            gamma = G.inv(G.mul(s, t))
            src = (R(gamma),)
            direct = GDiagram(G, src, ((T2SplitLL(s, t), 0),))
            tau_inv = G.mul(gamma, s)  # equals t^-1
            rotated = GDiagram(
                G,
                src,
                (
                    (GCupLR(s), 0),
                    (VMergeR(s, gamma), 1),
                    (GFlip(tau_inv, False), 1),
                ),
            )
            assert validate_gdiagram(direct) == validate_gdiagram(rotated) == (L(s), L(t))
            assert eval_alpha_c(direct, c) == eval_alpha_c(rotated, c)


def test_alpha_c_closed_dotless_vanishes():
    rng = seeded_rng(203)
    for G in (Group.cyclic(4), Group.cyclic(7), Group.aff1_mod_p(3)):
        for _ in range(60):
            U = GModule.trivial(G, (rng.choice([2, 3, 4, 6]),))
            c = random_normalized_cocycle(rng, U)
            d = random_closed_gdiagram(rng, G, grow_layers=rng.randint(2, 9))
            assert is_closed(d)
            assert eval_alpha_c(d, c) == U.zero()


def test_alpha_c_requires_normalized():
    G = Group.cyclic(2)
    U = GModule.trivial(G, (2,))
    from entronet.groupnet.cohomology import Cocycle2

    bad = Cocycle2(U, (((1,), (0,)), ((0,), (1,))))
    d = GDiagram(G, (), ())
    with pytest.raises(GDiagramError):
        eval_alpha_c(d, bad)


def test_alpha_cf_is_the_sum_on_dotless():
    G, U, f, c = aff3()
    rng = seeded_rng(204)
    for _ in range(50):
        d = random_closed_gdiagram(rng, G, grow_layers=6)
        combined = eval_alpha_cf(d, c, f)
        assert combined == U.add(eval_alpha_c(d, c), eval_alpha_f(d, f))


def test_alpha_cf_counts_dots_once():
    G, U, f, c = aff3()
    d = GDiagram(G, (), ((GDot((2,)), 0),))
    assert eval_alpha_cf(d, c, f) == (2,)


def test_alpha_cf_rejects_a_cocycle_over_another_group():
    G1, G2 = Group.cyclic(3), Group.cyclic(3)
    U1, U2 = GModule.trivial(G1, (5,)), GModule.trivial(G2, (5,))
    zero1 = Cocycle2(U1, tuple(tuple((0,) for _ in range(3)) for _ in range(3)))
    zero2 = Cocycle2(U2, zero1.values)
    f1 = Cocycle1(U1, ((0,), (1,), (2,)))
    f2 = Cocycle1(U2, f1.values)
    d = GDiagram(G1, (), ((GDot((4,)), 0), (GCupLR(1), 0), (GCapLR(1), 0)))
    for c, f in ((zero1, f2), (zero2, f1)):
        with pytest.raises(GDiagramError, match="different group"):
            eval_alpha_cf(d, c, f)


def test_evaluation_errors_name_the_callers_layer():
    """A macro counts as one layer: the layer after it is layer 1, not 2."""
    G, U, f, c = aff3()
    d = GDiagram(G, (L(1), L(2)), ((T2MergeLL(1, 2), 0), (GCapLR(0), 0)))
    evaluations = (
        validate_gdiagram,
        lambda d: eval_alpha_u(d, U),
        lambda d: eval_alpha_f(d, f),
        lambda d: eval_alpha_c(d, c),
        lambda d: eval_alpha_cf(d, c, f),
    )
    for evaluate in evaluations:
        with pytest.raises(GDiagramError) as err:
            evaluate(d)
        assert err.value.layer == 1 and str(err.value).startswith("layer 1:")


def test_alpha_f_vertex_past_extremum():
    """A capped merge equals capping the legs separately (vertex slide)."""
    G, U, f, c = aff3()
    for s in G.elements():
        for t in G.elements():
            st = G.mul(s, t)
            src = (L(s), L(t), R(st))
            d1 = GDiagram(G, src, ((VMergeL(s, t), 0), (GCapLR(st), 0)))
            d2 = GDiagram(
                G,
                src,
                ((VSplitR(t, s), 2), (GCapLR(t), 1), (GCapLR(s), 0)),
            )
            assert validate_gdiagram(d1) == validate_gdiagram(d2) == ()
            assert eval_alpha_f(d1, f) == eval_alpha_f(d2, f)


def test_alpha_f_flip_slide_correction():
    """Sliding a reversal mark across a cap costs exactly one twisted value."""
    G, U, f, c = aff3()
    for s in G.elements():
        src = (L(s), L(G.inv(s)))
        flip_right = GDiagram(
            G, src, ((GFlip(G.inv(s), True), 1), (GCapLR(s), 0))
        )
        flip_left = GDiagram(
            G, src, ((GFlip(s, True), 0), (GCapRL(G.inv(s)), 0))
        )
        assert validate_gdiagram(flip_right) == validate_gdiagram(flip_left) == ()
        lhs = eval_alpha_f(flip_right, f)
        rhs = eval_alpha_f(flip_left, f)
        assert U.sub(lhs, rhs) == U.neg(f(s))


def test_alpha_f_lollipop_reduction_matches_flip():
    """The defining reduction of a flip point (bend toward the lower arc's
    co-orientation side, with a unit-labelled loop) evaluates like the mark."""
    G, U, f, c = aff3()
    for s in G.elements():
        sinv = G.inv(s)
        direct = GDiagram(G, (L(s),), ((GFlip(s, True), 0),))
        reduced = GDiagram(
            G,
            (L(s),),
            (
                (GCupRL(sinv), 0),
                (VMergeL(sinv, s), 1),
                (GCupLR(0), 2),
                (VMergeL(0, 0), 1),
                (GCapLR(0), 1),
            ),
        )
        assert validate_gdiagram(direct) == validate_gdiagram(reduced) == (R(sinv),)
        assert eval_alpha_f(direct, f) == eval_alpha_f(reduced, f)


def test_alpha_f_lollipop_side_is_irrelevant():
    """The unit loop closing the reduction contributes nothing on either side."""
    G, U, f, c = aff3()
    for s in G.elements():
        sinv = G.inv(s)
        head = ((GCupRL(sinv), 0), (VMergeL(sinv, s), 1))
        right_loop = head + ((GCupLR(0), 2), (VMergeL(0, 0), 1), (GCapLR(0), 1))
        left_loop = head + ((GCupRL(0), 1), (VMergeL(0, 0), 2), (GCapRL(0), 1))
        d1 = GDiagram(G, (L(s),), right_loop)
        d2 = GDiagram(G, (L(s),), left_loop)
        assert validate_gdiagram(d1) == validate_gdiagram(d2) == (R(sinv),)
        assert eval_alpha_f(d1, f) == eval_alpha_f(d2, f)


# -- differential: the library's arithmetic against reduce-every-step references


def _ref_coboundary2(U, b):
    G = U.group
    return tuple(
        tuple(U.sub(U.add(b[s], U.act(s, b[t])), b[G.mul(s, t)]) for t in G.elements())
        for s in G.elements()
    )


def _ref_winding(G, obj, pos):
    w = 0
    for pt in obj[:pos]:
        w = G.mul(w, pt.g if pt.left else G.inv(pt.g))
    return w


_REF_C_SIGNS = {
    VMergeL: 1, VSplitL: -1, VMergeR: 1, VSplitR: -1,
    GCupLR: -1, GCapLR: 1, GCupRL: -1, GCapRL: 1,
}


def _ref_c_piece(G, c, w, gen):
    U, sign = c.module, _REF_C_SIGNS.get(type(gen))
    if sign is None:
        return U.zero()
    if isinstance(gen, (VMergeL, VSplitL)):
        value = c(gen.s, gen.t)
    elif isinstance(gen, (VMergeR, VSplitR)):
        value = c(G.inv(gen.s), G.inv(gen.t))
    else:
        value = c(gen.g, G.inv(gen.g))
        if isinstance(gen, (GCupRL, GCapRL)):
            w = G.mul(w, G.inv(gen.g))
    piece = U.act(w, value)
    return piece if sign > 0 else U.neg(piece)


def _ref_f_piece(G, f, w, gen):
    U = f.module
    if isinstance(gen, GCapLR):
        return U.act(w, f(gen.g))
    if isinstance(gen, GCupRL):
        return U.neg(U.act(G.mul(w, G.inv(gen.g)), f(gen.g)))
    if isinstance(gen, GFlip):
        if gen.from_left:
            w = G.mul(w, gen.g)
        return U.neg(U.act(w, f(G.inv(gen.g))))
    return U.zero()


def _ref_alpha(d, U, c=None, f=None):
    """Dots plus the c and f pieces, each acted, negated and added with a reduction."""
    G = d.group
    total, obj, apply = U.zero(), d.source, calculus(G).apply
    for i, (macro, pos) in enumerate(d.layers):
        w = _ref_winding(G, obj, pos)
        obj = apply(obj, macro, pos, i)
        for gen in macro.expand(G) if hasattr(macro, "expand") else (macro,):
            if isinstance(gen, GDot):
                total = U.add(total, U.act(w, U.reduce(gen.u)))
            if c is not None:
                total = U.add(total, _ref_c_piece(G, c, w, gen))
            if f is not None:
                total = U.add(total, _ref_f_piece(G, f, w, gen))
    return total


def _unreduced_dots(rng, d, U):
    """d with each dot label moved by random multiples of the moduli, some negative."""
    layers = tuple(
        (GDot(tuple(x + rng.randint(-3, 3) * m for x, m in zip(gen.u, U.moduli))), pos)
        if isinstance(gen, GDot) else (gen, pos)
        for gen, pos in d.layers
    )
    return GDiagram(d.group, d.source, layers)


def _random_table(rng, U):
    """A normalized 2-cochain with arbitrary values, not only coboundaries."""
    n = U.group.order
    return Cocycle2(U, tuple(
        tuple(
            U.zero() if 0 in (s, t) else tuple(rng.randrange(m) for m in U.moduli)
            for t in range(n)
        )
        for s in range(n)
    ))


def _differential_modules():
    """(module for c, module for f): scaling on Aff1(F3), and Z/4 x Z/2 under C2
    acting by [[1, 2], [0, 1]], with f once over a module of the same moduli
    but the identity action."""
    _, U3, _, _ = aff3()
    C2 = Group.cyclic(2)
    twisted = GModule(C2, (4, 2), {0: [[1, 0], [0, 1]], 1: [[1, 2], [0, 1]]})
    return [(U3, U3), (twisted, twisted), (twisted, GModule.trivial(C2, (4, 2)))]


def test_arithmetic_matches_reduce_every_step_references():
    rng = seeded_rng(205)
    checked = 0
    for U, V in _differential_modules():
        G = U.group
        for k in range(12):
            b = [U.zero()] + [
                tuple(rng.randint(-9, 9) for _ in U.moduli) for _ in range(G.order - 1)
            ]
            db = coboundary2(U, b)
            assert db.values == _ref_coboundary2(U, [U.reduce(x) for x in b])
            f = Cocycle1(V, tuple(tuple(rng.randrange(m) for m in V.moduli) for _ in G.elements()))
            for c in (db, _random_table(rng, U)):
                d = random_closed_gdiagram(rng, G, grow_layers=k, module=U)
                d = _unreduced_dots(rng, d, U)
                for n in range(len(d.layers) + 1):
                    p = GDiagram(G, d.source, d.layers[:n])
                    assert eval_alpha_u(p, U) == _ref_alpha(p, U)
                    assert eval_alpha_c(p, c) == _ref_alpha(p, U, c=c)
                    assert eval_alpha_f(p, f) == _ref_alpha(p, V, f=f)
                    assert eval_alpha_cf(p, c, f) == _ref_alpha(p, U, c=c, f=f)
                    checked += 1
    assert checked > 500


def test_trivial_module_is_the_checked_identity_action():
    rng = seeded_rng(206)
    for G, moduli in ((Group.cyclic(5), (6,)), (Group.aff1_mod_p(3), (4, 3))):
        U = GModule.trivial(G, moduli)
        eye = [[int(i == j) for j in range(len(moduli))] for i in range(len(moduli))]
        checked = GModule(G, moduli, {g: eye for g in G.elements()})
        assert U.action == checked.action and U.moduli == checked.moduli
        for _ in range(10):
            b = [U.zero()] + [
                tuple(rng.randrange(m) for m in moduli) for _ in range(G.order - 1)
            ]
            assert coboundary2(U, b).values == coboundary2(checked, b).values
            d = random_closed_gdiagram(rng, G, grow_layers=6, module=U)
            assert eval_alpha_u(d, U) == eval_alpha_u(d, checked)
    with pytest.raises(GroupValidationError):
        GModule.trivial(Group.cyclic(3), (0,))
