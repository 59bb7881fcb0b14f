from fractions import Fraction as F

import pytest

from entronet import affine as af
from entronet.jspace import (
    EntropyScalar,
    PrimeVector,
    bracket_H_float,
    entropy_render,
    render_float,
    symbol,
)
from entronet.sampling import random_diagram, random_distribution, seeded_rng


def X(a):
    return af.xplus(F(a))


def Xm(a):
    return af.xminus(F(a))


def Y(c):
    return af.yplus(F(c))


def Ym(c):
    return af.yminus(F(c))


# -- validation --------------------------------------------------------------


def test_identity_diagram():
    obj = (X(1), Y(2), Xm(F(2, 5)))
    assert af.validate(af.identity_diagram(obj)) == obj


def test_merge_signature():
    d = af.Diagram((X(F(1, 2)), X(F(1, 2))), ((af.AddMerge(F(1, 2), F(1, 2)), 0),))
    assert af.validate(d) == (X(1),)


def test_xy_cross_signature():
    d = af.Diagram((Y(2), X(3)), ((af.XYCross(Y(2), X(3)), 0),))
    assert af.validate(d) == (X(6), Y(2))
    # downward strands scale the same way
    d2 = af.Diagram((Y(2), Xm(3)), ((af.XYCross(Y(2), Xm(3)), 0),))
    assert af.validate(d2) == (Xm(6), Y(2))
    d3 = af.Diagram((Ym(2), X(3)), ((af.XYCross(Ym(2), X(3)), 0),))
    assert af.validate(d3) == (X(F(3, 2)), Ym(2))


def test_validation_errors():
    with pytest.raises(af.WeightMismatch):
        af.validate(af.Diagram((X(1), X(2)), ((af.AddMerge(F(1), F(1)), 0),)))
    with pytest.raises(af.KindMismatch):
        af.validate(af.Diagram((X(1), Xm(2)), ((af.AddMerge(F(1), F(2)), 0),)))
    with pytest.raises(af.PositionOutOfRange):
        af.validate(af.Diagram((X(1),), ((af.AddMerge(F(1), F(1)), 1),)))
    with pytest.raises(af.ZeroMultiplicativeWeight):
        af.yplus(0)
    err = None
    try:
        af.validate(af.Diagram((X(1),), ((af.AddSplit(F(1), F(1)), 0),)))
    except af.DiagramError as exc:
        err = exc
    assert err is not None and err.layer == 0


# -- weights ------------------------------------------------------------------


def test_object_weight_examples():
    obj = (X(F(1)), Y(F(2)), X(F(3)), Y(F(4)))
    assert af.object_weight(obj) == af.AffWeight(F(7), F(8))
    assert af.object_weight(()) == af.AffWeight(F(0), F(1))
    assert af.object_weight((Xm(5),)) == af.AffWeight(F(-5), F(1))


def test_weight_multiplicativity():
    rng = seeded_rng(101)
    from entronet.sampling import random_object

    for _ in range(100):
        z1, z2 = random_object(rng), random_object(rng)
        assert af.object_weight(z1 + z2) == af.object_weight(z1) * af.object_weight(z2)


def test_effective_weights_examples():
    assert af.effective_weights((Y(2), X(3))) == [F(6)]
    assert af.effective_weights((Xm(5),)) == [F(-5)]
    assert af.effective_weights((X(1), Ym(2), X(4))) == [F(1), F(2)]


def test_effective_weights_vs_crossings():
    # moving every additive point left with crossings must not change them
    obj = (X(1), Ym(2), X(4), Y(3), Xm(5))
    d = af.Diagram(
        obj,
        (
            (af.XYCross(Ym(2), X(4)), 1),
            (af.XYCross(Y(3), Xm(5)), 3),
            (af.XYCross(Ym(2), Xm(15)), 2),
        ),
    )
    tgt = af.validate(d)
    assert tgt[:3] == (X(1), X(2), Xm(F(15, 2)))
    assert af.effective_weights(obj) == af.effective_weights(tgt)


def test_jstar_examples():
    assert af.jstar((X(7),)).is_zero()
    assert af.jstar(()).is_zero()
    assert af.jstar((X(2), X(3))) == symbol(F(2), F(3))
    assert af.jstar((X(2), X(3), X(4))) == symbol(F(2), F(3)) + symbol(F(5), F(4))


# -- windings ------------------------------------------------------------------


def test_winding_examples():
    d = af.identity_diagram((Y(2), Ym(3), X(1)))
    assert af.winding(d, 0, 0) == 1
    assert af.winding(d, 0, 1) == 2
    assert af.winding(d, 0, 2) == F(2, 3)
    with pytest.raises(af.PositionOutOfRange):
        af.winding(d, 0, 4)
    with pytest.raises(af.PositionOutOfRange):
        af.winding(d, 1, 0)


# -- evaluation ----------------------------------------------------------------


def test_j_invariant_identity_is_zero():
    assert af.j_invariant(af.identity_diagram((X(1), Y(2)))).is_zero()


def test_single_merge():
    d = af.Diagram((X(2), X(3)), ((af.AddMerge(F(2), F(3)), 0),))
    assert af.j_invariant(d) == symbol(F(2), F(3))


def test_merge_under_winding():
    d = af.Diagram((Y(5), X(2), X(3)), ((af.AddMerge(F(2), F(3)), 1),))
    assert af.j_invariant(d) == symbol(F(10), F(15))


def test_dual_vertex_signs():
    dm = af.Diagram((Xm(3), Xm(2)), ((af.AddMergeDual(F(2), F(3)), 0),))
    assert af.j_invariant(dm) == -symbol(F(2), F(3))
    ds = af.Diagram((Xm(5),), ((af.AddSplitDual(F(2), F(3)), 0),))
    assert af.j_invariant(ds) == symbol(F(2), F(3))


def test_boundary_theorem_random():
    rng = seeded_rng(55)
    for _ in range(300):
        d = random_diagram(rng)
        tgt = af.validate(d)
        assert af.j_invariant(d) - af.dot_contribution(d) == af.jstar(d.source) - af.jstar(tgt)


def test_dotless_endomorphisms_vanish():
    rng = seeded_rng(56)
    found = 0
    for _ in range(4000):
        d = random_diagram(rng, max_dots=0, max_layers=10, max_strands=8)
        if af.validate(d) == tuple(d.source):
            assert af.j_invariant(d).is_zero()
            found += 1
    assert found > 30


def test_compose_tensor_laws():
    rng = seeded_rng(57)
    from entronet.jspace import scale

    for _ in range(1000):
        d1 = random_diagram(rng, max_strands=8, max_layers=8)
        mid = af.validate(d1)
        d2 = _extend(rng, mid)
        comp = af.compose(d1, d2)
        assert af.j_invariant(comp) == af.j_invariant(d1) + af.j_invariant(d2)
        e = random_diagram(rng, max_strands=6, max_layers=6)
        t = af.tensor(d1, e)
        c1 = af.object_weight(tuple(d1.source)).c
        assert af.j_invariant(t) == af.j_invariant(d1) + scale(c1, af.j_invariant(e))


def _extend(rng, obj):
    from entronet.sampling import _applicable_generators

    layers = []
    cur = obj
    for _ in range(rng.randint(0, 8)):
        options = _applicable_generators(rng, cur, 9)
        if not options:
            break
        build, args, pos, _ = rng.choice(options)
        gen = build(*args)
        layers.append((gen, pos))
        cur = af.apply_layer(cur, gen, pos)
    return af.Diagram(obj, tuple(layers))


def test_compose_boundary_mismatch():
    d1 = af.identity_diagram((X(1),))
    d2 = af.identity_diagram((X(2),))
    with pytest.raises(af.BoundaryMismatch):
        af.compose(d1, d2)


def test_morphism_exists_examples():
    assert af.morphism_exists((X(1), X(2)), (X(3),))
    assert not af.morphism_exists((X(1),), (X(2),))


def test_equal_morphisms_dotless():
    # two different dotless routes between the same boundary words agree
    src = (X(2), X(3), X(4))
    d1 = af.Diagram(src, ((af.AddMerge(F(2), F(3)), 0), (af.AddMerge(F(5), F(4)), 0)))
    d2 = af.Diagram(src, ((af.AddMerge(F(3), F(4)), 1), (af.AddMerge(F(2), F(7)), 0)))
    assert af.equal_morphisms(d1, d2)


# -- entropy operations --------------------------------------------------------


def test_shannon_examples():
    assert af.shannon_entropy([F(1)]).is_zero()
    assert af.shannon_entropy([F(1, 2), F(1, 2)]) == EntropyScalar(F(0), PrimeVector({2: F(1)}))
    assert af.shannon_entropy([F(1, 2), F(1, 4), F(1, 4)]) == EntropyScalar(
        F(0), PrimeVector({2: F(3, 2)})
    )
    with pytest.raises(ValueError):
        af.shannon_entropy([])


def test_shannon_matches_psi_formula():
    # independent evaluation through the additivity defect of psi
    import math

    rng = seeded_rng(58)
    for _ in range(100):
        ps = random_distribution(rng, rng.randint(1, 6))
        got = render_float(af.shannon_entropy(ps))
        want = -sum(float(p) * math.log(float(p)) for p in ps if p)
        assert abs(got - want) < 1e-10


def test_chain_rule_simplest():
    # grouping a two-point split inside a two-point outer variable
    c, p = F(1, 3), F(2, 7)
    assert af.chain_rule_check([c, 1 - c], [[F(1)], [p, 1 - p]])
    x = af.shannon_entropy([c, (1 - c) * p, (1 - c) * (1 - p)])
    want = af.shannon_entropy([c, 1 - c]) + af.shannon_entropy([p, 1 - p]).scaled(1 - c)
    assert x == want


def test_chain_rule_outer_point():
    rng = seeded_rng(59)
    y = random_distribution(rng, 4)
    assert af.chain_rule_check([F(1)], [y])


def test_chain_rule_random():
    rng = seeded_rng(60)
    for _ in range(50):
        n = rng.randint(1, 5)
        z = random_distribution(rng, n)
        ys = [random_distribution(rng, rng.randint(1, 4)) for _ in range(n)]
        assert af.chain_rule_check(z, ys)


def test_chain_rule_dimension_mismatch():
    with pytest.raises(ValueError):
        af.chain_rule_check([F(1, 2), F(1, 2)], [[F(1)]])


def test_is_finprob():
    ps = [F(1, 2), F(1, 4), F(1, 4)]
    d = af.merge_fold_diagram(ps)
    assert af.is_finprob(d)
    bad = af.Diagram((X(F(1, 2)), Y(2), X(F(1, 2))), ())
    assert not af.is_finprob(bad)
    with_split = af.Diagram((X(1),), ((af.AddSplit(F(1, 2), F(1, 2)), 0),))
    assert not af.is_finprob(with_split)
    not_one = af.Diagram((X(F(1, 2)),), ())
    assert not af.is_finprob(not_one)
    cross = af.Diagram(
        (X(F(1, 2)), X(F(1, 2))),
        ((af.AddCross(X(F(1, 2)), X(F(1, 2))), 0), (af.AddMerge(F(1, 2), F(1, 2)), 0)),
    )
    assert af.is_finprob(cross)


# -- the affine pairing --------------------------------------------------------


def test_aff_cocycle_examples():
    w = af.AffWeight
    assert af.aff_cocycle(w(F(2), F(1)), w(F(3), F(1))) == symbol(F(2), F(3))
    assert af.aff_cocycle(w(F(2), F(5)), w(F(0), F(7))).is_zero()
    assert af.aff_cocycle(w(F(0), F(5)), w(F(3), F(7))).is_zero()


def test_aff_cocycle_identity():
    from entronet.jspace import scale
    from entronet.sampling import random_rational

    rng = seeded_rng(61)
    for _ in range(300):
        ws = [
            af.AffWeight(random_rational(rng, 12), random_rational(rng, 12, nonzero=True))
            for _ in range(3)
        ]
        w1, w2, w3 = ws
        lhs = scale(w1.c, af.aff_cocycle(w2, w3))
        rhs = af.aff_cocycle(w1, w2) + af.aff_cocycle(w1 * w2, w3) - af.aff_cocycle(w1, w2 * w3)
        assert lhs == rhs


# -- float mode ----------------------------------------------------------------


def test_mode_consistency():
    rng = seeded_rng(62)
    for _ in range(60):
        d = random_diagram(rng, mode=af.MODE_H, max_strands=8, max_layers=12, max_dots=0)
        exact = af.j_invariant(d)
        approx = af.j_invariant(d.with_mode(af.MODE_HFLOAT))
        assert abs(render_float(exact) - approx) < 1e-10


def test_h_mode_dot_payload_checked():
    d = af.Diagram((), ((af.Dot(PrimeVector({2: F(1)})), 0),), af.MODE_H)
    with pytest.raises(af.KindMismatch):
        af.j_invariant(d)


# -- reflection ----------------------------------------------------------------


@pytest.mark.parametrize(
    "merge, split, args",
    [
        (af.AddMerge, af.AddSplit, (F(2), F(3))),
        (af.AddMergeDual, af.AddSplitDual, (F(2), F(3))),
        (af.MultMerge, af.MultSplit, (F(2), F(3))),
        (af.MultMergeDual, af.MultSplitDual, (F(2), F(3))),
        (af.CupX, af.CapX, (F(2), False)),
        (af.CupY, af.CapY, (F(2), True)),
    ],
)
def test_mirror_pairs(merge, split, args):
    assert merge.mirror is split and split.mirror is merge and not issubclass(split, merge)
    m, s = merge(*args), split(*args)
    assert (s.dom(), s.cod()) == (m.cod(), m.dom())
    assert repr(s) == repr(m).replace(merge.__name__, split.__name__, 1)


def test_inverse_cancels():
    """A diagram followed by its reflection evaluates like the identity."""
    rng = seeded_rng(77)
    for _ in range(200):
        d = random_diagram(rng, max_strands=8, max_layers=12)
        inv = af.inverse(d)
        assert af.validate(inv) == d.source
        assert af.j_invariant(af.compose(d, inv)) == PrimeVector()


# -- evaluation against an affine-group fold -------------------------------------

_FOLD_SIGNS = {af.AddMerge: 1, af.AddSplit: -1, af.AddMergeDual: -1, af.AddSplitDual: 1}


def _y_product(obj, p):
    """Product of the multiplicative weights left of p: c for Y+(c), 1/c for Y-(c)."""
    out = F(1)
    for pt in obj[:p]:
        if pt.kind is af.Kind.YP:
            out *= pt.weight
        elif pt.kind is af.Kind.YM:
            out /= pt.weight
    return out


def _affine_fold(d):
    """Each additive vertex at p gives +-<(0, C) * (a, 1), (b, 1)>, C the
    product left of p; each dot adds its label scaled by C."""
    total, obj = PrimeVector(), d.source
    for i, (gen, p) in enumerate(d.layers):
        C = _y_product(obj, p)
        obj = af.apply_layer(obj, gen, p, i)
        sign = _FOLD_SIGNS.get(type(gen))
        if sign is not None:
            w1 = af.AffWeight(0, C) * af.AffWeight(gen.a, 1)
            total = total + af.aff_cocycle(w1, af.AffWeight(gen.b, 1)).scaled(sign)
        elif isinstance(gen, af.Dot):
            total = total + gen.payload.scaled(C)
    return total


def test_j_invariant_is_the_affine_group_fold():
    rng = seeded_rng(71)
    vertices = 0
    for _ in range(500):
        d = random_diagram(rng, max_strands=8, max_layers=14, max_num=6)
        assert af.j_invariant(d) == _affine_fold(d)
        vertices += sum(type(gen) in _FOLD_SIGNS for gen, _ in d.layers)
    assert vertices > 500


_HARD = 1152921504606859327 * 309485009821345068724848949  # a 61-bit times an 89-bit prime


@pytest.mark.parametrize("mode", [af.MODE_J, af.MODE_H])
def test_vertices_cancel_across_a_dot(mode):
    """A merge and its split with a dot between them cancel, so their hard
    integer N is never factored; a wrong-kind dot is refused before it would be."""
    payload = PrimeVector({3: F(1, 2)})
    payload = payload if mode == af.MODE_J else entropy_render(payload)
    merge, split = (af.AddMerge(F(_HARD), F(1)), 0), (af.AddSplit(F(_HARD), F(1)), 0)
    d = af.Diagram((X(_HARD), X(1)), (merge, (af.Dot(payload), 0), split), mode)
    assert af.j_invariant(d) == payload.scaled(F(1))
    wrong = af.Diagram((X(_HARD), X(1)), (merge, (af.Dot(0.5), 0)), mode)
    with pytest.raises(af.KindMismatch):
        af.j_invariant(wrong)


# -- the mode table against the per-mode chains it replaced -----------------------


def _zero_value(mode):
    if mode == af.MODE_J:
        return PrimeVector()
    if mode == af.MODE_H:
        return EntropyScalar.zero()
    return 0.0


def _vertex_value(mode, a, b):
    if mode == af.MODE_J:
        return symbol(a, b)
    if mode == af.MODE_H:
        return entropy_render(symbol(a, b))
    return bracket_H_float(float(a), float(b))


def _scale_value(mode, w, value):
    if mode == af.MODE_HFLOAT:
        return float(w) * value
    return value.scaled(w)


def _dot_value(mode, payload):
    if mode == af.MODE_J:
        if not isinstance(payload, PrimeVector):
            raise af.KindMismatch("J-mode dots carry prime vectors")
        return payload
    if mode == af.MODE_H:
        if not isinstance(payload, EntropyScalar):
            raise af.KindMismatch("H-mode dots carry entropy scalars")
        return payload
    if not isinstance(payload, (float, int)):
        raise af.KindMismatch("Hfloat-mode dots carry floats")
    return float(payload)


def _layer_contribution(mode, w, gen):
    sign = _FOLD_SIGNS.get(type(gen))
    if sign is not None:
        return _scale_value(mode, w if sign > 0 else -w, _vertex_value(mode, gen.a, gen.b))
    if isinstance(gen, af.Dot):
        return _scale_value(mode, w, _dot_value(mode, gen.payload))
    return None


def _chain_j_invariant(d):
    total = _zero_value(d.mode)
    for w, gen, _ in af.AFFINE.walk(d.source, d.layers):
        piece = _layer_contribution(d.mode, w, gen)
        if piece is not None:
            total = total + piece
    return total


def _chain_dot_contribution(d):
    total, obj = _zero_value(d.mode), d.source
    for i, (gen, pos) in enumerate(d.layers):
        if isinstance(gen, af.Dot):
            total = total + _layer_contribution(d.mode, af.AFFINE.winding(obj, pos), gen)
        obj = af.apply_layer(obj, gen, pos, i)
    return total


def _same(mode, x, y):
    """Equal values in J and H; the identical double in Hfloat."""
    return repr(x) == repr(y) if mode == af.MODE_HFLOAT else x == y


@pytest.mark.parametrize("mode", af.MODES)
def test_mode_table_matches_the_mode_chains(mode):
    rng = seeded_rng(93)
    dots = 0
    for _ in range(500):
        d = random_diagram(rng, mode=mode, max_strands=8, max_layers=14, max_num=6)
        assert _same(mode, af.j_invariant(d), _chain_j_invariant(d))
        assert _same(mode, af.dot_contribution(d), _chain_dot_contribution(d))
        dots += sum(isinstance(gen, af.Dot) for gen, _ in d.layers)
    assert dots > 100


_PAYLOADS = (PrimeVector({2: F(1)}), EntropyScalar(F(1), PrimeVector()), 0.5, 2, F(1, 2), "1")


@pytest.mark.parametrize("mode", af.MODES)
@pytest.mark.parametrize("payload", _PAYLOADS, ids=repr)
def test_mode_table_checks_payloads_like_the_mode_chains(mode, payload):
    d = af.Diagram((X(1),), ((af.Dot(payload), 0),), mode)
    try:
        want = _dot_value(mode, payload)
    except af.KindMismatch as exc:
        for evaluate in (af.j_invariant, af.dot_contribution):
            with pytest.raises(af.KindMismatch) as info:
                evaluate(d)
            assert type(info.value) is type(exc) and str(info.value) == str(exc)
    else:
        assert _same(mode, af.j_invariant(d), want)
        assert _same(mode, af.dot_contribution(d), want)


def test_float_equality_of_infinities():
    inf = float("inf")
    assert af.values_equal(af.MODE_HFLOAT, inf, inf)
    assert af.values_equal(af.MODE_HFLOAT, -inf, -inf)
    assert not af.values_equal(af.MODE_HFLOAT, inf, -inf)
    assert not af.values_equal(af.MODE_HFLOAT, inf, 1e308)
    assert not af.values_equal(af.MODE_HFLOAT, float("nan"), float("nan"))
    assert af.values_equal(af.MODE_HFLOAT, 1.0, 1.0 + 1e-12)
