from fractions import Fraction as F

import pytest

from entronet import affine as af
from entronet import rewrite as rw
from entronet.sampling import random_diagram, seeded_rng


def X(a):
    return af.xplus(F(a))


def _check(rule_name, diagram, at):
    before = (tuple(diagram.source), af.validate(diagram), af.j_invariant(diagram))
    out = rw.apply(diagram, rw.RULES[rule_name], at)
    after = (tuple(out.source), af.validate(out), af.j_invariant(out))
    assert before == after
    return out


def test_merge_assoc_example():
    d = af.Diagram(
        (X(1), X(2), X(3)),
        ((af.AddMerge(F(1), F(2)), 0), (af.AddMerge(F(3), F(3)), 0)),
    )
    out = _check("merge_assoc", d, 0)
    assert out.layers == ((af.AddMerge(F(2), F(3)), 1), (af.AddMerge(F(1), F(5)), 0))


def test_cancellation_example():
    d = af.Diagram(
        (X(2), X(5)),
        ((af.AddMerge(F(2), F(5)), 0), (af.AddSplit(F(2), F(5)), 0)),
    )
    out = _check("cancel_merge_split", d, 0)
    assert out.layers == ()


def test_curl_removal_example():
    a = F(7, 3)
    d = af.Diagram(
        (X(a),),
        (
            (af.CupX(a, True), 1),
            (af.AddCross(X(a), X(a)), 0),
            (af.CapX(a, True), 1),
        ),
    )
    out = _check("curl_remove", d, 0)
    assert out.layers == ()


def test_cross_as_merge_split():
    d = af.Diagram((X(2), X(3)), ((af.AddCross(X(2), X(3)), 0),))
    out = _check("cross_as_merge_split", d, 0)
    assert af.validate(out) == (X(3), X(2))


def test_double_cross_cancel():
    d = af.Diagram(
        (X(2), af.xminus(3)),
        (
            (af.AddCross(X(2), af.xminus(3)), 0),
            (af.AddCross(af.xminus(3), X(2)), 0),
        ),
    )
    out = _check("cross_pull_apart", d, 0)
    assert out.layers == ()


def test_additive_skein():
    d = af.Diagram(
        (X(2), X(5)),
        ((af.AddMerge(F(2), F(5)), 0), (af.AddSplit(F(3), F(4)), 0)),
    )
    out = _check("additive_skein", d, 0)
    assert af.validate(out) == (X(3), X(4))


def test_mult_through_merge():
    y = af.yplus(F(5))
    d = af.Diagram(
        (y, X(2), X(3)),
        (
            (af.XYCross(y, X(2)), 0),
            (af.XYCross(y, X(3)), 1),
            (af.AddMerge(F(10), F(15)), 0),
        ),
    )
    out = _check("mult_through_merge", d, 0)
    assert len(out.layers) == 2


def test_cross_past_coorient_rev():
    y = af.yplus(F(5))
    d = af.Diagram(
        (y, X(2)),
        ((af.XYCross(y, X(2)), 0), (af.CoorientRev(F(5), True), 1)),
    )
    _check("cross_past_coorient_rev", d, 0)


def test_exchange_disjoint():
    d = af.Diagram(
        (X(1), X(2), af.yplus(3)),
        ((af.AddMerge(F(1), F(2)), 0), (af.CoorientRev(F(3), True), 1)),
    )
    out = _check("exchange_disjoint", d, 0)
    assert isinstance(out.layers[0][0], af.CoorientRev)
    # and with the layers the other way around
    d2 = af.Diagram(
        (af.yplus(3), X(1), X(2)),
        ((af.CoorientRev(F(3), True), 0), (af.AddMerge(F(1), F(2)), 1)),
    )
    _check("exchange_disjoint", d2, 0)


def test_rule_not_applicable():
    d = af.identity_diagram((X(1),))
    with pytest.raises(rw.RuleNotApplicable):
        rw.apply(d, rw.RULES["merge_assoc"], 0)


def test_all_rules_on_constructed_sites():
    from entronet.sampling import random_rule_site

    rng = seeded_rng(66)
    for name in rw.RULES:
        for _ in range(40):
            d, at = random_rule_site(rng, name)
            assert rw.RULES[name].matcher(d, at), name
            _check(name, d, at)


def test_rule_order():
    """The benchmark and the pins index the rules by this order."""
    assert tuple(rw.RULES) == (
        "merge_assoc", "split_assoc", "cancel_merge_split", "cancel_split_merge",
        "cross_as_merge_split", "cross_pull_apart", "curl_remove", "additive_skein",
        "zero_circle", "mult_assoc", "mult_cancel", "unit_circle", "mult_through_merge",
        "cross_past_coorient_rev", "exchange_disjoint",
    )


def test_matcher_window_must_fit():
    """A window that starts before layer 0 or runs past the top never matches,
    so a negative index cannot slice from the end."""
    from entronet.sampling import random_rule_site

    rng = seeded_rng(70)
    for name, rule in rw.RULES.items():
        for _ in range(10):
            d, _ = random_rule_site(rng, name)
            for at in (-1, len(d.layers)):
                assert not rule.matcher(d, at), (name, at)
                with pytest.raises(rw.RuleNotApplicable):
                    rw.apply(d, rule, at)


def test_unknown_rule_site():
    from entronet.sampling import random_rule_site

    with pytest.raises(ValueError, match="nope"):
        random_rule_site(seeded_rng(0), "nope")


def test_random_diagrams_also_offer_sites():
    rng = seeded_rng(69)
    seen = set()
    for _ in range(800):
        d = random_diagram(rng, max_strands=9, max_layers=12, max_dots=1, max_num=6)
        for name, at in rw.applicable_sites(d):
            if name not in seen:
                _check(name, d, at)
                seen.add(name)
    assert len(seen) >= 5, seen


def test_normalize_identity_diagram():
    d = af.identity_diagram((X(3),))
    nd = rw.normalize(d)
    assert af.validate(nd) == (X(3),)
    assert af.j_invariant(nd).is_zero()
    assert rw.normalize(nd) == nd


def test_normalize_cross_has_zero_dot():
    d = af.Diagram((X(2), X(3)), ((af.AddCross(X(2), X(3)), 0),))
    nd = rw.normalize(d)
    dots = [gen for gen, _ in nd.layers if isinstance(gen, af.Dot)]
    assert len(dots) == 1 and dots[0].payload.is_zero()
    assert af.equal_morphisms(d, nd)


def test_normalize_random():
    rng = seeded_rng(67)
    for _ in range(120):
        d = random_diagram(rng, max_strands=8, max_layers=10, max_num=6)
        nd = rw.normalize(d)
        assert af.equal_morphisms(d, nd)
        assert rw.normalize(nd) == nd


def test_normalize_unit_endomorphism():
    d = af.Diagram((), ((af.CupX(F(2), True), 0), (af.CapX(F(2), True), 0)))
    nd = rw.normalize(d)
    assert af.validate(nd) == ()
    assert af.equal_morphisms(d, nd)


def test_normalize_float_mode():
    rng = seeded_rng(68)
    d = random_diagram(rng, mode=af.MODE_HFLOAT, max_strands=6, max_layers=8)
    nd = rw.normalize(d)
    assert af.validate(nd) == af.validate(d)
    assert abs(af.j_invariant(nd) - af.j_invariant(d)) < 1e-9
