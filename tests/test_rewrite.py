import random
from fractions import Fraction as F

import pytest

from entronet import affine as af
from entronet import cli, dsl
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


_INVALID_AFTER_MATCH = """
from fractions import Fraction as F
from entronet import affine as af, rewrite as rw

X = lambda a: af.xplus(F(a))
merges = [(af.AddMerge(F(1), F(2)), 0), (af.AddMerge(F(3), F(3)), 0), (af.AddMerge(F(6), F(4)), 0)]
af.validate(af.Diagram((X(1), X(2), X(3), X(4)), tuple(merges)))
# the last merge shifted right by one: the window at 0 still matches
bad = af.Diagram((X(1), X(2), X(3), X(4)), tuple(merges[:2]) + ((merges[2][0], 1),))
assert rw.RULES["merge_assoc"].matcher(bad, 0)
try:
    rw.apply(bad, rw.RULES["merge_assoc"], 0)
except af.PositionOutOfRange as exc:
    print("refused:", exc)
else:
    raise SystemExit("apply returned an invalid diagram")
"""


def test_apply_refuses_invalid_diagram():
    exec(compile(_INVALID_AFTER_MATCH, "<invalid-after-match>", "exec"), {})


def test_apply_refuses_invalid_diagram_without_asserts():
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    run = subprocess.run([sys.executable, "-O", "-c", _INVALID_AFTER_MATCH],
                         env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr + run.stdout
    assert run.stdout.startswith("refused: layer 2: position 1")


@pytest.mark.skipif(not __debug__, reason="apply checks its output only in debug runs")
def test_apply_checks_its_output_on_evaluated_diagrams():
    """A kept value spares no check: a replacement that moves the evaluation
    or the boundary fails apply's assertions even after d was evaluated."""
    import dataclasses

    from entronet.jspace import PrimeVector

    d = af.Diagram(
        (X(1), X(2), X(3)),
        ((af.AddMerge(F(1), F(2)), 0), (af.AddMerge(F(3), F(3)), 0)),
    )
    # target and value kept before apply runs
    af.validate(d)
    af.j_invariant(d)
    rule = rw.RULES["merge_assoc"]
    extra_dot = dataclasses.replace(
        rule, rhs=lambda p, *params: rule.rhs(p, *params) + ((af.Dot(PrimeVector({2: 1})), 0),)
    )
    extra_cup = dataclasses.replace(
        rule, rhs=lambda p, *params: rule.rhs(p, *params) + ((af.CupX(F(0), True), 0),)
    )
    for broken in (extra_dot, extra_cup):
        with pytest.raises(AssertionError, match="merge_assoc"):
            rw.apply(d, broken, 0)


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


def _skeleton_normal_form(d):
    """Normal form as the skeleton difference: j(d) - j(skeleton) in the dot."""
    src = tuple(d.source)
    down = rw.reduction_layers(src)
    up = af.inverse_layers(rw.reduction_layers(af.validate(d)))
    label = af.j_invariant(d) - af.j_invariant(af.Diagram(src, down + up, d.mode))
    return af.Diagram(src, down + ((af.Dot(label), 0),) + up, d.mode)


def _split_dot(nd):
    """The one dot label of a normal form, and its other layers."""
    (label,) = [gen.payload for gen, _ in nd.layers if isinstance(gen, af.Dot)]
    return label, [layer for layer in nd.layers if not isinstance(layer[0], af.Dot)]


@pytest.mark.parametrize("mode", [af.MODE_J, af.MODE_H, af.MODE_HFLOAT])
def test_normalize_dot_is_the_skeleton_difference(mode):
    """By the boundary theorem the dots of d are j(d) - j(skeleton)."""
    rng = seeded_rng(69)
    for _ in range(500):
        d = random_diagram(rng, mode=mode, max_strands=8, max_layers=12, max_num=6)
        nd, old = rw.normalize(d), _skeleton_normal_form(d)
        (label, rest), (old_label, old_rest) = _split_dot(nd), _split_dot(old)
        assert nd.source == old.source and rest == old_rest
        if mode == af.MODE_HFLOAT:
            assert abs(label - old_label) <= 1e-9
        else:
            assert nd == old and label.to_text() == old_label.to_text()


def _seed1_chain(blocks=40):
    """Outer weights and three inner weights per block, five strands a block."""
    rng = random.Random(1)

    def weight():
        return F(rng.randint(1, 50), rng.randint(1, 50))

    z = [weight() for _ in range(blocks)]
    ys = [[weight() for _ in range(3)] for _ in range(blocks)]
    return z, ys


def _seed1_chain_diagram():
    """200 strands; a prefix sum of its weights has an 89-bit numerator that
    cancels in the value."""
    return af.chain_diagrams(*_seed1_chain())[0]


def _closed_form(z, ys):
    """The sum of psi(w) over the composite weights w = p*q, minus psi(W) of
    their total, psi(x) = -x*log|x|, from sympy's factorizations."""
    from sympy import factorint

    from entronet.jspace import EntropyScalar, PrimeVector

    ws = [p * q for p, y in zip(z, ys) for q in y]
    logpart = {}
    for x, sign in [(w, 1) for w in ws] + [(sum(ws), -1)]:
        for n, e in ((abs(x.numerator), 1), (x.denominator, -1)):
            for p, k in factorint(n).items():
                logpart[p] = logpart.get(p, 0) - sign * x * e * k
    return EntropyScalar(F(0), PrimeVector(logpart))


def test_normalize_factors_nothing_on_a_refused_chain_diagram():
    d = _seed1_chain_diagram()
    assert len(d.source) == 200
    assert af.j_invariant(d) == _closed_form(*_seed1_chain())
    nd = rw.normalize(d)
    assert nd.source == d.source and af.validate(nd) == af.validate(d)
    assert _split_dot(nd)[0].is_zero()
    assert rw.normalize(nd) == nd


def test_normalize_command_on_a_refused_chain_diagram(tmp_path):
    d = _seed1_chain_diagram()
    src, tgt = dsl.object_to_decl("src", d.source), dsl.object_to_decl("tgt", af.validate(d))
    decl = dsl.diagram_to_decl("chain", "src", "tgt", d)
    path, out = tmp_path / "chain.net", tmp_path / "normal.net"
    path.write_text(dsl.print_source(dsl.SourceFile((src, tgt, decl), d.mode)))
    assert cli.main(["normalize", str(path), "--diagram", "chain", "-o", str(out)]) == 0
    assert cli.main(["validate", str(out)]) == 0
    normal = dsl.resolve(dsl.parse(out.read_text())).diagrams["chain_normal"]
    assert normal == rw.normalize(d)


def test_jinv_command_on_a_refused_chain_diagram(tmp_path, capsys):
    d = _seed1_chain_diagram()
    src, tgt = dsl.object_to_decl("src", d.source), dsl.object_to_decl("tgt", af.validate(d))
    decl = dsl.diagram_to_decl("chain", "src", "tgt", d)
    path = tmp_path / "chain.net"
    path.write_text(dsl.print_source(dsl.SourceFile((src, tgt, decl), d.mode)))
    assert cli.main(["jinv", str(path), "--diagram", "chain", "--format", "entropy"]) == 0
    assert capsys.readouterr().out == _closed_form(*_seed1_chain()).pretty() + "\n"


@pytest.mark.parametrize("blocks", [40, 80, 160])
def test_seed1_chain_pairs_evaluate_to_the_closed_form(blocks):
    """Both forms of the chain rule at 200, 400 and 800 strands; the hard
    prefix sums cancel, and the only hard factoring is of the total."""
    import time

    z, ys = _seed1_chain(blocks)
    want = _closed_form(z, ys)
    for d in af.chain_diagrams(z, ys):
        start = time.perf_counter()
        assert af.j_invariant(d) == want
        assert time.perf_counter() - start < 1.0
