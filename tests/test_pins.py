"""Pinned hashes of the seeded streams and of what is computed from them.

A refactor that keeps behaviour keeps every hash below: the sampled affine
diagrams, their exact values, the SVG text of both diagram kinds, the four
group-network evaluations, the random `.net` sources, the rewrite sites, the
sites every rule matches and what it leaves there, the printed normal forms
and the layers that reduce seeded objects to their weight.  The seeds are the defaults (ENTRONET_SEED unset).
Over the shipped fixtures, it keeps what the parser makes of every text one
token away, and what the file commands print.
"""

import contextlib
import copy
import dataclasses
import hashlib
import io
import os
import pickle
import re

import pytest

from entronet import affine as af
from entronet import cli, dsl, render, rewrite
from entronet.groupnet.catalog import carry
from entronet.groupnet.cohomology import (
    Cocycle1,
    coboundary1,
    coboundary2,
    h_solver,
    smith_normal_form,
    verify_cocycle1,
)
from entronet.groupnet.diagrams import (
    GDiagram,
    GDiagramError,
    eval_alpha_c,
    eval_alpha_cf,
    eval_alpha_f,
    eval_alpha_u,
    is_closed,
    validate_gdiagram,
)
from entronet.groupnet.groups import GModule, Group
from entronet.jspace import render_float
from entronet.sampling import (
    random_closed_gdiagram,
    random_diagram,
    random_gmodule,
    random_normalized_cocycle,
    random_object,
    random_rule_site,
    random_source,
    seeded_rng,
)


def _sha(items) -> str:
    h = hashlib.sha256()
    for x in items:
        h.update(repr(x).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def _draws():
    """The first 300 J-mode and 100 H-mode affine draws."""
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("ENTRONET_SEED", raising=False)
        rng = seeded_rng(5)
        j = [random_diagram(rng) for _ in range(300)]
        rng = seeded_rng(6)
        h = [random_diagram(rng, mode=af.MODE_H) for _ in range(100)]
    return j, h


@pytest.fixture(scope="module")
def draws():
    return _draws()


def test_affine_stream(draws):
    j, h = draws
    assert _sha(j) == PINS["affine_j"]
    assert _sha(h) == PINS["affine_h"]


def test_affine_values(draws):
    for key, ds in zip(("j", "h"), draws):
        assert _sha(af.j_invariant(d) for d in ds) == PINS[f"jinv_{key}"]
        assert _sha(af.dot_contribution(d) for d in ds) == PINS[f"dots_{key}"]


def _networks():
    """Closed networks with dots, each with a module, a 1-cocycle and a 2-cocycle."""
    out = []
    for n in (4, 6):
        c = carry(n)
        U = c.module
        f = Cocycle1(U, tuple((g,) for g in U.group.elements()))
        out.append((U, f, c))
    G = Group.aff1_mod_p(3)
    elems = [(0, 1)] + [(a, c) for c in range(1, 3) for a in range(3) if (a, c) != (0, 1)]
    U = GModule.scaling_action(G, 3, {i: c for i, (a, c) in enumerate(elems)})
    b = [(0,), (1,), (2,), (0,), (2,), (1,)]
    out.append((U, coboundary1(U, (1,)), coboundary2(U, b)))
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("ENTRONET_SEED", raising=False)
        rng = seeded_rng(41)
    nets = []
    for U, f, c in out:
        assert verify_cocycle1(f)
        for k in range(12):
            d = random_closed_gdiagram(rng, U.group, grow_layers=k, module=U)
            nets.append((d, U, f, c))
    return nets


def _svg_hashes() -> dict:
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("ENTRONET_SEED", raising=False)
        rng = seeded_rng(31)
        affine = [random_diagram(rng, mode=af.MODES[i % 3]) for i in range(40)]
        rng = seeded_rng(32)
        U = GModule.trivial(Group.cyclic(6), (4,))
        nets = [
            random_closed_gdiagram(rng, U.group, grow_layers=i % 9, module=U)
            for i in range(20)
        ]
    return {
        "svg_affine": _sha(render.to_svg(d) for d in affine),
        "svg_networks": _sha(render.to_svg(d) for d in nets),
    }


def test_svg_text():
    assert _svg_hashes() == {k: PINS[k] for k in ("svg_affine", "svg_networks")}


def _alpha_hash() -> str:
    """The four evaluations on every layer prefix, so open networks count too."""
    values = []
    for d, U, f, c in _networks():
        for k in range(len(d.layers) + 1):
            p = GDiagram(d.group, d.source, d.layers[:k])
            values.append(
                (eval_alpha_u(p, U), eval_alpha_f(p, f), eval_alpha_c(p, c), eval_alpha_cf(p, c, f))
            )
    return _sha(values)


def test_network_evaluations():
    assert _alpha_hash() == PINS["alpha"]


def _seeded(offset):
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("ENTRONET_SEED", raising=False)
        return seeded_rng(offset)


def test_random_sources():
    rng = _seeded(51)
    assert _sha(dsl.print_source(random_source(rng)) for _ in range(200)) == PINS["sources"]


def test_rule_sites():
    rng = _seeded(52)
    sites = [random_rule_site(rng, name) for name in rewrite.RULES for _ in range(10)]
    assert _sha(sites) == PINS["rule_sites"]


def test_rule_matching(draws):
    """The sites every rule finds, and what applying it there leaves."""
    ds = draws[0][:100] + draws[1][:50]
    sites = [rewrite.applicable_sites(d) for d in ds]
    assert _sha(sites) == "2e5fc56f68a4321a"
    rules = rewrite.RULES
    applied = [[rewrite.apply(d, rules[n], at).layers for n, at in s] for d, s in zip(ds, sites)]
    assert _sha(applied) == "b1142ec40e886cea"
    rng = _seeded(52)
    constructed = []
    for name in rules:
        for _ in range(10):
            d, at = random_rule_site(rng, name)
            out = rewrite.apply(d, rules[name], at)
            constructed.append((rewrite.applicable_sites(d), out.layers))
    assert _sha(constructed) == "ba5471316a3d511e"


def test_printed_normal_forms(draws):
    texts = []
    for d in draws[0][:100]:
        decl = dsl.diagram_to_decl("D", "S", "T", rewrite.normalize(d))
        texts.append(dsl.print_source(dsl.SourceFile((decl,), d.mode)))
    assert _sha(texts) == PINS["normal_forms"]


def test_reduction_layers():
    """The layers normalize emits for objects of up to 40 interleaved X and Y points."""
    rng = _seeded(53)
    objs = [random_object(rng, max_points=40) for _ in range(60)]
    assert _sha(rewrite.reduction_layers(obj) for obj in objs) == PINS["reduction_layers"]


def test_criterion_5_stream():
    """The first 1000 draws of the boundary-theorem criterion's stream."""
    rng = _seeded(5)
    ds = [random_diagram(rng) for _ in range(1000)]
    assert hashlib.sha256(repr(ds).encode()).hexdigest()[:16] == "5513f133105a73cd"


def test_criterion_8_stream():
    """The first 150 draws per group of the closed-vanishing criterion's stream:
    its groups and its interleaving of solver representatives, each draw's
    moduli, cocycle values and network layers."""
    rng = _seeded(8)
    groups = [Group.cyclic(n) for n in range(2, 9)] + [Group.aff1_mod_p(3)]
    drawn = []
    for G in groups:
        reps = []
        if G.order <= 6 and G.is_abelian():
            _, reps = h_solver(G, GModule.trivial(G, (G.order,)), 2)
        for i in range(150):
            if reps and i % 3 == 0:
                c = reps[i // 3 % len(reps)]
            else:
                c = random_normalized_cocycle(rng, random_gmodule(rng, G))
            d = random_closed_gdiagram(rng, G, grow_layers=rng.randint(2, 9))
            drawn.append((c.module.moduli, c.values, d.layers))
    assert _sha(drawn) == "fe60d63f750a41f3"


def test_smith_normal_forms():
    """(D, Tinv) of 2,400 seeded integer matrices, 0 to 7 rows by 1 to 7
    columns with entries in -9..9; in about a fifth of them the last row is
    a combination of the first two."""
    rng = _seeded(61)
    out = []
    for _ in range(2400):
        m, n = rng.randint(0, 7), rng.randint(1, 7)
        A = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        if m > 1 and rng.random() < 0.3:
            A[-1] = [2 * x - y for x, y in zip(A[0], A[1])]
        out.append(smith_normal_form(A))
    assert _sha(out) == PINS["smith"]


def test_boundary_memo_is_invisible(draws):
    """A generator's kept boundary changes none of what it shows or compares."""
    ds = draws[0][:100] + draws[1][:50]
    gens = [gen for d in ds for gen, _ in d.layers]
    # the same generators built afresh, without a kept boundary
    fresh = [type(g)(*(getattr(g, f) for f in g._fields)) for g in gens]
    for d in ds:
        af.validate(d)
        af.j_invariant(d)
    assert [repr(g) for g in gens] == [repr(f) for f in fresh]
    assert [hash(g) for g in gens] == [hash(f) for f in fresh]
    assert gens == fresh
    for g in gens:
        assert af.boundary(g) == (g.dom(), g.cod())
        for twin in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
            assert twin == g and hash(twin) == hash(g) and af.boundary(twin) == af.boundary(g)
    for d in ds:
        back = af.inverse(af.inverse(d))
        assert back.source == d.source and af.validate(back) == af.validate(d)
        assert af.values_equal(d.mode, af.j_invariant(back), af.j_invariant(d))


def _kept(obj) -> set:
    """The names an object keeps in its __dict__ besides its fields."""
    return set(vars(obj)) - {f.name for f in dataclasses.fields(obj)}


def test_kept_target_and_value_are_invisible(draws):
    """A diagram's kept walk and value change none of what it shows or
    compares, and copies and pickles leave them behind."""
    ds = draws[0][:100] + draws[1][:50]
    fresh = [af.Diagram(d.source, d.layers, d.mode) for d in ds]
    blobs = [pickle.dumps(f) for f in fresh]
    for d in ds:
        assert af.validate(d) is af.validate(d)
        assert af.j_invariant(d) is af.j_invariant(d)
        assert _kept(d) == {"_walk", "_value"}
    assert not any(_kept(f) for f in fresh)
    assert [repr(d) for d in ds] == [repr(f) for f in fresh]
    assert [hash(d) for d in ds] == [hash(f) for f in fresh]
    assert ds == fresh
    assert [pickle.dumps(d) for d in ds] == blobs
    for d in ds:
        for twin in (copy.copy(d), copy.deepcopy(d), pickle.loads(pickle.dumps(d))):
            assert twin == d and hash(twin) == hash(d) and not _kept(twin)
            assert af.validate(twin) == af.validate(d)
            assert af.j_invariant(twin) == af.j_invariant(d)
    # another mode is another diagram with its own value
    for d in draws[1][:50]:
        value = af.j_invariant(d)
        floated = d.with_mode(af.MODE_HFLOAT)
        if any(isinstance(gen, af.Dot) for gen, _ in d.layers):
            with pytest.raises(af.KindMismatch):
                af.j_invariant(floated)
            continue
        assert af.j_invariant(d.with_mode(af.MODE_H)) == value
        assert abs(af.j_invariant(floated) - render_float(value)) < 1e-9
        assert af.j_invariant(d) is value


def test_kept_network_walk_is_invisible():
    """A network's kept walk changes none of what it shows or compares, and
    copies and pickles leave it behind.  Groups compare by identity, so a deep
    copy or a pickle, which copies the group, is compared by repr and value."""
    nets = _networks()[::3]
    fresh = [GDiagram(d.group, d.source, d.layers) for d, *_ in nets]
    values = [(validate_gdiagram(d), eval_alpha_cf(d, c, f)) for d, U, f, c in nets]
    for (d, *_), f in zip(nets, fresh):
        assert validate_gdiagram(d) is validate_gdiagram(d)
        assert _kept(d) == {"_walk"} and not _kept(f)
        assert repr(d) == repr(f) and hash(d) == hash(f) and d == f
    for (d, U, f, c), value in zip(nets, values):
        for twin in (copy.copy(d), copy.deepcopy(d), pickle.loads(pickle.dumps(d))):
            assert repr(twin) == repr(d) and not _kept(twin)
            if twin.group is d.group:
                assert twin == d and hash(twin) == hash(d)
            # the cocycles, over the twin's group
            tf, tc = (copy.deepcopy(z, {id(d.group): twin.group}) for z in (f, c))
            assert (validate_gdiagram(twin), eval_alpha_cf(twin, tc, tf)) == value


def test_failures_are_not_kept():
    """A diagram or network that does not validate or evaluate raises on every call."""
    x = af.xplus(1)
    bad_layer = af.Diagram((x, x), ((af.AddMerge(1, 2), 0),))
    bad_dot = af.Diagram((x,), ((af.Dot(1.5), 0),))
    for _ in range(3):
        for evaluate in (af.validate, af.j_invariant, af.dot_contribution):
            with pytest.raises(af.WeightMismatch):
                evaluate(bad_layer)
        assert af.validate(bad_dot) == (x,)
        for evaluate in (af.j_invariant, af.dot_contribution):
            with pytest.raises(af.KindMismatch):
                evaluate(bad_dot)
    assert not _kept(bad_layer)
    assert _kept(bad_dot) == {"_walk"}
    d, U, f, c = _networks()[5]
    bad_net = GDiagram(d.group, d.source, d.layers[1:])
    for _ in range(3):
        for evaluate in (validate_gdiagram, is_closed, lambda n: eval_alpha_c(n, c)):
            with pytest.raises(GDiagramError, match="^layer "):
                evaluate(bad_net)
    assert not _kept(bad_net)


def test_layer_name_order():
    """random_source draws names from the layer tables in this order."""
    assert tuple(dsl.AFFINE_LAYERS) == (
        "add_merge", "add_split", "add_merge_dual", "add_split_dual", "add_cross",
        "xy_cross", "mult_merge", "mult_split", "mult_merge_dual", "mult_split_dual",
        "coorient_rev", "cup_x", "cap_x", "cup_y", "cap_y", "dot",
    )
    assert tuple(dsl.GROUP_LAYERS) == (
        "merge_l", "merge_r", "split_l", "split_r", "flip", "cup_lr", "cup_rl", "cap",
        "t2_merge_ll", "t2_merge_rr", "t2_split_ll", "t2_split_rr", "dot",
    )


FIXTURES = os.path.join(os.path.dirname(dsl.__file__), "fixtures")

# a token of the .net format, or a comment (skipped)
_TOKEN = re.compile(r"#[^\n]*|->|\d+(?:\.\d+)?(?:[eE][+-]?\d+)?|\w+|\S")
_REPLACEMENTS = (
    "(", ")", "{", "}", "[", "]", ";", ",", ":", "@", "=", "+", "-", "->",
    "-1", "0", "1/0", "2.5", "x", "action", "mode",
)


def _fixtures() -> dict:
    names = sorted(n for n in os.listdir(FIXTURES) if n.endswith(".net"))
    texts = {}
    for name in names:
        with open(os.path.join(FIXTURES, name), "r", encoding="utf-8") as fh:
            texts[name] = fh.read()
    return texts


def _mutations(text: str):
    """Every text one token away from text: the token deleted, doubled, or
    replaced by one of _REPLACEMENTS."""
    for m in _TOKEN.finditer(text):
        tok, head, tail = m.group(), text[: m.start()], text[m.end():]
        if tok.startswith("#"):
            continue
        yield head + tail
        yield head + tok + " " + tok + tail
        for other in _REPLACEMENTS:
            yield head + other + tail


def _parse_outcome(text: str) -> str:
    try:
        return dsl.print_source(dsl.parse(text))
    except dsl.ParseError as exc:
        return str(exc)  # the message after line:col


def test_parse_outcomes_of_one_token_mutations():
    """What the parser and printer make of every fixture one token away:
    the printed text, or the error with its position."""
    outcomes = [
        (name, _parse_outcome(mutated))
        for name, text in _fixtures().items()
        for mutated in _mutations(text)
    ]
    assert len(outcomes) > 10_000
    assert _sha(outcomes) == PINS["mutations"]


def _cli(*argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


def test_commands_on_fixtures(tmp_path):
    """stdout and exit code of validate, jinv in every format, normalize,
    eval with every evaluation its fixture has cocycles for, and render."""
    svg = str(tmp_path / "out.svg")
    results = []
    for name, text in _fixtures().items():
        path = os.path.join(FIXTURES, name)
        r = dsl.resolve(dsl.parse(text))
        runs = [("validate", path)]
        for d in r.diagrams:
            runs += [("jinv", path, "--diagram", d, "--format", fmt)
                     for fmt in ("prime-vector", "entropy", "float")]
            runs.append(("normalize", path, "--diagram", d))
        for n in r.gdiagrams:
            net = ("eval", path, "--gdiagram", n, "--with")
            runs += [(*net, "alphaU", "--module", u) for u in r.modules]
            runs += [(*net, "alphaF", "--cocycle", f) for f in r.cocycles1]
            runs += [(*net, "alphaC", "--cocycle", c) for c in r.cocycles2]
            runs += [(*net, "alphaCF", "--cocycle", c, "--cocycle1", f)
                     for c in r.cocycles2 for f in r.cocycles1]
        for d in [*r.diagrams, *r.gdiagrams]:
            runs.append(("render", path, "--diagram", d, "-o", svg))
        for argv in runs:
            code, out = _cli(*argv)
            if argv[0] == "render":
                with open(svg, "r", encoding="utf-8") as fh:
                    out = out.replace(svg, "OUT") + fh.read()
            shown = tuple("OUT" if a == svg else a for a in argv if a != path)
            results.append((name, shown, code, out))
    assert _sha(results) == PINS["commands"]


PINS = {
    "affine_j": "f33cf3c27e898a3b",
    "affine_h": "c9d00caf6c45ff82",
    "jinv_j": "71af8d9268205e92",
    "dots_j": "2d91150597447dc4",
    "jinv_h": "a62aede73693893c",
    "dots_h": "a80c2123cba83f03",
    "svg_affine": "638b1af6b9495077",
    "svg_networks": "388ca6cbd7ea9c97",
    "alpha": "e857f2644b7b7679",
    "sources": "a42b538d439af95b",
    "rule_sites": "0b62e1354f2f1323",
    "normal_forms": "fef25aad1bfbe447",
    "reduction_layers": "c80ce946f2ca0c75",
    "mutations": "08a058ca65943220",
    "commands": "d426c4f3840ce785",
    "smith": "b664f7c872090b77",
}
