import xml.etree.ElementTree as ET
from fractions import Fraction as F

from entronet import affine as af
from entronet import render
from entronet.groupnet.diagrams import GCapLR, GCupLR, GDiagram
from entronet.groupnet.groups import Group
from entronet.sampling import random_diagram, seeded_rng


def _elements(svg: str):
    root = ET.fromstring(svg)
    return [child.tag.split("}")[-1] for child in root.iter()][1:]


def test_identity_diagram_is_parallel_lines():
    obj = (af.xplus(1), af.yplus(2), af.xminus(3))
    svg = render.to_svg(af.identity_diagram(obj))
    tags = _elements(svg)
    assert tags.count("line") == 3
    assert tags.count("text") == 6  # both boundaries labelled


def test_merge_makes_junction():
    d = af.Diagram((af.xplus(1), af.xplus(2)), ((af.AddMerge(F(1), F(2)), 0),))
    svg = render.to_svg(d)
    tags = _elements(svg)
    assert tags.count("path") == 3  # two legs in, one out
    ET.fromstring(svg)


def test_deterministic_output():
    rng = seeded_rng(77)
    d = random_diagram(rng, max_strands=7, max_layers=9)
    assert render.to_svg(d) == render.to_svg(d)


def test_allowed_element_kinds_only():
    rng = seeded_rng(78)
    for _ in range(20):
        d = random_diagram(rng, max_strands=6, max_layers=8)
        tags = set(_elements(render.to_svg(d)))
        assert tags <= {"line", "path", "text", "circle"}


def test_dot_renders_circle():
    from entronet.jspace import PrimeVector

    d = af.Diagram((), ((af.Dot(PrimeVector()), 0),))
    assert "circle" in _elements(render.to_svg(d))


def test_gdiagram_render():
    G = Group.cyclic(4)
    d = GDiagram(G, (), ((GCupLR(1), 0), (GCapLR(1), 0)))
    svg = render.to_svg(d)
    ET.fromstring(svg)
    assert render.to_svg(d) == svg


def test_element_count_tracks_layers():
    # for a fold of n merges: 3 paths per merge layer plus boundary labels
    for n in (2, 3, 5):
        ps = [F(1, n)] * n
        d = af.merge_fold_diagram(ps, af.MODE_J)
        tags = _elements(render.to_svg(d))
        assert tags.count("path") == 3 * (n - 1)
        assert tags.count("text") == n + 1


def test_golden_small_fold():
    d = af.merge_fold_diagram([F(1, 2), F(1, 2)], af.MODE_J)
    svg = render.to_svg(d)
    assert svg.startswith('<svg xmlns="http://www.w3.org/2000/svg"')
    assert '<path d="M 45.0 72.0 L 59.0 48.0"' in svg
    assert svg.count("<text") == 3
