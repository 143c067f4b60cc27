"""Face census, theta configurations, triangular blocks and components."""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given

from conftest import graphs
from plane_reference import plane_embeddings
from ptl import decomposition
from ptl.decomposition import (
    TriBlock,
    classify_theta_pair,
    decompose,
    e_i_analysis,
    solidify,
    theta_of_edge,
    theta_pair_survey,
    three_faces,
)
from ptl.embedding import (
    Face,
    Graph,
    PlaneGraph,
    _min_rotation,
    _union_roots,
    embed,
    is_isomorphic,
    is_planar,
    normalize_edge,
)
from ptl.families import family_instance, k2_plus_matching
from ptl.patterns import fixture
from ptl.search import (
    _sphere_key,
    outer_variants,
    random_plane_corpus,
    scan_theta_pairs,
)


def _octahedron() -> Graph:
    return Graph.from_edges(
        6,
        [
            (0, 1), (0, 2), (1, 2),
            (3, 4), (3, 5), (4, 5),
            (0, 4), (0, 5), (1, 3), (1, 5), (2, 3), (2, 4),
        ],
    )


# -- counting identity and E_I ------------------------------------------------

def test_k4_counts_both_conventions():
    pg = embed(Graph.complete(4))
    with_outer = e_i_analysis(pg, include_outer=True)
    assert with_outer.f3 == 4
    assert len(with_outer.e_i) == 6
    assert len(with_outer.e_prime) == 0
    assert with_outer.identity_holds

    inner_only = e_i_analysis(pg, include_outer=False)
    assert inner_only.f3 == 3
    assert len(inner_only.e_i) == 3
    assert len(inner_only.e_prime) == 3
    assert inner_only.identity_holds


def test_triangle_free_graph_has_empty_census():
    pg = embed(Graph.cycle(6))
    report = e_i_analysis(pg)
    assert report.f3 == 0
    assert not report.e_i and not report.e_prime
    assert report.identity_holds


def test_d_i_degrees():
    pg = embed(_octahedron())
    report = e_i_analysis(pg, include_outer=True)
    assert len(report.e_i) == 12


@given(graphs(min_n=1, max_n=8))
def test_identity_on_arbitrary_embeddings(g):
    assume(g.is_connected())
    assume(is_planar(g))
    pg = embed(g)
    for include_outer in (True, False):
        assert e_i_analysis(pg, include_outer=include_outer).identity_holds


def test_three_faces_k4():
    pg = embed(Graph.complete(4))
    assert len(three_faces(pg, include_outer=True)) == 4
    assert len(three_faces(pg, include_outer=False)) == 3


# -- theta configurations ----------------------------------------------------

def test_theta_of_edge_k4():
    pg = embed(Graph.complete(4))
    te = theta_of_edge(pg, (0, 1))
    assert te is not None
    assert len(te.vertices) == 4
    assert len(te.edges) == 5
    assert is_isomorphic(Graph.spanned_by(te.edges), Graph.from_edges(
        4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]
    ))


def test_theta_of_edge_absent():
    pg = embed(Graph.cycle(4))
    assert theta_of_edge(pg, (0, 1)) is None


def test_octahedron_pair_survey_frozen():
    pg = embed(_octahedron())
    survey = theta_pair_survey(pg)
    stats = Counter((r.shared, r.label) for r in survey)
    assert stats == Counter({(3, None): 36, (2, "Other"): 24, (2, "D2"): 6})
    detached = [r for r in survey if r.detached]
    assert len(detached) == 6
    assert {r.label for r in detached} == {"D2"}


def test_d1_configuration_realized():
    # exactly one spherical embedding of the D1 reference graph, up to
    # isomorphism and reflection, realizes both theta configurations
    # disjointly
    hits: dict[tuple[int, ...], list] = {}
    for pg in plane_embeddings(fixture("D1")):
        report = e_i_analysis(pg, include_outer=True)
        if {(0, 1), (4, 5)} <= set(report.e_i):
            label = classify_theta_pair(pg, (0, 1), (4, 5))
            if label == "D1":
                survey = theta_pair_survey(pg)
                key = _sphere_key([f.walk for f in pg.faces()])
                hits.setdefault(key, []).append(
                    [(r.e, r.f, r.shared, r.detached, r.label) for r in survey]
                )
    assert len(hits) == 1
    for survey in next(iter(hits.values())):
        assert survey == [((0, 1), (4, 5), 2, True, "D1")]


def test_d2_fixture_survey():
    pg = embed(fixture("D2"))
    survey = theta_pair_survey(pg)
    assert [(r.shared, r.detached, r.label) for r in survey] == [(2, True, "D2")]


def test_d3_fixture_contains_its_label():
    pg = embed(fixture("D3"))
    labels = {r.label for r in theta_pair_survey(pg)}
    assert "D3" in labels


def test_theta_scan_computes_each_form_once(monkeypatch):
    # the fixtures' forms are computed once, and a union's form at most
    # once per pair, only when its order, size and degrees match a
    # fixture's; isomorphism tests against each fixture in turn took
    # 1 672 forms for the 2 452 classified pairs of this scan
    calls = 0
    form = decomposition.canonical_form

    def counted(g):
        nonlocal calls
        calls += 1
        return form(g)

    monkeypatch.setattr(decomposition, "canonical_form", counted)
    decomposition._fixture_forms.cache_clear()
    assert scan_theta_pairs() == ()
    decomposition._fixture_forms.cache_clear()
    assert calls == 3 + 836


def test_classify_requires_theta_edges():
    pg = embed(Graph.cycle(4))
    with pytest.raises(ValueError):
        classify_theta_pair(pg, (0, 1), (2, 3))


# -- triangular blocks --------------------------------------------------------

def test_k4_single_block():
    dec = decompose(embed(Graph.complete(4)))
    assert len(dec.blocks) == 1
    block = dec.blocks[0]
    assert block.delta == 3  # inner 3-faces only
    assert block.density == Fraction(3, 4)
    assert block.is_solid
    assert not block.holes
    assert len(dec.components) == 1
    assert dec.junctions == frozenset()


def test_k2_plus_matching_structure():
    # two dominating vertices over a 4-edge matching: one component,
    # four blocks sharing the junction pair
    dec = decompose(k2_plus_matching(10).plane)
    assert len(dec.blocks) == 4
    densities = sorted(b.density for b in dec.blocks)
    assert densities == [
        Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(3, 4)
    ]
    assert len(dec.components) == 1
    comp = dec.components[0]
    assert comp.delta == 9
    assert comp.density == Fraction(9, 10)
    assert dec.junctions == frozenset({0, 1})


def _octahedron_with_inner_pendant():
    """Octahedron plus a pendant at vertex 0, re-rooted so the pendant
    lies inside an inner 3-face of the drawing."""
    g = _octahedron().with_new_vertex([0])
    pg = embed(g)
    pendant_face = next(f for f in pg.faces() if 6 in f.vertices)
    target = next(
        f
        for f in pg.faces()
        if f.is_triangle and not (f.edge_set & pendant_face.edge_set)
    )
    return pg.with_outer(target)


def test_pendant_inside_face_creates_hole():
    # a pendant vertex inside an inner 3-face destroys that host 3-face:
    # the spanning block keeps the region as a triangular hole and is not
    # solid until solidify() reclassifies it
    pg = _octahedron_with_inner_pendant()
    dec = decompose(pg, solid=False)
    spanning = [b for b in dec.blocks if len(b.vertices) == 6]
    assert len(spanning) == 1
    block = spanning[0]
    assert not block.is_solid
    assert len(block.holes) == 1
    filled = solidify(block)
    assert filled.is_solid
    assert filled.delta == block.delta + 1
    assert filled.vertices == block.vertices


def test_decompose_solid_flag_fills_triangular_holes():
    pg = _octahedron_with_inner_pendant()
    solid_blocks = decompose(pg, solid=True).blocks
    raw_blocks = decompose(pg, solid=False).blocks
    assert max(b.delta for b in solid_blocks) == max(
        b.delta for b in raw_blocks
    ) + 1


def test_triangle_density_accessors():
    pg = embed(Graph.complete(4))
    dec = decompose(pg)
    assert dec.blocks[0].density == Fraction(3, 4)
    assert dec.components[0].density == Fraction(3, 4)


def test_blocks_partition_three_faces():
    pg = k2_plus_matching(8).plane
    dec = decompose(pg)
    block_faces = [f for b in dec.blocks for f in b.faces]
    assert len(block_faces) == len(set(block_faces))
    assert len(block_faces) == e_i_analysis(pg, include_outer=False).f3


def test_disjoint_triangles_two_components():
    # two triangles joined by a path: separate blocks, separate components
    g = Graph.from_edges(
        7,
        [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 6)],
    )
    dec = decompose(embed(g))
    assert len(dec.blocks) == 2
    assert len(dec.components) == 2
    assert dec.junctions == frozenset()


# -- holes from the restricted rotation ---------------------------------------

def _restricted_block(pg: PlaneGraph, faces: list[Face]) -> TriBlock:
    """Reference block builder: relabel the block into its own validated
    plane graph, whose outer face is the one whose region holds the
    host's outer face, and map its inner faces back to host labels."""
    vertices = sorted({v for f in faces for v in f.vertices})
    edges = frozenset(e for f in faces for e in f.edge_set)
    index = {v: i for i, v in enumerate(vertices)}
    rotation = [
        tuple(index[u] for u in pg.rotation[v] if normalize_edge(v, u) in edges)
        for v in vertices
    ]
    graph = Graph.from_edges(
        len(vertices), [(index[u], index[v]) for u, v in edges]
    )
    host_faces, face_of = pg._traced
    region = _union_roots(
        len(host_faces),
        [
            (face_of[u][v], face_of[v][u])
            for u, v in pg.graph.edges
            if (u, v) not in edges
        ],
    )
    outer_region = region[host_faces.index(pg.outer)]
    sub = PlaneGraph.build(graph, rotation)
    outer = [
        f
        for f in sub.faces()
        if region[face_of[vertices[f.walk[0]]][vertices[f.walk[1]]]]
        == outer_region
    ]
    assert len(outer) == 1
    holes = []
    for f in sub.with_outer(outer[0]).inner_faces():
        host_face = Face(_min_rotation(tuple(vertices[i] for i in f.walk)))
        if host_face not in faces:
            holes.append(host_face)
    return TriBlock(
        faces=tuple(sorted(faces, key=lambda f: f.walk)),
        holes=tuple(sorted(holes, key=lambda f: f.walk)),
        vertices=frozenset(vertices),
        edges=edges,
    )


_FAMILY_MEMBERS = (
    ("k2_plus_matching", {"n": 6}),
    ("k2_plus_matching", {"n": 9}),
    ("k2_vee_matching", {"n": 9}),
    ("apex_outerplanar", {"n": 9}),
    ("wheel_ring", {"k": 3}),
    ("b5_ring", {"k": 4}),
    ("b5_ring_augmented", {"x": 2, "y": 1}),
)


def test_decompose_matches_restricted_plane_route(monkeypatch):
    # every outer face of 600 random plane graphs and of a member of each
    # construction family; raw and solid blocks, components, junctions
    planes = list(random_plane_corpus(600, max_n=12, seed=3))
    planes += [family_instance(name, **kw).plane for name, kw in _FAMILY_MEMBERS]
    variants = [v for pg in planes for v in outer_variants(pg)]

    def records():
        return [
            (d.blocks, d.components, d.junctions)
            for v in variants
            for d in (decompose(v, solid=False), decompose(v))
        ]

    traced = records()
    monkeypatch.setattr(decomposition, "_block_from_class", _restricted_block)
    assert traced == records()
    blocks = [b for bs, _, _ in traced for b in bs]
    assert len(blocks) > len(variants)
    assert not all(b.is_solid for b in blocks)
