"""Embedding construction, faces, canonical forms, planarity."""

from __future__ import annotations

import random

import networkx as nx
import pytest
from hypothesis import assume, given, strategies as st
from networkx.algorithms.isomorphism import GraphMatcher

from conftest import graphs
from ptl.embedding import (
    Graph,
    NonPlanarError,
    PlaneGraph,
    _CanonState,
    automorphism_generators,
    canonical_form,
    canonical_labeling,
    embed,
    is_isomorphic,
    is_planar,
    vertex_orbits,
)
from ptl.families import k2_plus_matching, k2_vee_matching
from ptl.io import graph6_decode
from ptl.search import enumerate_graphs


# -- basic embeddings ------------------------------------------------------

def test_k4_faces():
    pg = embed(Graph.complete(4))
    assert pg.n == 4 and pg.m == 6
    assert pg.face_vector() == {3: 4}
    assert len(pg.faces()) == 4
    assert len(pg.inner_faces()) == 3


def test_cycle_two_faces():
    pg = embed(Graph.cycle(5))
    assert pg.face_vector() == {5: 2}
    assert pg.outer.length == 5


def test_tree_single_face():
    pg = embed(Graph.path(5))
    faces = pg.faces()
    assert len(faces) == 1
    assert faces[0] is pg.outer
    # a boundary walk traverses every edge twice
    assert faces[0].length == 2 * pg.m


def test_outer_is_max_length_face():
    # K4 plus a pendant: the pendant's face has the longest walk
    g = Graph.complete(4).with_new_vertex([0])
    pg = embed(g)
    assert pg.outer.length == max(f.length for f in pg.faces())
    assert 4 in pg.outer.vertices


def test_embed_requires_connected():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        embed(g)


# -- Euler's relation ------------------------------------------------------

@given(graphs(min_n=1, max_n=9))
def test_euler_relation(g):
    assume(g.is_connected())
    assume(is_planar(g))
    pg = embed(g)
    assert pg.n - pg.m + len(pg.faces()) == 2


@given(graphs(min_n=1, max_n=9))
def test_face_walks_cover_every_edge_twice(g):
    assume(g.is_connected())
    assume(is_planar(g))
    pg = embed(g)
    assert sum(f.length for f in pg.faces()) == 2 * pg.m


# -- planarity and witnesses ------------------------------------------------

def test_k5_not_planar():
    assert not is_planar(Graph.complete(5))
    with pytest.raises(NonPlanarError) as info:
        embed(Graph.complete(5))
    witness = info.value.witness
    # a K5 subdivision witness: five branch vertices of degree 4
    assert sorted(witness.degree_sequence)[-5:] == [4, 4, 4, 4, 4] or sorted(
        witness.degree_sequence
    )[-6:] == [3, 3, 3, 3, 3, 3]


def test_k33_not_planar():
    g = Graph.from_edges(6, [(a, b) for a in range(3) for b in range(3, 6)])
    with pytest.raises(NonPlanarError) as info:
        embed(g)
    witness = info.value.witness
    assert all(d >= 2 for d in witness.degree_sequence)


def test_planar_boundary_cases():
    assert is_planar(Graph.from_edges(1, []))
    assert is_planar(Graph.complete(4))
    # maximal planar on 5 vertices: K5 minus one edge
    g = Graph.from_edges(
        5, [(u, v) for u in range(5) for v in range(u + 1, 5) if (u, v) != (3, 4)]
    )
    assert is_planar(g)
    assert embed(g).face_vector() == {3: 6}


# -- canonical forms and isomorphism ----------------------------------------

@given(graphs(min_n=1, max_n=7), st.randoms())
def test_canonical_form_label_invariant(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    h = g.relabeled(perm)
    assert canonical_form(g) == canonical_form(h)
    assert is_isomorphic(g, h)


@given(graphs(min_n=1, max_n=8))
def test_last_canonical_label_has_maximum_degree(g):
    # canonical augmentation rejects a child whose new vertex is not of
    # maximum degree before searching; this is the invariant it relies on
    last = canonical_labeling(g).index(g.n - 1)
    assert g.degree(last) == max(g.degree(v) for v in range(g.n))


def test_canonical_form_separates():
    assert canonical_form(Graph.path(4)) != canonical_form(
        Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    )


def test_canonical_labeling_consistency():
    g = Graph.cycle(6)
    lab = canonical_labeling(g)
    assert sorted(lab) == list(range(6))
    assert canonical_form(g.relabeled(lab)) == canonical_form(g)


def test_vertex_orbits():
    # cycle: one orbit; star: center alone + leaves
    assert len(vertex_orbits(Graph.cycle(5))) == 1
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    orbits = sorted(tuple(sorted(o)) for o in vertex_orbits(star))
    assert orbits == [(0,), (1, 2, 3)]


def test_automorphism_generators_respect_edges():
    g = Graph.complete(4)
    gens = automorphism_generators(g)
    assert gens  # K4 has a nontrivial group
    for perm in gens:
        for u in range(4):
            for v in g.adjacency[u]:
                assert perm[v] in g.adjacency[perm[u]]


def _closed_group(n, gens):
    """Every element of the permutation group generated by ``gens``."""
    identity = tuple(range(n))
    group = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for a in gens:
                q = tuple(a[p[v]] for v in range(n))
                if q not in group:
                    group.add(q)
                    nxt.append(q)
        frontier = nxt
    return group


def test_automorphism_generators_generate_full_group():
    # brute-force arbiter for the search's two automorphism prunings:
    # the closure of the generators must be every automorphism VF2 finds
    for k in range(1, 8):
        for g in enumerate_graphs(k):
            nxg = nx.Graph()
            nxg.add_nodes_from(range(g.n))
            nxg.add_edges_from(g.edges)
            brute = {
                tuple(m[v] for v in range(g.n))
                for m in GraphMatcher(nxg, nxg).isomorphisms_iter()
            }
            gens = automorphism_generators(g)
            assert _closed_group(g.n, gens) == brute, g.edges


def _star(k):
    return Graph.from_edges(k + 1, [(0, i) for i in range(1, k + 1)])


@pytest.mark.parametrize(
    "name, make",
    [
        ("k2_plus_matching(30)", lambda: k2_plus_matching(30).plane.graph),
        ("k2_vee_matching(31)", lambda: k2_vee_matching(31).plane.graph),
        ("K1,40", lambda: _star(40)),
        ("K20", lambda: Graph.complete(20)),
    ],
)
def test_canonical_form_twin_rich(monkeypatch, name, make):
    # graphs full of twin vertices made the search exponential before it
    # pruned by the automorphisms it finds; the call count is exact, so
    # the bound does not depend on the machine
    g = make()
    calls = 0
    search = _CanonState.search

    def counted(self, colors, fixed):
        nonlocal calls
        calls += 1
        return search(self, colors, fixed)

    monkeypatch.setattr(_CanonState, "search", counted)
    form = canonical_form(g)
    assert calls <= g.n * g.n, calls
    perm = list(range(g.n))
    random.Random(g.n).shuffle(perm)
    assert canonical_form(g.relabeled(perm)) == form
    decoded = graph6_decode(form)
    assert decoded.m == g.m
    a, b = nx.Graph(), nx.Graph()
    a.add_nodes_from(range(g.n))
    a.add_edges_from(g.edges)
    b.add_nodes_from(range(decoded.n))
    b.add_edges_from(decoded.edges)
    assert nx.vf2pp_is_isomorphic(a, b)


@given(graphs(min_n=1, max_n=8), st.data())
def test_with_new_vertex_matches_from_edges(g, data):
    nbrs = data.draw(st.lists(st.integers(0, g.n - 1), unique=True))
    child = g.with_new_vertex(nbrs)
    assert child == Graph.from_edges(
        g.n + 1, list(g.edges) + [(u, g.n) for u in nbrs]
    )
    with pytest.raises(ValueError):
        g.with_new_vertex(nbrs + [g.n])
    with pytest.raises(ValueError):
        g.with_new_vertex([0, 0])


def test_spanned_by_relabels_in_sorted_vertex_order():
    g = Graph.spanned_by([(9, 5), (2, 5), (5, 9)])
    assert g == Graph.from_edges(3, [(0, 1), (1, 2)])


# -- sphere structure --------------------------------------------------------

def test_with_outer_preserves_face_set():
    pg = embed(Graph.complete(4))
    for face in pg.faces():
        shifted = pg.with_outer(face)
        assert shifted.outer.vertices == face.vertices
        assert sorted(f.vertices for f in shifted.faces()) == sorted(
            f.vertices for f in pg.faces()
        )


def test_mirrored_involution():
    pg = embed(Graph.complete(4).with_new_vertex([0, 1]))
    twice = pg.mirrored().mirrored()
    assert twice.canonical_plane_code() == pg.canonical_plane_code()


def test_faces_of_edge():
    pg = embed(Graph.complete(4))
    for u in range(4):
        for v in pg.graph.adjacency[u]:
            if u < v:
                fs = pg.faces_of_edge((u, v))
                assert len(fs) == 2
                assert all({u, v} <= set(f.vertices) for f in fs)


def test_build_validates_euler():
    g = Graph.cycle(4)
    rotation = [(1, 3), (0, 2), (1, 3), (0, 2)]
    pg = PlaneGraph.build(g, rotation)
    assert pg.face_vector() == {4: 2}
