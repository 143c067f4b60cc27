"""Embedding construction, faces, canonical forms, planarity."""

from __future__ import annotations

import pytest
from hypothesis import assume, given, strategies as st

from conftest import graphs
from ptl.embedding import (
    Graph,
    NonPlanarError,
    PlaneGraph,
    automorphism_generators,
    canonical_form,
    canonical_labeling,
    embed,
    is_isomorphic,
    is_planar,
    vertex_orbits,
)


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
