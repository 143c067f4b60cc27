"""Embedding construction, faces, canonical forms, planarity."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import assume, given, strategies as st
from networkx.algorithms.isomorphism import GraphMatcher
from networkx.algorithms.planarity import get_counterexample

import ptl
from conftest import graphs, mirrored
from plane_reference import _rotation_systems
from ptl import families
from ptl.embedding import (
    Face,
    Graph,
    NonPlanarError,
    PlaneGraph,
    _CanonState,
    _dart_faces,
    _orbit_partition,
    _refine_cells,
    _seeded_root,
    _walk_rotation,
    automorphism_generators,
    canonical_data,
    canonical_form,
    canonical_labeling,
    embed,
    is_isomorphic,
    is_planar,
    vertex_orbits,
)
from ptl.families import (
    apex_outerplanar,
    b5_ring_augmented,
    k2_plus_matching,
    k2_vee_matching,
    wheel_ring,
)
from ptl.io import graph6_decode, graph6_encode
from ptl.search import enumerate_graphs, random_plane_corpus


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

# networkx's left-right test is the slow arbiter of the port: the same
# verdicts, the same rotations and the same Kuratowski witnesses.

def _nx_graph(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


def _nx_witness(g):
    return Graph.from_edges(g.n, get_counterexample(_nx_graph(g)).edges())


def _assert_matches_networkx(g, rotation=None):
    """``is_planar(g)`` is networkx's verdict; if ``g`` is connected and
    planar, its rotation (``embed(g)``'s unless given) is networkx's."""
    planar, certificate = nx.check_planarity(_nx_graph(g))
    assert is_planar(g) is planar, g.edges
    if planar and g.n and g.is_connected():
        data = certificate.get_data()
        expected = tuple(tuple(data[v]) for v in range(g.n))
        assert (rotation or embed(g).rotation) == expected, g.edges
    return planar


def test_k5_not_planar():
    assert not is_planar(Graph.complete(5))
    with pytest.raises(NonPlanarError) as info:
        embed(Graph.complete(5))
    assert str(info.value) == "graph with 5 vertices and 10 edges is not planar"
    witness = info.value.witness
    # a K5 subdivision witness: five branch vertices of degree 4
    assert sorted(witness.degree_sequence)[-5:] == [4, 4, 4, 4, 4] or sorted(
        witness.degree_sequence
    )[-6:] == [3, 3, 3, 3, 3, 3]
    assert witness == _nx_witness(Graph.complete(5))


def test_k33_not_planar():
    g = Graph.from_edges(6, [(a, b) for a in range(3) for b in range(3, 6)])
    with pytest.raises(NonPlanarError) as info:
        embed(g)
    assert str(info.value) == "graph with 6 vertices and 9 edges is not planar"
    witness = info.value.witness
    assert all(d >= 2 for d in witness.degree_sequence)
    assert witness == _nx_witness(g)


def test_planar_boundary_cases():
    assert is_planar(Graph.from_edges(1, []))
    assert is_planar(Graph.complete(4))
    # maximal planar on 5 vertices: K5 minus one edge
    g = Graph.from_edges(
        5, [(u, v) for u in range(5) for v in range(u + 1, 5) if (u, v) != (3, 4)]
    )
    assert is_planar(g)
    assert embed(g).face_vector() == {3: 6}


def test_planarity_matches_networkx_to_order_7():
    non_planar = 0
    for k in range(1, 8):
        for g in enumerate_graphs(k):
            if _assert_matches_networkx(g) or not g.is_connected():
                continue
            non_planar += 1
            with pytest.raises(NonPlanarError) as info:
                embed(g)
            assert info.value.witness == _nx_witness(g), g.edges
    assert non_planar == 221


def test_rotations_match_networkx_order_8():
    graphs = list(enumerate_graphs(8, connected=True, planar=True))
    assert len(graphs) == 5974
    for g in graphs:
        assert _assert_matches_networkx(g)


def test_planarity_matches_networkx_on_random_graphs():
    for pg in random_plane_corpus(200, max_n=20, seed=11):
        assert _assert_matches_networkx(pg.graph, pg.rotation)
    rng = random.Random(25)
    verdicts = set()
    for _ in range(200):
        n = rng.randint(5, 30)
        p = rng.uniform(0.05, 0.4)
        g = Graph.from_edges(n, [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
        ])
        verdicts.add(_assert_matches_networkx(g))
    assert verdicts == {True, False}


_NO_NETWORKX = """
import sys
import ptl, ptl.cli
from ptl.embedding import Graph, NonPlanarError, embed, is_planar
from ptl.search import random_plane_corpus
assert is_planar(Graph.complete(4)) and not is_planar(Graph.complete(5))
embed(Graph.complete(4))
try:
    embed(Graph.complete(5))
except NonPlanarError:
    pass
else:
    raise AssertionError("K5 embedded")
assert len(list(random_plane_corpus(5))) == 5
assert "networkx" not in sys.modules, "networkx was imported"
"""


def test_ptl_imports_no_networkx():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(ptl.__file__).parents[1]), env.get("PYTHONPATH", "")]
    )
    done = subprocess.run(
        [sys.executable, "-c", _NO_NETWORKX],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr


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


def _graphs_to_order_7():
    for k in range(1, 8):
        yield from enumerate_graphs(k)


def _root_cells(g: Graph) -> list[int]:
    """The cells of the refined trivial colouring of ``g``."""
    full = (1 << g.n) - 1
    return _refine_cells(g.adj_bits, [full], full)


def _colour_cells(colors):
    """The cells of a colouring as vertex bitmasks, in colour order."""
    cells: dict[int, int] = {}
    for v, c in enumerate(colors):
        cells[c] = cells.get(c, 0) | 1 << v
    return [cells[c] for c in sorted(cells)]


def test_canonical_deletion_orbit_lies_in_last_root_cell():
    # canonical augmentation rejects a new vertex outside the last cell of
    # the refined trivial colouring without a search; no such vertex may
    # share an orbit with the vertex carrying the last canonical label
    for g in _graphs_to_order_7():
        cells = _root_cells(g)
        perm, gens = canonical_data(g)
        roots = _orbit_partition(g.n, gens)
        last = perm.index(g.n - 1)
        assert cells[-1] >> last & 1, g.edges
        for v in range(g.n):
            if not cells[-1] >> v & 1:
                assert roots[v] != roots[last], (g.edges, v)


def test_canonical_deletion_orbit_lies_in_first_root_cell():
    # canonical augmentation deletes the vertex carrying the first
    # canonical label and rejects a new vertex outside the first cell of
    # the refined trivial colouring without a search; no such vertex may
    # share an orbit with the deletion vertex, which has minimum degree
    for g in _graphs_to_order_7():
        cells = _root_cells(g)
        perm, gens = canonical_data(g)
        roots = _orbit_partition(g.n, gens)
        first = perm.index(0)
        assert cells[0] >> first & 1, g.edges
        assert g.degree(first) == min(g.degree(v) for v in range(g.n))
        for v in range(g.n):
            if not cells[0] >> v & 1:
                assert roots[v] != roots[first], (g.edges, v)


def test_root_refinement_seed_changes_no_canonical_data():
    for g in _graphs_to_order_7():
        cells = _root_cells(g)
        assert canonical_data(g, _root=cells) == canonical_data(g), g.edges


def _reference_refine(n, adj, colors):
    """Colour refinement as it was before cells became bitmasks, kept as
    the arbiter of :func:`_refine_cells`: every pass signs every vertex by
    its colour and its sorted neighbour-colour counts."""
    while True:
        sigs: list[tuple] = []
        for v in range(n):
            counts: dict[int, int] = {}
            w = adj[v]
            while w:
                bit = w & -w
                w ^= bit
                c = colors[bit.bit_length() - 1]
                counts[c] = counts.get(c, 0) + 1
            sigs.append((colors[v], tuple(sorted(counts.items()))))
        ranking = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        new = [ranking[sig] for sig in sigs]
        if new == colors:
            return new
        colors = new


def _assert_refines_as_reference(g: Graph) -> None:
    # from the trivial colouring, and from each single-vertex
    # individualization of the refined one, as the canonical search
    # makes it, with the vertex's old cell as the only changed cell
    n, adj = g.n, g.adj_bits
    root = _reference_refine(n, adj, [0] * n)
    assert _root_cells(g) == _colour_cells(root), g.edges
    for v in range(n):
        cell = sum(1 << u for u in range(n) if root[u] == root[v])
        child = [c + (c >= root[v] and u != v) for u, c in enumerate(root)]
        want = _reference_refine(n, adj, child)
        got = _refine_cells(adj, _colour_cells(child), cell)
        assert got == _colour_cells(want), (g.edges, v)


def test_refine_matches_reference_to_order_7():
    for g in _graphs_to_order_7():
        _assert_refines_as_reference(g)


def _corpus_family_graphs() -> list[Graph]:
    """The construction families of the benchmark corpus, up to order 40."""
    members = [k2_plus_matching(n) for n in range(6, 41, 2)]
    members += [k2_vee_matching(n) for n in range(7, 40, 2)]
    members += [apex_outerplanar(n) for n in range(7, 40, 2)]
    members += [wheel_ring(k) for k in range(3, 8)]
    members += [b5_ring_augmented(2, y) for y in range(4)]
    members += [b5_ring_augmented(3, y) for y in range(2)]
    assert max(m.plane.n for m in members) <= 40
    return [member.plane.graph for member in members]


def test_refine_matches_reference_on_corpus_families():
    for g in _corpus_family_graphs():
        _assert_refines_as_reference(g)


def test_degree_seeded_root_matches_root_refinement():
    # the first pass from the trivial colouring splits it into the
    # degree classes, so refinement may start from them
    graphs = [*_graphs_to_order_7(), *_corpus_family_graphs()]
    for g in graphs:
        degrees = [b.bit_count() for b in g.adj_bits]
        assert _seeded_root(g.adj_bits, degrees) == _root_cells(g), g.edges


def _random_graphs(count: int, max_n: int, seed: int) -> list[Graph]:
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(2, max_n)
        p = rng.random()
        edges = [(a, b) for b in range(n) for a in range(b) if rng.random() < p]
        out.append(Graph.from_edges(n, edges))
    return out


def test_canonical_form_is_graph6_of_canonical_relabel():
    # the form is read from the search's least key, not re-encoded
    graphs = [Graph(0, ()), Graph(1, ()), *_graphs_to_order_7()]
    graphs += _random_graphs(200, 40, seed=3)
    for g in graphs:
        want = graph6_encode(g.relabeled(canonical_labeling(g)))
        assert canonical_form(g) == want, (g.n, g.edges)


def test_relabeled_refuses_non_permutation():
    g = Graph.path(3)
    assert g.relabeled([2, 0, 1]).edges == ((0, 1), (0, 2))
    for perm in ([0, 0, 1], [0, 1], [0, 1, 2, 3], [1, 2, 3]):
        with pytest.raises(ValueError, match="permutation"):
            g.relabeled(perm)


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

    def counted(self, cells, fixed, changed):
        nonlocal calls
        calls += 1
        return search(self, cells, fixed, changed)

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
    twice = mirrored(mirrored(pg))
    assert twice.canonical_plane_code() == pg.canonical_plane_code()


def test_faces_of_edge():
    pg = embed(Graph.complete(4))
    for u in range(4):
        for v in pg.graph.adjacency[u]:
            if u < v:
                fs = pg.faces_of_edge((u, v))
                assert len(fs) == 2
                assert all({u, v} <= set(f.vertices) for f in fs)


def _reference_faces(n, rotation):
    """Independent face tracer: per-vertex index maps and a seen-set of
    darts, walking ``(u, v) -> (v, rot[v][index(u) + 1])``."""
    index = [{u: i for i, u in enumerate(rot)} for rot in rotation]
    walks = []
    seen = set()
    for v0 in range(n):
        if not rotation[v0]:
            walks.append((v0,))
            continue
        for w0 in rotation[v0]:
            if (v0, w0) in seen:
                continue
            walk = []
            u, v = v0, w0
            while (u, v) not in seen:
                seen.add((u, v))
                walk.append(u)
                rot = rotation[v]
                u, v = v, rot[(index[v][u] + 1) % len(rot)]
            walks.append(min(walk[i:] + walk[:i] for i in range(len(walk))))
    return [tuple(w) for w in walks]


def test_faces_match_reference_tracer():
    # the 778 plane rotation systems of the connected planar graphs with
    # n <= 6, and their mirror images
    checked = 0
    for n in range(1, 7):
        for g in enumerate_graphs(n, connected=True, planar=True):
            for system in _rotation_systems(g):
                pg = PlaneGraph.build(g, system)
                for pg in (pg, mirrored(pg)):
                    walks = [f.walk for f in pg.faces()]
                    assert walks == _reference_faces(n, pg.rotation)
                    darts = {d: f for f in pg.faces() for d in f.darts()}
                    for u, v in g.edges:
                        sides = (darts[(u, v)], darts[(v, u)])
                        assert pg.faces_of_edge((u, v)) == sides
                    checked += 1
    assert checked == 2 * 778


def test_walk_rotation_inverts_dart_faces():
    # every rotation system of every connected planar graph with n <= 7
    # comes back from its face walks
    for n in range(1, 8):
        for g in enumerate_graphs(n, connected=True, planar=True):
            for system in _rotation_systems(g):
                assert _walk_rotation(n, _dart_faces(system)[1]) == system


def test_build_validates_euler():
    g = Graph.cycle(4)
    rotation = [(1, 3), (0, 2), (1, 3), (0, 2)]
    pg = PlaneGraph.build(g, rotation)
    assert pg.face_vector() == {4: 2}


def test_from_walks_agrees_with_build():
    # the 778 plane rotation systems of the connected planar graphs with
    # n <= 6, from their face walks in reverse order, each started at its
    # second dart
    checked = 0
    for n in range(1, 7):
        for g in enumerate_graphs(n, connected=True, planar=True):
            for system in _rotation_systems(g):
                walks = [w[1:] + w[:1] for w in reversed(_dart_faces(system)[1])]
                pg = PlaneGraph._from_walks(g, system, walks)
                built = PlaneGraph.build(g, system)
                assert pg == built
                assert len(pg.faces()) == len(built.faces())
                assert set(pg.faces()) == set(built.faces())
                for e in g.edges:
                    assert pg.faces_of_edge(e) == built.faces_of_edge(e)
                if walks:
                    with pytest.raises(ValueError, match="not a plane embedding"):
                        PlaneGraph._from_walks(g, system, walks[1:])
                checked += 1
    assert checked == 778
    k1 = PlaneGraph._from_walks(Graph.from_edges(1, []), ((),), [])
    assert k1.faces() == (Face((0,)),) and k1.outer == Face((0,))


def _family_drawings():
    """Every catalogue block's drawing at orders up to 12, and every
    family builder's instances with parameters up to 6."""
    for name in (*families._FIXED, *families._PARAMETRIC):
        for order in range(3, 13):
            try:
                yield families.catalog_block(name, order).plane
            except families.FamilyError:
                pass
    for name, (keys, _) in families.FAMILY_BUILDERS.items():
        for value in range(2, 7):
            try:
                yield families.family_instance(name, **dict.fromkeys(keys, value)).plane
            except families.FamilyError:
                pass


def test_embed_checks_connectivity_once_and_agrees_with_build(monkeypatch):
    graphs = [pg.graph for pg in random_plane_corpus(500, max_n=12, seed=0)]
    graphs += [pg.graph for pg in _family_drawings()]
    assert len(graphs) > 550
    calls = []
    is_connected = Graph.is_connected

    def counted(self):
        calls.append(self)
        return is_connected(self)

    monkeypatch.setattr(Graph, "is_connected", counted)
    embedded = []
    for g in graphs:
        calls.clear()
        embedded.append(embed(g))
        assert calls == [g]
    monkeypatch.undo()
    for g, pg in zip(graphs, embedded):
        built = PlaneGraph.build(g, pg.rotation)
        assert pg.rotation == built.rotation
        assert pg.outer == built.outer
        assert pg.faces() == built.faces()
        assert pg._traced[1] == built._traced[1]
