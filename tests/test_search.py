"""Exhaustive enumeration, the exact oracle, censuses, and lemma scans."""

from __future__ import annotations

import hashlib
import json
import os
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations, product
from math import factorial

import networkx as nx
import pytest

from conftest import mirrored
from plane_reference import _rotation_systems, plane_embeddings
from ptl import embedding
from ptl.decomposition import decompose
from ptl.embedding import (
    Face,
    Graph,
    PlaneGraph,
    _dart_faces,
    _least_plane_code,
    _min_rotation,
    _orbit_partition,
    _union_roots,
    _walk_rotation,
    canonical_data,
    canonical_form,
    canonical_labeling,
    embed,
    is_planar,
)
from ptl.families import catalog_block
from ptl.io import graph6_decode, graph6_encode
from ptl.patterns import (
    as_pattern,
    contains_subgraph_at,
    contains_subgraph_bruteforce,
    is_free,
)
from ptl import search
from ptl.search import (
    DEFAULT_CEILING,
    FATES,
    ORACLE_DEFAULT_CEILING,
    CeilingExceededError,
    SearchError,
    _ROOT,
    _Augmentation,
    _cofacial_subsets,
    _edge_potential,
    _free_planes,
    _fresh_embeddings,
    _grown_children,
    _is_biconnected,
    _last_level,
    _node_embeddings,
    _on_triangles,
    _prufer_tree_edges,
    _run_masks,
    _solid_outer_faces,
    _sphere_key,
    _subset_reps,
    certify_solid_tbs_direct,
    enumerate_graphs,
    enumerate_solid_tbs,
    exact_planar_turan,
    exact_planar_turan_orders,
    naive_planar_turan,
    outer_variants,
    random_plane_corpus,
    scan_h4_component_density,
    scan_h5_component_density,
    scan_theta_pairs,
    verify_counting_identity,
    verify_theta_pair_laws,
)

# Frozen isomorphism-class counts (OEIS A000088, A001349, A005470, A003094).
_ALL_GRAPHS = [1, 2, 4, 11, 34]
_CONNECTED = [1, 1, 2, 6, 21]
_PLANAR = {5: 33, 7: 822}
_CONNECTED_PLANAR = [1, 1, 2, 6, 20, 99, 646]


def test_enumerate_graph_counts():
    for n, expected in enumerate(_ALL_GRAPHS, start=1):
        got = sum(1 for _ in enumerate_graphs(n, connected=False, planar=False))
        assert got == expected, n


def test_enumerate_connected_counts():
    for n, expected in enumerate(_CONNECTED, start=1):
        got = sum(1 for _ in enumerate_graphs(n, connected=True, planar=False))
        assert got == expected, n


def test_enumerate_planar_counts():
    for n, expected in _PLANAR.items():
        got = sum(1 for _ in enumerate_graphs(n, connected=False, planar=True))
        assert got == expected, n
    for n, expected in enumerate(_CONNECTED_PLANAR, start=1):
        got = sum(1 for _ in enumerate_graphs(n, connected=True, planar=True))
        assert got == expected, n


def test_enumerate_planar_order_8_is_canonical():
    # A005470 and A003094 at n = 8; every graph must come out in its
    # canonical labeling, which pins the permutation each tree node
    # carries down to the yield
    total = connected = 0
    for g in enumerate_graphs(8, planar=True):
        assert g == g.relabeled(canonical_labeling(g)), g.edges
        total += 1
        connected += g.is_connected()
    assert (total, connected) == (6966, 5974)


def test_connected_enumeration_filters_the_full_one():
    # the last order skips the subsets that miss a component of their
    # parent, and keeps the others in the same order
    full = [g for g in enumerate_graphs(8, planar=True) if g.is_connected()]
    assert list(enumerate_graphs(8, connected=True, planar=True)) == full


def test_children_build_no_graph_before_the_first_cell_test(monkeypatch):
    # without domain tests a child is built only once its new vertex is
    # in the first root cell, and each one built is searched once; the
    # trivial colouring is never refined, its first pass being the
    # degree classes
    calls = Counter()
    build, data = Graph.with_new_vertex, search.canonical_data
    refine = embedding._refine_cells

    def counted_build(self, nbrs):
        calls["build"] += 1
        return build(self, nbrs)

    def counted_data(g, **kwargs):
        calls["search"] += 1
        return data(g, **kwargs)

    def checked_refine(adj, cells, changed):
        full = (1 << len(adj)) - 1
        assert len(cells) > 1 or changed != full, cells
        return refine(adj, cells, changed)

    monkeypatch.setattr(Graph, "with_new_vertex", counted_build)
    monkeypatch.setattr(search, "canonical_data", counted_data)
    monkeypatch.setattr(embedding, "_refine_cells", checked_refine)
    for planar, limit in ((True, 7), (False, 6)):
        calls.clear()
        tree = _Augmentation(limit, planar=planar)
        kept = sum(len(level) for level in tree.levels()) - 1
        assert calls["build"] == calls["search"], (planar, dict(calls))
        # the McKay rejects that were never built failed the cell test
        assert tree.rejected["mckay"] > calls["build"] - kept >= 0, planar


def test_enumerate_planar_order_9_counts():
    # A005470 and A003094 at n = 9, counted in one walk
    total = connected = 0
    for g in enumerate_graphs(9, planar=True):
        total += 1
        connected += g.is_connected()
    assert (total, connected) == (79853, 71885)


def _degree_must(g):
    """The parent's minimum degree and the bitmask of its vertices of
    that degree, as :meth:`_Augmentation.children` reads them."""
    deg = list(map(int.bit_count, g.adj_bits))
    delta = min(deg)
    return delta, sum(1 << v for v, d in enumerate(deg) if d == delta)


def test_degree_pretest_matches_child_degrees():
    # the offered subsets, read from the parent's degrees, are exactly
    # those whose child gives the new vertex the child's minimum degree;
    # without embeddings every subset is listed, so planarity drops none
    for n in range(1, 7):
        tree = _Augmentation(n + 1, planar=False)
        for g in enumerate_graphs(n, planar=True):
            low = []
            for s in range(1 << n):
                child = g.with_new_vertex(v for v in range(n) if s >> v & 1)
                bits = child.adj_bits
                if bits[n].bit_count() == min(map(int.bit_count, bits)):
                    low.append(s)
            assert sorted(tree._offered(g, ())) == low, g.edges


def test_subset_reps_keep_the_small_orbits():
    # an orbit keeps the size of its subsets, the vertices of one degree
    # are a union of orbits, and automorphisms keep planarity, so the
    # size bound, the degree pre-test and the cofacial listing drop whole
    # orbits and keep the representatives of the rest, in order
    for n in range(1, 7):
        tree = _Augmentation(n + 1, planar=False)
        for g in enumerate_graphs(n):
            gens = canonical_data(g)[1]
            every = _subset_reps(gens, range(1 << n))
            for size in range(n + 1):
                assert _subset_reps(
                    gens, [s for s in range(1 << n) if s.bit_count() <= size]
                ) == [s for s in every if s.bit_count() <= size], (g.edges, size)
            delta, must = _degree_must(g)
            assert _subset_reps(gens, tree._offered(g, ())) == [
                s
                for s in every
                if s.bit_count() <= delta
                or (s.bit_count() == delta + 1 and not must & ~s)
            ], g.edges
            if is_planar(g):
                cofacial = _cofacial_subsets(n, _reference_embeddings(g), n)
                assert _subset_reps(gens, cofacial) == [
                    s for s in every if s in cofacial
                ], g.edges


def test_every_child_has_one_fate():
    # each offered child is kept or counted under exactly one rejection
    tree = _Augmentation(7, planar=True, spec=as_pattern("C3"))
    nodes = [node for level in tree.levels() for node in level]
    offered = 0
    for g, _, gens, recipe in nodes:
        if g.n < 7:
            embeddings = _node_embeddings(g, recipe)
            offered += len(_subset_reps(gens, tree._offered(g, embeddings)))
    assert set(tree.rejected) == set(FATES)
    assert all(tree.rejected.values())
    assert offered == sum(tree.rejected.values()) + len(nodes) - 1
    # the bitmasks a kept child got from its parent's are its own
    assert all(g.adj_bits == Graph(g.n, g.edges).adj_bits for g, *_ in nodes)


def _cofacial(embeddings, s):
    """Whether the planar graph whose components with a cycle have the
    ``embeddings`` stays planar with a new vertex joined to the vertex
    bitmask ``s``: within every component it meets, ``s`` lies on one
    face.  A tree component has one face, holding all its vertices, so
    it has no embeddings and never refuses ``s``.  The reference for
    :func:`_cofacial_subsets`, which lists the subsets it accepts."""
    return all(
        not s & comp or any(not s & comp & ~f for f in faces)
        for comp, _, faces in embeddings
    )


class _MaxDegreeAugmentation(_Augmentation):
    """The deletion rule before minimum-degree deletion, kept as the
    reference: the canonical deletion vertex carries the last canonical
    label, so it has maximum degree.  Every subset is offered, and each
    child that passes the degree test, planarity and the pattern test
    gets a full canonical search; nothing is counted.  Planarity is
    read from :func:`_reference_embeddings`, searched afresh for every
    parent, and tested subset by subset by :func:`_cofacial`, so the
    reference inherits no embeddings, lists no cofacial subsets and its
    nodes carry no recipe."""

    def children(self, node):
        g, _, gens, _ = node
        new = g.n
        deg = [b.bit_count() for b in g.adj_bits]
        embeddings = _reference_embeddings(g) if self.planar else None
        kept = []
        every = (
            sum(1 << v for v in subset)
            for k in range(new + 1)
            for subset in combinations(range(new), k)
        )
        for s in _subset_reps(gens, every):
            k = s.bit_count()
            if k < max(deg) or any(s >> v & 1 and deg[v] >= k for v in range(new)):
                continue
            if self.planar and not _cofacial(embeddings, s):
                continue
            child = g.with_new_vertex(v for v in range(new) if s >> v & 1)
            if (
                self.spec is not None
                and contains_subgraph_at(child, self.spec, new) is not None
            ):
                continue
            perm, child_gens = canonical_data(child)
            target = perm.index(new)
            roots = _orbit_partition(child.n, child_gens)
            if roots[target] == roots[new]:
                kept.append((child, perm, child_gens, None))
        return kept


def _forms_by_order(tree):
    """The canonical graph6 forms of a tree's levels, by order."""
    return {
        order: [graph6_encode(g.relabeled(perm)) for g, perm, _, _ in level]
        for order, level in enumerate(tree.levels(), start=1)
    }


def _assert_same_graphs(limit, planar):
    """Both deletion rules yield the same graphs of every order to
    ``limit``, each once; returns the reference's forms by order."""
    want = _forms_by_order(_MaxDegreeAugmentation(limit, planar=planar))
    got = _forms_by_order(_Augmentation(limit, planar=planar))
    assert {k: sorted(v) for k, v in got.items()} == {
        k: sorted(v) for k, v in want.items()
    }, planar
    assert len(set(got[limit])) == len(got[limit])
    return want


def test_min_degree_rule_matches_max_degree_reference():
    # the same graphs of every order to 8, planar or not to 7; and, among
    # the connected planar ones, the same ex and maximizers of every
    # catalog pattern as the oracle
    _assert_same_graphs(7, planar=False)
    connected = []
    for forms in _assert_same_graphs(8, planar=True).values():
        for form in forms:
            g = graph6_decode(form)
            if g.is_connected():
                connected.append((form.decode("ascii"), g))
    for pattern in ("C3", "C4", "Theta4", "H4", "H5", "H6"):
        spec = as_pattern(pattern)
        best = {}
        for form, g in connected:
            if is_free(g, spec):
                m, forms = best.get(g.n, (-1, []))
                if g.m > m:
                    best[g.n] = (g.m, [form])
                elif g.m == m:
                    forms.append(form)
        for report in exact_planar_turan_orders(8, pattern):
            ex, forms = best[report.n]
            assert (report.ex, report.witnesses) == (ex, tuple(sorted(forms))), (
                pattern,
                report.n,
            )


def test_edge_potential_bounds_every_deletion_chain():
    # along every tree path to order 7, the potential of each node at
    # each later order bounds the edges of every descendant there
    tree = _Augmentation(7, planar=True)
    stack = [(_ROOT, ())]
    while stack:
        node, path = stack.pop()
        g = node[0]
        for m, delta, k in path:
            assert _edge_potential(m, delta, k, g.n) >= g.m, (g.edges, k)
        if g.n < 7:
            delta = min(map(int.bit_count, g.adj_bits))
            below = path + ((g.m, delta, g.n),)
            stack.extend((child, below) for child in tree.children(node))


def test_cofacial_masks_agree_with_networkx():
    # every planar graph with n <= 6, disconnected ones included, plus a
    # new vertex joined to every subset of its vertices: the listed
    # subsets are exactly those whose child is planar, and the reference
    # accepts exactly those
    for n in range(1, 7):
        for g in enumerate_graphs(n, planar=True):
            embeddings = _reference_embeddings(g)
            planar = {
                s
                for s in range(1 << n)
                if is_planar(g.with_new_vertex(v for v in range(n) if s >> v & 1))
            }
            assert _cofacial_subsets(n, embeddings, n) == planar, g.edges
            assert {s for s in range(1 << n) if _cofacial(embeddings, s)} == planar
    k4 = Graph.complete(4)
    k23 = Graph.from_edges(5, [(u, w) for u in (0, 1) for w in (2, 3, 4)])
    forest = Graph.from_edges(7, [(0, 1), (0, 2), (0, 3), (4, 5)])
    for g, nbrs, planar in (
        (k4, (0, 1, 2, 3), False),  # K5
        (k23, (2, 3, 4), False),  # K3,3
        (forest, (1, 2, 3, 5, 6), True),  # meets all three trees
    ):
        s = sum(1 << v for v in nbrs)
        embeddings = _reference_embeddings(g)
        assert (s in _cofacial_subsets(g.n, embeddings, len(nbrs))) is planar
        assert _cofacial(embeddings, s) is planar
        assert is_planar(g.with_new_vertex(nbrs)) is planar


def _face_cycles(systems):
    """A multiset of rotation systems, each as the sorted least cyclic
    rotations of its face walks."""

    def least(walk):
        first = min(walk)
        if walk.count(first) > 1:
            return _min_rotation(walk)
        i = walk.index(first)
        return walk[i:] + walk[:i]

    return Counter(tuple(sorted(map(least, walks))) for walks in systems)


def _cyclic_spans(g):
    """The edge lists of the components of ``g`` that have a cycle."""
    roots = _union_roots(g.n, g.edges)
    spans = {}
    for e in g.edges:
        spans.setdefault(roots[e[0]], []).append(e)
    return [
        edges
        for edges in spans.values()
        if len(edges) >= len({v for e in edges for v in e})
    ]


def _reference_embeddings(g):
    """The embeddings of the components of ``g`` with a cycle, each
    searched from scratch by the edge-insertion arbiter
    :func:`_rotation_systems`: the reference for those the tree derives
    by its corner rule."""
    out = []
    for edges in _cyclic_spans(g):
        verts = sorted({v for e in edges for v in e})
        systems = [
            tuple(tuple(verts[v] for v in walk) for walk in _dart_faces(system)[1])
            for system in _rotation_systems(Graph.spanned_by(edges))
        ]
        out.append(search._embeddings(sum(1 << v for v in verts), systems))
    return tuple(out)


def _assert_embeddings_searched(g, embeddings):
    """``embeddings`` are those of ``g``'s components with a cycle: the
    same systems, mirror images included, and the same masks as
    :func:`_reference_embeddings`."""
    want = _reference_embeddings(g)
    got = {comp: _face_cycles(systems) for comp, systems, _ in embeddings}
    assert len(got) == len(embeddings), g.edges
    assert got == {
        comp: _face_cycles(systems) for comp, systems, _ in want
    }, g.edges
    assert sorted((comp, sorted(faces)) for comp, _, faces in embeddings) == sorted(
        (comp, sorted(faces)) for comp, _, faces in want
    ), g.edges


def test_inherited_embeddings_match_rotation_systems():
    # every node of the planar tree to order 8, disconnected ones
    # included, derives its embeddings from its parent's or grows them
    # afresh; the face cycles and the masks are the arbiter's
    tree = _Augmentation(8, planar=True)
    for level in tree.levels():
        for g, _, _, recipe in level:
            _assert_embeddings_searched(g, _node_embeddings(g, recipe))


def test_fresh_embeddings_match_rotation_systems():
    # a component grown afresh from each of its vertices, on every
    # connected planar graph with a cycle to order 7; and on a K4 whose
    # labels do not start at 0, beside two triangles
    checked = 0
    for n in range(3, 8):
        for g in enumerate_graphs(n, connected=True, planar=True):
            if g.m < n:
                continue
            ((_, want, _),) = _reference_embeddings(g)
            want = _face_cycles(want)
            for v in range(n):
                _, systems, _ = _fresh_embeddings(g.adj_bits, v)
                assert _face_cycles(systems) == want, (g.edges, v)
            checked += 1
    assert checked == 750
    triangles = [(a + i, a + j) for a in (0, 7) for i, j in ((0, 1), (0, 2), (1, 2))]
    k4 = [(3 + i, 3 + j) for i, j in combinations(range(4), 2)]
    g = Graph.from_edges(10, triangles + k4)
    ((comp, want, _),) = [e for e in _reference_embeddings(g) if e[0] >> 3 & 1]
    for v in range(3, 7):
        grown, systems, _ = _fresh_embeddings(g.adj_bits, v)
        assert grown == comp == 0b1111000
        assert _face_cycles(systems) == _face_cycles(want), v
    # a tree component has none
    path = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert _fresh_embeddings(path.adj_bits, 0) is None


def _mirror(walks):
    """The face walks of the mirror image: every walk reversed."""
    return tuple(walk[::-1] for walk in walks)


def test_fresh_embedding_counts_closed_forms():
    # a cycle has one rotation system; by Whitney, a 3-connected planar
    # graph has two, an embedding and its mirror image
    for n in range(3, 9):
        _, systems, _ = _fresh_embeddings(Graph.cycle(n).adj_bits, 0)
        assert len(systems) == 1, n
    for g in (Graph.complete(4), _octahedron(), _cube(), _wheel(5)):
        for v in range(g.n):
            _, (first, second), _ = _fresh_embeddings(g.adj_bits, v)
            assert _face_cycles([_mirror(first)]) == _face_cycles([second])
            assert _face_cycles([first]) != _face_cycles([second])


def test_inherited_embeddings_by_hand():
    def child(g, nbrs):
        parent = _reference_embeddings(g)
        s = sum(1 << v for v in nbrs)
        grown = g.with_new_vertex(nbrs)
        embeddings = _node_embeddings(grown, (parent, s))
        _assert_embeddings_searched(grown, embeddings)
        return parent, embeddings

    # a pendant at the cut vertex of two triangles, which the face
    # around both of them passes twice: one system per occurrence
    bowtie = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
    (parent,), (grown,) = child(bowtie, [0])
    assert any(walk.count(0) == 2 for walks in parent[1] for walk in walks)
    assert len(grown[1]) == sum(
        walk.count(0) for walks in parent[1] for walk in walks
    )
    # S across two components with cycles, next to one that S misses
    triangles = Graph.from_edges(
        9, [(a + i, a + j) for a in (0, 3, 6) for i, j in ((0, 1), (0, 2), (1, 2))]
    )
    parent, embeddings = child(triangles, [0, 3])
    assert embeddings[0] is parent[2] and len(embeddings) == 2
    # S of two vertices in a tree component closes a cycle; the triangle
    # that S misses keeps its embeddings
    path_and_triangle = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4), (3, 5), (4, 5)])
    (triangle,), embeddings = child(path_and_triangle, [0, 2])
    assert embeddings[0] is triangle and len(embeddings) == 2
    # a pendant on a tree stays a tree, so it carries no embeddings
    assert child(path_and_triangle, [2])[1] == (triangle,)


def test_augmentation_needs_no_planarity_test(monkeypatch):
    # the tree decides planarity from its parents' faces alone
    def refuse(g):
        raise AssertionError("planarity test called")

    monkeypatch.setattr(search, "is_planar", refuse)
    assert sum(1 for _ in enumerate_graphs(7, planar=True)) == 822
    assert exact_planar_turan(7, "H5").ex == 13
    assert certify_solid_tbs_direct(6, "H5")[6]


def test_enumerate_maximal_planar():
    # connected planar graphs on 7 vertices with >= 15 = 3n-6 edges are
    # exactly the 5 triangulations
    hits = [
        g
        for g in enumerate_graphs(7, connected=True, planar=True)
        if g.m >= 15
    ]
    assert len(hits) == 5
    assert all(g.m == 15 for g in hits)


def test_enumerate_no_duplicates():
    seen = set()
    for g in enumerate_graphs(5, connected=True, planar=True):
        form = canonical_form(g)
        assert form not in seen
        seen.add(form)


def test_enumerate_yield_order_is_pinned():
    # graph6 lines of every graph, then every planar graph, of orders
    # 1 to 7, in the order they are yielded
    digest = hashlib.sha256()
    for planar in (False, True):
        for n in range(1, 8):
            for g in enumerate_graphs(n, planar=planar):
                digest.update(graph6_encode(g) + b"\n")
    assert digest.hexdigest() == (
        "2e4c7c5910561cb47802d3072bb2a51e88992b70875ce851452361787824fcaf"
    )


# -- exact oracle -------------------------------------------------------------

# ex_P(n, pattern), frozen from the exhaustive runs.
_EX_TABLE = {
    (6, "C3"): 8, (6, "Theta4"): 9, (6, "H4"): 12, (6, "H5"): 11,
    (6, "H6"): 12,
    (7, "C3"): 10, (7, "Theta4"): 11, (7, "H4"): 13, (7, "H5"): 13,
    (7, "H6"): 14,
}


@pytest.mark.parametrize("n,pattern", sorted(_EX_TABLE))
def test_oracle_values(n, pattern):
    report = exact_planar_turan(n, pattern)
    assert report.ex == _EX_TABLE[(n, pattern)]
    assert report.witnesses
    assert report.n == n and report.pattern == pattern


def test_oracle_within_literature_bounds():
    # ex_P(n, C3) = 2n - 4; ex_P(n, C4) <= 15(n - 2)/7 (Dowden, J. Graph
    # Theory 83, 2016); ex_P(n, Theta4) <= 12(n - 2)/5 (Lan, Shi and Song,
    # Discrete Math. 342, 2019)
    bounds = {
        "C3": lambda n: 2 * n - 4,
        "C4": lambda n: Fraction(15 * (n - 2), 7),
        "Theta4": lambda n: Fraction(12 * (n - 2), 5),
    }
    for pattern, bound in bounds.items():
        for report in exact_planar_turan_orders(10, pattern, ceiling=10):
            n, ex = report.n, report.ex
            if n >= 4:
                assert ex <= bound(n), (n, pattern, ex)
                assert pattern != "C3" or ex == bound(n), n


def test_oracle_counters_at_order_8():
    # the work of the order-8 runs under minimum-degree deletion, the
    # deletion-chain potential and the seeds from order 7; they were
    # 535 / 885 / 658 enumerated under maximum-degree deletion.  Only
    # cofacial subsets no smaller than the seed allows are offered, so
    # no child fails planarity and the domain counts hold only the edge
    # potentials and pattern tests of the children built
    pins = {
        "H4": (48, {"domain": 71, "mckay": 12}),
        "H5": (87, {"domain": 146, "mckay": 26}),
        "H6": (74, {"domain": 147, "mckay": 11}),
    }
    for pattern, (enumerated, rejected) in pins.items():
        for workers in (1, 2):
            report = exact_planar_turan(8, pattern, workers=workers)
            assert (report.enumerated, report.rejected) == (
                enumerated,
                rejected,
            ), (pattern, workers)


def test_extension_seed_is_a_lower_bound():
    # one vertex added to a maximizer of the order below; at these orders
    # the constructions of _seed_bound beat it only for H4 at 6 and 8, H3
    # at 5 and W5 at 6, and the better of the two reaches ex everywhere
    # but for H3 at 7 and 8.  Each witness is a node whose recipe holds
    # its searched embeddings and no new vertex, so they pass unchanged
    beaten = {(6, "H4"), (8, "H4"), (5, "H3"), (6, "W5")}
    below = {(7, "H3"), (8, "H3")}
    for pattern in ("C3", "C4", "Theta4", "H4", "H5", "H6", "H3", "W5"):
        spec = as_pattern(pattern)
        reports = list(exact_planar_turan_orders(8, pattern))
        for n in range(2, 9):
            ex = reports[n - 1].ex
            maximizers = [
                (g, tuple(range(g.n)), [], (_reference_embeddings(g), 0))
                for g in map(graph6_decode, reports[n - 2].witnesses)
            ]
            seed = search._extension_bound(maximizers, n, spec)
            built = search._seed_bound(n, spec)
            assert seed <= ex and built <= ex, (pattern, n)
            assert (built > seed) == ((n, pattern) in beaten), (pattern, n, seed)
            assert (max(seed, built) == ex) == ((n, pattern) not in below), (
                pattern,
                n,
            )


def test_oracle_witnesses_are_extremal():
    report = exact_planar_turan(4, "Theta4")
    assert report.ex == 4
    assert report.witnesses == ("CN", "Cr")
    from ptl.io import graph6_decode

    for form in report.witnesses:
        g = graph6_decode(form)
        assert g.m == 4
        assert is_planar(g) and is_free(g, "Theta4")


def test_one_vertex_patterns_leave_no_free_graph():
    # the root is the one-vertex graph, which contains K1 and P1, so the
    # tree holds no free graph of any order
    for pattern in ("K1", "P1"):
        for n in range(1, 6):
            assert naive_planar_turan(n, pattern) == (-1, frozenset())
            with pytest.raises(SearchError, match="no connected"):
                exact_planar_turan(n, pattern)
        tree = _Augmentation(1, planar=True, spec=as_pattern(pattern))
        assert list(_last_level(tree)) == []


def test_oracle_agrees_with_naive_small():
    for n in range(1, 6):
        report = exact_planar_turan(n, "Theta4")
        naive_ex, naive_forms = naive_planar_turan(n, "Theta4")
        assert report.ex == naive_ex
        assert set(report.witnesses) <= {
            form.decode("ascii") for form in naive_forms
        }


def test_naive_oracle_range():
    with pytest.raises(SearchError):
        naive_planar_turan(6, "C3")


def test_oracle_refuses_patterns_with_a_bridge():
    # two disjoint triangles have 6 edges and no P4, but the connected
    # P4-free graphs on 6 vertices have at most 5
    with pytest.raises(SearchError, match="bridge"):
        exact_planar_turan(6, "P4")
    for pattern in ("C3", "C4", "Theta4", "H4", "H5", "H6", "C3|Theta4"):
        assert exact_planar_turan(5, pattern).ex > 0


def test_oracle_ceiling():
    # the oracle has its own default ceiling, above the enumeration's;
    # the checks run at the call, so order 12 is allowed without a search
    assert (DEFAULT_CEILING, ORACLE_DEFAULT_CEILING) == (9, 12)
    with pytest.raises(CeilingExceededError):
        exact_planar_turan(ORACLE_DEFAULT_CEILING + 1, "C3")
    exact_planar_turan_orders(ORACLE_DEFAULT_CEILING, "C3")
    with pytest.raises(CeilingExceededError):
        next(enumerate_graphs(DEFAULT_CEILING + 1))
    # explicit ceiling overrides the default
    report = exact_planar_turan(4, "C3", ceiling=4)
    assert report.ex == 4


def test_worker_determinism_quick():
    # each order's nodes are shared statically; below order 4 a level of
    # C3's tree has fewer nodes than three shares, so some shares are empty
    cases = [(8, pattern) for pattern in ("H4", "H5", "H6")]
    cases += [(n, "C3") for n in (1, 2, 3)]
    for n, pattern in cases:
        reports = [
            exact_planar_turan(n, pattern, workers=w).comparable_json()
            for w in (1, 2, 3)
        ]
        assert reports[0] == reports[1] == reports[2], (n, pattern)


def test_fate_counts_do_not_depend_on_workers():
    reports = [exact_planar_turan(7, "H4", workers=w) for w in (1, 2)]
    assert reports[0].rejected == reports[1].rejected
    for report in reports:
        rejected = report.to_record()["rejected"]
        assert rejected == report.rejected and set(rejected) == set(FATES)
        assert report.pruned == rejected["domain"]
        assert report.to_record()["pruned"] == report.pruned


def test_orders_pass_matches_calls_at_every_order():
    # one pass to order 8 gives, at every order, the report of a call at
    # that order, counters included, at one worker and at two
    for pattern in ("C3", "C4", "Theta4", "H3", "H4", "H5", "H6", "W5"):
        for workers in (1, 2):
            reports = list(exact_planar_turan_orders(8, pattern, workers=workers))
            assert [report.n for report in reports] == list(range(1, 9))
            for report in reports:
                call = exact_planar_turan(report.n, pattern, workers=workers)
                assert report.comparable_json() == call.comparable_json(), (
                    pattern,
                    workers,
                    report.n,
                )


def test_orders_pass_checks_arguments_when_called(monkeypatch):
    # bad arguments raise at the call, before any order is solved; no
    # free graph is found when the order that lacks one is reached
    def refuse(*args, **kwargs):
        raise AssertionError("an order was solved")

    monkeypatch.setattr(search, "_Augmentation", refuse)
    for args, kwargs, error in (
        ((0, "C3"), {}, SearchError),
        ((ORACLE_DEFAULT_CEILING + 1, "C3"), {}, CeilingExceededError),
        ((5, "C3"), {"workers": 0}, SearchError),
        ((5, "P4"), {}, SearchError),
    ):
        with pytest.raises(error):
            exact_planar_turan_orders(*args, **kwargs)
    exact_planar_turan_orders(5, "C3")
    monkeypatch.undo()
    orders = exact_planar_turan_orders(5, "K1")
    with pytest.raises(SearchError, match="K1-free planar graph of order 1 "):
        next(orders)


def test_jsonl_record_shape():
    record = exact_planar_turan(4, "C3").jsonl_record()
    assert set(record) == {
        "n", "pattern", "ex", "witnesses", "enumerated", "elapsed_ms"
    }


# -- solid TB census -----------------------------------------------------------

def _reference_arc_runs_ok(mask: int, length: int) -> bool:
    """The run check as a loop over the walk: every maximal cyclic run of
    selected positions has length >= 2."""
    if mask == (1 << length) - 1:
        return True
    for i in range(length):
        if mask >> i & 1 and not mask >> (i - 1) % length & 1:
            run = 0
            j = i
            while mask >> j & 1:
                run += 1
                j = (j + 1) % length
            if run < 2:
                return False
    return True


def test_run_masks_match_run_loop():
    # the listing holds exactly the run-shaped masks, in ascending order,
    # as the census's superset skip and first-of-class order need
    for length in range(2, 17):
        want = [m for m in range(1, 1 << length) if _reference_arc_runs_ok(m, length)]
        assert list(_run_masks(length)) == want, length


def test_census_does_not_depend_on_workers():
    # each order keeps the first plane graph of each sphere class, which
    # depends on the shares; the report reads only what a class shares
    for pattern in ("H4", "H5"):
        reports = [
            enumerate_solid_tbs(16, pattern, workers=w, ceiling=16)
            for w in (1, 2, 3)
        ]
        assert reports[0].diff_is_empty, pattern
        jsons = {report.comparable_json() for report in reports}
        assert len(jsons) == 1, pattern


def test_census_h4_matches_catalog_order_7():
    report = enumerate_solid_tbs(7, "H4")
    assert report.diff_is_empty
    assert {k: len(v) for k, v in report.found.items()} == {
        3: 1, 4: 2, 5: 4, 6: 5, 7: 3
    }


def test_census_h5_has_one_extra_order_7_block():
    # the growth census finds a 13-edge solid block beyond the paper's
    # order-7 list; the catalog carries it as B4p, so the diff is empty
    report = enumerate_solid_tbs(7, "H5")
    assert "F?l~w" in report.found[7]
    assert canonical_form(catalog_block("B4p").graph) == b"F?l~w"
    assert report.diff_is_empty
    extra = Graph.from_edges(
        7,
        [
            (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 4),
            (2, 3), (2, 4), (2, 5), (2, 6), (4, 5), (4, 6),
        ],
    )
    assert canonical_form(extra) == b"F?l~w"
    assert is_free(extra, "H5")
    assert contains_subgraph_bruteforce(extra, "H5") is None


def test_direct_census_agrees_with_growth():
    # H5 runs to order 8: order 7 admits B4p beyond the paper's list; the
    # direct census reaches order 9, which is left out here for its time
    for pattern, max_order in (("H4", 6), ("H5", 8)):
        direct = certify_solid_tbs_direct(max_order, pattern)
        grown = enumerate_solid_tbs(max_order, pattern).found
        assert {k: set(v) for k, v in direct.items()} == {
            k: set(v) for k, v in grown.items()
        }
    assert len(direct[8]) == 2


def test_direct_census_uses_no_sphere_key(monkeypatch):
    # the direct census certifies the growth census, so it must not share
    # the growth census's sphere keys, nor any plane code
    grown = {
        pattern: enumerate_solid_tbs(7, pattern).found
        for pattern in ("H4", "H5")
    }

    def refuse(*args):
        raise AssertionError("the direct census read a plane code")

    monkeypatch.setattr(search, "_sphere_key", refuse)
    monkeypatch.setattr(embedding, "_least_plane_code", refuse)
    for pattern, found in grown.items():
        direct = certify_solid_tbs_direct(7, pattern)
        assert direct == {k: found[k] for k in range(3, 8)}


def test_direct_census_walks_only_free_graphs(monkeypatch):
    # the tree prunes every child containing the pattern, so no graph is
    # tested for freeness afterwards
    grown = {
        pattern: enumerate_solid_tbs(7, pattern).found
        for pattern in ("H4", "H5")
    }

    def refuse(*args):
        raise AssertionError("the direct census called is_free")

    monkeypatch.setattr(search, "is_free", refuse)
    for pattern, found in grown.items():
        direct = certify_solid_tbs_direct(7, pattern)
        assert direct == {k: found[k] for k in range(3, 8)}


def test_direct_census_reads_embeddings_from_the_tree(monkeypatch):
    # every candidate's face walks come from its tree node: no plane
    # graph is built
    grown = {
        pattern: enumerate_solid_tbs(7, pattern).found
        for pattern in ("H4", "H5")
    }

    def refuse(*args, **kwargs):
        raise AssertionError("the direct census built a plane graph")

    monkeypatch.setattr(PlaneGraph, "build", refuse)
    for pattern, found in grown.items():
        direct = certify_solid_tbs_direct(7, pattern)
        assert direct == {k: found[k] for k in range(3, 8)}


def test_direct_census_order_limit():
    with pytest.raises(SearchError, match="orders <= 9"):
        certify_solid_tbs_direct(10, "H5")
    with pytest.raises(SearchError):
        certify_solid_tbs_direct(2, "H5")


def test_direct_census_takes_a_ceiling():
    assert certify_solid_tbs_direct(5, "H5", ceiling=5) == certify_solid_tbs_direct(
        5, "H5"
    )
    with pytest.raises(CeilingExceededError, match="orders <= 4"):
        certify_solid_tbs_direct(5, "H5", ceiling=4)


def test_census_opens_one_pool_per_call(monkeypatch):
    # the census expands orders 4..max_order; every order shares one pool
    pools = []

    class CountedPool(search.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(search, "ProcessPoolExecutor", CountedPool)
    report = enumerate_solid_tbs(6, "H4", workers=2)
    assert len(pools) == 1
    serial = enumerate_solid_tbs(6, "H4", workers=1)
    assert report.comparable_json() == serial.comparable_json()


def test_pools_start_no_more_processes_than_cores(monkeypatch):
    # a fork pool starts max_workers processes at its first submit; this
    # stand-in records the size asked for and maps serially in-process
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable):
            return map(fn, iterable)

    monkeypatch.setattr(search, "ProcessPoolExecutor", SerialPool)
    turan = exact_planar_turan(6, "H4", workers=64)
    census = enumerate_solid_tbs(7, "H5", workers=64)
    assert len(sizes) == 2
    assert all(1 <= size <= os.cpu_count() for size in sizes)
    assert turan.comparable_json() == exact_planar_turan(6, "H4").comparable_json()
    assert census.comparable_json() == enumerate_solid_tbs(7, "H5").comparable_json()


def test_census_builds_only_pattern_free_children(monkeypatch):
    # freeness is read from the child's abstract graph, so every child
    # the census grows is pattern-free; it carries each as its graph and
    # face walks, so once the drawn seeds are cached it makes no plane
    # graph at all
    grown = []

    def recorded(g, walks, spec):
        for child in _grown_children(g, walks, spec):
            grown.append(child[0])
            yield child

    monkeypatch.setattr(search, "_grown_children", recorded)
    report = enumerate_solid_tbs(10, "H5")
    assert report.diff_is_empty
    assert len(grown) > 100
    assert all(is_free(g, "H5") for g in grown)

    made = []
    init = PlaneGraph.__init__

    def counted(self, *args, **kwargs):
        made.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PlaneGraph, "__init__", counted)
    assert enumerate_solid_tbs(10, "H5").found == report.found
    assert made == []


def _reference_solid_outer_faces(pg: PlaneGraph):
    """The definition: faces whose designation as outer leaves one raw
    block, spanning every vertex and edge, with no 3-cycle hole."""
    result = []
    for face in pg.faces():
        blocks = decompose(pg.with_outer(face), solid=False).blocks
        if (
            len(blocks) == 1
            and blocks[0].vertices == frozenset(range(pg.n))
            and blocks[0].edges == frozenset(pg.graph.edges)
            and blocks[0].is_solid
        ):
            result.append(face)
    return result


def test_solid_outer_faces_match_decompose_definition():
    # every plane embedding of every connected planar graph with n <= 7
    solid = 0
    for n in range(1, 8):
        for g in enumerate_graphs(n, connected=True, planar=True):
            for pg in plane_embeddings(g):
                faces = _solid_outer_faces(pg.faces(), pg.m)
                assert faces == _reference_solid_outer_faces(pg), pg.rotation
                solid += bool(faces)
    # 3-connected graphs count twice: their embedding and its mirror
    assert solid == 241


def test_census_report_round_trip():
    report = enumerate_solid_tbs(5, "H4")
    record = report.to_record()
    assert record["diff_is_empty"] is True
    assert set(record["found"]) == {"3", "4", "5"}
    assert "elapsed_ms" not in report.comparable_json()


# -- corpora -------------------------------------------------------------------

def _free_connected(n, pattern):
    """The connected graphs of the last level of the order-``n`` tree
    that grows only ``pattern``-free graphs, relabeled canonically."""
    tree = _Augmentation(n, planar=True, spec=as_pattern(pattern))
    return [
        g.relabeled(perm)
        for g, perm, _, _ in _last_level(tree)
        if g.is_connected()
    ]


def test_free_last_level():
    triangle_free = _free_connected(4, "C3")
    assert len(triangle_free) == 3  # P4, K1,3, C4
    assert all(is_free(g, "C3") for g in triangle_free)


def test_free_last_level_matches_filtered_enumeration():
    # the pruned walk yields the free graphs of the full walk, in order
    for n in range(1, 8):
        every = list(enumerate_graphs(n, connected=True, planar=True))
        for pattern in ("C3", "Theta4", "H4", "H5", "C3|Theta4"):
            got = [g.edges for g in _free_connected(n, pattern)]
            want = [g.edges for g in every if is_free(g, pattern)]
            assert got == want, (n, pattern)


def _sphere_multiset(planes):
    """The planes as a multiset of (canonical form, least
    :func:`_reference_rows` of the rotation, not of its mirror, from the
    darts whose end degrees are least): equal keys mean isomorphic sphere
    embeddings, with orientation kept."""
    forms = {}
    keys = Counter()
    for pg in planes:
        if pg.graph not in forms:
            forms[pg.graph] = canonical_form(pg.graph)
        deg = [len(r) for r in pg.rotation]
        ends = {
            (v, w): (deg[v], deg[w]) for v, r in enumerate(pg.rotation) for w in r
        }
        least = min(ends.values())
        code = min(
            _reference_rows(pg.rotation, dart)[0]
            for dart, pair in ends.items()
            if pair == least
        )
        keys[forms[pg.graph], code] += 1
    return keys


def test_free_planes_match_searched_embeddings():
    # the tree's planes are the searched ones of every free graph with a
    # cycle that the scan keeps, each sphere embedding once
    for pattern, orders, keep, count in [
        ("H5", range(3, 7), lambda g: True, 646),
        ("H4", (7,), _on_triangles, 442),
        ("C3|Theta4", range(4, 8), lambda g: True, 8348),
    ]:
        got = _sphere_multiset(_free_planes(pattern, orders, keep))
        want = _sphere_multiset(
            pg
            for n in orders
            for g in enumerate_graphs(n, connected=True, planar=True)
            if g.m >= g.n and keep(g) and is_free(g, pattern)
            for pg in plane_embeddings(g)
        )
        assert got == want, pattern
        assert sum(got.values()) == count, pattern


def _brute_force_embeddings(g: Graph):
    """Reference enumerator: every rotation system, kept iff it is plane.

    Each rotation starts at the smallest neighbour and the rest run over
    all permutations, so the systems come out in sorted order; those that
    fail Euler's formula are rejected by ``PlaneGraph.build``.
    """
    choices = []
    for v in range(g.n):
        nbrs = sorted(g.adjacency[v])
        if len(nbrs) <= 2:
            choices.append([tuple(nbrs)])
        else:
            first, rest = nbrs[0], nbrs[1:]
            choices.append([(first, *p) for p in permutations(rest)])

    def assign(v, rotation):
        if v == g.n:
            try:
                yield PlaneGraph.build(g, tuple(rotation), outer_walk=None)
            except ValueError:
                return
            return
        for rot in choices[v]:
            rotation.append(rot)
            yield from assign(v + 1, rotation)
            rotation.pop()

    yield from assign(0, [])


def _is_triconnected(g: Graph) -> bool:
    """Reference 3-connectivity test by deleting every vertex pair."""
    if g.n < 4 or not _is_biconnected(g):
        return False
    return all(
        g.without_vertex(max(u, v)).without_vertex(min(u, v)).is_connected()
        for u, v in combinations(range(g.n), 2)
    )


def _assert_same_embeddings(g: Graph) -> None:
    # the outer face of both is build()'s choice from the rotation
    slow = [pg.rotation for pg in _brute_force_embeddings(g)]
    assert _rotation_systems(g) == slow, g.edges


def test_embeddings_match_brute_force_small():
    for n in range(1, 7):
        for g in enumerate_graphs(n, connected=True, planar=True):
            _assert_same_embeddings(g)


def test_embeddings_match_brute_force_direct_candidates_order_7():
    # _rotation_systems arbitrates the face walks that the tree nodes
    # derive, so it is pinned against brute force on the candidates of
    # certify_solid_tbs_direct(7, H4|H5) that are not 3-connected: 2-
    # connected, every edge on a triangle
    specs = [as_pattern("H4"), as_pattern("H5")]
    checked = 0
    for g in enumerate_graphs(7, connected=True, planar=True):
        bits = g.adj_bits
        if not all(bits[u] & bits[v] for u, v in g.edges):
            continue
        if not _is_biconnected(g) or _is_triconnected(g):
            continue
        if not any(is_free(g, spec) for spec in specs):
            continue
        _assert_same_embeddings(g)
        checked += 1
    assert checked == 24


def _octahedron() -> Graph:
    return Graph.from_edges(
        6,
        [e for e in combinations(range(6), 2) if e not in ((0, 1), (2, 3), (4, 5))],
    )


def _cube() -> Graph:
    return Graph.from_edges(
        8,
        [(u, u ^ b) for u in range(8) for b in (1, 2, 4) if u < u ^ b],
    )


def _wheel(k: int) -> Graph:
    rim = [(i, i % k + 1) for i in range(1, k + 1)]
    return Graph.from_edges(k + 1, [(0, i) for i in range(1, k + 1)] + rim)


def test_embedding_counts_closed_forms():
    # the star K1,k has (k-1)! rotation systems, all plane
    for k in range(1, 7):
        star = Graph.from_edges(k + 1, [(0, i) for i in range(1, k + 1)])
        assert sum(1 for _ in plane_embeddings(star)) == factorial(k - 1)
    for n in range(3, 9):
        assert sum(1 for _ in plane_embeddings(Graph.cycle(n))) == 1
    # Whitney: a 3-connected planar graph has one embedding and its mirror
    for g in (Graph.complete(4), _octahedron(), _cube(), _wheel(5)):
        assert _is_triconnected(g)
        first, second = _rotation_systems(g)
        mirror = []
        for r in first:
            r = r[::-1]
            i = r.index(min(r))
            mirror.append(r[i:] + r[:i])
        assert tuple(mirror) == second


def _reference_rows(rotation, start):
    """The rotation system relabeled in breadth-first discovery order
    from the dart ``start``, each vertex's neighbours read from the one
    it was entered by; and the labels."""
    label = {start[0]: 0}
    entry = {start[0]: start[1]}
    queue = [start[0]]
    rows = []
    for v in queue:
        rot = rotation[v]
        k = rot.index(entry[v])
        row = []
        for u in rot[k:] + rot[:k]:
            if u not in label:
                label[u] = len(label)
                entry[u] = v
                queue.append(u)
            row.append(label[u])
        rows.append(tuple(row))
    return tuple(rows), label


def _reference_bfs_code(pg: PlaneGraph, start) -> bytes:
    """The plane code with the order and the relabeled outer walk in its
    payload, read from a plane graph."""
    if start[1] is None:
        return b"K1"
    rows, label = _reference_rows(pg.rotation, start)
    outer = _min_rotation(tuple(label[v] for v in pg.outer.walk))
    payload = {"n": pg.n, "rows": rows, "outer": outer}
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def _reference_plane_code(pg: PlaneGraph) -> bytes:
    """Least reference code over the outer-face darts of ``pg`` and of its
    traced mirror image."""
    return min(
        _reference_bfs_code(q, dart)
        for q in (pg, mirrored(pg))
        for dart in q.outer.darts() or ((q.outer.walk[0], None),)
    )


def _same_partition(a, b) -> bool:
    return len(set(zip(a, b))) == len(set(a)) == len(set(b))


def test_sphere_key_and_plane_code_partition_as_before():
    # the 778 plane rotation systems of the connected planar graphs with
    # n <= 6; the plane code also with each face designated outer
    systems = 0
    for n in range(1, 7):
        planes = [
            PlaneGraph.build(g, system)
            for g in enumerate_graphs(n, connected=True, planar=True)
            for system in _rotation_systems(g)
        ]
        systems += len(planes)
        keys = [_sphere_key(_face_walks(pg)) for pg in planes]
        old_keys = [
            min(_reference_plane_code(v) for v in outer_variants(pg))
            for pg in planes
        ]
        assert _same_partition(keys, old_keys)
        rooted = [v for pg in planes for v in outer_variants(pg)]
        codes = [v.canonical_plane_code() for v in rooted]
        assert _same_partition(codes, [_reference_plane_code(v) for v in rooted])
        if n >= 4:
            assert len(set(keys)) < len(planes)
            assert len(set(codes)) < len(rooted)
    assert systems == 778


def _face_walks(pg: PlaneGraph) -> list[tuple[int, ...]]:
    return [f.walk for f in pg.faces()]


def _all_darts_key(walks) -> tuple[int, ...]:
    """Reference sphere key: the least plane code from every dart."""
    return _least_plane_code(
        walks, ((w[i - 1], v) for w in walks for i, v in enumerate(w))
    )


def test_sphere_key_partitions_like_all_darts_key():
    # every rotation system of every connected planar graph with n <= 6
    for n in range(1, 7):
        systems = [
            _dart_faces(system)[1]
            for g in enumerate_graphs(n, connected=True, planar=True)
            for system in _rotation_systems(g)
        ]
        assert _same_partition(
            [_sphere_key(w) for w in systems],
            [_all_darts_key(w) for w in systems],
        )
    # and every grown census child up to order 9, one parent per class
    for pattern in ("H4", "H5"):
        spec = as_pattern(pattern)
        b1 = catalog_block("B1").plane
        parents = [(b1.graph, tuple(f.walk for f in b1.faces()))]
        for _ in range(4, 10):
            children = [c for p in parents for c in _grown_children(*p, spec)]
            keys = [_sphere_key(walks) for _, walks in children]
            assert _same_partition(
                keys, [_all_darts_key(walks) for _, walks in children]
            )
            first = {}
            for key, (g, walks) in zip(keys, children):
                if _solid_outer_faces([Face(w) for w in walks], g.m):
                    first.setdefault(key, (g, walks))
            parents = list(first.values())
        assert parents


def test_sphere_key_reads_walks_in_any_order_and_from_any_start():
    # every rotation system of every connected planar graph with n <= 6:
    # each walk started k steps later and the walks reordered, for every k
    for n in range(2, 7):
        for g in enumerate_graphs(n, connected=True, planar=True):
            for system in _rotation_systems(g):
                walks = _dart_faces(system)[1]
                key = _sphere_key(walks)
                first = walks[0]
                outer = [(first[i - 1], v) for i, v in enumerate(first)]
                code = _least_plane_code(walks, outer)
                for k in range(1, max(map(len, walks))):
                    moved = [
                        w[k % len(w) :] + w[: k % len(w)]
                        for w in walks[k:] + walks[:k]
                    ][:: (-1) ** k]
                    assert _sphere_key(moved) == key
                    assert _least_plane_code(moved, outer) == code


def _reference_grown_children(pg, spec):
    """Reference growth step: the graphs and rotations of the pattern-free
    children from every run-shaped selection of every face, each one
    tested, with the new vertex put into each rotation list by hand."""
    new = pg.graph.n
    for face in pg.faces():
        walk = face.walk
        length = len(walk)
        if length < 2 or len(set(walk)) != length:
            continue
        for mask in range(1, 1 << length):
            if not _reference_arc_runs_ok(mask, length):
                continue
            sel = [i for i in range(length) if mask >> i & 1]
            graph = pg.graph.with_new_vertex(walk[i] for i in sel)
            if not search.is_free(graph, spec):
                continue
            rotation = [list(r) for r in pg.rotation]
            rotation.append([walk[i] for i in reversed(sel)])
            for i in sel:
                w = walk[i]
                prev = walk[(i - 1) % length]
                rotation[w].insert(rotation[w].index(prev) + 1, new)
            yield graph, tuple(tuple(r) for r in rotation)


def _least_first(rotation):
    """Each rotation list started at its smallest neighbour."""
    return tuple(r[r.index(min(r)) :] + r[: r.index(min(r))] for r in rotation)


def test_grown_children_skip_supersets_like_full_scan(monkeypatch):
    # one parent per class up to order 12: splitting face walks and
    # skipping the supersets of a selection that holds the pattern yields
    # the rotations of the reference's children in the same order, from
    # fewer freeness tests
    calls = Counter()
    side = ["full"]

    def counted(graph, spec):
        calls[side[0]] += 1
        return is_free(graph, spec)

    monkeypatch.setattr(search, "is_free", counted)
    for pattern in ("H4", "H5"):
        spec = as_pattern(pattern)
        parents = [catalog_block("B1").plane]
        for _ in range(4, 13):
            first = {}
            for parent in parents:
                side[0] = "full"
                expected = list(_reference_grown_children(parent, spec))
                side[0] = "skip"
                walks = tuple(f.walk for f in parent.faces())
                children = list(_grown_children(parent.graph, walks, spec))
                assert [_walk_rotation(g.n, w) for g, w in children] == [
                    _least_first(rotation) for _, rotation in expected
                ]
                for graph, rotation in expected:
                    child = PlaneGraph.build(graph, rotation)
                    if _solid_outer_faces(child.faces(), child.m):
                        first.setdefault(_sphere_key(_face_walks(child)), child)
            parents = list(first.values())
        assert parents
    assert 0 < calls["skip"] < calls["full"]


def test_plane_embeddings_need_connected_graph():
    for g in (Graph.from_edges(0, []), Graph.from_edges(3, [(0, 1)])):
        with pytest.raises(ValueError, match="connected"):
            list(plane_embeddings(g))


def test_plane_embeddings_triconnected_unique():
    # Whitney: the embedding and its mirror, one sphere embedding up to
    # reflection
    planes = list(plane_embeddings(Graph.complete(4)))
    assert len(planes) == 2
    assert len({_sphere_key(_face_walks(pg)) for pg in planes}) == 1


def test_plane_embeddings_reject_non_planar_graphs():
    k5 = Graph.complete(5)
    k33 = Graph.from_edges(6, [(u, v) for u in range(3) for v in range(3, 6)])
    for g in (k5, k33, k5.with_new_vertex([0]), k33.with_new_vertex([0])):
        with pytest.raises(ValueError, match="not planar"):
            list(plane_embeddings(g))


def test_plane_embeddings_read_only_rotation_systems(monkeypatch):
    # every embedding, of a 3-connected graph too, comes from
    # _rotation_systems; the left-right embedder is never asked
    def refuse(*args):
        raise AssertionError("plane_embeddings called embed")

    monkeypatch.setattr(embedding, "embed", refuse)
    graphs = [
        g
        for n in range(1, 7)
        for g in enumerate_graphs(n, connected=True, planar=True)
    ]
    graphs += [Graph.complete(4), _octahedron(), _cube()]
    for g in graphs:
        rotations = [pg.rotation for pg in plane_embeddings(g)]
        assert rotations == _rotation_systems(g), g.edges


def test_plane_embeddings_dedupe():
    # the star's two rotation systems are mirror images: one sphere key
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    planes = list(plane_embeddings(star))
    assert len(planes) == 2
    assert len({_sphere_key(_face_walks(pg)) for pg in planes}) == 1


def test_outer_variants_cover_faces():
    pg = embed(Graph.complete(4))
    variants = list(outer_variants(pg))
    assert len(variants) == len(pg.faces())
    assert {v.outer.vertices for v in variants} == {
        f.vertices for f in pg.faces()
    }


def test_random_plane_corpus_deterministic():
    first = [pg.graph for pg in random_plane_corpus(40, max_n=10, seed=3)]
    second = [pg.graph for pg in random_plane_corpus(40, max_n=10, seed=3)]
    assert [canonical_form(g) for g in first] == [
        canonical_form(g) for g in second
    ]
    other = [pg.graph for pg in random_plane_corpus(40, max_n=10, seed=4)]
    assert [canonical_form(g) for g in first] != [
        canonical_form(g) for g in other
    ]
    assert all(g.n <= 10 and g.is_connected() for g in first)


def test_random_plane_corpus_stream_is_pinned():
    # every plane's JSON, as networkx's Pruefer decoder and planarity test
    # gave them before the first-party ones replaced both
    digest = hashlib.sha256()
    for pg in random_plane_corpus(400, seed=0):
        digest.update(pg.to_json().encode() + b"\n")
    assert digest.hexdigest() == (
        "0b5eaa9a8d7534ae071803cf5be3128f937f11d9dd3441aa0ee6d2ed6830ff96"
    )


def test_prufer_tree_edges_match_networkx():
    for n in range(2, 7):
        for seq in product(range(n), repeat=n - 2):
            tree = nx.from_prufer_sequence(list(seq))
            expected = {(min(e), max(e)) for e in tree.edges}
            assert _prufer_tree_edges(n, seq) == expected, seq


def test_counting_identity_verifier():
    planes = list(random_plane_corpus(200, max_n=10, seed=1))
    assert verify_counting_identity(planes) == ()


# -- lemma scans ----------------------------------------------------------------

def test_scan_h4_component_density_clean():
    assert scan_h4_component_density() == ()


def test_scan_h5_component_density_clean():
    violations, equality_hits = scan_h5_component_density()
    assert violations == ()
    assert equality_hits == 62


def _level_of(order: int, host: Graph):
    """A stand-in for ``_last_level`` holding one host graph at ``order``,
    as a node whose recipe holds its searched embeddings and no new
    vertex, so the scan's filter and the rotation read-back still run."""
    node = (host, tuple(range(host.n)), [], (_reference_embeddings(host), 0))
    return lambda tree: [node] if tree.limit == order else []


@pytest.mark.parametrize(
    ("block", "note"),
    [("B9", "above 1"), ("B8", "neither B5 nor B2p")],
)
def test_scan_h5_component_density_reports(monkeypatch, block, note):
    # B9 (the octahedron) has density 7/6; B8 has density 1 but is
    # neither B5 nor B2p
    host = catalog_block(block).graph
    monkeypatch.setattr(search, "_last_level", _level_of(6, host))
    violations, _ = scan_h5_component_density()
    assert violations and all(note in v for v in violations)


def test_scan_h4_component_density_reports(monkeypatch):
    # a 7-vertex triangulation has density 9/7 above 6/7
    octahedron = [
        (u, v) for u, v in combinations(range(6), 2) if v != u + 1 or u % 2
    ]
    host = Graph.from_edges(7, octahedron + [(0, 6), (2, 6), (4, 6)])
    assert host.m == 3 * 7 - 6
    monkeypatch.setattr(search, "_last_level", _level_of(7, host))
    violations = scan_h4_component_density()
    assert violations
    assert all("above (6|D|-12)/(5|D|) = 6/7" in v for v in violations)


def _counted(monkeypatch, name: str) -> list[int]:
    """Count the calls the search module makes to one of its names."""
    calls = [0]
    real = getattr(search, name)

    def counting(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(search, name, counting)
    return calls


def test_density_scans_decompose_each_plane_once(monkeypatch):
    calls = _counted(monkeypatch, "decompose")
    assert scan_h4_component_density() == ()
    assert calls[0] == 2440
    calls[0] = 0
    assert scan_h5_component_density() == ((), 62)
    assert calls[0] == 2456


def test_theta_scan_tests_each_host_once(monkeypatch):
    calls = _counted(monkeypatch, "is_free")
    assert scan_theta_pairs() == ()
    assert calls[0] == 299


def test_theta_pair_laws_reject_non_free_corpus():
    # a triangle and a Theta4 joined by a bridge contain C3|Theta4
    g = Graph.from_edges(
        7,
        [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 3), (3, 5)],
    )
    with pytest.raises(SearchError):
        verify_theta_pair_laws([embed(g)])


def test_theta_pair_laws_accept_free_plane():
    from ptl.families import k2_plus_matching

    assert verify_theta_pair_laws([k2_plus_matching(12).plane]) == ()
