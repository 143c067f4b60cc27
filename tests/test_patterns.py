"""Pattern construction and the subgraph matcher."""

from __future__ import annotations

from itertools import permutations

import pytest
from hypothesis import assume, given, strategies as st

from conftest import graphs
from ptl.embedding import Graph, is_isomorphic
from ptl.patterns import (
    as_pattern,
    build_pattern,
    contains_subgraph,
    contains_subgraph_at,
    contains_subgraph_bruteforce,
    fan,
    fixture,
    friendship,
    is_free,
    k1_join_linear_forest,
    matching_plus,
    theta,
    wheel,
)
from ptl.search import enumerate_graphs

# Orders and sizes of the named catalog patterns.
_SHAPES = {
    "H1": (4, 6), "H2": (5, 7), "H3": (5, 8), "H4": (6, 8),
    "H5": (6, 8), "H6": (7, 8), "Theta4": (4, 5), "Theta5": (5, 6),
    "D1": (6, 10), "D2": (6, 10), "D3": (6, 10),
    "D11": (7, 13), "D12": (7, 14),
}


def test_catalog_shapes():
    for name, (n, m) in _SHAPES.items():
        g = build_pattern(name).graph
        assert (g.n, g.m) == (n, m), name


def test_grammar_families():
    assert build_pattern("C5").graph.m == 5
    assert build_pattern("P4").graph.m == 3
    assert build_pattern("K4").graph.m == 6
    assert build_pattern("W5").graph.m == 10
    assert build_pattern("F5").graph.m == 9
    assert build_pattern("Friendship2").graph.m == 6
    assert build_pattern("MatchingPlus2").graph.n == 6
    assert build_pattern("MatchingPlus2").graph.m == 11


def test_union_grammar():
    p = build_pattern("C3|Theta4")
    assert p.graph.n == 7 and p.graph.m == 8
    assert is_isomorphic(p.graph, build_pattern("H6").graph)
    with pytest.raises(ValueError):
        build_pattern("C3+Theta4")
    with pytest.raises(ValueError):
        build_pattern("Bogus9")


def test_parametric_index_is_bounded(monkeypatch):
    # an index past the limit is refused before any graph is built
    assert build_pattern("C1000").graph.n == 1000

    for kind in ("cycle", "complete"):
        build = getattr(Graph, kind)

        def guarded(n, build=build):
            assert n <= 1000, f"built a pattern on {n} vertices"
            return build(n)

        monkeypatch.setattr(Graph, kind, staticmethod(guarded))
    for name in ("C1001", "K1001", "c1001|K3"):
        with pytest.raises(ValueError, match="exceeds the limit 1000"):
            build_pattern(name)


def test_helper_builders():
    assert theta(4).m == 5 and theta(5).m == 6
    with pytest.raises(ValueError):
        theta(6)
    assert wheel(5).n == 6 and wheel(5).m == 10
    assert fan(5).n == 6 and fan(5).m == 9
    assert friendship(3).n == 7 and friendship(3).m == 9
    assert matching_plus(3).n == 8 and matching_plus(3).m == 16
    lf = k1_join_linear_forest((2, 3))
    assert is_isomorphic(lf, build_pattern("H4").graph)


def test_h6_is_disjoint_union_semantics():
    # triangle alone: no H6; triangle + separate Theta4: H6 present
    tri = Graph.cycle(3)
    assert is_free(tri, "H6")
    both = Graph.from_edges(
        7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (6, 3), (3, 5)]
    )
    assert not is_free(both, "H6")
    # sharing one vertex is NOT a disjoint union
    shared = Graph.from_edges(
        6, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (4, 5), (5, 0), (3, 5)]
    )
    assert contains_subgraph(shared, "C3") is not None
    assert contains_subgraph(shared, "Theta4") is not None
    assert is_free(shared, "H6")


def test_witness_is_an_embedding():
    host = Graph.complete(4)
    spec = build_pattern("Theta4")
    witness = contains_subgraph(host, spec)
    assert witness is not None
    assert len(set(witness.values())) == spec.graph.n
    for u in range(spec.graph.n):
        for v in spec.graph.adjacency[u]:
            assert witness[v] in host.adjacency[witness[u]]


def test_anchor_variant():
    # P5 contains P3 anchored anywhere, C3 nowhere
    host = Graph.path(5)
    for anchor in range(5):
        assert contains_subgraph_at(host, "P3", anchor) is not None
        assert contains_subgraph_at(host, "C3", anchor) is None
    # anchored match must use the anchor
    hit = contains_subgraph_at(host, "P2", 4)
    assert hit is not None and 4 in hit.values()


def _anchors_covered(host: Graph, p: Graph) -> set[int]:
    """Host vertices in the image of some copy of ``p``, by trying every
    injection."""
    covered: set[int] = set()
    for image in permutations(range(host.n), p.n):
        if all(host.has_edge(image[u], image[v]) for u, v in p.edges):
            covered.update(image)
    return covered


def test_anchored_matcher_agrees_with_bruteforce():
    # the patterns are interleaved on every host, so per-pattern cached
    # state keyed by anything but the pattern graph gives wrong answers;
    # H4 and H5 share (n, m), and so do C4 and the raw paw below, whose
    # pendant vertex 0 is an orbit C4 does not have
    paw = Graph.from_edges(4, [(0, 1), (1, 2), (1, 3), (2, 3)])
    pats = [
        "H4", build_pattern("H5"), "H6", "Theta4", build_pattern("C4"), paw,
    ]
    outcomes = set()
    for n in range(1, 7):
        for host in enumerate_graphs(n, connected=True):
            for pat in pats:
                p = as_pattern(pat).graph
                covered = _anchors_covered(host, p)
                for a in range(host.n):
                    hit = contains_subgraph_at(host, pat, a)
                    assert (hit is not None) == (a in covered), (
                        host.edges, p.edges, a,
                    )
                    outcomes.add(hit is None)
                    if hit is None:
                        continue
                    assert sorted(hit) == list(range(p.n))
                    assert len(set(hit.values())) == p.n
                    assert a in hit.values()
                    assert all(host.has_edge(hit[u], hit[v]) for u, v in p.edges)
    assert outcomes == {True, False}


def test_known_freeness():
    assert is_free(Graph.cycle(5), "C3")
    assert not is_free(Graph.complete(4), "C3")
    assert not is_free(Graph.complete(4), "Theta4")
    assert is_free(Graph.cycle(4), "Theta4")
    # H1 is the fully merged combination (K4): present in W3, absent in W5
    assert is_free(Graph.complete(4), "H4")
    assert not is_free(wheel(3), "H1")
    assert is_free(wheel(5), "H1")


@pytest.mark.parametrize("name", ["C3", "Theta4", "H4", "H5", "H6"])
def test_pattern_not_free_of_itself(name):
    g = build_pattern(name).graph
    assert not is_free(g, name)
    assert is_free(Graph.from_edges(g.n, []), name)


# -- matcher consistency against brute force ---------------------------------

@given(graphs(min_n=1, max_n=6), st.sampled_from(["C3", "P4", "Theta4", "K4"]))
def test_matcher_agrees_with_bruteforce(host, name):
    spec = build_pattern(name)
    fast = contains_subgraph(host, spec)
    slow = contains_subgraph_bruteforce(host, spec)
    assert (fast is None) == (slow is None)


@given(graphs(min_n=4, max_n=7))
def test_h_patterns_monotone_under_edge_removal(host):
    # removing edges can never create a pattern copy
    assume(host.m >= 1)
    edges = [(u, v) for u in range(host.n) for v in host.adjacency[u] if u < v]
    sub = Graph.from_edges(host.n, edges[:-1])
    for name in ("C3", "Theta4"):
        if is_free(host, name):
            assert is_free(sub, name)


def test_as_pattern_round_trips():
    spec = build_pattern("H5")
    assert as_pattern(spec) is spec
    assert as_pattern("H5").name == "H5"
    raw = build_pattern("C4").graph
    wrapped = as_pattern(raw)
    assert wrapped.graph.m == 4


def test_named_patterns_are_built_once():
    # the table of named patterns is built on the first lookup only
    for name in ("H1", "H6", "theta4", "D12"):
        assert as_pattern(name).graph is as_pattern(name).graph


def test_fixture_names():
    for name in ("D1", "D2", "D3", "D11", "D12"):
        g = fixture(name)
        assert g.n == _SHAPES[name][0]
    with pytest.raises(ValueError):
        fixture("D4")
