"""Reference computations made apart from ``ptl``: networkx and closed forms.

Nothing here imports ``ptl``.  The forbidden patterns are drawn again from
their definitions, and the benchmark checks that they are isomorphic to the
program's own pattern graphs before it uses them.
"""

from __future__ import annotations

import warnings
from itertools import combinations

import networkx as nx
from networkx.algorithms.isomorphism import GraphMatcher

#: OEIS A003094: connected planar graphs on 8 unlabeled vertices.
CONNECTED_PLANAR_8 = 5974


def pattern_graphs() -> dict[str, nx.Graph]:
    """H4, H5 and H6 from their definitions."""
    # H4 = K1 + (P2 u P3): a hub joined to an edge and to a 3-vertex path.
    h4 = nx.Graph([(1, 2), (3, 4), (4, 5)] + [(0, v) for v in range(1, 6)])
    # H5: a 4-cycle 0-1-2-3 with chord 1-3, and a triangle 0-4-5 sharing
    # the vertex 0, which lies on no chord.
    h5 = nx.Graph(
        [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3), (0, 4), (4, 5), (5, 0)]
    )
    # H6: a triangle, and apart from it a 4-cycle 3-4-5-6 with chord 3-5.
    h6 = nx.Graph(
        [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3), (3, 5)]
    )
    return {"H4": h4, "H5": h5, "H6": h6}


def graph(n: int, edges) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return g


def from_graph6(code: str | bytes) -> nx.Graph:
    if isinstance(code, str):
        code = code.encode("ascii")
    return nx.from_graph6_bytes(code)


def to_graph6(g: nx.Graph) -> bytes:
    return nx.to_graph6_bytes(g, nodes=sorted(g), header=False).strip()


def edge_set(g: nx.Graph) -> set[tuple[int, int]]:
    return {(min(u, v), max(u, v)) for u, v in g.edges()}


def contains(host: nx.Graph, pattern: nx.Graph) -> bool:
    """Whether ``pattern`` is a (not necessarily induced) subgraph."""
    return GraphMatcher(host, pattern).subgraph_is_monomorphic()


def is_isomorphic(a: nx.Graph, b: nx.Graph) -> bool:
    return nx.vf2pp_is_isomorphic(a, b)


def is_planar(g: nx.Graph) -> bool:
    return nx.check_planarity(g)[0]


def every_edge_on_triangle(g: nx.Graph) -> bool:
    return all(set(g[u]) & set(g[v]) for u, v in g.edges())


def has_planar_free_extension(g: nx.Graph, pattern: nx.Graph) -> bool:
    """Whether some added edge keeps ``g`` planar and ``pattern``-free."""
    for u, v in combinations(g.nodes(), 2):
        if g.has_edge(u, v):
            continue
        h = g.copy()
        h.add_edge(u, v)
        if is_planar(h) and not contains(h, pattern):
            return True
    return False


def isomorphic_pairs(graphs: list[nx.Graph]) -> list[tuple[int, int]]:
    """Index pairs of isomorphic graphs, compared within invariant buckets."""
    buckets: dict[tuple, list[int]] = {}
    with warnings.catch_warnings():
        # networkx 3.5 changed the hash values, which only bucket here.
        warnings.simplefilter("ignore", UserWarning)
        for i, g in enumerate(graphs):
            key = (
                g.number_of_nodes(),
                g.number_of_edges(),
                tuple(sorted(d for _, d in g.degree())),
                nx.weisfeiler_lehman_graph_hash(g, iterations=3),
            )
            buckets.setdefault(key, []).append(i)
    return [
        (i, j)
        for members in buckets.values()
        for i, j in combinations(members, 2)
        if is_isomorphic(graphs[i], graphs[j])
    ]


def constructions_8() -> dict[str, nx.Graph]:
    """Planar graphs on 8 vertices built by hand; lower-bound candidates."""
    n = 8
    path = [(i, i + 1) for i in range(n - 1)]
    return {
        "path": graph(n, path),
        "cycle": graph(n, path + [(n - 1, 0)]),
        "path_square": graph(n, path + [(i, i + 2) for i in range(n - 2)]),
        "fan": graph(n, [(0, v) for v in range(1, n)] + path[1:]),
        "wheel": graph(
            n, [(0, v) for v in range(1, n)] + path[1:] + [(1, n - 1)]
        ),
        "k2_join_matching": graph(
            n,
            [(0, 1)]
            + [(h, v) for h in (0, 1) for v in range(2, n)]
            + [(v, v + 1) for v in range(2, n, 2)],
        ),
        "k2_join_path": graph(
            n, [(0, 1)] + [(h, v) for h in (0, 1) for v in range(2, n)]
            + [(v, v + 1) for v in range(2, n - 1)],
        ),
        "k2_join_independent": graph(
            n, [(0, 1)] + [(h, v) for h in (0, 1) for v in range(2, n)]
        ),
        "cube": nx.convert_node_labels_to_integers(nx.hypercube_graph(3)),
        "antiprism": graph(
            n,
            [(i, (i + 1) % 4) for i in range(4)]
            + [(4 + i, 4 + (i + 1) % 4) for i in range(4)]
            + [(i, 4 + i) for i in range(4)]
            + [(i, 4 + (i + 1) % 4) for i in range(4)],
        ),
    }
