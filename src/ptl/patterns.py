"""Forbidden-configuration catalog and subgraph containment.

Containment is in the ordinary (non-induced) sense throughout: a pattern
``P`` occurs in a host ``G`` when some injection of ``V(P)`` into ``V(G)``
maps every edge of ``P`` onto an edge of ``G``.

The named patterns are small graphs built from triangles and
theta-graphs:

* ``H1`` -- the complete graph on four vertices.
* ``H2`` -- a triangle and a four-cycle-with-chord sharing one edge
  (5 vertices, 7 edges).
* ``H3`` -- K4 plus a fifth vertex adjacent to two of its vertices.
* ``H4`` -- a hub joined to the disjoint union of a 2-vertex path and a
  3-vertex path (6 vertices, 8 edges).
* ``H5`` -- a four-cycle-with-chord and a triangle sharing one vertex of
  theta-degree two (6 vertices, 8 edges).
* ``H6`` -- the disjoint union of a triangle and a four-cycle-with-chord
  (7 vertices, 8 edges).

plus parametric families (cycles, paths, wheels, fans, friendship
graphs, joins with matchings and linear forests) and the five fixture
graphs ``D1, D2, D3, D11, D12`` used to classify how two
edge-on-two-triangle configurations can overlap.

The module offers a fast backtracking matcher (:func:`contains_subgraph`,
:func:`contains_subgraph_at`), its negation :func:`is_free`, which adds no
filters of its own, and an independent brute-force oracle
(:func:`contains_subgraph_bruteforce`) that the test suite uses as the
arbiter for the fast path.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from .embedding import Graph, disjoint_union, join, vertex_orbits

__all__ = [
    "PatternSpec",
    "as_pattern",
    "build_pattern",
    "contains_subgraph",
    "contains_subgraph_at",
    "contains_subgraph_bruteforce",
    "fan",
    "fixture",
    "friendship",
    "is_free",
    "k1_join_linear_forest",
    "matching_plus",
    "theta",
    "wheel",
]


# =========================================================================
# Pattern constructions
# =========================================================================


def theta(k: int) -> Graph:
    """The k-cycle with one chord making two internally disjoint paths.

    Only ``k`` in {4, 5} is accepted: for those the graph is unique up to
    isomorphism (any chord of a 4- or 5-cycle is equivalent), while for
    longer cycles different chord spans give non-isomorphic graphs.
    """
    if k not in (4, 5):
        raise ValueError(
            f"theta({k}) is ambiguous; only k in {{4, 5}} is supported"
        )
    edges = [(i, (i + 1) % k) for i in range(k)] + [(0, 2)]
    return Graph.from_edges(k, edges)


def wheel(k: int) -> Graph:
    """Wheel: a hub joined to every vertex of a k-cycle (k >= 3)."""
    return join(Graph(1, ()), Graph.cycle(k))


def fan(k: int) -> Graph:
    """Fan: a hub joined to every vertex of a path on k vertices (k >= 2)."""
    if k < 2:
        raise ValueError(f"fan({k}) needs a path on at least 2 vertices")
    return join(Graph(1, ()), Graph.path(k))


def friendship(t: int) -> Graph:
    """Friendship graph: t triangles pairwise sharing a single hub."""
    if t < 1:
        raise ValueError(f"friendship({t}) needs t >= 1")
    edges = []
    for i in range(t):
        a, b = 1 + 2 * i, 2 + 2 * i
        edges += [(0, a), (0, b), (a, b)]
    return Graph.from_edges(2 * t + 1, edges)


def matching_plus(t: int) -> Graph:
    """An edge joined to a t-edge matching (every cross edge present)."""
    if t < 1:
        raise ValueError(f"matching_plus({t}) needs t >= 1")
    matching = Graph.from_edges(2 * t, [(2 * i, 2 * i + 1) for i in range(t)])
    return join(Graph.from_edges(2, [(0, 1)]), matching)


def k1_join_linear_forest(sizes: Sequence[int]) -> Graph:
    """A hub joined to a disjoint union of paths with the given orders."""
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError("path orders must be positive")
    forest = Graph(0, ())
    for s in sizes:
        forest = disjoint_union(forest, Graph.path(s))
    return join(Graph(1, ()), forest)


def _h2() -> Graph:
    # Triangle {0,1,2}; theta on {1,2,3,4} with cycle 1-2-3-4 and chord 2-4;
    # the shared edge is 12.
    return Graph.from_edges(
        5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (1, 4), (2, 4)]
    )


def _h3() -> Graph:
    return Graph.from_edges(
        5,
        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4), (1, 4)],
    )


def _h5() -> Graph:
    # Theta with cycle 1-2-3-4 and chord 2-4 (vertices 1 and 3 lie on no
    # chord); a triangle {0, 1, 5} attached at vertex 1 only.
    return Graph.from_edges(
        6,
        [(1, 2), (2, 3), (3, 4), (1, 4), (2, 4), (0, 1), (0, 5), (1, 5)],
    )


_FIXTURES: dict[str, tuple[int, list[tuple[int, int]]]] = {
    # Two edge-on-two-triangle configurations overlapping in two vertices.
    # D1: the shared pair is the endpoints of both base edges' common
    # neighbours u, v; D2: the shared pair is the two apices x, y;
    # D3: one of each.  D11 and D12 extend D1 by a third base edge.
    "D1": (
        6,
        [(0, 1), (4, 5)]
        + [(0, w) for w in (2, 3, 4, 5)]
        + [(1, w) for w in (2, 3, 4, 5)],
    ),
    "D2": (
        6,
        [(2, 3), (4, 5)]
        + [(0, w) for w in (2, 3, 4, 5)]
        + [(1, w) for w in (2, 3, 4, 5)],
    ),
    "D3": (
        6,
        [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (4, 5), (2, 4), (2, 5),
         (0, 4), (0, 5)],
    ),
    "D11": (
        7,
        [(0, 1), (2, 3), (3, 4)]
        + [(5, w) for w in (0, 1, 2, 3, 4)]
        + [(6, w) for w in (0, 1, 2, 3, 4)],
    ),
    "D12": (
        7,
        [(0, 1), (2, 3), (3, 4), (4, 5), (0, 3), (0, 4)]
        + [(5, w) for w in (0, 1, 2, 3)]
        + [(6, w) for w in (0, 1, 2, 3)],
    ),
}


def fixture(name: str) -> Graph:
    """One of the named overlap fixtures ``D1, D2, D3, D11, D12``."""
    try:
        n, edges = _FIXTURES[name]
    except KeyError:
        raise ValueError(f"unknown fixture {name!r}") from None
    return Graph.from_edges(n, edges)


def _fixed_patterns() -> dict[str, Graph]:
    return {
        "H1": Graph.complete(4),
        "H2": _h2(),
        "H3": _h3(),
        "H4": k1_join_linear_forest([2, 3]),
        "H5": _h5(),
        "H6": disjoint_union(Graph.cycle(3), theta(4)),
        "Theta4": theta(4),
        "Theta5": theta(5),
        "D1": fixture("D1"),
        "D2": fixture("D2"),
        "D3": fixture("D3"),
        "D11": fixture("D11"),
        "D12": fixture("D12"),
    }


@dataclass(frozen=True)
class PatternSpec:
    """A named pattern: a display name plus the pattern graph."""

    name: str
    graph: Graph


_PARAM_RE = re.compile(
    r"^(C|P|K|W|F|Friendship|MatchingPlus)(\d+)$", re.IGNORECASE
)
#: Largest index a parametric pattern name may give; checked before the
#: graph is built, which for a large index would take all memory.
_MAX_INDEX = 1000


def build_pattern(name: str) -> PatternSpec:
    """Parse a pattern name into a :class:`PatternSpec`.

    Supported names (case-insensitive): ``H1``..``H6``; ``Theta4``,
    ``Theta5``; ``C<k>`` cycles, ``P<k>`` paths, ``K<k>`` complete graphs,
    ``W<k>`` wheels, ``F<k>`` fans; ``Friendship<t>``;
    ``MatchingPlus<t>``; the fixtures ``D1, D2, D3, D11, D12``; and
    disjoint unions spelled ``A|B`` (e.g. ``C3|Theta4``).  A parametric
    index is at most 1000.
    """
    text = name.strip()
    if "|" in text:
        parts = [p.strip() for p in text.split("|")]
        if any(not p for p in parts):
            raise ValueError(f"malformed union pattern {name!r}")
        graphs = [build_pattern(p).graph for p in parts]
        g = graphs[0]
        for h in graphs[1:]:
            g = disjoint_union(g, h)
        return PatternSpec("|".join(parts), g)
    fixed = _fixed_patterns()
    for key, g in fixed.items():
        if text.lower() == key.lower():
            return PatternSpec(key, g)
    m = _PARAM_RE.match(text)
    if m:
        kind, num = m.group(1), int(m.group(2))
        if num > _MAX_INDEX:
            raise ValueError(
                f"bad pattern {name!r}: index {num} exceeds the limit "
                f"{_MAX_INDEX}"
            )
        kind_norm = kind.upper() if len(kind) == 1 else kind.capitalize()
        if kind_norm == "Matchingplus":
            kind_norm = "MatchingPlus"
        try:
            if kind_norm == "C":
                return PatternSpec(f"C{num}", Graph.cycle(num))
            if kind_norm == "P":
                return PatternSpec(f"P{num}", Graph.path(num))
            if kind_norm == "K":
                if num < 1:
                    raise ValueError("complete graph needs >= 1 vertex")
                return PatternSpec(f"K{num}", Graph.complete(num))
            if kind_norm == "W":
                return PatternSpec(f"W{num}", wheel(num))
            if kind_norm == "F":
                return PatternSpec(f"F{num}", fan(num))
            if kind_norm == "Friendship":
                return PatternSpec(f"Friendship{num}", friendship(num))
            if kind_norm == "MatchingPlus":
                return PatternSpec(f"MatchingPlus{num}", matching_plus(num))
        except ValueError as exc:
            raise ValueError(f"bad pattern {name!r}: {exc}") from exc
    raise ValueError(f"unknown pattern {name!r}")


def as_pattern(pattern: "PatternSpec | Graph | str") -> PatternSpec:
    """Coerce a pattern argument to a :class:`PatternSpec`."""
    if isinstance(pattern, PatternSpec):
        return pattern
    if isinstance(pattern, Graph):
        return PatternSpec(f"<graph n={pattern.n} m={pattern.m}>", pattern)
    if isinstance(pattern, str):
        return build_pattern(pattern)
    raise TypeError(f"cannot interpret {pattern!r} as a pattern")


# =========================================================================
# Matching
# =========================================================================


@functools.lru_cache(maxsize=256)
def _matcher_order(p: Graph, start: int | None = None) -> tuple[int, ...]:
    """Deterministic branching order: most-constrained vertex first.

    The first vertex is ``start`` (or the highest-degree vertex); each
    subsequent vertex maximises (placed neighbours, degree), ties broken
    by lowest index.  Cached by the pattern graph, like
    :func:`_anchored_orders`, since every match of one pattern uses it.
    """
    placed: list[int] = []
    placed_set: set[int] = set()
    remaining = set(range(p.n))

    def score(v: int) -> tuple[int, int, int]:
        link = sum(1 for u in p.adjacency[v] if u in placed_set)
        return (link, len(p.adjacency[v]), -v)

    if start is not None:
        placed.append(start)
        placed_set.add(start)
        remaining.discard(start)
    while remaining:
        v = max(remaining, key=score)
        placed.append(v)
        placed_set.add(v)
        remaining.discard(v)
    return tuple(placed)


def _extend(
    p: Graph,
    order: Sequence[int],
    pos: int,
    assign: list[int],
    used: int,
    hbits: Sequence[int],
    hdeg: Sequence[int],
    host_n: int,
) -> bool:
    if pos == len(order):
        return True
    v = order[pos]
    pdeg = len(p.adjacency[v])
    mask = ~used & ((1 << host_n) - 1)
    for u in p.adjacency[v]:
        a = assign[u]
        if a >= 0:
            mask &= hbits[a]
    while mask:
        bit = mask & -mask
        mask ^= bit
        h = bit.bit_length() - 1
        if hdeg[h] < pdeg:
            continue
        assign[v] = h
        if _extend(p, order, pos + 1, assign, used | bit, hbits, hdeg, host_n):
            return True
        assign[v] = -1
    return False


def contains_subgraph(
    host: Graph, pattern: "PatternSpec | Graph | str"
) -> dict[int, int] | None:
    """Find one occurrence of ``pattern`` in ``host``.

    Returns:
        A witness mapping ``{pattern vertex: host vertex}`` sending every
        pattern edge onto a host edge, or ``None`` if there is none.  The
        witness is deterministic: the matcher branches over host vertices
        in increasing index along a fixed most-constrained-first vertex
        order, and returns the first embedding found.
    """
    p = as_pattern(pattern).graph
    if p.n > host.n or p.m > host.m:
        return None
    if p.n == 0:
        return {}
    order = _matcher_order(p)
    assign = [-1] * p.n
    if _extend(
        p, order, 0, assign, 0, host.adj_bits,
        [b.bit_count() for b in host.adj_bits], host.n,
    ):
        return {v: assign[v] for v in range(p.n)}
    return None


@functools.lru_cache(maxsize=256)
def _anchored_orders(p: Graph) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Per automorphism orbit of ``p``, its smallest vertex ``v0`` and the
    matcher order started at ``v0``, orbits by increasing ``v0``.

    Cached by the pattern graph itself (vertex labels included), so the
    canonical search behind the orbits runs once per pattern rather than
    once per anchored match.
    """
    return tuple(
        (v0, _matcher_order(p, start=v0))
        for v0 in (min(orbit) for orbit in vertex_orbits(p))
    )


def contains_subgraph_at(
    host: Graph, pattern: "PatternSpec | Graph | str", anchor: int
) -> dict[int, int] | None:
    """Find an occurrence of ``pattern`` whose image contains ``anchor``.

    Useful for incremental freeness checks: a graph that was free before a
    vertex was added can only contain the pattern through that vertex.
    Pattern vertices are tried one representative per automorphism orbit.
    """
    p = as_pattern(pattern).graph
    if p.n > host.n or p.m > host.m or p.n == 0:
        return None
    hbits = host.adj_bits
    hdeg = [b.bit_count() for b in hbits]
    for v0, order in _anchored_orders(p):
        if hdeg[anchor] < len(p.adjacency[v0]):
            continue
        assign = [-1] * p.n
        assign[v0] = anchor
        if _extend(
            p, order, 1, assign, 1 << anchor, hbits, hdeg, host.n
        ):
            return {v: assign[v] for v in range(p.n)}
    return None


def is_free(host: Graph, pattern: "PatternSpec | Graph | str") -> bool:
    """Whether ``host`` contains no copy of ``pattern``:
    ``contains_subgraph(host, pattern) is None``.

    It has no filters of its own.  The matcher already rejects a host
    with too few vertices or edges, and a host vertex of too low degree
    as soon as it is tried.
    """
    return contains_subgraph(host, pattern) is None


def contains_subgraph_bruteforce(
    host: Graph, pattern: "PatternSpec | Graph | str"
) -> dict[int, int] | None:
    """Reference matcher trying every injection (small hosts only).

    Exponentially slower than :func:`contains_subgraph`; kept as an
    independent arbiter for testing the fast matcher.
    """
    import itertools

    p = as_pattern(pattern).graph
    if p.n > host.n:
        return None
    if p.n == 0:
        return {}
    for image in itertools.permutations(range(host.n), p.n):
        if all(host.has_edge(image[u], image[v]) for u, v in p.edges):
            return {v: image[v] for v in range(p.n)}
    return None
