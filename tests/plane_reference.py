"""The edge-insertion search for rotation systems: the tests'
independent arbiter for the embeddings that :mod:`ptl.search` derives by
its corner rule.

:func:`_rotation_systems` adds the edges of a connected graph one at a
time, each into corners that lie on one face, and shares no code with
the corner rule of :func:`ptl.search._split_systems`; it is itself
checked against a brute force over every rotation system.
"""

from __future__ import annotations

from typing import Iterator

from ptl.embedding import Graph, PlaneGraph, _dart_faces


def _insertion_order(g: Graph) -> list[tuple[int, int, bool]]:
    """Edges of a connected graph as ``(old, other, is_tree)`` steps.

    Vertices are taken in breadth-first order from 0.  Each new vertex
    arrives by a tree edge from its first reached neighbour, followed at
    once by closing edges to its other reached neighbours, so cycles
    close as early as possible and keep the partial embeddings few.
    """
    order = [0]
    reached = {0}
    for v in order:
        for w in sorted(g.adjacency[v]):
            if w not in reached:
                reached.add(w)
                order.append(w)
    position = {v: i for i, v in enumerate(order)}
    steps: list[tuple[int, int, bool]] = []
    for w in order[1:]:
        earlier = sorted(
            (u for u in g.adjacency[w] if position[u] < position[w]),
            key=position.__getitem__,
        )
        steps.append((earlier[0], w, True))
        steps.extend((u, w, False) for u in earlier[1:])
    return steps


def _rotation_systems(g: Graph) -> list[tuple[tuple[int, ...], ...]]:
    """Every planar rotation system of a connected graph, sorted.

    Edges are added in the order of :func:`_insertion_order`.  A tree
    edge goes into any corner of its old endpoint; a closing edge joins
    two corners, one at each endpoint, that lie on one face, and splits
    that face.  Every prefix therefore stays plane, so each planar rotation
    system is reached exactly once and none is rejected (the face and
    corner bookkeeping of Boyer and Myrvold's edge-addition planarity
    test, JGAA 8(3), 2004).  Each rotation is rotated to start at its
    smallest neighbour.  A non-planar graph has none.

    Raises:
        ValueError: If ``g`` is empty or disconnected.
    """
    if not g.is_connected():
        raise ValueError("plane embeddings need a connected graph")
    steps = _insertion_order(g)
    rot: list[list[int]] = [[] for _ in range(g.n)]
    found: list[tuple[tuple[int, ...], ...]] = []

    def extend(k: int) -> None:
        if k == len(steps):
            system = []
            for r in rot:
                i = r.index(min(r)) if r else 0
                system.append(tuple(r[i:] + r[:i]))
            found.append(tuple(system))
            return
        u, w, is_tree = steps[k]
        if is_tree:
            rot[w].append(u)
            for i in range(max(1, len(rot[u]))):
                rot[u].insert(i + 1, w)
                extend(k + 1)
                rot[u].remove(w)
            rot[w].pop()
            return
        # Corner i of v sits after rot[v][i], on the face of the dart
        # leaving v to the next neighbour.
        face = _dart_faces(rot)[0]
        ru, rw = rot[u], rot[w]
        corners_u = [face[u][x] for x in ru[1:] + ru[:1]]
        corners_w = [face[w][x] for x in rw[1:] + rw[:1]]
        for i, fu in enumerate(corners_u):
            for j, fw in enumerate(corners_w):
                if fu != fw:
                    continue
                rot[u].insert(i + 1, w)
                rot[w].insert(j + 1, u)
                extend(k + 1)
                rot[u].remove(w)
                rot[w].remove(u)

    extend(0)
    return sorted(found)


def plane_embeddings(g: Graph) -> Iterator[PlaneGraph]:
    """Every sphere embedding of a connected planar graph, one per
    rotation system of :func:`_rotation_systems`, in sorted rotation
    order: a 3-connected graph yields its embedding and its mirror
    image.  The outer face is the one :meth:`PlaneGraph.build` picks.

    Raises:
        ValueError: If ``g`` is empty, disconnected or not planar.
    """
    systems = _rotation_systems(g)
    if not systems:
        raise ValueError("graph is not planar")
    for system in systems:
        yield PlaneGraph.build(g, system)
