"""Seeded random connected plane graphs, built without ``ptl``.

A graph of order ``n`` starts as a random triangulation: vertices are
inserted into uniformly chosen faces of a triangle, then ``2n`` random edge
flips break up the stacked structure.  A randomized depth-first spanning
tree keeps the graph connected, and each other edge survives with
probability ``keep``, so ``keep = 0`` gives a tree and ``keep = 1`` the
triangulation.  Vertices are relabeled at random at the end.
"""

from __future__ import annotations

import random


def random_plane_graph(
    n: int, keep: float, rng: random.Random
) -> list[tuple[int, int]]:
    """Edges of a connected plane graph on ``n >= 3`` vertices."""
    # face[(u, v)] = w: the face to the left of dart u->v is u, v, w.
    face = {(0, 1): 2, (1, 2): 0, (2, 0): 1, (0, 2): 1, (2, 1): 0, (1, 0): 2}
    adj: list[set[int]] = [{1, 2}, {0, 2}, {0, 1}]
    for x in range(3, n):
        a, b = rng.choice(sorted(face))
        c = face[(a, b)]
        for u, v in ((a, b), (b, c), (c, a)):
            del face[(u, v)]
            face[(u, v)] = x
            face[(v, x)] = u
            face[(x, u)] = v
        adj.append({a, b, c})
        for u in (a, b, c):
            adj[u].add(x)
    for _ in range(2 * n):
        u, v = rng.choice(sorted(face))
        a, b = face[(u, v)], face[(v, u)]
        if a == b or b in adj[a] or len(adj[u]) <= 3 or len(adj[v]) <= 3:
            continue
        for dart in ((u, v), (v, a), (a, u), (v, u), (u, b), (b, v)):
            del face[dart]
        face.update({(b, v): a, (v, a): b, (a, b): v,
                     (a, u): b, (u, b): a, (b, a): u})
        adj[u].discard(v)
        adj[v].discard(u)
        adj[a].add(b)
        adj[b].add(a)

    root = rng.randrange(n)
    seen = {root}
    tree: set[tuple[int, int]] = set()
    stack = [root]
    while stack:
        v = stack[-1]
        fresh = [u for u in sorted(adj[v]) if u not in seen]
        if not fresh:
            stack.pop()
            continue
        u = rng.choice(fresh)
        seen.add(u)
        tree.add((min(u, v), max(u, v)))
        stack.append(u)
    edges = sorted(tree)
    edges += [
        (u, v) for u in range(n) for v in sorted(adj[u])
        if u < v and (u, v) not in tree and rng.random() < keep
    ]
    label = list(range(n))
    rng.shuffle(label)
    return sorted(
        (min(label[u], label[v]), max(label[u], label[v])) for u, v in edges
    )
