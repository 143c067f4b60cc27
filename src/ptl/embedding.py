"""Abstract graphs, plane embeddings, and canonical forms.

This module is the structural foundation of the package:

* :class:`Graph` -- an immutable, hashable, simple undirected graph on
  vertices ``0..n-1``.
* Canonical labeling via individualization--refinement (colour refinement
  plus a backtracking search with automorphism pruning), exposed as
  :func:`canonical_form`, :func:`canonical_labeling`,
  :func:`automorphism_generators` and :func:`vertex_orbits`.
* :class:`PlaneGraph` -- an immutable combinatorial plane embedding: a
  rotation system (clockwise neighbour order around every vertex) plus a
  designated outer face.  Its faces come from one dart traversal, or
  from the face walks its maker already holds.
* :func:`_least_plane_code` -- the integer breadth-first plane code of a
  rotation system and of its mirror image, read straight from face
  walks; :meth:`PlaneGraph.canonical_plane_code` and the growth census's
  sphere keys are such codes.
* :func:`embed` -- planarity test and embedding construction by Brandes'
  left-right planarity test (a first-party port of networkx 3.6.1's that
  gives the same rotations), raising :class:`NonPlanarError` with a
  Kuratowski witness when the input is not planar; :func:`is_planar` runs
  the test's verdict alone.
* :func:`plane_graph_from_positions` -- build a plane graph from straight
  line (or mildly bent) drawing coordinates; used by the generators of the
  fixed catalog drawings.

Conventions
-----------
Rotations list the neighbours of each vertex in *clockwise* order as drawn
on screen (y axis pointing up).  The successor rule ``next(u -> v) =
(v, w)`` with ``w`` immediately after ``u`` in the rotation at ``v`` then
walks every bounded face counterclockwise and the unbounded face clockwise;
each face is the orbit of a dart under that rule.  A face is stored as its
vertex walk, normalised to the lexicographically least cyclic rotation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

__all__ = [
    "Edge",
    "Face",
    "Graph",
    "NonPlanarError",
    "PlaneGraph",
    "automorphism_generators",
    "canonical_form",
    "canonical_labeling",
    "embed",
    "is_isomorphic",
    "is_planar",
    "normalize_edge",
    "plane_graph_from_positions",
    "vertex_orbits",
]

Edge = tuple[int, int]
#: A directed half-edge ``(tail, head)``.
Dart = tuple[int, int]


def normalize_edge(u: int, v: int) -> Edge:
    """Return the endpoints of an edge as a sorted pair.

    Args:
        u: One endpoint.
        v: The other endpoint; must differ from ``u``.

    Raises:
        ValueError: If ``u == v`` (loops are not representable).
    """
    if u == v:
        raise ValueError(f"loop edge at vertex {u} is not allowed")
    return (u, v) if u < v else (v, u)


# =========================================================================
# Abstract graphs
# =========================================================================


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph on vertices ``0..n-1``.

    Attributes:
        n: Number of vertices.
        edges: Sorted tuple of normalised edges ``(u, v)`` with ``u < v``.
    """

    n: int
    edges: tuple[Edge, ...]

    @staticmethod
    def from_edges(n: int, pairs: Iterable[Sequence[int]]) -> "Graph":
        """Build a graph from an edge iterable, validating and normalising.

        Args:
            n: Number of vertices; must be >= 0.
            pairs: Iterable of 2-sequences of endpoints in ``0..n-1``.

        Returns:
            The graph with duplicate edges collapsed and edges sorted.

        Raises:
            ValueError: On negative ``n``, out-of-range endpoints, or loops.
        """
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        seen: set[Edge] = set()
        for pair in pairs:
            u, v = pair
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            seen.add(normalize_edge(u, v))
        return Graph(n, tuple(sorted(seen)))

    @staticmethod
    def spanned_by(edges: Iterable[Sequence[int]]) -> "Graph":
        """The graph an edge set spans, relabeled onto ``0..k-1`` in
        sorted order of the vertices it covers."""
        edge_list = list(edges)
        vertices = sorted({v for e in edge_list for v in e})
        index = {v: i for i, v in enumerate(vertices)}
        return Graph.from_edges(
            len(vertices), [(index[a], index[b]) for a, b in edge_list]
        )

    @staticmethod
    def complete(n: int) -> "Graph":
        """Return the complete graph K_n."""
        return Graph.from_edges(
            n, [(i, j) for i in range(n) for j in range(i + 1, n)]
        )

    @staticmethod
    def cycle(n: int) -> "Graph":
        """Return the cycle C_n (n >= 3)."""
        if n < 3:
            raise ValueError(f"a cycle needs at least 3 vertices, got {n}")
        return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])

    @staticmethod
    def path(n: int) -> "Graph":
        """Return the path on ``n`` vertices (n >= 1)."""
        if n < 1:
            raise ValueError(f"a path needs at least 1 vertex, got {n}")
        return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])

    # -- basic accessors ---------------------------------------------------

    @property
    def m(self) -> int:
        """Number of edges."""
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[frozenset[int], ...]:
        """Neighbour sets indexed by vertex."""
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return tuple(frozenset(s) for s in adj)

    @cached_property
    def adj_bits(self) -> tuple[int, ...]:
        """Neighbour sets as bitmasks (bit ``v`` of entry ``u`` = edge uv)."""
        bits = [0] * self.n
        for u, v in self.edges:
            bits[u] |= 1 << v
            bits[v] |= 1 << u
        return tuple(bits)

    def degree(self, v: int) -> int:
        """Degree of vertex ``v``."""
        return self.adj_bits[v].bit_count()

    @cached_property
    def degree_sequence(self) -> tuple[int, ...]:
        """Degrees sorted in non-increasing order."""
        return tuple(
            sorted((b.bit_count() for b in self.adj_bits), reverse=True)
        )

    def has_edge(self, u: int, v: int) -> bool:
        """Whether ``uv`` is an edge."""
        return v in self.adjacency[u]

    def is_connected(self) -> bool:
        """Whether the graph is connected (the 0-vertex graph is not)."""
        if self.n == 0:
            return False
        seen = 1
        stack = [0]
        count = 1
        adj = self.adj_bits
        while stack:
            u = stack.pop()
            fresh = adj[u] & ~seen
            while fresh:
                bit = fresh & -fresh
                fresh ^= bit
                seen |= bit
                count += 1
                stack.append(bit.bit_length() - 1)
        return count == self.n

    # -- derived graphs ----------------------------------------------------

    def relabeled(self, perm: Sequence[int]) -> "Graph":
        """Apply a vertex relabeling.

        Args:
            perm: ``perm[old] = new``; must be a permutation of ``0..n-1``.

        Returns:
            The graph with every edge ``(u, v)`` mapped to
            ``(perm[u], perm[v])``.
        """
        if sorted(perm) != list(range(self.n)):
            raise ValueError("not a permutation of the vertex set")
        # a permutation maps distinct edges to distinct edges
        edges = []
        for u, v in self.edges:
            a, b = perm[u], perm[v]
            edges.append((a, b) if a < b else (b, a))
        edges.sort()
        return Graph(self.n, tuple(edges))

    def with_new_vertex(self, neighbors: Iterable[int]) -> "Graph":
        """Add vertex ``n`` adjacent to ``neighbors`` (possibly empty).

        Only the new edges are checked; they are merged into the
        already sorted edge tuple.

        Raises:
            ValueError: If a neighbour is out of range or repeated.
        """
        n = self.n
        nbrs = sorted(neighbors)
        if nbrs and not (0 <= nbrs[0] and nbrs[-1] < n):
            raise ValueError(f"neighbours {nbrs} out of range for n={n}")
        if len(set(nbrs)) != len(nbrs):
            raise ValueError(f"repeated neighbour in {nbrs}")
        new_edges = tuple((u, n) for u in nbrs)
        return Graph(n + 1, tuple(sorted(self.edges + new_edges)))

    def without_vertex(self, v: int) -> "Graph":
        """Delete vertex ``v`` and relabel ``v+1..n-1`` down by one."""
        if not (0 <= v < self.n):
            raise ValueError(f"vertex {v} out of range")

        def shift(x: int) -> int:
            return x if x < v else x - 1

        return Graph.from_edges(
            self.n - 1,
            [(shift(a), shift(b)) for a, b in self.edges if v not in (a, b)],
        )

    def induced(self, vertices: Sequence[int]) -> "Graph":
        """Induced subgraph on ``vertices`` (relabeled to 0..k-1 in order)."""
        index = {v: i for i, v in enumerate(vertices)}
        if len(index) != len(vertices):
            raise ValueError("duplicate vertices")
        keep = set(vertices)
        return Graph.from_edges(
            len(vertices),
            [
                (index[a], index[b])
                for a, b in self.edges
                if a in keep and b in keep
            ],
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.n}, m={self.m})"


def disjoint_union(a: Graph, b: Graph) -> Graph:
    """Disjoint union; vertices of ``b`` are shifted up by ``a.n``."""
    edges = list(a.edges) + [(u + a.n, v + a.n) for u, v in b.edges]
    return Graph.from_edges(a.n + b.n, edges)


def join(a: Graph, b: Graph) -> Graph:
    """Join: disjoint union plus all edges between the two sides."""
    g = disjoint_union(a, b)
    extra = [(u, v + a.n) for u in range(a.n) for v in range(b.n)]
    return Graph.from_edges(g.n, list(g.edges) + extra)


# =========================================================================
# Canonical labeling (individualization--refinement)
# =========================================================================


def _refine_cells(adj: Sequence[int], cells: list[int], changed: int) -> list[int]:
    """Colour refinement to an equitable partition, on the colour cells
    as vertex bitmasks, in colour order.

    Each pass signs every vertex at once by its neighbour count in each
    cell, ``popcount(adj & cell)``, as the sparse sorted pairs ``(cell,
    count)`` of nonzero counts, and splits each cell into its signature
    classes in sorted signature order; the pieces of a cell keep its
    place.  The split depends only on the signatures, so the result is
    equivariant under isomorphism.  A cell can split only when one of
    its vertices has a neighbour in a cell split by the pass before (for
    the first pass: a neighbour in ``changed``), since its vertices have
    equal counts in every other cell.  So only those cells are signed,
    but each over every cell: where one vertex has a
    neighbour in a piece and another has none, their order depends on
    whether the second has neighbours in later cells, split or not.
    Stops when a pass splits nothing.
    """
    while changed:
        touched = 0
        while changed:
            bit = changed & -changed
            changed ^= bit
            touched |= adj[bit.bit_length() - 1]
        new: list[int] = []
        for cell in cells:
            if not cell & touched or not cell & (cell - 1):
                new.append(cell)
                continue
            classes: dict[tuple[int, ...], int] = {}
            rest = cell
            while rest:
                bit = rest & -rest
                rest ^= bit
                a = adj[bit.bit_length() - 1]
                # (cell, count) pairs, flattened: they sort the same
                pairs: list[int] = []
                for i, c in enumerate(cells):
                    if a & c:
                        pairs += (i, (a & c).bit_count())
                sig = tuple(pairs)
                classes[sig] = classes.get(sig, 0) | bit
            if len(classes) == 1:
                new.append(cell)
                continue
            changed |= cell
            new.extend(classes[sig] for sig in sorted(classes))
        cells = new
    return cells


def _seeded_root(adj: Sequence[int], degrees: Sequence[int]) -> list[int]:
    """The refined trivial colouring, ``_refine_cells(adj, [full],
    full)``, with its first pass read from the vertex ``degrees``.

    From the one cell, that pass signs each vertex by its degree alone,
    so it splits the cell into the degree classes in ascending order; with
    one class it splits nothing and the colouring is ``[full]``.  Else
    refinement goes on from those classes with every vertex changed.
    """
    classes: dict[int, int] = {}
    for v, d in enumerate(degrees):
        classes[d] = classes.get(d, 0) | 1 << v
    full = (1 << len(degrees)) - 1
    if len(classes) <= 1:
        return [full]
    return _refine_cells(adj, [classes[d] for d in sorted(classes)], full)


def _adj_key(n: int, adj: Sequence[int], order: Sequence[int]) -> int:
    """Upper-triangle adjacency bits of the graph relabeled by ``order``.

    ``order[i]`` is the original vertex receiving new label ``i``; the
    result packs the bits ``(0,1), (0,2), (1,2), (0,3), ...`` (column
    order) into one integer, most significant bit first.
    """
    key = 0
    for j in range(1, n):
        aj = adj[order[j]]
        for i in range(j):
            key = (key << 1) | ((aj >> order[i]) & 1)
    return key


class _CanonState:
    """Shared state for the canonical search over one graph.

    The search tree is nauty's (McKay 1981; McKay & Piperno 2014): refine,
    individualize each vertex of the first non-singleton cell in turn,
    recurse; leaves are compared by :func:`_adj_key`.  Two leaves with
    equal keys give an automorphism, and the automorphisms prune twice:

    * **Backjump.**  An automorphism found at a leaf maps the best leaf's
      path onto the current one and fixes their common prefix pointwise,
      so the rest of the current branch is its image of a branch already
      explored; the search returns to the depth of that prefix.
    * **Orbit pruning.**  A candidate is skipped when the automorphisms
      found so far that fix the current prefix pointwise map it onto a
      candidate already explored at this node.  Each node keeps one
      union-find of those orbits and, before each candidate, merges only
      the automorphisms appended since it last looked, including those
      found inside a sibling's branch.

    A pruned subtree is always the image of one explored earlier, so the
    first leaf in depth-first order reaching the least key is never
    pruned: the labeling is the one the unpruned search would give, and
    the generators still generate the full automorphism group.
    """

    __slots__ = ("n", "adj", "best_key", "best_order", "best_path", "auts")

    def __init__(self, n: int, adj: Sequence[int]):
        self.n = n
        self.adj = adj
        self.best_key: int | None = None
        self.best_order: list[int] | None = None
        self.best_path: list[int] = []
        self.auts: list[tuple[int, ...]] = []

    def search(self, cells: list[int], fixed: list[int], changed: int) -> int:
        """Explore the subtree below the individualized path ``fixed``.

        ``cells`` is the colouring as vertex bitmasks in colour order,
        equitable outside the cells meeting ``changed``: every vertex for
        the trivial colouring, none for a refined root, and the old cell
        of the vertex just individualized below that.

        Returns the depth the search resumes at: ``len(fixed)`` to go on
        with the caller's next candidate, or less to backjump past it.
        """
        depth = len(fixed)
        cells = _refine_cells(self.adj, cells, changed)
        for t, target in enumerate(cells):
            if target & (target - 1):
                break
        else:
            # Discrete colouring: cell i holds the vertex of new label i.
            order = [cell.bit_length() - 1 for cell in cells]
            key = _adj_key(self.n, self.adj, order)
            if self.best_key is None or key < self.best_key:
                self.best_key = key
                self.best_order = order
                self.best_path = fixed
                return depth
            if key > self.best_key:
                return depth
            # order and best_order are both maps new->old; their
            # composition is an automorphism old->old taking the best
            # path onto this one.
            assert self.best_order is not None
            aut = [0] * self.n
            for i in range(self.n):
                aut[self.best_order[i]] = order[i]
            perm = tuple(aut)
            if perm not in self.auts:
                self.auts.append(perm)
            common = 0
            for a, b in zip(fixed, self.best_path):
                if a != b:
                    break
                common += 1
            return common
        explored: list[int] = []
        # union-find of the orbits, made at the first automorphism
        orbits: list[int] = []
        known = 0
        rest = target
        while rest:
            bit = rest & -rest
            rest ^= bit
            v = bit.bit_length() - 1
            if known < len(self.auts):
                # Merge the automorphisms found since the last look that
                # fix the prefix pointwise, as siblings find more.
                if not orbits:
                    orbits = list(range(self.n))
                for a in self.auts[known:]:
                    if all(a[u] == u for u in fixed):
                        _union_perm(orbits, a)
                known = len(self.auts)
            if orbits:
                root = _find(orbits, v)
                if any(_find(orbits, u) == root for u in explored):
                    continue
            explored.append(v)
            # Individualize v: a cell of its own just below the rest of
            # its old cell.
            child = cells[:t] + [bit, target ^ bit] + cells[t + 1 :]
            resume = self.search(child, fixed + [v], target)
            if resume < depth:
                return resume
        return depth


def _canon_state(g: Graph, root: list[int] | None = None) -> _CanonState:
    state = _CanonState(g.n, g.adj_bits)
    if g.n == 0:
        state.best_order = []
        state.best_key = 0
        return state
    if root is None:
        root = _seeded_root(g.adj_bits, [b.bit_count() for b in g.adj_bits])
    state.search(root, [], 0)
    return state


def canonical_data(
    g: Graph, *, _root: list[int] | None = None
) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
    """Canonical labeling and automorphism generators from one search.

    ``_root`` is for a caller that has already refined the trivial
    colouring: it must be the colour cells :func:`_seeded_root` gives,
    which equal ``_refine_cells(g.adj_bits, [full], full)``, where
    ``full`` is the bitmask of every vertex.  Without it the search
    starts from the same cells, so the result is the same; only their
    refinement is saved.

    Returns:
        ``(perm, gens)`` where ``perm[old] = new`` is the canonical
        relabeling and ``gens`` generates the automorphism group.
    """
    state = _canon_state(g, _root)
    assert state.best_order is not None
    perm = [0] * g.n
    for new, old in enumerate(state.best_order):
        perm[old] = new
    return tuple(perm), list(state.auts)


def canonical_labeling(g: Graph) -> tuple[int, ...]:
    """Return a canonical relabeling ``perm`` with ``perm[old] = new``.

    Isomorphic graphs relabeled by their canonical labelings coincide.
    """
    return canonical_data(g)[0]


def canonical_form(g: Graph) -> bytes:
    """Deterministic canonical byte form (graph6 of the canonical relabel).

    Two graphs are isomorphic iff their canonical forms are equal.  The
    result is stable across runs and platforms.  The search's least key
    packs the relabeled graph's bits in graph6's column order, so it is
    the graph6 body, padded with zeros to whole 6-bit groups.
    """
    from . import io as _io  # local import to avoid a module cycle

    key = _canon_state(g).best_key
    assert key is not None
    nbits = g.n * (g.n - 1) // 2
    pad = -nbits % 6
    key <<= pad
    shifts = range(nbits + pad - 6, -1, -6)
    return _io._encode_size(g.n) + bytes((key >> k & 63) + 63 for k in shifts)


def is_isomorphic(a: Graph, b: Graph) -> bool:
    """Whether two graphs are isomorphic."""
    if a.n != b.n or a.m != b.m or a.degree_sequence != b.degree_sequence:
        return False
    return canonical_form(a) == canonical_form(b)


def automorphism_generators(g: Graph) -> list[tuple[int, ...]]:
    """Generators of the automorphism group (possibly empty for rigid graphs).

    The permutations discovered while exploring the canonical-search tree
    generate the full automorphism group.  The search prunes a branch only
    when a product of already-discovered generators maps it onto an
    explored one: by backjumping once a leaf matches the best leaf, and by
    skipping candidates in the orbit of an explored sibling (see
    :class:`_CanonState`).
    """
    return list(_canon_state(g).auts)


def _find(parent: list[int], x: int) -> int:
    """The root of ``x`` in the union-find forest ``parent``, halving
    the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _union_perm(parent: list[int], perm: Sequence[int]) -> None:
    """Join each index to its image under ``perm`` in ``parent``."""
    for a, b in enumerate(perm):
        if a != b:
            ra, rb = _find(parent, a), _find(parent, b)
            if ra != rb:
                parent[ra] = rb


def _union_roots(n: int, pairs: Iterable[tuple[int, int]]) -> list[int]:
    """Union-find over ``0..n-1``: the root of each index after joining
    every pair."""
    parent = list(range(n))
    for a, b in pairs:
        ra, rb = _find(parent, a), _find(parent, b)
        if ra != rb:
            parent[ra] = rb
    return [_find(parent, v) for v in range(n)]


def _orbit_partition(n: int, gens: Sequence[Sequence[int]]) -> list[int]:
    """Orbit roots of ``0..n-1`` under the group generated by ``gens``."""
    parent = list(range(n))
    for a in gens:
        _union_perm(parent, a)
    return [_find(parent, v) for v in range(n)]


def vertex_orbits(g: Graph) -> list[frozenset[int]]:
    """Orbits of the vertex set under the automorphism group."""
    roots = _orbit_partition(g.n, automorphism_generators(g))
    buckets: dict[int, set[int]] = {}
    for v in range(g.n):
        buckets.setdefault(roots[v], set()).add(v)
    return [frozenset(s) for s in buckets.values()]


# =========================================================================
# Plane graphs
# =========================================================================


def _min_rotation(walk: tuple[int, ...]) -> tuple[int, ...]:
    """Lexicographically least cyclic rotation of a sequence."""
    if len(walk) <= 1:
        return walk
    return min(walk[i:] + walk[:i] for i in range(len(walk)))


@dataclass(frozen=True)
class Face:
    """A face of a plane graph, stored as its boundary vertex walk.

    The walk lists the tail of every dart of the face orbit in traversal
    order, normalised to its least cyclic rotation; bounded faces read
    counterclockwise, the outer face clockwise.  Walks of faces incident
    to bridges repeat vertices.  An isolated-vertex graph has the single
    face ``Face((0,))`` of length 0.
    """

    walk: tuple[int, ...]

    @property
    def length(self) -> int:
        """Number of darts on the face (edge count with multiplicity)."""
        return len(self.walk) if len(self.walk) > 1 else 0

    @property
    def vertices(self) -> frozenset[int]:
        """Vertices on the face boundary."""
        return frozenset(self.walk)

    @cached_property
    def edge_set(self) -> frozenset[Edge]:
        """Distinct edges on the face boundary."""
        k = len(self.walk)
        if k <= 1:
            return frozenset()
        return frozenset(
            normalize_edge(self.walk[i], self.walk[(i + 1) % k])
            for i in range(k)
        )

    def darts(self) -> tuple[Dart, ...]:
        """The face's darts ``(walk[i], walk[i+1])`` in traversal order."""
        k = len(self.walk)
        if k <= 1:
            return ()
        return tuple(
            (self.walk[i], self.walk[(i + 1) % k]) for i in range(k)
        )

    def is_triangle(self) -> bool:
        """Whether the face is bounded by a 3-cycle."""
        return self.length == 3 and len(self.vertices) == 3


def _dart_faces(
    rotation: Sequence[Sequence[int]],
) -> tuple[list[dict[int, int]], list[list[int]]]:
    """The faces of a rotation system, possibly partial, by one walk over
    the dart orbits.

    Returns ``(face, walks)``: ``face[u][v]`` is the id of the face of
    dart ``(u, v)`` and ``walks[i]`` lists the tails of face ``i``'s darts
    in traversal order.  Faces are numbered in the order they are first
    reached, trying the darts of each vertex in rotation order; vertices
    without neighbours lie on no walk.
    """
    succ = [dict(zip(r, r[1:] + r[:1])) for r in rotation]
    face: list[dict[int, int]] = [{} for _ in rotation]
    walks: list[list[int]] = []
    for v0, r0 in enumerate(rotation):
        for w0 in r0:
            if w0 in face[v0]:
                continue
            fid = len(walks)
            walk: list[int] = []
            u, v = v0, w0
            while v not in face[u]:
                face[u][v] = fid
                walk.append(u)
                u, v = v, succ[v][u]
            walks.append(walk)
    return face, walks


def _walk_successors(walks: Iterable[Sequence[int]]) -> dict[int, dict[int, int]]:
    """The rotation successors of the rotation system whose
    :func:`_dart_faces` walks are ``walks``, given in any order and from
    any start: ``succ[v][u]`` follows ``u`` in the rotation at ``v``, and
    the rotation at ``walk[i]`` maps ``walk[i-1]`` to ``walk[i+1]``."""
    succ: dict[int, dict[int, int]] = {}
    for walk in walks:
        for i, v in enumerate(walk):
            succ.setdefault(v, {})[walk[i - 1]] = walk[(i + 1) % len(walk)]
    return succ


def _walk_rotation(
    n: int, walks: Iterable[Sequence[int]]
) -> tuple[tuple[int, ...], ...]:
    """The rotation system on ``0..n-1`` whose :func:`_dart_faces` walks
    are ``walks``, the inverse of that tracer (see
    :func:`_walk_successors`).  Each rotation starts at its smallest
    neighbour; a vertex on no walk has none."""
    succ = _walk_successors(walks)
    nexts = [succ.get(v, {}) for v in range(n)]
    rotation = [[min(nxt)] if nxt else [] for nxt in nexts]
    for r, nxt in zip(rotation, nexts):
        while len(r) < len(nxt):
            r.append(nxt[r[-1]])
    return tuple(map(tuple, rotation))


class NonPlanarError(ValueError):
    """Raised when a graph admits no plane embedding.

    Attributes:
        witness: A non-planar subgraph of the input (a Kuratowski
            subdivision) on the same vertex set.
    """

    def __init__(self, message: str, witness: Graph):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class PlaneGraph:
    """Immutable plane graph: rotation system plus designated outer face.

    Attributes:
        graph: The underlying abstract graph (must be connected).
        rotation: ``rotation[v]`` lists the neighbours of ``v`` in
            clockwise order.
        outer: The designated outer (unbounded) face; must be one of the
            faces induced by the rotation system.

    Every plane graph is made by :meth:`_from_walks`, which keeps its
    faces and the face of each dart in ``_traced``, or by :meth:`with_outer`.
    """

    graph: Graph
    rotation: tuple[tuple[int, ...], ...]
    outer: Face
    _traced: tuple = field(compare=False, repr=False)

    @staticmethod
    def build(
        graph: Graph,
        rotation: Sequence[Sequence[int]],
        outer_walk: Sequence[int] | None = None,
    ) -> "PlaneGraph":
        """Validate a rotation system from outside and construct a plane graph.

        Args:
            graph: Underlying graph; must be connected.
            rotation: Clockwise neighbour order per vertex; must list each
                neighbour exactly once and satisfy Euler's formula.
            outer_walk: Boundary walk of the designated outer face (any
                cyclic rotation).  ``None`` picks the face of maximum
                length, ties broken by least canonical walk.

        Raises:
            ValueError: If the rotation is inconsistent with the graph, the
                embedding is not planar (fails Euler's formula), the graph
                is disconnected, or ``outer_walk`` is not a face.
        """
        if graph.n == 0:
            raise ValueError("plane graphs need at least one vertex")
        if not graph.is_connected():
            raise ValueError("plane graphs must be connected")
        if len(rotation) != graph.n:
            raise ValueError("rotation must have one entry per vertex")
        for v in range(graph.n):
            if sorted(rotation[v]) != sorted(graph.adjacency[v]):
                raise ValueError(
                    f"rotation at vertex {v} does not list its neighbours"
                )
        rot = tuple(tuple(r) for r in rotation)
        return PlaneGraph._from_walks(graph, rot, _dart_faces(rot)[1], outer_walk)

    @staticmethod
    def _from_walks(
        graph: Graph,
        rotation: tuple[tuple[int, ...], ...],
        walks: Sequence[Sequence[int]],
        outer_walk: Sequence[int] | None = None,
    ) -> "PlaneGraph":
        """The plane graph of ``rotation`` from the :func:`_dart_faces`
        walks its producer holds, in any order and from any start; its
        faces follow them (K1, with none, has ``Face((0,))``).  Only
        Euler's formula and ``outer_walk`` (see :meth:`build`) are checked."""
        face: list[dict[int, int]] = [{} for _ in range(graph.n)]
        for fid, walk in enumerate(walks):
            for i, v in enumerate(walk):
                face[walk[i - 1]][v] = fid
        faces = tuple(Face(_min_rotation(tuple(w))) for w in walks)
        if not graph.m:  # K1: one face, with no dart
            faces = (Face((0,)),)
        if graph.n - graph.m + len(faces) != 2:
            raise ValueError(
                "rotation system is not a plane embedding: "
                f"V-E+F = {graph.n}-{graph.m}+{len(faces)} != 2"
            )
        if outer_walk is None:
            # longest face first, least canonical walk among the longest
            outer = max(faces, key=lambda f: (f.length, [-x for x in f.walk]))
        else:
            outer = Face(_min_rotation(tuple(outer_walk)))
            if outer not in faces:
                raise ValueError(
                    f"walk {tuple(outer_walk)} is not a face of the embedding"
                )
        return PlaneGraph(graph, rotation, outer, (faces, face))

    # -- faces -------------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of vertices."""
        return self.graph.n

    @property
    def m(self) -> int:
        """Number of edges."""
        return self.graph.m

    def faces(self) -> tuple[Face, ...]:
        """All faces (outer included), in deterministic traversal order."""
        return self._traced[0]

    def inner_faces(self) -> tuple[Face, ...]:
        """All faces except the designated outer face."""
        return tuple(f for f in self.faces() if f != self.outer)

    def face_vector(self) -> dict[int, int]:
        """Counts of faces by length (outer included)."""
        counts: dict[int, int] = {}
        for f in self.faces():
            counts[f.length] = counts.get(f.length, 0) + 1
        return counts

    def faces_of_edge(self, e: Edge) -> tuple[Face, ...]:
        """The faces on the two sides of ``e`` (equal twice for a bridge)."""
        u, v = e
        if not self.graph.has_edge(u, v):
            raise ValueError(f"{e} is not an edge")
        faces, face = self._traced
        return (faces[face[u][v]], faces[face[v][u]])

    # -- derived embeddings --------------------------------------------------

    def with_outer(self, face: Face) -> "PlaneGraph":
        """The same embedding with a different face designated outer."""
        if face not in self.faces():
            raise ValueError("face is not a face of this embedding")
        return PlaneGraph(self.graph, self.rotation, face, self._traced)

    # -- canonical code ------------------------------------------------------

    def canonical_plane_code(self) -> tuple[int, ...]:
        """Canonical integer code of the embedding with its outer face.

        Two plane graphs get equal codes iff some isomorphism of the
        underlying graphs maps rotations to rotations (up to global
        reflection) and outer face to outer face.  The code is the
        :func:`_least_plane_code` of the faces from the darts of the outer
        face, whose reverses walk the outer face of the mirror image.  A
        start dart lies on the outer face, so the code fixes it.
        """
        walks = [f.walk for f in self.faces()]
        return _least_plane_code(walks, self.outer.darts())

    def to_json(self) -> str:
        """Serialise as an embedding JSON object (see :mod:`ptl.io`)."""
        return json.dumps(
            {
                "n": self.graph.n,
                "rotation": [list(r) for r in self.rotation],
                "outer_face": list(self.outer.walk),
            },
            sort_keys=True,
            separators=(",", ":"),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PlaneGraph(n={self.graph.n}, m={self.graph.m}, "
            f"outer={self.outer.walk})"
        )


def _least_plane_code(
    walks: Iterable[Sequence[int]], darts: Iterable[Dart]
) -> tuple[int, ...]:
    """The least plane code from the given darts of a connected rotation
    system, given by its face walks (see :func:`_walk_successors`), and
    from their reverses in its mirror image; ``()`` with no darts.

    A code labels the vertices in breadth-first discovery order from the
    dart's tail and lists, per vertex, its degree and then its neighbours'
    labels in rotation order from the one it was entered by.  Two codes
    are equal iff some isomorphism of the rotation systems maps one start
    dart onto the other.  The mirror image reverses every rotation, so its
    successors are the predecessors.
    """
    succ = _walk_successors(walks)
    pred = {v: {w: u for u, w in nxt.items()} for v, nxt in succ.items()}

    def code(
        after: dict[int, dict[int, int]], root: int, entry: int
    ) -> tuple[int, ...]:
        label = {root: 0}
        queue = [(root, entry)]
        out: list[int] = []
        for v, u in queue:
            around = after[v]
            out.append(len(around))
            for _ in around:
                if u not in label:
                    label[u] = len(label)
                    queue.append((u, v))
                out.append(label[u])
                u = around[u]
        return tuple(out)

    codes = (c for u, v in darts for c in (code(succ, u, v), code(pred, v, u)))
    return min(codes, default=())


# =========================================================================
# Embedding construction
# =========================================================================


# Brandes' left-right planarity test, ported from networkx 3.6.1's
# ``LRPlanarity`` to vertices ``0..n-1``.  The depth-first orientation
# numbers the oriented edges ``0..m-1`` in the order it orients them;
# ``head[e]`` is the head of edge ``e``, and every per-edge table is a list
# indexed by edge.  A conflict pair is a list ``[left.low, left.high,
# right.low, right.high]`` of edges; an interval is empty when both of its
# ends are ``None``.  Traversal orders follow networkx's exactly (adjacency
# in edge insertion order, stable sorts by nesting depth, roots in vertex
# order), so the rotations equal ``check_planarity(G).get_data()``.


def _lr_orientation(n: int, adj: Sequence[Sequence[int]]) -> tuple:
    """Orient the graph by depth-first search from each unvisited vertex in
    turn (networkx's ``dfs_orientation``).

    Returns ``(roots, height, parent, parent_edge, head, out, lowpt,
    nesting)``: ``parent[v]`` and ``parent_edge[v]`` are ``v``'s parent and
    the tree edge from it (``-1`` and ``None`` at a root), and ``out[v]``
    lists the edges oriented out of ``v`` in orientation order.
    """
    height = [-1] * n
    parent = [-1] * n
    parent_edge: list[int | None] = [None] * n
    head: list[int] = []
    out: list[list[int]] = [[] for _ in range(n)]
    lowpt: list[int] = []
    lowpt2: list[int] = []
    nesting: list[int] = []
    roots: list[int] = []
    ind = [0] * n
    paused = [False] * n  # v waits on the tree edge to adj[v][ind[v]]
    for root in range(n):
        if height[root] >= 0:
            continue
        height[root] = 0
        roots.append(root)
        stack = [root]
        while stack:
            v = stack.pop()
            e = parent_edge[v]
            hv = height[v]
            nbrs = adj[v]
            i = ind[v]
            while i < len(nbrs):
                w = nbrs[i]
                if paused[v]:
                    paused[v] = False
                    vw = parent_edge[w]
                elif height[w] > hv or w == parent[v]:
                    # the parent and every finished descendant of v
                    # oriented their edge to v already
                    i += 1
                    continue
                else:
                    vw = len(head)
                    head.append(w)
                    out[v].append(vw)
                    lowpt.append(hv)
                    lowpt2.append(hv)
                    nesting.append(0)
                    if height[w] < 0:  # tree edge
                        parent[w] = v
                        parent_edge[w] = vw
                        height[w] = hv + 1
                        paused[v] = True
                        stack.append(v)
                        stack.append(w)
                        break
                    lowpt[vw] = height[w]  # back edge
                low, low2 = lowpt[vw], lowpt2[vw]
                nesting[vw] = 2 * low + (low2 < hv)
                if e is not None:
                    if low < lowpt[e]:
                        lowpt2[e] = min(lowpt[e], low2)
                        lowpt[e] = low
                    elif low > lowpt[e]:
                        lowpt2[e] = min(lowpt2[e], low)
                    else:
                        lowpt2[e] = min(lowpt2[e], low2)
                i += 1
            ind[v] = i
    return roots, height, parent, parent_edge, head, out, lowpt, nesting


def _lr_sides(
    roots: Sequence[int],
    height: Sequence[int],
    parent: Sequence[int],
    parent_edge: Sequence[int | None],
    head: Sequence[int],
    ordered: Sequence[Sequence[int]],
    lowpt: Sequence[int],
) -> tuple[list[int | None], list[int]] | None:
    """The testing phase: ``(ref, side)`` of every edge, or ``None`` when
    the constraints conflict, i.e. the graph is not planar (networkx's
    ``dfs_testing``, ``add_constraints`` and ``remove_back_edges``).
    ``ordered[v]`` lists ``v``'s out-edges by nesting depth."""
    m = len(head)
    ref: list[int | None] = [None] * m
    side = [1] * m
    lowpt_edge: list[int | None] = [None] * m
    stack_bottom: list[list | None] = [None] * m
    S: list[list] = []

    def conflicting(low, high, b: int) -> bool:
        return not (low is None and high is None) and lowpt[high] > lowpt[b]

    def add_constraints(ei: int, e: int) -> bool:
        P: list = [None, None, None, None]
        # merge the return edges of ei into P's right interval
        while True:
            Q = S.pop()
            if not (Q[0] is None and Q[1] is None):
                Q[:] = Q[2], Q[3], Q[0], Q[1]
            if not (Q[0] is None and Q[1] is None):
                return False
            if lowpt[Q[2]] > lowpt[e]:
                if P[2] is None and P[3] is None:
                    P[3] = Q[3]
                else:
                    ref[P[2]] = Q[3]
                P[2] = Q[2]
            else:  # align
                ref[Q[2]] = lowpt_edge[e]
            if (S[-1] if S else None) is stack_bottom[ei]:
                break
        # merge the conflicting return edges of earlier edges into P's left
        while conflicting(S[-1][0], S[-1][1], ei) or conflicting(
            S[-1][2], S[-1][3], ei
        ):
            Q = S.pop()
            if conflicting(Q[2], Q[3], ei):
                Q[:] = Q[2], Q[3], Q[0], Q[1]
            if conflicting(Q[2], Q[3], ei):
                return False
            ref[P[2]] = Q[3]
            if Q[2] is not None:
                P[2] = Q[2]
            if P[0] is None and P[1] is None:
                P[1] = Q[1]
            else:
                ref[P[0]] = Q[1]
            P[0] = Q[0]
        if P != [None, None, None, None]:
            S.append(P)
        return True

    def lowest(P: list) -> int:
        if P[0] is None and P[1] is None:
            return lowpt[P[2]]
        if P[2] is None and P[3] is None:
            return lowpt[P[0]]
        return min(lowpt[P[0]], lowpt[P[2]])

    def remove_back_edges(e: int, u: int) -> None:
        hu = height[u]
        # drop entire conflict pairs
        while S and lowest(S[-1]) == hu:
            P = S.pop()
            if P[0] is not None:
                side[P[0]] = -1
        if S:  # trim the next one
            P = S[-1]
            while P[1] is not None and head[P[1]] == u:
                P[1] = ref[P[1]]
            if P[1] is None and P[0] is not None:  # just emptied
                ref[P[0]] = P[2]
                side[P[0]] = -1
                P[0] = None
            while P[3] is not None and head[P[3]] == u:
                P[3] = ref[P[3]]
            if P[3] is None and P[2] is not None:  # just emptied
                ref[P[2]] = P[0]
                side[P[2]] = -1
                P[2] = None
        # the side of e is the side of a highest return edge
        if lowpt[e] < hu:
            hl, hr = S[-1][1], S[-1][3]
            if hl is not None and (hr is None or lowpt[hl] > lowpt[hr]):
                ref[e] = hl
            else:
                ref[e] = hr

    ind = [0] * len(ordered)
    paused = [False] * len(ordered)  # as in _lr_orientation
    for root in roots:
        stack = [root]
        while stack:
            v = stack.pop()
            e = parent_edge[v]
            hv = height[v]
            edges = ordered[v]
            i = ind[v]
            while i < len(edges):
                ei = edges[i]
                if paused[v]:
                    paused[v] = False
                else:
                    stack_bottom[ei] = S[-1] if S else None
                    w = head[ei]
                    if ei == parent_edge[w]:  # tree edge
                        paused[v] = True
                        stack.append(v)
                        stack.append(w)
                        break
                    lowpt_edge[ei] = ei  # back edge
                    S.append([None, None, ei, ei])
                if lowpt[ei] < hv:  # integrate the new return edges
                    if i == 0:
                        lowpt_edge[e] = lowpt_edge[ei]
                    elif not add_constraints(ei, e):
                        return None
                i += 1
            ind[v] = i
            if not paused[v] and e is not None:
                remove_back_edges(e, parent[v])
    return ref, side


def _lr_rotation(
    roots: Sequence[int],
    parent_edge: Sequence[int | None],
    head: Sequence[int],
    out: Sequence[Sequence[int]],
    nesting: list[int],
    ref: list[int | None],
    side: list[int],
) -> list[tuple[int, ...]]:
    """The clockwise rotation system of a graph that passed the test
    (networkx's ``sign``, ``dfs_embedding`` and the half-edge bookkeeping
    of ``PlanarEmbedding``, whose ``get_data`` it returns)."""
    n = len(out)
    for e in range(len(head)):  # resolve each side along its ref chain
        chain, x = [], e
        while ref[x] is not None:
            chain.append(x)
            x = ref[x]
        s = side[x]
        for y in reversed(chain):
            s = side[y] = side[y] * s
            ref[y] = None
    for e, s in enumerate(side):
        nesting[e] *= s
    ordered = [sorted(edges, key=nesting.__getitem__) for edges in out]

    # The half-edges out of v: cw[v][w] and ccw[v][w] are the neighbours
    # after w clockwise and counterclockwise, first[v] is the leftmost one,
    # where networkx's rotation at v starts.
    cw: list[dict[int, int]] = [{} for _ in range(n)]
    ccw: list[dict[int, int]] = [{} for _ in range(n)]
    first: list[int | None] = [None] * n

    def after(v: int, w: int, a: int) -> None:  # w clockwise after a
        b = cw[v][a]
        cw[v][w], ccw[v][w] = b, a
        ccw[v][b] = w
        cw[v][a] = w

    def before(v: int, w: int, b: int) -> None:  # w counterclockwise of b
        a = ccw[v][b]
        cw[v][w], ccw[v][w] = b, a
        cw[v][a] = w
        ccw[v][b] = w
        if b == first[v]:
            first[v] = w

    def leftmost(v: int, w: int) -> None:
        if first[v] is None:
            cw[v][w] = ccw[v][w] = first[v] = w
        else:
            before(v, w, first[v])

    for v, edges in enumerate(ordered):
        for i, e in enumerate(edges):
            if i == 0:
                leftmost(v, head[e])
            else:
                after(v, head[e], head[edges[i - 1]])

    left_ref = [0] * n
    right_ref = [0] * n
    ind = [0] * n
    for root in roots:
        stack = [root]
        while stack:
            v = stack.pop()
            edges = ordered[v]
            while ind[v] < len(edges):
                e = edges[ind[v]]
                ind[v] += 1
                w = head[e]
                if e == parent_edge[w]:  # tree edge
                    leftmost(w, v)
                    left_ref[v] = right_ref[v] = w
                    stack.append(v)
                    stack.append(w)
                    break
                if side[e] == 1:  # back edge
                    after(w, v, right_ref[w])
                else:
                    before(w, v, left_ref[w])
                    left_ref[w] = v

    rotation = []
    for v in range(n):
        r: list[int] = []
        if first[v] is not None:
            r.append(first[v])
            x = cw[v][first[v]]
            while x != r[0]:
                r.append(x)
                x = cw[v][x]
        rotation.append(tuple(r))
    return rotation


def _lr_test(n: int, adj: Sequence[Sequence[int]]) -> tuple | None:
    """The left-right test on ``0..n-1`` with adjacency lists ``adj``:
    ``None`` for a non-planar graph, else the arguments of
    :func:`_lr_rotation`."""
    if n > 2 and sum(map(len, adj)) // 2 > 3 * n - 6:
        return None
    roots, height, parent, parent_edge, head, out, lowpt, nesting = (
        _lr_orientation(n, adj)
    )
    ordered = [sorted(edges, key=nesting.__getitem__) for edges in out]
    sides = _lr_sides(roots, height, parent, parent_edge, head, ordered, lowpt)
    if sides is None:
        return None
    return (roots, parent_edge, head, out, nesting, *sides)


def _adjacency_lists(g: Graph) -> list[list[int]]:
    """Neighbour lists in the order networkx fills them from ``g.edges``."""
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def _kuratowski_edges(g: Graph) -> set[Edge]:
    """A Kuratowski subgraph's edges of a non-planar graph: try deleting
    each edge in turn and keep those whose deletion leaves a planar graph
    (networkx's ``get_counterexample``: for each vertex ``u``, over
    ``u``'s current neighbours; a kept edge goes back at the end of both
    adjacency lists)."""
    adj = _adjacency_lists(g)
    kept: set[Edge] = set()
    for u in range(g.n):
        for v in list(adj[u]):
            adj[u].remove(v)
            adj[v].remove(u)
            if _lr_test(g.n, adj) is not None:
                adj[u].append(v)
                adj[v].append(u)
                kept.add(normalize_edge(u, v))
    return kept


def embed(g: Graph) -> PlaneGraph:
    """Embed a connected planar graph in the plane.

    The rotation system comes from Brandes' left-right planarity test,
    a first-party port of networkx 3.6.1's, whose rotations it
    reproduces; the outer face is then re-designated as a face of maximum
    length, ties broken by lexicographically least boundary walk.  The
    choice of rotation system is deterministic for a given graph.

    Args:
        g: A connected graph.

    Returns:
        The :class:`PlaneGraph`, its faces in :func:`_dart_faces` order.

    Raises:
        ValueError: If ``g`` is empty or disconnected.
        NonPlanarError: If ``g`` is not planar; the exception carries a
            Kuratowski witness subgraph, the one networkx 3.6.1's
            ``get_counterexample`` finds.
    """
    if g.n == 0:
        raise ValueError("cannot embed the empty graph")
    if not g.is_connected():
        raise ValueError("embed() requires a connected graph")
    state = _lr_test(g.n, _adjacency_lists(g))
    if state is None:
        raise NonPlanarError(
            f"graph with {g.n} vertices and {g.m} edges is not planar",
            Graph.from_edges(g.n, _kuratowski_edges(g)),
        )
    rotation = tuple(_lr_rotation(*state))
    return PlaneGraph._from_walks(g, rotation, _dart_faces(rotation)[1])


def is_planar(g: Graph) -> bool:
    """Whether ``g`` (connected or not) admits a plane embedding, by the
    testing phase of Brandes' left-right planarity test alone (the port
    of networkx 3.6.1's); no embedding is built."""
    return _lr_test(g.n, _adjacency_lists(g)) is not None


# =========================================================================
# Drawings
# =========================================================================

Point = tuple[float, float]


def plane_graph_from_positions(
    n: int,
    edges: Iterable[Sequence[int]],
    pos: Mapping[int, Point],
    bends: Mapping[Dart, Point] | None = None,
    outer_walk: Sequence[int] | None = None,
) -> PlaneGraph:
    """Build a plane graph from drawing coordinates.

    Rotations are the clockwise angular order of the incident edges; the
    initial direction of edge ``(u, v)`` at ``u`` may be overridden with a
    control point ``bends[(u, v)]`` to represent a curved edge.  Unless
    ``outer_walk`` is given, the outer face is detected geometrically from
    the bottommost vertex.

    Args:
        n: Number of vertices.
        edges: Edge list.
        pos: Coordinates per vertex.
        bends: Optional per-dart control points for curved edges.
        outer_walk: Optional explicit outer face walk.

    Raises:
        ValueError: If two edges leave a vertex at the same angle, or the
            drawing data is otherwise inconsistent.
    """
    g = Graph.from_edges(n, edges)
    bends = dict(bends or {})

    def angle(v: int, u: int) -> float:
        x0, y0 = pos[v]
        x1, y1 = bends.get((v, u), pos[u])
        return math.atan2(y1 - y0, x1 - x0)

    rotation: list[tuple[int, ...]] = []
    for v in range(n):
        nbrs = sorted(g.adjacency[v])
        angles = {u: angle(v, u) for u in nbrs}
        if len(set(angles.values())) != len(nbrs):
            raise ValueError(
                f"two edges leave vertex {v} at the same angle; "
                "adjust coordinates or bends"
            )
        rotation.append(tuple(sorted(nbrs, key=lambda u: -angles[u])))

    if outer_walk is not None or n == 1:
        return PlaneGraph.build(g, rotation, outer_walk=outer_walk or (0,))

    # Outer face detection: at the bottommost (then leftmost) vertex, the
    # unbounded region lies below, so the outer boundary leaves through the
    # neighbour of maximum angle.
    a = min(range(n), key=lambda v: (pos[v][1], pos[v][0]))
    if not g.adjacency[a]:
        raise ValueError("isolated vertex in a multi-vertex drawing")
    b = max(g.adjacency[a], key=lambda u: angle(a, u))
    pg = PlaneGraph.build(g, rotation)
    faces, face = pg._traced
    return pg.with_outer(faces[face[a][b]])
