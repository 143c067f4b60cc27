"""Exhaustive small-order search.

The engines:

* :func:`enumerate_graphs` -- isomorph-free generation of all graphs of a
  given order, with optional connectivity / planarity filters.
* :func:`exact_planar_turan` -- the exact oracle for the maximum edge count
  of a pattern-free planar graph on ``n`` vertices, with witnesses, for
  bridgeless patterns; :func:`exact_planar_turan_orders` yields its
  report at every order ``1..n`` from one pass.
* :func:`enumerate_solid_tbs` -- the census of pattern-free solid
  triangular blocks, grown order by order and diffed against the expected
  catalog; :func:`certify_solid_tbs_direct` is the independent slow census
  used to certify the growth procedure at small orders.

The first, the second and the direct census grow one canonical
augmentation core, :class:`_Augmentation`, which deletes a vertex of
minimum degree.  A parent offers only the neighbourhoods that pass
McKay's degree pre-test, keep a planar tree planar and are no smaller
than the seed allows, and a child meets its tests cheapest first: the
domain tests, then the child's root colouring, refined from its degree
classes as read from the parent's bitmasks, which rejects most children
before their graph is built, and only then at most one canonical
search, whose labeling and automorphism generators decide McKay's test,
give the child's subset orbits as a parent and relabel it when yielded.
With ``connected``, :func:`enumerate_graphs` skips, at the last order,
every subset that misses a component of its parent.  The
tree is plain data with one traversal, :meth:`_Augmentation.levels`,
which grows it one order at a time.  The oracle, the direct census and
the lemma scans take only pattern-free graphs: the tree drops a child
that contains the pattern through its new vertex.
Planarity needs no graph test.  If ``G`` is planar and a new vertex
joins the set ``S``, then ``G`` plus that vertex is planar iff every
component of ``G`` that ``S`` meets has some plane embedding with its
part of ``S`` on one face.  So each planar parent lists its
neighbourhoods from the maximal face-vertex bitmasks of each component
over all its rotation systems (:func:`_cofacial_subsets`).
Every rotation system comes from one corner rule, :func:`_split_systems`.
Deleting a vertex from a plane embedding of a connected graph leaves,
when the rest is connected, one of the rest's embeddings with the vertex
inside one face.  So the graph's systems are the rest's with the vertex
put into a face whose walk holds all its neighbours, at one corner per
neighbour, and each is met once.  A parent inherits the face walks of
its components from its own parent, and only those of the component
that ``S`` lies in are split.  A component that ``S`` forms by joining
components or closing a cycle in a tree is grown afresh by the same
rule (:func:`_fresh_embeddings`): from the one face of its first edge,
one vertex at a time in the order a search from the new vertex takes
them, so every prefix is connected.  No search here runs
the left-right planarity test of :func:`ptl.embedding.embed`.

The tree node is the one source of embeddings for the oracle, the
direct census and the lemma scans: the oracle's seed reads each
maximizer's masks from its node, the direct census reads each
candidate's face walks from its node and builds no plane graph, and
:func:`_free_planes` makes the scans one plane graph per system of each
node of the last order from the node's walks, tracing no face again.
The two component-density scans decompose each plane once.
A new vertex splits a face walk by one rule, :func:`_split_walk`, in
the tree and the growth census alike, so no face is traced here past
the growth census's drawn seeds.  The growth census carries graphs
with their face walks and builds no plane graph.  In both censuses the
solid outer faces of an embedding come from its 3-faces by one
union-find.  Only the growth census tells sphere embeddings apart, by
:func:`_sphere_key`, a plane code read from each child's face walks;
the direct census checks every embedding and reads no plane code, so
it stays independent of the census it certifies.
The augmentation tree and the growth census both grow one order at a
time: each order's nodes are split into static shares, one per worker,
and the workers return the next order's nodes, as tree nodes or as
graphs with their face walks.  The oracle is one bottom-up pass over
orders ``1..n``, each seeded from the maximizers of the order below; the
pass yields each order's report, which covers that order's tree only,
so one pass serves a loop over ``n``.

Determinism contract: every report produced here is byte-identical across
runs and across worker counts once timing fields are stripped.  To that
end the oracle prunes against a fixed, constructively verified seed bound
(never a shared mutable incumbent), work is partitioned statically, and
its merges are order-insensitive (sums, maxima, sorted unions).  The
growth census keeps the first child it meets of each sphere class
(one :func:`_sphere_key`), so which member it keeps depends on the
shares; but its report reads only which classes exist and each one's
canonical form, and every member of a class shares both.
"""

from __future__ import annotations

import json
import os
import random
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cache
from itertools import chain, combinations, product
from typing import Callable, Iterable, Iterator, Sequence

from . import families, patterns
from .decomposition import (
    _triangle_classes,
    decompose,
    e_i_analysis,
    theta_pair_survey,
)
from .embedding import (
    Face,
    Graph,
    PlaneGraph,
    _least_plane_code,
    _orbit_partition,
    _seeded_root,
    _union_roots,
    _walk_rotation,
    canonical_data,
    canonical_form,
    embed,
    is_planar,
)
from .io import graph6_encode
from .patterns import PatternSpec, as_pattern, contains_subgraph_at, is_free

__all__ = [
    "CeilingExceededError",
    "DEFAULT_CEILING",
    "ORACLE_DEFAULT_CEILING",
    "SearchError",
    "SearchReport",
    "TBCatalogReport",
    "certify_solid_tbs_direct",
    "enumerate_graphs",
    "enumerate_solid_tbs",
    "exact_planar_turan",
    "exact_planar_turan_orders",
    "naive_planar_turan",
    "outer_variants",
    "random_plane_corpus",
    "scan_h4_component_density",
    "scan_h5_component_density",
    "scan_theta_pairs",
    "verify_counting_identity",
    "verify_theta_pair_laws",
]


class SearchError(ValueError):
    """Invalid search request or corpus."""


class CeilingExceededError(SearchError):
    """Requested order exceeds the configured enumeration ceiling."""


#: Order ceiling of :func:`enumerate_graphs` and the lemma scans, and
#: the default one of :func:`certify_solid_tbs_direct`.
DEFAULT_CEILING = 9

#: Default order ceiling of :func:`exact_planar_turan` and
#: :func:`exact_planar_turan_orders`, whose pruned trees stay small.
ORACLE_DEFAULT_CEILING = 12

#: Default order ceiling of the solid-TB census, for both patterns.
TB_DEFAULT_CEILING = 16

@contextmanager
def _share_map(workers: int) -> Iterator[Callable]:
    """A ``map`` over ``workers`` static shares: the builtin one at one
    worker, else a process pool's.  A fork pool starts all its processes
    at the first submit, so it gets no more than the cores; the shares
    stay ``workers``, so results do not depend on the machine."""
    if workers == 1:
        yield map
        return
    with ProcessPoolExecutor(max_workers=min(workers, os.cpu_count() or 1)) as pool:
        yield pool.map


# =========================================================================
# Canonical augmentation core
# =========================================================================


#: The face walks of one rotation system, each the tails of its darts in
#: traversal order (as :func:`ptl.embedding._dart_faces` lists them).
_Walks = tuple[tuple[int, ...], ...]

#: A plane graph as the growth census carries it: graph and face walks.
_Plane = tuple[Graph, _Walks]

#: The plane embeddings of one component with a cycle: its vertex
#: bitmask, the face walks of each of its rotation systems and the
#: maximal vertex bitmasks of those faces.
_Embeddings = tuple[int, list[_Walks], list[int]]

#: How a node's embeddings are derived when it becomes a parent: the
#: embeddings of its parent's components with a cycle, and the bitmask
#: of its new vertex's neighbours (:func:`_node_embeddings`).
_Recipe = tuple[tuple[_Embeddings, ...], int]

#: A node of the augmentation tree: the graph, its canonical labeling
#: (``perm[old] = new``) and generators of its automorphism group, all
#: from one canonical search, and the recipe of its embeddings.
_Node = tuple[Graph, tuple[int, ...], list[tuple[int, ...]], _Recipe]

#: The one-vertex graph every augmentation tree grows from.
_ROOT: _Node = (Graph.from_edges(1, []), (0,), [], ((), 0))


def _subset_reps(gens: Sequence[tuple[int, ...]], masks: Iterable[int]) -> list[int]:
    """One representative per orbit of the vertex bitmasks ``masks``, a
    union of orbits of the group generated by ``gens``: its smallest
    mask.

    Each orbit is closed breadth-first under the generators.  The result
    is sorted, so iteration order is deterministic.
    """
    masks = sorted(masks)
    if not gens:
        return masks
    seen: set[int] = set()
    reps: list[int] = []
    for mask in masks:
        if mask in seen:
            continue
        reps.append(mask)
        seen.add(mask)
        stack = [mask]
        while stack:
            cur = stack.pop()
            for perm in gens:
                img = 0
                rest = cur
                while rest:
                    v = (rest & -rest).bit_length() - 1
                    img |= 1 << perm[v]
                    rest &= rest - 1
                if img not in seen:
                    seen.add(img)
                    stack.append(img)
    return reps


def _cofacial_subsets(
    n: int, embeddings: Sequence[_Embeddings], size: int
) -> set[int]:
    """The vertex bitmasks of at most ``size`` of the vertices ``0..n-1``
    that lie on one maximal face in each component with a cycle, whose
    ``embeddings`` are given: exactly the sets a new vertex can join in
    a planar graph with those components and leave it planar.  Every
    other vertex is free, as a tree's one face holds all its vertices,
    so without embeddings every subset is listed.
    Automorphisms keep planarity, so the list is a union of orbits.
    """
    free = (1 << n) - 1
    for comp, _, _ in embeddings:
        free &= ~comp
    masks = {0}
    for faces in [[free]] + [faces for _, _, faces in embeddings]:
        grown: set[int] = set()
        for f in faces:
            subs = list(masks)
            while f:
                low = f & -f
                f ^= low
                subs += [m | low for m in subs if m.bit_count() < size]
            grown.update(subs)
        masks = grown
    return masks


#: The tests an offered child meets in :meth:`_Augmentation.children`, in
#: order; a rejected child is counted under the first one it fails.
FATES = ("domain", "mckay")


@dataclass
class _Augmentation:
    """McKay's canonical augmentation ("Isomorph-free exhaustive
    generation", J. Algorithms 26, 1998), grown to order ``limit`` one
    order at a time by :meth:`levels`.

    A child is its parent plus one new vertex attached to one
    representative subset per orbit of the parent's automorphism group.
    A child is kept iff its new vertex shares an orbit with its
    canonical deletion vertex, the vertex with the first canonical
    label, which has minimum degree.  So every graph of the tree is
    reached from order 1 by adding, at each step, a vertex of minimum
    degree.  Only the subsets that pass McKay's degree pre-test are
    offered: with ``delta`` the parent's minimum degree, those of at most
    ``delta`` vertices and those of ``delta + 1`` that hold every vertex
    of degree ``delta``, the ones whose new vertex has the child's
    minimum degree.  Each offered child meets, in order, cheapest first: the domain
    tests, and the rest of McKay's test (the child's root refinement,
    read from its adjacency bitmasks and degrees, which are the parent's
    with the new vertex added, then one canonical search that also gives
    the child's labeling and generators).  The child's graph is built
    for the domain tests if the tree has any, else only once the root
    refinement passes.  Every test is exact, so the order changes which
    tests run, never which children are kept.  :attr:`rejected` counts
    the offered children by the first test they fail (keys
    :data:`FATES`); the oracle reports the domain count as ``pruned``.

    The domain tests drop a child whose :func:`_edge_potential` at
    ``limit`` is below a nonzero ``seed``, then one that contains
    ``spec`` through its new vertex; the root meets them too.  A child's
    potential depends only on its subset's size, so each parent finds
    once the least size that reaches the seed, and a smaller subset is
    not offered.  So with
    ``spec`` the tree keeps exactly the free graphs and reaches them
    all: freeness is hereditary, and a graph's canonical parent is an
    induced subgraph.

    With ``planar`` only the cofacial subsets are offered
    (:func:`_cofacial_subsets`): a planar parent plus a vertex joined to
    ``S`` is planar iff, in every component ``S`` meets, ``S`` lies on
    one face of some embedding.  This needs every parent to be planar,
    which holds because the tree starts at one vertex.  The faces come
    from the walks of every rotation system, which each node inherits
    from its parent rather than searches for (:func:`_node_embeddings`),
    built when its children are listed.  A kept child carries only the
    recipe, so the last order, whose nodes never become parents, builds
    no walks; without ``planar`` no walks are built, every subset is
    listed and the recipes hold none.  The tree and its nodes are plain
    data, so pool workers receive them whole.
    """

    limit: int
    planar: bool
    spec: PatternSpec | None = None
    seed: int = 0
    rejected: dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(FATES, 0)
    )

    def children(self, node: _Node, connected: bool = False) -> list[_Node]:
        """The kept children of ``node``, in subset-representative order.

        With ``connected``, only the connected ones: a subset that misses
        a component of the parent gives a disconnected child, and it is
        skipped first, counted under no fate."""
        g, _, gens, recipe = node
        new = g.n
        bits = g.adj_bits
        rejected = self.rejected
        kept: list[_Node] = []
        embeddings = _node_embeddings(g, recipe) if self.planar else ()
        comps = _components(bits) if connected else []
        tested = bool(self.seed) or self.spec is not None
        deg = [b.bit_count() for b in bits]
        for s in _subset_reps(gens, self._offered(g, embeddings)):
            if any(not s & comp for comp in comps):
                continue
            # The child's bitmasks and degrees, from the parent's.
            child_bits = list(bits)
            child_deg = deg + [s.bit_count()]
            rest = s
            while rest:
                v = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                child_bits[v] |= 1 << new
                child_deg[v] += 1
            child_bits.append(s)
            child = None
            if tested:
                child = g._with_new_vertex_bits(child_bits)
                if self._outside(child):
                    rejected["domain"] += 1
                    continue
            # The rest of McKay's test: the new vertex must share an
            # automorphism orbit with the canonical deletion vertex.
            # Refinement and individualization only split cells and keep
            # them in order, so that vertex lies in the first cell of the
            # refined trivial colouring; orbits lie inside the cells of
            # that equitable colouring, so a new vertex outside the first
            # cell fails without a search, read from the child's bitmasks
            # and degrees before its graph is built.  The search starts
            # from the same cells, which it does not refine again.
            cells = _seeded_root(child_bits, child_deg)
            if not cells[0] >> new & 1:
                rejected["mckay"] += 1
                continue
            if child is None:
                child = g._with_new_vertex_bits(child_bits)
            perm, child_gens = canonical_data(child, _root=cells)
            target = perm.index(0)
            if target != new:
                roots = _orbit_partition(child.n, child_gens)
                if roots[target] != roots[new]:
                    rejected["mckay"] += 1
                    continue
            kept.append((child, perm, child_gens, (embeddings, s)))
        return kept

    def _offered(self, g: Graph, embeddings: Sequence[_Embeddings]) -> list[int]:
        """The cofacial neighbourhoods offered to a new vertex of ``g``."""
        # The canonical deletion vertex (the vertex carrying the first
        # canonical label) has minimum degree: canonical search ranks
        # vertices by ascending degree in its first refinement and
        # afterwards only splits cells.  So a new vertex of degree above
        # some other vertex's in the child fails McKay's test, and its
        # subset is not offered: one of more than delta + 1 vertices, or
        # of delta + 1 that misses a vertex of degree delta.
        deg = [b.bit_count() for b in g.adj_bits]
        delta = min(deg)
        must = sum(1 << v for v, d in enumerate(deg) if d == delta)
        # An offered child has minimum degree |S| and m + |S| edges, and
        # the edge potential grows with both, so a subset smaller than
        # ``least`` would fail the seed.
        least = 0
        while least <= delta + 1 and _edge_potential(
            g.m + least, least, g.n + 1, self.limit
        ) < self.seed:
            least += 1
        return [
            s
            for s in _cofacial_subsets(g.n, embeddings, delta + 1)
            if s.bit_count() >= least
            and (s.bit_count() <= delta or not must & ~s)
        ]

    def _outside(self, g: Graph) -> bool:
        """The domain tests of a node whose last vertex is the new one."""
        if self.seed:
            delta = min(b.bit_count() for b in g.adj_bits)
            if _edge_potential(g.m, delta, g.n, self.limit) < self.seed:
                return True
        spec = self.spec
        return spec is not None and contains_subgraph_at(g, spec, g.n - 1) is not None

    def levels(self, workers: int = 1) -> Iterator[list[_Node]]:
        """The kept nodes of each order from 1 to ``limit``, in preorder
        within an order.  Each order is grown when asked for, from
        ``workers`` static shares of the order below (:func:`_expand`);
        a child's fate depends only on its parent, so neither the nodes
        nor :attr:`rejected` depend on the shares.  A node's recipe
        holds its parent's embeddings, so a share carries them to the
        worker with the node."""
        level = [] if self._outside(_ROOT[0]) else [_ROOT]
        yield level
        with _share_map(workers) as share_map:
            for _ in range(1, self.limit):
                shares = [(self, level[i::workers]) for i in range(workers)]
                level = []
                for kept, rejected in share_map(_expand, shares):
                    level += kept
                    for fate in FATES:
                        self.rejected[fate] += rejected[fate]
                yield level


def _expand(
    args: tuple[_Augmentation, list[_Node]],
) -> tuple[list[_Node], dict[str, int]]:
    """The kept children of one static share of a level, in order, and
    the counts of the rejected ones (picklable entry point)."""
    tree, parents = args
    tree = replace(tree, rejected=dict.fromkeys(FATES, 0))
    kept = [child for parent in parents for child in tree.children(parent)]
    return kept, tree.rejected


def _planar_cap(k: int) -> int:
    """Maximum edges of a planar graph on ``k`` vertices."""
    return k * (k - 1) // 2 if k < 3 else 3 * k - 6


def _edge_potential(m: int, delta: int, k: int, n: int) -> int:
    """Largest final edge count reachable at order ``n`` from a
    ``k``-vertex node with ``m`` edges and minimum degree ``delta``.

    Read backwards, the tree path from a graph of order ``n`` down to
    the node deletes a minimum-degree vertex at each step.  Deleting one
    lowers the other degrees by at most one, so the minimum degree rises
    by at most one per added vertex; it stays at most 5 in a planar graph
    and below the order; and a graph of order ``j`` with minimum degree
    ``d`` has ``d * j / 2`` edges at least, ``d`` of them at the vertex
    added last, so ``d * (j - 2)`` is at most twice the edges before it.
    Every order obeys the planar cap.
    """
    p = m
    d = delta
    for j in range(k + 1, n + 1):
        d = min(d + 1, 5, j - 1)
        if j > 2:
            d = min(d, 2 * p // (j - 2))
        p = min(p + d, _planar_cap(j))
    return p


def _embeddings(comp: int, systems: list[_Walks]) -> _Embeddings:
    """The :data:`_Embeddings` of the component with vertex bitmask
    ``comp`` whose rotation systems have the face walks ``systems``."""
    faces: set[int] = set()
    for walks in systems:
        for walk in walks:
            bits = 0
            for v in walk:
                bits |= 1 << v
            faces.add(bits)
    maximal: list[int] = []
    for f in sorted(faces, key=int.bit_count, reverse=True):
        if all(f & ~kept for kept in maximal):
            maximal.append(f)
    return comp, systems, maximal


def _reach(bits: Sequence[int], v: int) -> tuple[int, list[int]]:
    """The vertex bitmask of the component of ``v`` in the graph with the
    adjacency bitmasks ``bits``, and its vertices in the order a search
    from ``v`` takes them, each after a neighbour taken before it."""
    order: list[int] = []
    comp = frontier = 1 << v
    while frontier:
        u = (frontier & -frontier).bit_length() - 1
        frontier &= frontier - 1
        order.append(u)
        fresh = bits[u] & ~comp
        comp |= fresh
        frontier |= fresh
    return comp, order


def _components(bits: Sequence[int]) -> list[int]:
    """The vertex bitmasks of the components of the graph with the
    adjacency bitmasks ``bits``."""
    comps: list[int] = []
    left = (1 << len(bits)) - 1
    while left:
        comp, _ = _reach(bits, (left & -left).bit_length() - 1)
        comps.append(comp)
        left &= ~comp
    return comps


def _fresh_embeddings(bits: Sequence[int], v: int) -> _Embeddings | None:
    """The embeddings of the component of the vertex ``v`` in the graph
    with the adjacency bitmasks ``bits``, or ``None`` if it is a tree.

    A search from ``v`` (:func:`_reach`) takes each vertex after a
    neighbour taken before it, so every prefix of its order spans a
    connected graph.  The systems start from the one face of the first
    two vertices, and each later one is put in by :func:`_split_systems`,
    joined to its earlier neighbours.
    """
    comp, order = _reach(bits, v)
    if sum(bits[u].bit_count() for u in order) < 2 * len(order):
        return None
    a, b = order[:2]
    systems: list[_Walks] = [((a, b),)]
    seen = 1 << a | 1 << b
    for u in order[2:]:
        systems = _split_systems(systems, bits[u] & seen, u)
        seen |= 1 << u
    return _embeddings(comp, systems)


def _split_walk(walk: tuple[int, ...], corners: Sequence[int], new: int) -> _Walks:
    """The face walks that ``walk`` splits into when a new vertex ``new``
    inside its face joins the walk at the ascending positions
    ``corners``: ``W[p_i..p_{i+1}] + (new,)``, cyclically; for one
    corner ``p`` that is ``W[p:] + W[:p] + (W[p], new)``."""
    return tuple(
        walk[a : b + 1] + (new,) for a, b in zip(corners, corners[1:])
    ) + (walk[corners[-1] :] + walk[: corners[0] + 1] + (new,),)


def _split_systems(systems: list[_Walks], s: int, new: int) -> list[_Walks]:
    """The rotation systems of a connected graph with a new vertex
    ``new`` joined to its vertex bitmask ``s``, from the face walks
    ``systems`` of the graph's own.

    Deleting the new vertex from a plane embedding of the grown graph
    leaves one of the graph's, with the new vertex inside one face; so
    the grown graph's systems are the graph's with the new vertex put
    into a face whose walk holds ``s``, at one corner (one occurrence in
    the walk) per vertex of ``s``, split by :func:`_split_walk`.  A corner
    is a gap in its vertex's rotation, so distinct corners give distinct
    systems, and each system is met once.
    """
    k = s.bit_count()
    derived: list[_Walks] = []
    for walks in systems:
        for i, walk in enumerate(walks):
            where: dict[int, list[int]] = {}
            for p, v in enumerate(walk):
                if s >> v & 1:
                    where.setdefault(v, []).append(p)
            if len(where) < k:
                continue
            for corners in product(*where.values()):
                split = _split_walk(walk, sorted(corners), new)
                derived.append(walks[:i] + split + walks[i + 1 :])
    return derived


def _node_embeddings(
    g: Graph, recipe: _Recipe
) -> tuple[_Embeddings, ...]:
    """The embeddings of the components with a cycle of the tree node
    ``g``, from its recipe: its parent's embeddings and the bitmask ``s``
    of the neighbours of its new vertex, the last one.

    Components that ``s`` misses are the parent's, unchanged.  When
    ``s`` lies in one of the parent's components with a cycle, that
    component's systems are split by :func:`_split_systems`.  Otherwise
    the new vertex joins several components or hangs on a tree, and its
    component, if that has a cycle, is grown afresh by the same rule
    (:func:`_fresh_embeddings`).
    """
    inherited, s = recipe
    if not s:
        return inherited
    new = g.n - 1
    kept = tuple(e for e in inherited if not e[0] & s)
    met = [e for e in inherited if e[0] & s]
    if len(met) == 1 and not s & ~met[0][0]:
        comp, systems, _ = met[0]
        grown = _embeddings(comp | 1 << new, _split_systems(systems, s, new))
    else:
        grown = _fresh_embeddings(g.adj_bits, new)
    return kept if grown is None else kept + (grown,)


def enumerate_graphs(
    n: int,
    *,
    connected: bool = False,
    planar: bool = False,
) -> Iterator[Graph]:
    """Stream one canonically labeled representative per isomorphism class.

    Generation is by canonical augmentation from the one-vertex graph: a
    child (parent plus one new vertex, attached to one representative
    neighborhood per automorphism orbit) is kept iff its canonical
    deletion vertex is equivalent to the vertex just added, which yields
    isomorph-free output without a global seen-set.

    Args:
        n: Target order, ``1 <= n <=`` :data:`DEFAULT_CEILING`.
        connected: Keep only connected graphs (applied at the final order;
            connectivity is not hereditary, so partial graphs are never
            pruned by it).
        planar: Keep only planar graphs (hereditary, so non-planar partial
            graphs are pruned during growth).

    Yields:
        Canonically labeled graphs, in deterministic order.

    Raises:
        CeilingExceededError: If ``n`` exceeds :data:`DEFAULT_CEILING`.
        SearchError: If ``n < 1``.
    """
    tree = _Augmentation(n, planar=planar)
    for g, perm, _, _ in _last_level(tree, connected=connected):
        yield g.relabeled(perm)


def _last_level(tree: _Augmentation, connected: bool = False) -> Iterable[_Node]:
    """The kept nodes of order ``tree.limit``, in preorder, streamed from
    the order below; with ``connected``, only the connected ones, whose
    subsets meet every component of their parent.  The order is checked
    as :func:`enumerate_graphs` documents."""
    n = tree.limit
    if n < 1:
        raise SearchError("order must be at least 1")
    if n > DEFAULT_CEILING:
        raise CeilingExceededError(
            f"order {n} exceeds the ceiling {DEFAULT_CEILING}"
        )
    levels = tree.levels()
    nodes: Iterable[_Node] = next(levels)
    for _ in range(2, n):
        nodes = next(levels)
    if n > 1:  # order n streams: held whole, order 9 quadruples the peak RSS
        nodes = (
            child
            for parent in nodes
            for child in tree.children(parent, connected=connected)
        )
    return nodes


# =========================================================================
# Exact planar Turan oracle
# =========================================================================


@dataclass(frozen=True)
class SearchReport:
    """Result of one exact ``ex_P(n, pattern)`` computation.

    Attributes:
        n: Graph order searched.
        pattern: Pattern name.
        ex: Maximum edge count over pattern-free planar graphs of order
            ``n`` (exhaustively verified).
        witnesses: Canonical graph6 forms (ASCII) of every maximizer,
            sorted.
        enumerated: Isomorphism classes visited in the augmentation tree,
            over all orders (the lower orders solved for the seed are not
            counted).
        rejected: Children offered in the augmentation tree and
            rejected, by the first test they fail (keys :data:`FATES`):
            the domain prunes (edge potential, pattern containment) and
            the rest of McKay's test.  A child that would be non-planar,
            fail McKay's degree pre-test or have too few edges for the
            seed is never offered.
        elapsed_ms: Wall-clock time; excluded from determinism
            comparisons.
        bound_name: Name of the theorem bound relevant to the pattern
            (``thm1``/``thm2``/``thm3``), or ``None``.
        bound_value: Exact value of that bound at ``n``.
        bound_in_range: Whether ``n`` lies in the bound's stated range.
    """

    n: int
    pattern: str
    ex: int
    witnesses: tuple[str, ...]
    enumerated: int
    rejected: dict[str, int]
    elapsed_ms: int
    bound_name: str | None
    bound_value: Fraction | None
    bound_in_range: bool | None

    @property
    def pruned(self) -> int:
        """Offered children discarded by the domain prunes."""
        return self.rejected["domain"]

    def to_record(self) -> dict:
        """Full JSON-ready record (timing included)."""
        bound = None
        if self.bound_name is not None:
            assert self.bound_value is not None
            bound = {
                "name": self.bound_name,
                "value": f"{self.bound_value.numerator}/"
                f"{self.bound_value.denominator}",
                "in_range": self.bound_in_range,
            }
        return {
            "n": self.n,
            "pattern": self.pattern,
            "ex": self.ex,
            "witnesses": list(self.witnesses),
            "enumerated": self.enumerated,
            "pruned": self.pruned,
            "rejected": dict(self.rejected),
            "elapsed_ms": self.elapsed_ms,
            "bound": bound,
        }

    def comparable_json(self) -> str:
        """Canonical JSON with timing stripped, for determinism checks."""
        record = self.to_record()
        del record["elapsed_ms"]
        return json.dumps(record, sort_keys=True, separators=(",", ":"))

    def jsonl_record(self) -> dict:
        """The result-catalog record (one JSONL line per ``(n, pattern)``)."""
        return {
            "n": self.n,
            "pattern": self.pattern,
            "ex": self.ex,
            "witnesses": list(self.witnesses),
            "enumerated": self.enumerated,
            "elapsed_ms": self.elapsed_ms,
        }


_BOUND_FOR_PATTERN = {"H4": "thm1", "H5": "thm2", "H6": "thm3"}


def _seed_candidates(n: int) -> Iterator[Graph]:
    """Candidate pattern-free planar graphs used to seed the prune bound:
    the wheel (``n >= 4``) and the antiprism ``B15(n)`` (even ``n >= 6``).

    Both are connected and planar by construction; freeness is verified
    by the caller, so an unsuitable candidate is simply skipped and the
    seed stays a true lower bound.
    """
    if n >= 4:
        yield patterns.wheel(n - 1)
    if n >= 6 and n % 2 == 0:
        yield families.catalog_block("B15", n).graph


def _seed_bound(n: int, spec: PatternSpec) -> int:
    """A verified constructive lower bound for ``ex_P(n, pattern)``.

    The maximum edge count over the seed candidates that are actually
    pattern-free.  Soundness of the oracle's pruning requires a true
    lower bound, so freeness and connectivity are checked here rather
    than assumed; with no qualifying candidate the bound is 0.  The
    oracle seeds with the larger of this and :func:`_extension_bound`.
    To order 9 a candidate beats the extension only for H3 at order 5
    (the wheel) and for W5, F5, H4, D1, D3 and MatchingPlus2 at order 6
    and H4 at order 8 (the antiprism).
    """
    best = 0
    for g in _seed_candidates(n):
        if g.n == n and g.m > best and g.is_connected() and is_free(g, spec):
            best = g.m
    return best


def _has_bridge(g: Graph) -> bool:
    """Whether some edge of ``g`` lies on no cycle."""
    for i, (u, v) in enumerate(g.edges):
        roots = _union_roots(g.n, g.edges[:i] + g.edges[i + 1 :])
        if roots[u] != roots[v]:
            return True
    return False


def _extension_bound(
    maximizers: list[_Node], n: int, spec: PatternSpec
) -> int:
    """A verified lower bound for ``ex_P(n, pattern)`` from the order
    below: the most edges of one of its ``maximizers``, tree nodes of
    that order, plus one new vertex, kept planar and pattern-free (0
    with no maximizer).

    A maximizer is connected and pattern-free, so the extension is
    connected, and free unless it contains the pattern through its new
    vertex; the planar ones are listed (:func:`_cofacial_subsets`) from
    the embeddings the node inherits (:func:`_node_embeddings`), in its
    own labels, which the bound does not depend on.  Neighbourhoods are
    tried largest first, so each maximizer stops at its best one.
    """
    best = 0
    for g, _, _, recipe in maximizers:
        size = min(g.n, _planar_cap(n) - g.m)
        masks = _cofacial_subsets(g.n, _node_embeddings(g, recipe), size)
        for s in sorted(masks, key=int.bit_count, reverse=True):
            if g.m + s.bit_count() <= best:
                break
            child = g.with_new_vertex(v for v in range(g.n) if s >> v & 1)
            if contains_subgraph_at(child, spec, g.n) is None:
                best = child.m
                break
    return best


def _solve(
    max_n: int, spec: PatternSpec, workers: int, start: float
) -> Iterator[SearchReport]:
    """The oracle's pass: the report of each order ``1..max_n`` in turn,
    each seeded from the maximizer nodes of the order below, which are
    relabeled only for the witnesses.  Only order ``max_n`` grows at
    ``workers``; ``elapsed_ms`` runs from ``start``."""
    bound_name = _BOUND_FOR_PATTERN.get(spec.name)
    maximizers: list[_Node] = []
    for n in range(1, max_n + 1):
        seed = max(_seed_bound(n, spec), _extension_bound(maximizers, n, spec))
        tree = _Augmentation(n, planar=True, spec=spec, seed=seed)
        enumerated = 0
        for level in tree.levels(workers if n == max_n else 1):
            enumerated += len(level)
        final = [node for node in level if node[0].is_connected()]
        best = max((node[0].m for node in final), default=-1)
        if best < 0:
            raise SearchError(
                f"no connected {spec.name}-free planar graph of order {n} exists"
            )
        if best < seed:
            raise AssertionError(
                "exhaustive search missed its own seed construction -- internal error"
            )
        maximizers = [node for node in final if node[0].m == best]
        witnesses = sorted(
            graph6_encode(g.relabeled(perm)).decode() for g, perm, _, _ in maximizers
        )
        bound = None if bound_name is None else families.bound(n, bound_name)
        yield SearchReport(
            n=n,
            pattern=spec.name,
            ex=best,
            witnesses=tuple(witnesses),
            enumerated=enumerated,
            rejected=tree.rejected,
            elapsed_ms=int((time.monotonic() - start) * 1000),
            bound_name=bound_name,
            bound_value=None if bound is None else bound.value,
            bound_in_range=None if bound is None else bound.in_range,
        )


def exact_planar_turan_orders(
    max_n: int,
    pattern: "PatternSpec | Graph | str",
    *,
    workers: int = 1,
    ceiling: int | None = None,
) -> Iterator[SearchReport]:
    """The :func:`exact_planar_turan` reports of orders ``1..max_n``, from
    one bottom-up pass that runs as they are drawn.  Each report covers
    only its own order's tree, and ``elapsed_ms`` counts from this call.

    Args:
        max_n: Largest graph order, ``1 <= max_n <= ceiling``.
        pattern: Pattern name, spec, or graph.
        workers: Static shares per level of the order-``max_n`` tree,
            expanded in parallel when > 1; the lower orders run in this
            process.  Results are identical for every value.
        ceiling: Enumeration ceiling; defaults to
            :data:`ORACLE_DEFAULT_CEILING`.

    Raises:
        CeilingExceededError: If ``max_n`` exceeds the ceiling.
        SearchError: If ``max_n < 1``, ``workers < 1`` or the pattern has
            a bridge, all raised by this call; and when the pass reaches
            an order with no connected pattern-free planar graph.
    """
    limit = ORACLE_DEFAULT_CEILING if ceiling is None else ceiling
    if max_n < 1:
        raise SearchError("order must be at least 1")
    if max_n > limit:
        raise CeilingExceededError(f"order {max_n} exceeds the ceiling {limit}")
    if workers < 1:
        raise SearchError("worker count must be at least 1")
    spec = as_pattern(pattern)
    if _has_bridge(spec.graph):
        raise SearchError(
            f"pattern {spec.name} has a bridge: the oracle searches connected "
            "graphs only, which finds ex_P only for bridgeless patterns"
        )
    return _solve(max_n, spec, workers, time.monotonic())


def exact_planar_turan(
    n: int,
    pattern: "PatternSpec | Graph | str",
    *,
    workers: int = 1,
    ceiling: int | None = None,
) -> SearchReport:
    """Exact maximum edge count of a pattern-free planar graph on ``n``
    vertices, with all maximizers, and the relevant theorem-bound
    comparison for the ``H4``/``H5``/``H6`` patterns.

    The augmentation tree over planar pattern-free graphs is explored
    exhaustively; maximizers are reported among connected graphs.  That
    is exact only for a bridgeless pattern, so a pattern with a bridge is
    refused.  A copy of a bridgeless pattern never uses a bridge of the
    host, since every pattern edge lies on a cycle, so joining two
    components of a free planar graph by an edge keeps it free and
    planar, and every maximizer is connected.  With a bridge that fails:
    two disjoint triangles have 6 edges and no ``P4``, but every
    connected ``P4``-free graph on 6 vertices has fewer.

    A branch is pruned when no graph of order ``n`` grown from it can
    reach the seed: the tree adds a vertex of minimum degree at each
    step, which bounds the edges it can gain (:func:`_edge_potential`).
    The seed is a verified lower bound, the larger of the constructions
    of :func:`_seed_bound` and the best planar pattern-free one-vertex
    extension of the maximizers of order ``n - 1``
    (:func:`_extension_bound`).  So orders ``1..n`` are solved in one
    bottom-up pass, and this is its last report: the arguments and errors
    are those of :func:`exact_planar_turan_orders` at ``max_n = n``.  The
    lower orders run in this process at one worker, so each seed is fixed
    and reports are byte-identical across worker counts.  The report's
    counts cover the order-``n`` tree only.
    """
    *_, last = exact_planar_turan_orders(n, pattern, workers=workers, ceiling=ceiling)
    return last


def naive_planar_turan(
    n: int, pattern: "PatternSpec | Graph | str"
) -> tuple[int, frozenset[bytes]]:
    """Reference oracle trying every labeled graph on ``n <= 5`` vertices.

    Returns the maximum edge count over ALL pattern-free planar graphs
    (disconnected ones included) and the canonical forms of every
    maximizer.  Used to certify :func:`exact_planar_turan` at small
    orders.
    """
    if n < 1 or n > 5:
        raise SearchError("the naive oracle is limited to 1 <= n <= 5")
    spec = as_pattern(pattern)
    pairs = list(combinations(range(n), 2))
    best = -1
    witnesses: set[bytes] = set()
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        g = Graph.from_edges(n, edges)
        if g.m < best or not is_planar(g) or not is_free(g, spec):
            continue
        if g.m > best:
            best = g.m
            witnesses = {canonical_form(g)}
        else:
            witnesses.add(canonical_form(g))
    return best, frozenset(witnesses)


# =========================================================================
# Solid-TB census
# =========================================================================


@dataclass(frozen=True)
class TBCatalogReport:
    """Census of pattern-free solid triangular blocks, diffed against the
    expected catalog.

    Attributes:
        pattern: ``H4`` or ``H5``.
        max_order: Largest order scanned.
        found: Per order, the sorted canonical graph6 forms (ASCII) of the
            solid TBs found.
        expected: Per order, mapping of catalog display name to canonical
            form, from the instantiated expected catalog.
        missing: Per order, catalog names whose form was not found.
        unexpected: Per order, found forms outside the catalog.
        elapsed_ms: Wall-clock time; excluded from determinism
            comparisons.
    """

    pattern: str
    max_order: int
    found: dict[int, tuple[str, ...]]
    expected: dict[int, dict[str, str]]
    missing: dict[int, tuple[str, ...]]
    unexpected: dict[int, tuple[str, ...]]
    elapsed_ms: int

    @property
    def diff_is_empty(self) -> bool:
        """Whether the census matches the expected catalog exactly."""
        return not any(self.missing.values()) and not any(
            self.unexpected.values()
        )

    def to_record(self) -> dict:
        """Full JSON-ready record (timing included)."""
        return {
            "pattern": self.pattern,
            "max_order": self.max_order,
            "found": {str(k): list(v) for k, v in self.found.items()},
            "expected": {
                str(k): dict(sorted(v.items()))
                for k, v in self.expected.items()
            },
            "missing": {str(k): list(v) for k, v in self.missing.items()},
            "unexpected": {
                str(k): list(v) for k, v in self.unexpected.items()
            },
            "diff_is_empty": self.diff_is_empty,
            "elapsed_ms": self.elapsed_ms,
        }

    def comparable_json(self) -> str:
        """Canonical JSON with timing stripped, for determinism checks."""
        record = self.to_record()
        del record["elapsed_ms"]
        return json.dumps(record, sort_keys=True, separators=(",", ":"))


@cache
def _run_masks(length: int) -> tuple[int, ...]:
    """The nonzero selections of ``length >= 2`` cyclic walk positions
    that form cyclic runs of length >= 2 (a full selection is one run
    covering the cycle), as ascending masks: every selected position has
    a selected cyclic neighbour.

    The masks grow one position at a time, without and then with it, so
    each list stays ascending.  A selected position whose lower neighbour
    is not selected forces the next one; positions 0 and ``length - 1``
    are neighbours too, so each is checked at the end.
    """
    last = length - 1
    masks = [0, 1]
    for p in range(1, length):
        masks = [
            m for m in masks if p < 2 or not m >> (p - 1) & 1 or m >> (p - 2) & 1
        ] + [m | 1 << p for m in masks]
    return tuple(
        m
        for m in masks
        if m
        and (not m & 1 or m & 2 or m >> last & 1)
        and (not m >> last & 1 or m >> (last - 1) & 1 or m & 1)
    )


def _grown_children(g: Graph, walks: _Walks, spec: PatternSpec) -> Iterator[_Plane]:
    """All pattern-free one-vertex plane extensions, as graphs with face
    walks, of ``g`` with face walks ``walks`` whose new spokes land on
    cyclic runs of >= 2 consecutive boundary vertices of a single face.

    In a solid TB every spoke of a removable vertex lies on an inner
    3-face, which forces exactly this run structure, so these moves invert
    the vertex deletion of the classification's reduction step.  The new
    vertex splits its face by :func:`_split_walk`, as in the augmentation
    tree, and freeness is tested on the child's abstract graph.  Children
    come face by face, then by increasing selection mask; the census
    keeps the first of each class.

    A mask that contains one whose child holds the pattern is skipped
    untested.  The walk's vertices are distinct, so its child is that
    child plus edges at the new vertex, and containment survives added
    edges: the skip drops only children the test would drop.  Masks
    ascend, so every subset of a mask is met before it.
    """
    new = g.n
    for i, walk in enumerate(walks):
        length = len(walk)
        if length < 2 or len(set(walk)) != length:
            continue
        bad: list[int] = []
        for mask in _run_masks(length):
            if any(not b & ~mask for b in bad):
                continue
            sel = [p for p in range(length) if mask >> p & 1]
            graph = g.with_new_vertex(walk[p] for p in sel)
            if not is_free(graph, spec):
                bad.append(mask)
                continue
            yield graph, walks[:i] + _split_walk(walk, sel, new) + walks[i + 1 :]


def _sphere_key(walks: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Canonical key, up to isomorphism and reflection, of the connected
    rotation system with these face walks: the least plane code from a
    dart of it or of its mirror image whose end degrees form the least
    unordered pair (each occurrence of a vertex on a walk is one dart out).

    Those darts are closed under reversal, as the mirror's codes need,
    and every isomorphism and reflection keeps them, so two systems get
    equal keys exactly when codes from every dart would.
    """
    deg = Counter(chain.from_iterable(walks))
    darts = [(w[i - 1], v) for w in walks for i, v in enumerate(w)]
    ends = [sorted((deg[u], deg[v])) for u, v in darts]
    least = min(ends, default=None)
    return _least_plane_code(
        walks, (dart for dart, pair in zip(darts, ends) if pair == least)
    )


def _solid_outer_faces(faces: Sequence[Face], m: int) -> list[Face]:
    """The ``faces`` of one rotation system of a connected graph with
    ``m`` edges whose designation as outer makes that plane graph a
    single spanning solid TB.

    With outer face ``f`` the inner 3-faces are every 3-face but ``f``.
    They form one block spanning the plane graph iff every edge lies on
    one of them and they are chained through shared edges.  Such a block
    is solid: its plane subgraph is the plane graph itself, so its holes
    are the inner faces that are not 3-faces, and none of them is bounded
    by a 3-cycle.  (It is also 2-connected, by ear induction over the
    chain.)
    """
    triangles = [f for f in faces if f.is_triangle()]
    edge_sets = [t.edge_set for t in triangles]
    result: list[Face] = []
    for outer in faces:
        inner = [es for t, es in zip(triangles, edge_sets) if t != outer]
        covered = {e for es in inner for e in es}
        if len(covered) == m and len(_triangle_classes(inner)) == 1:
            result.append(outer)
    return result


def _tb_worker(
    args: tuple[tuple[_Plane, ...], PatternSpec],
) -> list[tuple[tuple[int, ...], _Plane]]:
    """Expand one share of census parents (picklable entry point).

    Returns ``(sphere key, child)``, in the order found, for the first
    child met of each sphere class if it admits a solid-TB outer face;
    the members of a class agree on that, so the later ones are skipped.
    """
    parents, spec = args
    seen: set[tuple[int, ...]] = set()
    out: list[tuple[tuple[int, ...], _Plane]] = []
    for g, walks in parents:
        for child, faces in _grown_children(g, walks, spec):
            key = _sphere_key(faces)
            if key not in seen:
                seen.add(key)
                if _solid_outer_faces([Face(w) for w in faces], child.m):
                    out.append((key, (child, faces)))
    return out


def _graph_walks(pg: PlaneGraph) -> _Plane:
    """A drawn census seed as the census carries it."""
    return pg.graph, tuple(f.walk for f in pg.faces())


def enumerate_solid_tbs(
    max_order: int,
    pattern: "PatternSpec | Graph | str",
    *,
    workers: int = 1,
    ceiling: int | None = None,
) -> TBCatalogReport:
    """Census of pattern-free solid TBs up to ``max_order``, by growth.

    Starting from the plane triangle, order-``m`` candidates are grown
    from every order-``m-1`` census member by all admissible one-vertex
    boundary additions (inverting the classification's reduction), with
    the exceptional antiprism family seeded directly at every even order
    since its members lose solidity under any vertex deletion.  A
    candidate joins the census iff it is pattern-free and some outer-face
    designation makes it a single spanning solid TB; each order keeps the
    first one met of each sphere class, as the next order's parents.  The
    report diffs the census against the expected catalog, per order, up to
    abstract isomorphism, so it reads only what a class's members share.

    Args:
        max_order: Largest order to scan (``>= 3``).
        pattern: ``H4`` or ``H5`` (name, spec, or graph).
        workers: Static partition width for expanding each order.
        ceiling: Order ceiling; defaults to :data:`TB_DEFAULT_CEILING`.

    Returns:
        The :class:`TBCatalogReport`; its diff is empty iff the growth
        census matches the expected catalog at every scanned order.
    """
    spec = as_pattern(pattern)
    if spec.name not in ("H4", "H5"):
        raise SearchError(
            f"solid-TB census supports H4 and H5, not {spec.name!r}"
        )
    limit = TB_DEFAULT_CEILING if ceiling is None else ceiling
    if max_order < 3:
        raise SearchError("max_order must be at least 3")
    if max_order > limit:
        raise CeilingExceededError(
            f"max_order {max_order} exceeds the ceiling {limit}"
        )
    if workers < 1:
        raise SearchError("worker count must be at least 1")
    start = time.monotonic()
    base = families.catalog_block("B1").plane
    seed = _graph_walks(base)
    frontier = {_sphere_key(seed[1]): seed}
    found: dict[int, tuple[str, ...]] = {
        3: (canonical_form(base.graph).decode("ascii"),)
    }
    with _share_map(workers) as share_map:
        for order in range(4, max_order + 1):
            parents = list(frontier.values())
            args = [(tuple(parents[i::workers]), spec) for i in range(workers)]
            frontier = {}
            for rows in share_map(_tb_worker, args):
                for key, child in rows:
                    frontier.setdefault(key, child)
            if order % 2 == 0 and order >= 6:
                pg = families.catalog_block("B15", order).plane
                if is_free(pg.graph, spec):
                    seed = _graph_walks(pg)
                    frontier.setdefault(_sphere_key(seed[1]), seed)
            forms = {canonical_form(g).decode("ascii") for g, _ in frontier.values()}
            found[order] = tuple(sorted(forms))

    expected_graphs = families.expected_tb_catalog(spec.name, max_order)
    expected: dict[int, dict[str, str]] = {}
    missing: dict[int, tuple[str, ...]] = {}
    unexpected: dict[int, tuple[str, ...]] = {}
    for order in range(3, max_order + 1):
        by_name = {
            name: canonical_form(g).decode("ascii")
            for name, g in expected_graphs.get(order, {}).items()
        }
        expected[order] = by_name
        got = set(found[order])
        missing[order] = tuple(
            sorted(n for n, f in by_name.items() if f not in got)
        )
        unexpected[order] = tuple(
            sorted(got - set(by_name.values()))
        )
    elapsed_ms = int((time.monotonic() - start) * 1000)
    return TBCatalogReport(
        pattern=spec.name,
        max_order=max_order,
        found=found,
        expected=expected,
        missing=missing,
        unexpected=unexpected,
        elapsed_ms=elapsed_ms,
    )


# =========================================================================
# Direct solid-TB certification
# =========================================================================


def _is_biconnected(g: Graph) -> bool:
    """2-connectivity by deletion (adequate at certification orders)."""
    if g.n < 3 or not g.is_connected():
        return False
    return all(g.without_vertex(v).is_connected() for v in range(g.n))


def certify_solid_tbs_direct(
    max_order: int,
    pattern: "PatternSpec | Graph | str",
    *,
    ceiling: int | None = None,
) -> dict[int, tuple[str, ...]]:
    """Independent census of pattern-free solid TBs at orders 3 to
    ``max_order``.

    For every connected pattern-free planar graph of order 3 to
    ``max_order`` (every level of the planar augmentation tree, which
    keeps only pattern-free children like the oracle's) that is
    2-connected and has every edge on a triangle, the face walks of
    every sphere embedding are read from its tree node
    (:func:`_node_embeddings`, in the node's own labels), and the graph
    counts iff some embedding and outer-face choice is a single spanning
    solid TB.  No plane graph is built, and only the recorded graph6 is
    relabeled canonically, as :func:`enumerate_graphs` yields it.  The
    verdict does not depend on telling embeddings apart, so none is
    skipped as a repeat.  This procedure never uses the growth
    reduction or its sphere keys, so it certifies
    :func:`enumerate_solid_tbs` where their ranges overlap; on
    disagreement this direct census is authoritative.

    Args:
        max_order: Largest order, ``3 <= max_order <= ceiling``.
        pattern: Pattern name, spec, or graph.
        ceiling: Order ceiling; defaults to :data:`DEFAULT_CEILING`.

    Returns:
        Per order, the sorted canonical graph6 forms (ASCII).

    Raises:
        CeilingExceededError: If ``max_order`` exceeds the ceiling.
        SearchError: If ``max_order < 3``.
    """
    limit = DEFAULT_CEILING if ceiling is None else ceiling
    if max_order > limit:
        raise CeilingExceededError(
            f"direct certification is limited to orders <= {limit} "
            "(it walks every pattern-free planar graph of each order up to "
            "max_order)"
        )
    if max_order < 3:
        raise SearchError("max_order must be at least 3")
    tree = _Augmentation(max_order, planar=True, spec=as_pattern(pattern))
    forms: dict[int, set[str]] = {k: set() for k in range(3, max_order + 1)}
    for g, perm, _, recipe in chain.from_iterable(tree.levels()):
        bits = g.adj_bits
        if any(not bits[u] & bits[v] for u, v in g.edges) or not _is_biconnected(g):
            continue
        ((_, systems, _),) = _node_embeddings(g, recipe)
        if any(
            _solid_outer_faces([Face(w) for w in walks], g.m) for walks in systems
        ):
            forms[g.n].add(graph6_encode(g.relabeled(perm)).decode("ascii"))
    return {k: tuple(sorted(v)) for k, v in forms.items()}


# =========================================================================
# Corpus construction and lemma-law verification
# =========================================================================


def outer_variants(pg: PlaneGraph) -> Iterator[PlaneGraph]:
    """The same sphere embedding with each face designated as outer."""
    for f in pg.faces():
        yield pg.with_outer(f)


def _prufer_tree_edges(n: int, seq: Sequence[int]) -> set[tuple[int, int]]:
    """The edges of the tree on ``0..n-1`` (``n >= 2``) whose Pruefer
    sequence is ``seq``: each entry in turn is joined to the least leaf
    left, and the last two leaves to each other."""
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = set()
    for x in seq:
        leaf = degree.index(1)
        edges.add((min(leaf, x), max(leaf, x)))
        degree[leaf] -= 1
        degree[x] -= 1
    u, v = [i for i in range(n) if degree[i] == 1]
    edges.add((u, v))
    return edges


def random_plane_corpus(
    count: int, *, max_n: int = 12, seed: int = 0
) -> Iterator[PlaneGraph]:
    """Deterministic stream of random connected plane graphs.

    Each member starts from a uniform random labelled tree; random extra
    edges are then added, keeping only those that preserve planarity.
    The stream depends only on ``count``, ``max_n`` and ``seed``.

    Args:
        count: Number of plane graphs to yield.
        max_n: Maximum order (minimum is 1).
        seed: RNG seed.
    """
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, max_n)
        # Uniform random tree via a random Pruefer sequence.
        seq = [rng.randrange(n) for _ in range(n - 2)]
        edges = _prufer_tree_edges(n, seq) if n >= 2 else set()
        g = Graph.from_edges(n, sorted(edges))
        non_edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if not (g.adj_bits[u] >> v) & 1
        ]
        rng.shuffle(non_edges)
        extra = rng.randint(0, max(0, 3 * n - 6 - len(edges)))
        for u, v in non_edges:
            if extra == 0:
                break
            candidate = Graph.from_edges(n, sorted(edges | {(u, v)}))
            if is_planar(candidate):
                edges.add((u, v))
                g = candidate
                extra -= 1
        yield embed(g)


def verify_counting_identity(
    corpus: Iterable[PlaneGraph],
) -> tuple[str, ...]:
    """Check ``3*f3 == |E'| + 2*|E_I|`` on every corpus member.

    The identity is checked under both outer-face conventions (the outer
    3-face counted and not counted).  An empty result is the expected
    outcome.
    """
    violations: list[str] = []
    for idx, pg in enumerate(corpus):
        for include_outer in (True, False):
            report = e_i_analysis(pg, include_outer=include_outer)
            if not report.identity_holds:
                violations.append(
                    f"member {idx} (include_outer={include_outer}): "
                    f"3*{report.f3} != {len(report.e_prime)} + "
                    f"2*{len(report.e_i)}"
                )
    return tuple(violations)


def verify_theta_pair_laws(
    corpus: Iterable[PlaneGraph],
) -> tuple[str, ...]:
    """Check the two theta-pair laws on C3|Theta4-free plane graphs.

    For every unordered pair of distinct ``E_I`` edges (outer 3-face
    counted): if the two edges share no endpoint, their theta
    configurations share at least two vertices; and when the two
    configurations share exactly two vertices and the pair is detached
    (one edge avoids the other's configuration), the union classifies as
    one of the fixtures D1, D2, D3.  Both statements are intrinsic to the
    sphere embedding -- the choice of outer face never changes them.  An
    empty result is the expected outcome.

    Freeness is tested once per distinct host graph, which every
    embedding and outer face of one host shares.

    Raises:
        SearchError: If a corpus member contains C3|Theta4.
    """
    spec = as_pattern("C3|Theta4")
    free: set[Graph] = set()
    violations: list[str] = []
    for idx, pg in enumerate(corpus):
        if pg.graph not in free:
            if not is_free(pg.graph, spec):
                raise SearchError(
                    f"corpus member {idx} is not C3|Theta4-free"
                )
            free.add(pg.graph)
        for rec in theta_pair_survey(pg):
            independent = not (set(rec.e) & set(rec.f))
            if independent and rec.shared < 2:
                violations.append(
                    f"member {idx}: independent E_I edges {rec.e} and "
                    f"{rec.f} share {rec.shared} < 2 theta vertices"
                )
            if (
                rec.shared == 2
                and rec.detached
                and rec.label not in ("D1", "D2", "D3")
            ):
                violations.append(
                    f"member {idx}: detached pair {rec.e},{rec.f} with "
                    f"two shared vertices classifies as {rec.label!r}"
                )
    return tuple(violations)


def _free_planes(
    pattern: str, orders: Iterable[int], keep: Callable[[Graph], bool]
) -> Iterator[PlaneGraph]:
    """Every sphere embedding, one per rotation system, of every
    connected pattern-free planar graph with a cycle at ``orders`` that
    ``keep`` accepts, in the labels of its node of :func:`_last_level`.

    The tree grows only pattern-free graphs, so no plane is tested for
    freeness, and each plane is made from the face walks its node
    inherits (:func:`_node_embeddings`), in their order, with no face
    traced again.  A tree has none and is skipped: it has no 3-face, so
    no lemma says anything about it.
    Connected graphs suffice for laws quantified over components: a
    triangular component, and likewise a theta configuration, lives
    inside one connectivity component, and material nested in another
    component's face can only remove host 3-faces.
    """
    spec = as_pattern(pattern)
    for n in orders:
        tree = _Augmentation(n, planar=True, spec=spec)
        for g, _, _, recipe in _last_level(tree):
            if g.is_connected() and keep(g):
                for _, systems, _ in _node_embeddings(g, recipe):
                    for walks in systems:
                        rotation = _walk_rotation(g.n, walks)
                        yield PlaneGraph._from_walks(g, rotation, walks)


def _on_triangles(g: Graph) -> bool:
    """Whether every vertex of ``g`` lies on a triangle."""
    bits = g.adj_bits
    covered = 0
    for u, v in g.edges:
        if bits[u] & bits[v]:
            covered |= 1 << u | 1 << v
    return covered == (1 << g.n) - 1


def scan_h4_component_density() -> tuple[str, ...]:
    """Exhaustive order-7 scan of the H4 component-density law.

    Decomposes every plane once: each sphere embedding of
    :func:`_free_planes` with each face in turn outer, of every connected
    H4-free planar graph on 7 vertices whose vertices all lie on
    triangles (a component of order >= 7 in a 7-vertex host spans it,
    and every component vertex lies on a 3-face).  Every component of
    order >= 7 is checked against the ``(6|D|-12)/(5|D|)`` limit.  The
    lemma exempts the antiprisms B15(8) and B15(10), which have 8 and 10
    vertices and so cannot be a component of a 7-vertex host; a scan
    raised to order 8 or more must exempt them again.  Expected empty.
    """
    violations: list[str] = []
    planes = _free_planes("H4", (7,), _on_triangles)
    for idx, pg in enumerate(chain.from_iterable(map(outer_variants, planes))):
        for comp in decompose(pg).components:
            size = len(comp.vertices)
            if size < 7:
                continue
            limit = families.bound(size, "lemma2").value
            if comp.density > limit:
                violations.append(
                    f"member {idx}: component on vertices "
                    f"{tuple(sorted(comp.vertices))} has density "
                    f"{comp.density} above (6|D|-12)/(5|D|) = {limit}"
                )
    return tuple(violations)


def scan_h5_component_density() -> tuple[tuple[str, ...], int]:
    """Exhaustive scan of the H5 component-density law at orders 3-6.

    Decomposes every plane once: each sphere embedding of
    :func:`_free_planes` with each face in turn outer, of every connected
    H5-free planar graph with a cycle and 3 to 6 vertices.  A triangular
    component of density above 1 is a violation; one of density exactly
    1 is counted and must be a B5 or B2p copy.

    Returns:
        The violations (expected empty) and the number of density-1
        components seen (expected positive -- the law must not hold
        vacuously).
    """
    violations: list[str] = []
    hits = 0
    planes = _free_planes("H5", range(3, 7), lambda g: True)
    for idx, pg in enumerate(chain.from_iterable(map(outer_variants, planes))):
        for comp in decompose(pg).components:
            if comp.density < 1:
                continue
            where = (
                f"member {idx}: component on vertices "
                f"{tuple(sorted(comp.vertices))}"
            )
            if comp.density > 1:
                violations.append(
                    f"{where} has density {comp.density} above 1"
                )
                continue
            hits += 1
            if families.h5_extremal_block(Graph.spanned_by(comp.edges)) is None:
                violations.append(
                    f"{where} has density 1 and is neither B5 nor B2p"
                )
    return tuple(violations), hits


def scan_theta_pairs() -> tuple[str, ...]:
    """Exhaustive scan of the theta-pair laws on C3|Theta4-free hosts.

    Covers every connected C3|Theta4-free planar graph with 4 to 7
    vertices that has at least two edges on two abstract triangles (an
    ``E_I`` edge lies on two 3-faces, so graphs below that threshold have
    no pairs, and each such graph has a cycle), over every sphere
    embedding of :func:`_free_planes`.  The laws are outer-face
    independent, so no outer fanout is needed.  Expected empty.
    """

    def has_pairs(g: Graph) -> bool:
        bits = g.adj_bits
        return sum((bits[u] & bits[v]).bit_count() >= 2 for u, v in g.edges) >= 2

    return verify_theta_pair_laws(_free_planes("C3|Theta4", range(4, 8), has_pairs))
