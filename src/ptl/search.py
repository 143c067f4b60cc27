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
minimum degree.  A child meets its tests cheapest first: McKay's degree
pre-test and planarity are read from the parent before the child is
built, then come the domain tests and the child's refined
trivial colouring, and only then at most one canonical search, whose
labeling and automorphism generators decide McKay's test, give the
child's subset orbits as a parent and relabel it when yielded.  The
tree is plain data with one traversal, :meth:`_Augmentation.levels`,
which grows it one order at a time.  The oracle, the direct census and
:func:`free_planar_corpus` take only pattern-free graphs: the tree
drops a child that contains the pattern through its new vertex.
Planarity needs no graph test per child.  If ``G`` is planar and a new
vertex joins the set ``S``, then ``G`` plus that vertex is planar iff every
component of ``G`` that ``S`` meets has some plane embedding with its
part of ``S`` on one face.  So each planar parent reads, once, the
maximal face-vertex bitmasks of each component over all its rotation
systems, and each child is decided by bitmask tests against them.  The
parent searches for no rotation system: it inherits the face walks of
every system of its components from its own parent, since deleting the
new vertex from a plane embedding leaves one of the parent's with the
vertex inside one face.  So the walks of a component that ``S`` lies in
are split at one corner per vertex of ``S`` (:func:`_split_faces`), and
only a component that ``S`` forms by joining components or closing a
cycle in a tree is searched afresh.

Rotation systems are searched for by one enumerator,
:func:`_rotation_systems`, which inserts edges into corners of one
face; it serves that fallback, :func:`_cofacial_masks` (the masks of
one graph, searched from scratch) and :func:`plane_embeddings`, which
builds one plane graph per rotation system, for every connected planar
graph alike (a 3-connected one yields its embedding and its mirror), and
the direct census and the lemma scans read every embedding from there,
with no networkx call.  The two component-density scans read each plane
once, from :func:`_free_planes`, and decompose it once; their hosts come
from :func:`free_planar_corpus`, so no plane is tested for freeness
again.
Every face, of a partial or a complete rotation system, is read from one
dart-orbit walk, :func:`ptl.embedding._dart_faces`.  The censuses build
no plane graph only to read faces back: a grown child is tested for
freeness on its abstract graph before its plane graph is built, and the
solid outer faces of an embedding come from its 3-faces by one
union-find.  Only the growth census tells sphere embeddings apart, by
:func:`_sphere_key`; the direct census checks every embedding and reads
no plane code, so it stays independent of the census it certifies.
The augmentation tree and the growth census both grow one order at a
time: each order's nodes are split into static shares, one per worker,
and the workers return the next order's nodes, as tree nodes or as
:class:`PlaneGraph` objects.  The oracle is one bottom-up pass over
orders ``1..n``, each seeded from the maximizers of the order below; the
pass yields each order's report, which covers that order's tree only,
so one pass serves a loop over ``n``.

Determinism contract: every report produced here is byte-identical across
runs and across worker counts once timing fields are stripped.  To that
end the oracle prunes against a fixed, constructively verified seed bound
(never a shared mutable incumbent), work is partitioned statically, and
its merges are order-insensitive (sums, maxima, sorted unions).  The
growth census keeps the first plane graph it meets of each sphere class
(one :func:`_sphere_key`), so which member it keeps depends on the
shares; but its report reads only which classes exist and each one's
canonical form, and every member of a class shares both.
"""

from __future__ import annotations

import json
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from fractions import Fraction
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
    _dart_faces,
    _least_plane_code,
    _orbit_partition,
    _refine_cells,
    _union_roots,
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
    "free_planar_corpus",
    "naive_planar_turan",
    "outer_variants",
    "plane_embeddings",
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


#: Order ceiling of :func:`enumerate_graphs` and :func:`free_planar_corpus`.
DEFAULT_CEILING = 9

#: Default order ceiling of :func:`exact_planar_turan` and
#: :func:`exact_planar_turan_orders`, whose pruned trees stay small.
ORACLE_DEFAULT_CEILING = 11

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


#: The plane embeddings of one component with a cycle: its vertex
#: bitmask, the face walks of each of its rotation systems (as
#: :func:`ptl.embedding._dart_faces` lists them) and the maximal vertex
#: bitmasks of those faces.
_Embeddings = tuple[int, list[tuple[tuple[int, ...], ...]], list[int]]

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


def _subset_reps(n: int, gens: Sequence[tuple[int, ...]], size: int) -> list[int]:
    """One representative per orbit of the vertex subsets of ``0..n-1``
    with at most ``size`` elements, under the group generated by
    ``gens``, as a vertex bitmask.

    Each orbit is closed breadth-first under the generators and
    represented by its smallest mask.  The result is sorted, so iteration
    order is deterministic.  An orbit keeps the size of its subsets, so
    the bound drops whole orbits and keeps the representatives of the
    rest.
    """
    masks = sorted(
        sum(1 << v for v in subset)
        for k in range(min(size, n) + 1)
        for subset in combinations(range(n), k)
    )
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


def _degree_rejects(g: Graph) -> Callable[[int], bool]:
    """McKay's degree pre-test, read from the parent ``g``: whether a new
    vertex joined to the vertex bitmask ``s`` has higher degree than some
    vertex of the child.

    That holds iff some vertex outside ``s`` has degree below ``|s|``, or
    some vertex of ``s`` has degree below ``|s| - 1`` (it gains the new
    vertex as a neighbour).
    """
    deg = [b.bit_count() for b in g.adj_bits]
    # below[k]: the vertices of degree below k
    below = [
        sum(1 << v for v in range(g.n) if deg[v] < k) for k in range(g.n + 1)
    ]

    def rejects(s: int) -> bool:
        k = s.bit_count()
        return bool(below[k] & ~s) or k > 0 and bool(below[k - 1] & s)

    return rejects


#: The tests a child meets in :meth:`_Augmentation.children`, in order;
#: a rejected child is counted under the first one it fails.
FATES = ("degree", "planarity", "domain", "mckay")


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
    degree, and only the subsets of at most the parent's minimum degree
    plus one are offered.
    Each child meets, in order, cheapest first: McKay's degree pre-test
    and planarity if ``planar``, both read from the parent before the
    child is built; the domain tests; and the rest of McKay's test (the
    child's root refinement, then one canonical search that also gives
    the child's labeling and generators).  Every test is exact, so the
    order changes which tests run, never which children are kept.
    :attr:`rejected` counts the offered children by the first test they
    fail (keys :data:`FATES`); the oracle reports the planarity and
    domain counts together as ``pruned``, which leaves out McKay's.

    The domain tests drop a child whose :func:`_edge_potential` at
    ``limit`` is below a nonzero ``seed``, then one that contains
    ``spec`` through its new vertex; the root meets them too.  So with
    ``spec`` the tree keeps exactly the free graphs and reaches them
    all: freeness is hereditary, and a graph's canonical parent is an
    induced subgraph.

    Planarity is read from the parent's cofacial masks, the maximal
    face-vertex bitmasks of its components with a cycle over all their
    rotation systems: a planar parent plus a vertex joined to ``S`` is
    planar iff, in every component ``S`` meets, ``S`` lies on one face
    of some embedding.  This needs every parent to be planar, which
    holds because the tree starts at one vertex and keeps only planar
    children.  The masks come from the face walks of every rotation
    system, which each node inherits from its parent rather than
    searches for (:func:`_node_embeddings`), built when its first child
    reaches the planarity step.  A kept child carries only the recipe,
    so the last order, whose nodes never become parents, builds no
    walks; without ``planar`` no walks are built and the recipes hold
    none.  The tree and its nodes are plain data, so pool workers
    receive them whole.
    """

    limit: int
    planar: bool
    spec: PatternSpec | None = None
    seed: int = 0
    rejected: dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(FATES, 0)
    )

    def children(self, node: _Node) -> list[_Node]:
        """The kept children of ``node``, in subset-representative order."""
        g, _, gens, recipe = node
        new = g.n
        rejected = self.rejected
        degree_rejects = _degree_rejects(g)
        kept: list[_Node] = []
        embeddings: tuple[_Embeddings, ...] = ()
        masks: list[tuple[int, list[int]]] | None = None
        # The canonical deletion vertex (the vertex carrying the first
        # canonical label) has minimum degree: canonical search ranks
        # vertices by ascending degree in its first refinement and
        # afterwards only splits cells.  A vertex of minimum degree in
        # the parent has at most one more in the child, so a new vertex
        # of degree above that fails McKay's test, and its subsets are
        # not listed; the pre-test rejects the rest of lower degree.
        delta = min(b.bit_count() for b in g.adj_bits)
        for s in _subset_reps(g.n, gens, delta + 1):
            if degree_rejects(s):
                rejected["degree"] += 1
                continue
            if self.planar:
                if masks is None:
                    embeddings = _node_embeddings(g, recipe)
                    masks = [(comp, faces) for comp, _, faces in embeddings]
                if not _cofacial(masks, s):
                    rejected["planarity"] += 1
                    continue
            child = g.with_new_vertex(v for v in range(new) if s >> v & 1)
            if self._outside(child):
                rejected["domain"] += 1
                continue
            # The rest of McKay's test: the new vertex must share an
            # automorphism orbit with the canonical deletion vertex.
            # Refinement and individualization only split cells and keep
            # them in order, so that vertex lies in the first cell of the
            # refined trivial colouring; orbits lie inside the cells of
            # that equitable colouring, so a new vertex outside the first
            # cell fails without a search.  The search starts from the
            # same cells, which it does not refine again.
            full = (1 << child.n) - 1
            cells = _refine_cells(child.adj_bits, [full], full)
            if not cells[0] >> new & 1:
                rejected["mckay"] += 1
                continue
            perm, child_gens = canonical_data(child, _root=cells)
            target = perm.index(0)
            if target != new:
                roots = _orbit_partition(child.n, child_gens)
                if roots[target] != roots[new]:
                    rejected["mckay"] += 1
                    continue
            kept.append((child, perm, child_gens, (embeddings, s)))
        return kept

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


def _embeddings(
    comp: int, systems: list[tuple[tuple[int, ...], ...]]
) -> _Embeddings:
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


def _searched_embeddings(edges: list[tuple[int, int]]) -> _Embeddings:
    """The :data:`_Embeddings` of the connected planar graph spanned by
    ``edges``, from every system of :func:`_rotation_systems`."""
    verts = sorted({v for e in edges for v in e})
    systems = [
        tuple(tuple(verts[v] for v in walk) for walk in _dart_faces(system)[1])
        for system in _rotation_systems(Graph.spanned_by(edges))
    ]
    return _embeddings(sum(1 << v for v in verts), systems)


def _split_faces(parent: _Embeddings, s: int, new: int) -> _Embeddings:
    """The embeddings of a component with a new vertex ``new`` joined to
    the vertex bitmask ``s`` inside it, from the component's own.

    Deleting the new vertex from a plane embedding of the child leaves
    one of the parent's, with the new vertex inside one face; so the
    child's rotation systems are the parent's with the new vertex put
    into a face whose walk holds ``s``, at one corner (one occurrence in
    the walk) per vertex of ``s``.  The corners at positions
    ``p_1 < ... < p_k`` split the walk ``W`` into the ``k`` walks
    ``W[p_i..p_{i+1}] + (new,)``, cyclically; for ``k = 1`` that is
    ``W[p:] + W[:p] + (W[p], new)``.  Distinct corners give distinct
    systems, so each system of the child is met once.
    """
    comp, systems, _ = parent
    k = s.bit_count()
    derived: list[tuple[tuple[int, ...], ...]] = []
    for walks in systems:
        for i, walk in enumerate(walks):
            where: dict[int, list[int]] = {}
            for p, v in enumerate(walk):
                if s >> v & 1:
                    where.setdefault(v, []).append(p)
            if len(where) < k:
                continue
            rest_before, rest_after = walks[:i], walks[i + 1 :]
            for corners in product(*where.values()):
                ps = sorted(corners)
                pieces = tuple(
                    walk[a : b + 1] + (new,) for a, b in zip(ps, ps[1:])
                ) + (walk[ps[-1] :] + walk[: ps[0] + 1] + (new,),)
                derived.append(rest_before + pieces + rest_after)
    return _embeddings(comp | 1 << new, derived)


def _node_embeddings(
    g: Graph, recipe: _Recipe
) -> tuple[_Embeddings, ...]:
    """The embeddings of the components with a cycle of the tree node
    ``g``, from its recipe: its parent's embeddings and the bitmask ``s``
    of the neighbours of its new vertex, the last one.

    Components that ``s`` misses are the parent's, unchanged.  When
    ``s`` lies in one of the parent's components with a cycle, that
    component's embeddings are split by :func:`_split_faces`, with no
    search.  Otherwise the new vertex joins several components or
    hangs on a tree, and its component, if that has a cycle, is
    searched afresh by :func:`_searched_embeddings`.
    """
    inherited, s = recipe
    if not s:
        return inherited
    new = g.n - 1
    kept = tuple(e for e in inherited if not e[0] & s)
    met = [e for e in inherited if e[0] & s]
    if len(met) == 1 and not s & ~met[0][0]:
        return kept + (_split_faces(met[0], s, new),)
    bits = g.adj_bits
    comp = frontier = 1 << new
    while frontier:
        v = (frontier & -frontier).bit_length() - 1
        frontier &= frontier - 1
        fresh = bits[v] & ~comp
        comp |= fresh
        frontier |= fresh
    edges = [e for e in g.edges if comp >> e[0] & 1]
    if len(edges) < comp.bit_count():
        return kept
    return kept + (_searched_embeddings(edges),)


def _cofacial_masks(g: Graph) -> list[tuple[int, list[int]]]:
    """The cofacial masks of a planar graph, searched from scratch.

    One pair per component with a cycle: the component's vertex bitmask
    and the maximal vertex bitmasks of its faces over all of its rotation
    systems.  A tree component has one face, holding all its vertices, so
    it is left out and nothing is enumerated for it.  The augmentation
    tree derives the same masks from its parents
    (:func:`_node_embeddings`).
    """
    roots = _union_roots(g.n, g.edges)
    spans: dict[int, list[tuple[int, int]]] = {}
    for e in g.edges:
        spans.setdefault(roots[e[0]], []).append(e)
    masks: list[tuple[int, list[int]]] = []
    for edges in spans.values():
        if len(edges) >= len({v for e in edges for v in e}):
            comp, _, maximal = _searched_embeddings(edges)
            masks.append((comp, maximal))
    return masks


def _cofacial(masks: list[tuple[int, list[int]]], s: int) -> bool:
    """Whether the parent whose :func:`_cofacial_masks` are ``masks``
    stays planar with a new vertex joined to the vertex bitmask ``s``:
    within every component it meets, ``s`` lies on one face."""
    return all(
        not s & comp or any(not s & comp & ~f for f in faces)
        for comp, faces in masks
    )


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
    yield from _graphs_of_order(_Augmentation(n, planar=planar), connected)


def _graphs_of_order(tree: _Augmentation, connected: bool) -> Iterator[Graph]:
    """The canonically relabeled graphs of order ``tree.limit`` in
    ``tree``, as :func:`enumerate_graphs` documents them."""
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
        nodes = (child for parent in nodes for child in tree.children(parent))
    for g, perm, _, _ in nodes:
        if not connected or g.is_connected():
            yield g.relabeled(perm)


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
            McKay's degree pre-test, non-planarity, the domain prunes
            (edge potential, pattern containment) and the rest of
            McKay's test.  A neighbourhood larger than the parent's
            minimum degree plus one is never offered.
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
        """Children discarded as non-planar or by the domain prunes."""
        return self.rejected["planarity"] + self.rejected["domain"]

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
    maximizers: list[Graph], n: int, spec: PatternSpec
) -> int:
    """A verified lower bound for ``ex_P(n, pattern)`` from the order
    below: the most edges of one of its ``maximizers`` plus one new
    vertex, kept planar and pattern-free (0 with no maximizer).

    A maximizer is connected and pattern-free, so the extension is
    connected, and free unless it contains the pattern through its new
    vertex; planarity is read from the maximizer's cofacial masks.
    Neighbourhoods are tried largest first, so each maximizer stops at
    its best one.
    """
    best = 0
    for g in maximizers:
        masks = _cofacial_masks(g)
        for k in range(min(g.n, _planar_cap(n) - g.m), max(best - g.m, 0), -1):
            if any(
                _cofacial(masks, sum(1 << v for v in nbrs))
                and contains_subgraph_at(g.with_new_vertex(nbrs), spec, g.n)
                is None
                for nbrs in combinations(range(g.n), k)
            ):
                best = g.m + k
                break
    return best


def _solve(
    max_n: int, spec: PatternSpec, workers: int, start: float
) -> Iterator[SearchReport]:
    """The oracle's pass: the report of each order ``1..max_n`` in turn,
    each seeded from the maximizers of the order below.  Only order
    ``max_n`` grows at ``workers``; ``elapsed_ms`` runs from ``start``."""
    bound_name = _BOUND_FOR_PATTERN.get(spec.name)
    maximizers: list[Graph] = []
    for n in range(1, max_n + 1):
        seed = max(_seed_bound(n, spec), _extension_bound(maximizers, n, spec))
        tree = _Augmentation(n, planar=True, spec=spec, seed=seed)
        enumerated = 0
        for level in tree.levels(workers if n == max_n else 1):
            enumerated += len(level)
        final = [(g, perm) for g, perm, _, _ in level if g.is_connected()]
        best = max((g.m for g, _ in final), default=-1)
        if best < 0:
            raise SearchError(
                f"no connected {spec.name}-free planar graph of order {n} exists"
            )
        if best < seed:
            raise AssertionError(
                "exhaustive search missed its own seed construction -- internal error"
            )
        maximizers = [g.relabeled(perm) for g, perm in final if g.m == best]
        bound = None if bound_name is None else families.bound(n, bound_name)
        yield SearchReport(
            n=n,
            pattern=spec.name,
            ex=best,
            witnesses=tuple(sorted(graph6_encode(g).decode() for g in maximizers)),
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


def _arc_runs_ok(mask: int, length: int) -> bool:
    """Whether the selected walk positions form cyclic runs of length >= 2
    (a full selection is one run covering the cycle): every selected
    position has a selected cyclic neighbour."""
    full = (1 << length) - 1
    rotl = (mask << 1 | mask >> (length - 1)) & full
    rotr = (mask >> 1 | mask << (length - 1)) & full
    return not mask & ~(rotl | rotr)


def _grown_children(pg: PlaneGraph, spec: PatternSpec) -> Iterator[PlaneGraph]:
    """All pattern-free one-vertex plane extensions of ``pg`` whose new
    spokes land on cyclic runs of >= 2 consecutive boundary vertices of a
    single face.

    In a solid TB every spoke of a removable vertex lies on an inner
    3-face, which forces exactly this run structure, so these moves invert
    the vertex deletion of the classification's reduction step.  Freeness
    is tested on the child's abstract graph, so a plane graph is built
    only for a pattern-free child.  Children come face by face, then by
    increasing selection mask; the census keeps the first of each class.
    """
    new = pg.graph.n
    for face in pg.faces():
        walk = face.walk
        length = len(walk)
        if length < 2 or len(set(walk)) != length:
            continue
        for mask in range(1, 1 << length):
            if not _arc_runs_ok(mask, length):
                continue
            sel = [i for i in range(length) if mask >> i & 1]
            graph = pg.graph.with_new_vertex(walk[i] for i in sel)
            if not is_free(graph, spec):
                continue
            rotation = [list(r) for r in pg.rotation]
            rotation.append([walk[i] for i in reversed(sel)])
            for i in sel:
                w = walk[i]
                prev = walk[(i - 1) % length]
                rotation[w].insert(rotation[w].index(prev) + 1, new)
            yield PlaneGraph.build(
                graph, tuple(tuple(r) for r in rotation), outer_walk=None
            )


def _sphere_key(rotation: Sequence[Sequence[int]]) -> bytes:
    """Canonical key of a connected rotation system up to isomorphism and
    reflection: the least plane code from a dart of it or of its mirror
    image whose end degrees form the least unordered pair.

    Those darts are closed under reversal, as the mirror's codes need,
    and every isomorphism and reflection keeps them, so two systems get
    equal keys exactly when codes from every dart would.  The key needs
    no faces, so no outer face either.
    """
    deg = [len(r) for r in rotation]
    pairs = {
        (v, w): (min(deg[v], deg[w]), max(deg[v], deg[w]))
        for v, r in enumerate(rotation)
        for w in r
    }
    least = min(pairs.values(), default=None)
    return _least_plane_code(
        rotation, (dart for dart, pair in pairs.items() if pair == least)
    )


def _solid_outer_faces(pg: PlaneGraph) -> list[Face]:
    """Faces whose designation as outer makes ``pg`` a single spanning
    solid TB.

    With outer face ``f`` the inner 3-faces are every 3-face but ``f``.
    They form one block spanning ``pg`` iff every edge lies on one of
    them and they are chained through shared edges.  Such a block is
    solid: its plane subgraph is ``pg`` itself, so its holes are the
    inner faces that are not 3-faces, and none of them is bounded by a
    3-cycle.  (It is also 2-connected, by ear induction over the chain.)
    """
    faces = pg.faces()
    triangles = [f for f in faces if f.is_triangle()]
    result: list[Face] = []
    for outer in faces:
        inner = [t for t in triangles if t != outer]
        covered = {e for t in inner for e in t.edge_set}
        if len(covered) == pg.graph.m and len(_triangle_classes(inner)) == 1:
            result.append(outer)
    return result


def _tb_worker(
    args: tuple[tuple[PlaneGraph, ...], PatternSpec],
) -> list[tuple[bytes, PlaneGraph]]:
    """Expand one share of census parents (picklable entry point).

    Returns ``(sphere key, child)``, in the order found, for the first
    child met of each sphere class if it admits a solid-TB outer face;
    the members of a class agree on that, so the later ones are skipped.
    """
    parents, spec = args
    seen: set[bytes] = set()
    out: list[tuple[bytes, PlaneGraph]] = []
    for parent in parents:
        for child in _grown_children(parent, spec):
            key = _sphere_key(child.rotation)
            if key not in seen:
                seen.add(key)
                if _solid_outer_faces(child):
                    out.append((key, child))
    return out


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
    frontier: dict[bytes, PlaneGraph] = {_sphere_key(base.rotation): base}
    found: dict[int, tuple[str, ...]] = {
        3: (canonical_form(base.graph).decode("ascii"),)
    }
    with _share_map(workers) as share_map:
        for order in range(4, max_order + 1):
            parents = list(frontier.values())
            args = [(tuple(parents[i::workers]), spec) for i in range(workers)]
            frontier = {}
            for rows in share_map(_tb_worker, args):
                for key, pg in rows:
                    frontier.setdefault(key, pg)
            if order % 2 == 0 and order >= 6:
                pg = families.catalog_block("B15", order).plane
                if is_free(pg.graph, spec):
                    frontier.setdefault(_sphere_key(pg.rotation), pg)
            forms = {
                canonical_form(pg.graph).decode("ascii")
                for pg in frontier.values()
            }
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


def certify_solid_tbs_direct(
    max_order: int,
    pattern: "PatternSpec | Graph | str",
) -> dict[int, tuple[str, ...]]:
    """Independent census of pattern-free solid TBs at orders <= 9.

    For every connected pattern-free planar graph of order 3 to
    ``max_order`` (every level of the planar augmentation tree, which
    keeps only pattern-free children like the oracle's, each graph
    canonically relabeled as :func:`enumerate_graphs` yields it) that is
    2-connected and has every edge on a triangle, every sphere embedding
    is read from :func:`plane_embeddings`, and the graph counts iff some
    embedding and outer-face choice is a single spanning solid TB.  That
    verdict does not depend on telling embeddings apart, so none is
    skipped as a repeat.  This procedure never uses the growth
    reduction or its sphere keys, so it certifies
    :func:`enumerate_solid_tbs` where their ranges overlap; on
    disagreement this direct census is authoritative.

    Returns:
        Per order, the sorted canonical graph6 forms (ASCII).
    """
    if max_order > 9:
        raise SearchError(
            "direct certification is limited to orders <= 9 "
            "(it walks every pattern-free planar graph of each order up to "
            "max_order)"
        )
    if max_order < 3:
        raise SearchError("max_order must be at least 3")
    tree = _Augmentation(max_order, planar=True, spec=as_pattern(pattern))
    forms: dict[int, set[str]] = {k: set() for k in range(3, max_order + 1)}
    for g, perm, _, _ in chain.from_iterable(tree.levels()):
        if g.n < 3 or not g.is_connected():
            continue
        g = g.relabeled(perm)
        bits = g.adj_bits
        if any(not bits[u] & bits[v] for u, v in g.edges):
            continue
        if not _is_biconnected(g):
            continue
        if any(_solid_outer_faces(pg) for pg in plane_embeddings(g)):
            forms[g.n].add(graph6_encode(g).decode("ascii"))
    return {k: tuple(sorted(v)) for k, v in forms.items()}


# =========================================================================
# Corpus construction and lemma-law verification
# =========================================================================


def free_planar_corpus(
    n: int, pattern: "PatternSpec | Graph | str"
) -> tuple[Graph, ...]:
    """All connected pattern-free planar graphs of order ``n``, up to
    isomorphism.

    The augmentation tree drops every child that contains the pattern
    through its new vertex, and the root if it contains the pattern, so
    only free graphs are grown.

    Connected graphs suffice for laws quantified over components: a
    triangular component, and likewise a theta configuration, lives
    inside one connectivity component, and material nested in another
    component's face can only remove host 3-faces.

    Args:
        n: Order of the corpus members.
        pattern: The pattern every member must avoid.

    Raises:
        CeilingExceededError: If ``n`` exceeds :data:`DEFAULT_CEILING`.
        SearchError: If ``n < 1``.
    """
    tree = _Augmentation(n, planar=True, spec=as_pattern(pattern))
    return tuple(_graphs_of_order(tree, connected=True))


def plane_embeddings(g: Graph) -> Iterator[PlaneGraph]:
    """Every sphere embedding of a connected planar graph.

    One per rotation system of :func:`_rotation_systems`, once each, in
    sorted rotation order, whatever the connectivity of ``g``: a
    3-connected graph yields its embedding and its mirror image.
    Embeddings equal up to isomorphism or reflection are all yielded;
    the laws checked on them do not depend on the embedding's labels or
    handedness.  The outer face of the yielded graphs is arbitrary --
    callers that care about the inner/outer distinction should fan out
    with :func:`outer_variants`.

    Args:
        g: Connected planar graph.

    Raises:
        ValueError: If ``g`` is empty, disconnected or not planar.  No
            Kuratowski witness is computed; :func:`ptl.embedding.embed`
            gives one.
    """
    systems = _rotation_systems(g)
    if not systems:
        raise ValueError("graph is not planar")
    for system in systems:
        yield PlaneGraph.build(g, system)


def outer_variants(pg: PlaneGraph) -> Iterator[PlaneGraph]:
    """The same sphere embedding with each face designated as outer."""
    for f in pg.faces():
        yield pg.with_outer(f)


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
    import networkx as nx

    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, max_n)
        # Uniform random tree via a random Pruefer sequence.
        seq = [rng.randrange(n) for _ in range(n - 2)]
        edges: set[tuple[int, int]] = set()
        if n >= 2:
            tree = nx.from_prufer_sequence(seq)
            edges = {(min(u, v), max(u, v)) for u, v in tree.edges}
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
    """Every sphere embedding, with each face in turn as the outer face,
    of every graph of :func:`free_planar_corpus` at ``orders`` that
    ``keep`` accepts.  The corpus grows only pattern-free graphs, so the
    planes need no freeness test."""
    for n in orders:
        for g in free_planar_corpus(n, pattern):
            if keep(g):
                for pg in plane_embeddings(g):
                    yield from outer_variants(pg)


def scan_h4_component_density() -> tuple[str, ...]:
    """Exhaustive order-7 scan of the H4 component-density law.

    Decomposes every plane of :func:`_free_planes` once: all sphere
    embeddings and outer faces of every connected H4-free planar graph on
    7 vertices whose vertices all lie on triangles (a component of order
    >= 7 in a 7-vertex host spans it, and every component vertex lies on
    a 3-face).  Every component of order >= 7 is checked against the
    ``(6|D|-12)/(5|D|)`` limit.  The lemma exempts the antiprisms B15(8)
    and B15(10), which have 8 and 10 vertices and so cannot be a
    component of a 7-vertex host; a scan raised to order 8 or more must
    exempt them again.  Expected empty.
    """

    def on_triangles(g: Graph) -> bool:
        bits = g.adj_bits
        covered = 0
        for u, v in g.edges:
            if bits[u] & bits[v]:
                covered |= 1 << u | 1 << v
        return covered == (1 << g.n) - 1

    violations: list[str] = []
    for idx, pg in enumerate(_free_planes("H4", (7,), on_triangles)):
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

    Decomposes every plane of :func:`_free_planes` once: all sphere
    embeddings and outer faces of every connected H5-free planar graph
    with 3 to 6 vertices.  A triangular component of density above 1 is
    a violation; one of density exactly 1 is counted and must be a B5 or
    B2p copy.

    Returns:
        The violations (expected empty) and the number of density-1
        components seen (expected positive -- the law must not hold
        vacuously).
    """
    allowed = {
        canonical_form(families.catalog_block(name).graph)
        for name in ("B5", "B2p")
    }
    violations: list[str] = []
    hits = 0
    for idx, pg in enumerate(_free_planes("H5", range(3, 7), lambda g: True)):
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
            if canonical_form(Graph.spanned_by(comp.edges)) not in allowed:
                violations.append(
                    f"{where} has density 1 and is neither B5 nor B2p"
                )
    return tuple(violations), hits


def scan_theta_pairs() -> tuple[str, ...]:
    """Exhaustive scan of the theta-pair laws on C3|Theta4-free hosts.

    Covers every connected C3|Theta4-free planar graph with 4 to 7
    vertices that has at least two edges on two abstract triangles (an
    ``E_I`` edge lies on two 3-faces, so graphs below that threshold have
    no pairs), over every sphere embedding of :func:`plane_embeddings`.
    The laws are outer-face independent, so no outer fanout is needed.
    Expected empty.
    """
    violations: list[str] = []
    for n in range(4, 8):
        for g in free_planar_corpus(n, "C3|Theta4"):
            bits = g.adj_bits
            if sum(
                (bits[u] & bits[v]).bit_count() >= 2 for u, v in g.edges
            ) < 2:
                continue
            violations.extend(verify_theta_pair_laws(plane_embeddings(g)))
    return tuple(violations)
