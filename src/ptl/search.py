"""Exhaustive small-order search.

The engines:

* :func:`enumerate_graphs` -- isomorph-free generation of all graphs of a
  given order, with optional connectivity / planarity / edge-count filters.
* :func:`exact_planar_turan` -- the exact oracle for the maximum edge count
  of a pattern-free planar graph on ``n`` vertices, with witnesses.
* :func:`enumerate_solid_tbs` -- the census of pattern-free solid
  triangular blocks, grown order by order and diffed against the expected
  catalog; :func:`certify_solid_tbs_direct` is the independent slow census
  used to certify the growth procedure at small orders.

The first, the second and the direct census walk one canonical
augmentation core, :class:`_Augmentation`.  A child costs at most one
canonical search, whose labeling and automorphism generators decide
McKay's test, give the child's subset orbits as a parent and relabel it
when yielded; the direct census takes every order from one walk.
Planarity needs no test per child.  If ``G`` is planar and a new vertex
joins the set ``S``, then ``G`` plus that vertex is planar iff every
component of ``G`` that ``S`` meets has some plane embedding with its
part of ``S`` on one face.  So each planar parent computes, once, the
maximal face-vertex bitmasks of each component over all its rotation
systems, and each child is decided by bitmask tests against them.

Rotation systems come from one enumerator, :func:`_rotation_systems`,
which inserts edges into corners of one face; :func:`plane_embeddings`
builds on it, and the direct census reads its embeddings from there.
Every face, of a partial or a complete rotation system, is read from one
dart-orbit walk, :func:`ptl.embedding._dart_faces`.  Census workers
receive and return :class:`PlaneGraph` objects, like the oracle's.

Determinism contract: every report produced here is byte-identical across
runs and across worker counts once timing fields are stripped.  To that
end the oracle prunes against a fixed, constructively verified seed bound
(never a shared mutable incumbent), work is partitioned statically, and
all merges are order-insensitive (sums, maxima, sorted unions).
"""

from __future__ import annotations

import json
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterable, Iterator, Sequence

from . import families
from .decomposition import decompose, e_i_analysis, theta_pair_survey
from .embedding import (
    Face,
    Graph,
    PlaneGraph,
    _dart_faces,
    _orbit_partition,
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
    "DensityViolation",
    "SearchError",
    "SearchReport",
    "TBCatalogReport",
    "certify_solid_tbs_direct",
    "enumerate_graphs",
    "enumerate_solid_tbs",
    "exact_planar_turan",
    "free_planar_corpus",
    "naive_planar_turan",
    "outer_variants",
    "plane_embeddings",
    "random_plane_corpus",
    "scan_h4_component_density",
    "scan_h5_component_density",
    "scan_theta_pairs",
    "verify_component_density",
    "verify_counting_identity",
    "verify_density_equality",
    "verify_theta_pair_laws",
]


class SearchError(ValueError):
    """Invalid search request or corpus."""


class CeilingExceededError(SearchError):
    """Requested order exceeds the configured enumeration ceiling."""


#: Default enumeration ceiling for :func:`enumerate_graphs` and
#: :func:`exact_planar_turan`.
DEFAULT_CEILING = 9

#: Default order ceilings for the solid-TB census, per pattern.
TB_DEFAULT_CEILING = {"H4": 9, "H5": 10}

#: Order at which the oracle's search tree is split into worker subtrees.
_ROOT_ORDER = 5


# =========================================================================
# Canonical augmentation core
# =========================================================================


#: A node of the augmentation tree: the graph, its canonical labeling
#: (``perm[old] = new``) and generators of its automorphism group, all
#: from one canonical search.
_Node = tuple[Graph, tuple[int, ...], list[tuple[int, ...]]]

#: The one-vertex graph every augmentation tree grows from.
_ROOT: _Node = (Graph.from_edges(1, []), (0,), [])


def _subset_reps(n: int, gens: Sequence[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """One representative per orbit of vertex subsets of ``0..n-1`` under
    the group generated by ``gens``.

    Subsets are handled as bitmasks; each orbit is closed breadth-first
    under the generators and represented by its smallest mask.  The
    result is sorted by mask, so iteration order is deterministic.
    """
    total = 1 << n
    if not gens:
        return [
            tuple(v for v in range(n) if mask >> v & 1) for mask in range(total)
        ]
    seen = bytearray(total)
    reps: list[int] = []
    for mask in range(total):
        if seen[mask]:
            continue
        reps.append(mask)
        seen[mask] = 1
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
                if not seen[img]:
                    seen[img] = 1
                    stack.append(img)
    return [tuple(v for v in range(n) if mask >> v & 1) for mask in reps]


@dataclass
class _Augmentation:
    """McKay's canonical augmentation ("Isomorph-free exhaustive
    generation", J. Algorithms 26, 1998), walked depth first to order
    ``limit``.

    A child is its parent plus one new vertex attached to one
    representative subset per orbit of the parent's automorphism group.
    Each child meets, in order: the caller's domain ``prune``, McKay's
    test (a degree pre-test, then one canonical search that also gives
    the child's labeling and generators), and planarity if ``planar``.
    :attr:`pruned` counts the children rejected by ``prune`` or
    planarity, not those failing McKay's test.

    Planarity is read from the parent's cofacial masks
    (:func:`_cofacial_masks`), computed when its first child reaches
    that step: a planar parent plus a vertex joined to ``S`` is planar
    iff, in every component ``S`` meets, ``S`` lies on one face of some
    embedding.  This needs every parent to be planar, which holds
    because the tree starts at one vertex and keeps only planar
    children.
    """

    limit: int
    planar: bool
    prune: Callable[[Graph], bool] | None = None
    pruned: int = 0

    def children(self, node: _Node) -> list[_Node]:
        """The kept children of ``node``, in subset-representative order."""
        g, _, gens = node
        new = g.n
        kept: list[_Node] = []
        masks: list[tuple[int, list[int]]] | None = None
        for nbrs in _subset_reps(g.n, gens):
            child = g.with_new_vertex(nbrs)
            if self.prune is not None and self.prune(child):
                self.pruned += 1
                continue
            # McKay's test: the new vertex must share an automorphism
            # orbit with the canonical deletion vertex (the vertex
            # carrying the last canonical label).  Canonical search ranks
            # vertices by degree in its first refinement and afterwards
            # only splits cells, so that vertex has maximum degree, and a
            # new vertex of lower degree fails without a search.
            bits = child.adj_bits
            if bits[new].bit_count() < max(map(int.bit_count, bits)):
                continue
            perm, child_gens = canonical_data(child)
            target = perm.index(new)
            if target != new:
                roots = _orbit_partition(child.n, child_gens)
                if roots[target] != roots[new]:
                    continue
            if self.planar:
                if masks is None:
                    masks = _cofacial_masks(g)
                if not _cofacial(masks, bits[new]):
                    self.pruned += 1
                    continue
            kept.append((child, perm, child_gens))
        return kept

    def walk(self, start: _Node) -> Iterator[_Node]:
        """Every node of the tree below ``start`` (inclusive), in preorder;
        nodes of order ``limit`` are not expanded."""
        stack = [start]
        while stack:
            node = stack.pop()
            yield node
            if node[0].n < self.limit:
                stack.extend(reversed(self.children(node)))


def _planar_cap(k: int) -> int:
    """Maximum edges of a planar graph on ``k`` vertices."""
    return k * (k - 1) // 2 if k < 3 else 3 * k - 6


def _edge_potential(m: int, k: int, n: int) -> int:
    """Largest final edge count reachable from a ``k``-vertex partial
    graph with ``m`` edges when growing to order ``n`` planar (each added
    vertex contributes at most its degree; every stage obeys the planar
    cap)."""
    p = m
    for j in range(k + 1, n + 1):
        p = min(p + j - 1, _planar_cap(j))
    return p


def _cofacial_masks(g: Graph) -> list[tuple[int, list[int]]]:
    """The cofacial masks of a planar graph.

    One pair per component with a cycle: the component's vertex bitmask
    and the maximal vertex bitmasks of its faces over all of its rotation
    systems.  A tree component has one face, holding all its vertices, so
    it is left out and nothing is enumerated for it.
    """
    roots = _union_roots(g.n, g.edges)
    spans: dict[int, list[tuple[int, int]]] = {}
    for e in g.edges:
        spans.setdefault(roots[e[0]], []).append(e)
    masks: list[tuple[int, list[int]]] = []
    for edges in spans.values():
        verts = sorted({v for e in edges for v in e})
        if len(edges) < len(verts):
            continue
        faces: set[int] = set()
        for system in _rotation_systems(Graph.spanned_by(edges)):
            for walk in _dart_faces(system)[1]:
                bits = 0
                for v in walk:
                    bits |= 1 << verts[v]
                faces.add(bits)
        maximal: list[int] = []
        for f in sorted(faces, key=int.bit_count, reverse=True):
            if all(f & ~kept for kept in maximal):
                maximal.append(f)
        masks.append((sum(1 << v for v in verts), maximal))
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
    min_edges: int | None = None,
    max_edges: int | None = None,
    ceiling: int | None = None,
) -> Iterator[Graph]:
    """Stream one canonically labeled representative per isomorphism class.

    Generation is by canonical augmentation from the one-vertex graph: a
    child (parent plus one new vertex, attached to one representative
    neighborhood per automorphism orbit) is kept iff its canonical
    deletion vertex is equivalent to the vertex just added, which yields
    isomorph-free output without a global seen-set.

    Args:
        n: Target order, ``1 <= n <= ceiling``.
        connected: Keep only connected graphs (applied at the final order;
            connectivity is not hereditary, so partial graphs are never
            pruned by it).
        planar: Keep only planar graphs (hereditary, so non-planar partial
            graphs are pruned during growth).
        min_edges: Minimum edge count at the final order.
        max_edges: Maximum edge count (hereditary prune).
        ceiling: Enumeration ceiling; defaults to :data:`DEFAULT_CEILING`.

    Yields:
        Canonically labeled graphs, in deterministic order.

    Raises:
        CeilingExceededError: If ``n`` exceeds the ceiling.
        SearchError: If ``n < 1``.
    """
    limit = DEFAULT_CEILING if ceiling is None else ceiling
    if n < 1:
        raise SearchError("order must be at least 1")
    if n > limit:
        raise CeilingExceededError(f"order {n} exceeds the ceiling {limit}")

    def prune(child: Graph) -> bool:
        if max_edges is not None and child.m > max_edges:
            return True
        if min_edges is None:
            return False
        if planar:
            return _edge_potential(child.m, child.n, n) < min_edges
        return child.m + sum(range(child.n, n)) < min_edges

    tree = _Augmentation(n, planar=planar, prune=prune)
    for g, perm, _ in tree.walk(_ROOT):
        if g.n < n or (connected and not g.is_connected()):
            continue
        if min_edges is None or g.m >= min_edges:
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
            over all orders.
        pruned: Candidate children discarded by the domain prunes
            (edge-potential, pattern containment, non-planarity).
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
    pruned: int
    elapsed_ms: int
    bound_name: str | None
    bound_value: Fraction | None
    bound_in_range: bool | None

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
    """Candidate pattern-free planar graphs used to seed the prune bound.

    Every candidate is connected and planar by construction; freeness is
    verified by the caller, so an unsuitable candidate is simply skipped
    and the seed stays a true lower bound.
    """
    yield Graph.path(n)
    if n >= 3:
        yield Graph.from_edges(
            n,
            [(i, i + 1) for i in range(n - 1)]
            + [(i, i + 2) for i in range(n - 2)],
        )
    if n >= 4:
        hub_rim = [(0, i) for i in range(1, n)]
        rim = [(i, i % (n - 1) + 1) for i in range(1, n)]
        yield Graph.from_edges(n, hub_rim + rim)
        spine = [(0, 1)]
        joins = [(h, i) for h in (0, 1) for i in range(2, n)]
        path = [(i, i + 1) for i in range(2, n - 1)]
        yield Graph.from_edges(n, spine + joins + path)
    if n == 5:
        yield families.catalog_block("B5").graph
    if n == 6:
        yield families.catalog_block("B2p").graph
        yield families.catalog_block("B9").graph
    if n >= 6 and n % 2 == 0:
        yield families.catalog_block("B15", n).graph
    if n >= 6:
        yield families.k2_plus_matching(n).plane.graph


def _seed_bound(n: int, spec: PatternSpec) -> int:
    """A verified constructive lower bound for ``ex_P(n, pattern)``.

    The maximum edge count over the seed candidates that are actually
    pattern-free.  Soundness of the oracle's pruning requires a true
    lower bound, so freeness and connectivity are checked here rather
    than assumed; with no qualifying candidate the seed is 0 and pruning
    is vacuous.
    """
    best = 0
    for g in _seed_candidates(n):
        if g.n == n and g.m > best and g.is_connected() and is_free(g, spec):
            best = g.m
    return best


def _turan_tree(n: int, spec: PatternSpec, seed: int, limit: int) -> _Augmentation:
    """The oracle's augmentation tree to order ``limit``, pruned when a
    child cannot reach ``seed`` edges at order ``n`` or contains the
    pattern through its new vertex (a free parent has no other copy)."""

    def prune(child: Graph) -> bool:
        return (
            _edge_potential(child.m, child.n, n) < seed
            or contains_subgraph_at(child, spec, child.n - 1) is not None
        )

    return _Augmentation(limit, planar=True, prune=prune)


def _turan_roots(
    n: int, spec: PatternSpec, seed: int, root_order: int
) -> tuple[int, int, list[_Node]]:
    """Serial phase: grow the tree up to ``root_order`` under the oracle
    prunes.  Returns counts for the orders below ``root_order`` plus the
    subtree roots (each root is counted by its own subtree later), sorted
    by canonical form."""
    tree = _turan_tree(n, spec, seed, root_order)
    enumerated = 0
    roots: list[_Node] = []
    for node in tree.walk(_ROOT):
        if node[0].n == root_order:
            roots.append(node)
        else:
            enumerated += 1
    roots.sort(key=lambda node: graph6_encode(node[0].relabeled(node[1])))
    return enumerated, tree.pruned, roots


def _turan_worker(
    args: tuple[tuple[_Node, ...], int, PatternSpec, int],
) -> tuple[int, int, int, list[bytes]]:
    """Explore one static share of subtree roots (picklable entry point).

    Returns ``(enumerated, pruned, best, witnesses)`` where ``best`` is
    the highest edge count of a connected pattern-free planar graph of
    order ``n`` found in the share (``-1`` if none) and ``witnesses``
    are the sorted canonical forms attaining it.
    """
    roots, n, spec, seed = args
    tree = _turan_tree(n, spec, seed, n)
    enumerated = 0
    best = -1
    witnesses: set[bytes] = set()
    for root in roots:
        for g, perm, _ in tree.walk(root):
            enumerated += 1
            if g.n < n or g.m < best or not g.is_connected():
                continue
            form = graph6_encode(g.relabeled(perm))
            if g.m > best:
                best = g.m
                witnesses = {form}
            else:
                witnesses.add(form)
    return enumerated, tree.pruned, best, sorted(witnesses)


def exact_planar_turan(
    n: int,
    pattern: "PatternSpec | Graph | str",
    *,
    workers: int = 1,
    ceiling: int | None = None,
) -> SearchReport:
    """Exact maximum edge count of a pattern-free planar graph on ``n``
    vertices, with all maximizers.

    The augmentation tree over planar pattern-free graphs is explored
    exhaustively; maximizers are reported among connected graphs, which
    is no restriction for the catalog patterns: every component of each
    pattern is 2-edge-connected, so joining components of a free graph by
    a bridge cannot create a pattern copy, and some maximizer is always
    connected.

    Branches are pruned when even completing to the planar cap cannot
    reach the seed bound -- a constructively verified lower bound
    (:func:`_seed_bound`), fixed for the whole run so that reports are
    byte-identical across worker counts.

    Args:
        n: Graph order, ``1 <= n <= ceiling``.
        pattern: Pattern name, spec, or graph.
        workers: Static partition width; subtree shares are processed in
            parallel when > 1.  Results are identical for every value.
        ceiling: Enumeration ceiling; defaults to :data:`DEFAULT_CEILING`.

    Returns:
        The :class:`SearchReport`, including the relevant theorem-bound
        comparison for the ``H4``/``H5``/``H6`` patterns.
    """
    limit = DEFAULT_CEILING if ceiling is None else ceiling
    if n < 1:
        raise SearchError("order must be at least 1")
    if n > limit:
        raise CeilingExceededError(f"order {n} exceeds the ceiling {limit}")
    if workers < 1:
        raise SearchError("worker count must be at least 1")
    spec = as_pattern(pattern)
    start = time.monotonic()
    seed = _seed_bound(n, spec)
    root_order = min(n, _ROOT_ORDER)
    enumerated, pruned, roots = _turan_roots(n, spec, seed, root_order)
    args = [(tuple(roots[i::workers]), n, spec, seed) for i in range(workers)]
    if workers == 1:
        results = [_turan_worker(a) for a in args]
    else:
        # A fork pool starts all its processes at the first submit, so
        # it gets no more than the cores; the shares stay ``workers``.
        cores = min(workers, os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=cores) as pool:
            results = list(pool.map(_turan_worker, args))
    best = -1
    witnesses: set[bytes] = set()
    for e, p, b, wits in results:
        enumerated += e
        pruned += p
        if b > best:
            best = b
            witnesses = set(wits)
        elif b == best:
            witnesses |= set(wits)
    if best < 0:
        raise SearchError(
            f"no connected {spec.name}-free planar graph of order {n} exists"
        )
    if best < seed:
        raise AssertionError(
            "exhaustive search missed its own seed construction -- "
            "internal error"
        )
    elapsed_ms = int((time.monotonic() - start) * 1000)
    bound_name = _BOUND_FOR_PATTERN.get(spec.name)
    bound_value = None
    bound_in_range = None
    if bound_name is not None:
        b = families.bound(n, bound_name)
        bound_value = b.value
        bound_in_range = b.in_range
    return SearchReport(
        n=n,
        pattern=spec.name,
        ex=best,
        witnesses=tuple(w.decode("ascii") for w in sorted(witnesses)),
        enumerated=enumerated,
        pruned=pruned,
        elapsed_ms=elapsed_ms,
        bound_name=bound_name,
        bound_value=bound_value,
        bound_in_range=bound_in_range,
    )


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
    (a full selection is one run covering the cycle)."""
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


def _grown_children(pg: PlaneGraph) -> Iterator[PlaneGraph]:
    """All one-vertex plane extensions of ``pg`` whose new spokes land on
    cyclic runs of >= 2 consecutive boundary vertices of a single face.

    In a solid TB every spoke of a removable vertex lies on an inner
    3-face, which forces exactly this run structure, so these moves invert
    the vertex deletion of the classification's reduction step.
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
            rotation = [list(r) for r in pg.rotation]
            rotation.append([walk[i] for i in reversed(sel)])
            for i in sel:
                w = walk[i]
                prev = walk[(i - 1) % length]
                rotation[w].insert(rotation[w].index(prev) + 1, new)
            graph = pg.graph.with_new_vertex(walk[i] for i in sel)
            yield PlaneGraph.build(
                graph, tuple(tuple(r) for r in rotation), outer_walk=None
            )


def _sphere_key(pg: PlaneGraph) -> bytes:
    """Canonical key of the embedding ignoring the outer-face choice."""
    return min(
        pg.with_outer(face).canonical_plane_code() for face in pg.faces()
    )


def _solid_outer_faces(pg: PlaneGraph) -> list[Face]:
    """Faces whose designation as outer makes ``pg`` a single spanning
    solid TB.

    The four admissibility checks: the non-outer 3-faces form one
    triangular-connected class (single block), every edge lies on at
    least one of them (the block spans all edges), no hole is bounded by
    a 3-cycle, and 2-connectivity -- which is implied by the first two,
    since a union of triangles chained through shared edges is
    2-connected by ear induction.
    """
    g = pg.graph
    bits = g.adj_bits
    if any(not bits[u] & bits[v] for u, v in g.edges):
        return []
    faces = pg.faces()
    triangles_of_edge: dict[tuple[int, int], list[Face]] = {}
    for face in faces:
        if face.is_triangle():
            for e in face.edge_set:
                triangles_of_edge.setdefault(e, []).append(face)
    if any(e not in triangles_of_edge for e in g.edges):
        return []
    forced = {
        covers[0] for covers in triangles_of_edge.values() if len(covers) == 1
    }
    result: list[Face] = []
    for face in faces:
        if face.is_triangle() and face in forced:
            continue
        candidate = pg.with_outer(face)
        dec = decompose(candidate, solid=False)
        if len(dec.blocks) != 1:
            continue
        block = dec.blocks[0]
        if (
            block.vertices == frozenset(range(g.n))
            and block.edges == frozenset(g.edges)
            and block.is_solid
        ):
            result.append(face)
    return result


def _tb_worker(
    args: tuple[tuple[PlaneGraph, ...], PatternSpec],
) -> list[tuple[bytes, PlaneGraph]]:
    """Expand one share of census parents (picklable entry point).

    Returns ``(sphere key, child)``, sorted by key, for every qualifying
    child: pattern-free and admitting a solid-TB outer face.  Of children
    with one key it keeps the one with the least JSON, as the merge does,
    so the census never depends on the order of expansion.
    """
    parents, spec = args
    out: dict[bytes, PlaneGraph] = {}
    for parent in parents:
        for child in _grown_children(parent):
            if not is_free(child.graph, spec):
                continue
            key = _sphere_key(child)
            if key in out:
                out[key] = min(out[key], child, key=PlaneGraph.to_json)
                continue
            if not _solid_outer_faces(child):
                continue
            out[key] = child
    return [(key, out[key]) for key in sorted(out)]


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
    designation makes it a single spanning solid TB.  The report diffs
    the census against the expected catalog, per order, up to abstract
    isomorphism.

    Args:
        max_order: Largest order to scan (``>= 3``).
        pattern: ``H4`` or ``H5`` (name, spec, or graph).
        workers: Static partition width for expanding each order.
        ceiling: Order ceiling; defaults per pattern to
            :data:`TB_DEFAULT_CEILING`.

    Returns:
        The :class:`TBCatalogReport`; its diff is empty iff the growth
        census matches the expected catalog at every scanned order.
    """
    spec = as_pattern(pattern)
    if spec.name not in TB_DEFAULT_CEILING:
        raise SearchError(
            f"solid-TB census supports H4 and H5, not {spec.name!r}"
        )
    limit = TB_DEFAULT_CEILING[spec.name] if ceiling is None else ceiling
    if max_order < 3:
        raise SearchError("max_order must be at least 3")
    if max_order > limit:
        raise CeilingExceededError(
            f"max_order {max_order} exceeds the ceiling {limit}"
        )
    if workers < 1:
        raise SearchError("worker count must be at least 1")
    start = time.monotonic()

    def seeds_at(order: int) -> list[PlaneGraph]:
        if order % 2 == 0 and order >= 6:
            pg = families.catalog_block("B15", order).plane
            if is_free(pg.graph, spec):
                return [pg]
        return []

    base = families.catalog_block("B1").plane
    frontier: dict[bytes, PlaneGraph] = {_sphere_key(base): base}
    found: dict[int, tuple[str, ...]] = {
        3: (canonical_form(base.graph).decode("ascii"),)
    }
    with (
        ProcessPoolExecutor(max_workers=min(workers, os.cpu_count() or 1))
        if workers > 1
        else nullcontext()
    ) as pool:
        for order in range(4, max_order + 1):
            parents = [frontier[k] for k in sorted(frontier)]
            args = [(tuple(parents[i::workers]), spec) for i in range(workers)]
            if pool is None:
                results = [_tb_worker(a) for a in args]
            else:
                results = list(pool.map(_tb_worker, args))
            frontier = {}
            for rows in results:
                for key, pg in rows:
                    if key in frontier:
                        pg = min(frontier[key], pg, key=PlaneGraph.to_json)
                    frontier[key] = pg
            for pg in seeds_at(order):
                key = _sphere_key(pg)
                frontier.setdefault(key, pg)
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
        got = set(found.get(order, ()))
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


def _is_triconnected(g: Graph) -> bool:
    """3-connectivity by pair deletion (adequate at certification orders)."""
    if g.n < 4 or not _is_biconnected(g):
        return False
    return all(
        g.without_vertex(max(u, v)).without_vertex(min(u, v)).is_connected()
        for u, v in combinations(range(g.n), 2)
    )


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
    """Independent census of pattern-free solid TBs at orders <= 8.

    For every connected planar graph of order 3 to ``max_order`` (one
    walk of the planar augmentation tree, each graph canonically
    relabeled as :func:`enumerate_graphs` yields it) that is
    2-connected, pattern-free, and has every edge on a triangle, its
    distinct sphere embeddings are read from
    ``plane_embeddings(g, dedupe=True)``, and the graph counts iff some
    embedding and outer-face choice is a single spanning solid TB.  This
    procedure never uses the growth reduction, so it certifies
    :func:`enumerate_solid_tbs` where their ranges overlap; on
    disagreement this direct census is authoritative.

    Returns:
        Per order, the sorted canonical graph6 forms (ASCII).
    """
    if max_order > 8:
        raise SearchError(
            "direct certification is limited to orders <= 8 "
            "(graph enumeration at order 9 is too slow)"
        )
    if max_order < 3:
        raise SearchError("max_order must be at least 3")
    spec = as_pattern(pattern)
    forms: dict[int, set[str]] = {k: set() for k in range(3, max_order + 1)}
    for g, perm, _ in _Augmentation(max_order, planar=True).walk(_ROOT):
        if g.n < 3 or not g.is_connected():
            continue
        g = g.relabeled(perm)
        bits = g.adj_bits
        if any(not bits[u] & bits[v] for u, v in g.edges):
            continue
        if not _is_biconnected(g) or not is_free(g, spec):
            continue
        embeddings = plane_embeddings(g, dedupe=True)
        if any(_solid_outer_faces(pg) for pg in embeddings):
            forms[g.n].add(graph6_encode(g).decode("ascii"))
    return {k: tuple(sorted(v)) for k, v in forms.items()}


# =========================================================================
# Component-density verification
# =========================================================================


@dataclass(frozen=True)
class DensityViolation:
    """One triangular component exceeding its lemma density limit."""

    member: int
    vertices: tuple[int, ...]
    density: Fraction
    limit: Fraction
    note: str


def verify_component_density(
    corpus: Iterable[PlaneGraph],
    pattern: "PatternSpec | Graph | str",
) -> tuple[DensityViolation, ...]:
    """Check every triangular component of a corpus against its density
    lemma.

    For ``H4`` the limit is ``(6|D|-12)/(5|D|)`` for components of order
    at least 7 outside the two antiprism exceptions; for ``H5`` every
    component must satisfy ``rho <= 1``.  An empty result is the expected
    outcome -- any violation contradicts a proven statement and therefore
    flags an implementation bug.

    Args:
        corpus: Plane graphs, each of which must be pattern-free.
        pattern: ``H4`` or ``H5``.

    Returns:
        All violations found (expected empty).

    Raises:
        SearchError: If a corpus member contains the pattern, or the
            pattern has no density lemma.
    """
    spec = as_pattern(pattern)
    if spec.name not in ("H4", "H5"):
        raise SearchError(
            f"density limits are defined for H4 and H5, not {spec.name!r}"
        )
    exceptions: set[bytes] = set()
    if spec.name == "H4":
        exceptions = {
            canonical_form(families.catalog_block("B15", d).graph)
            for d in (8, 10)
        }
    violations: list[DensityViolation] = []
    for idx, pg in enumerate(corpus):
        if not is_free(pg.graph, spec):
            raise SearchError(
                f"corpus member {idx} is not {spec.name}-free"
            )
        for comp in decompose(pg).components:
            size = len(comp.vertices)
            if spec.name == "H4":
                if size < 7:
                    continue
                if size in (8, 10) and (
                    canonical_form(Graph.spanned_by(comp.edges)) in exceptions
                ):
                    continue
                limit = families.bound(size, "lemma2").value
                note = "component density above (6|D|-12)/(5|D|)"
            else:
                limit = Fraction(1)
                note = "component density above 1"
            if comp.density > limit:
                violations.append(
                    DensityViolation(
                        member=idx,
                        vertices=tuple(sorted(comp.vertices)),
                        density=comp.density,
                        limit=limit,
                        note=note,
                    )
                )
    return tuple(violations)


# =========================================================================
# Corpus construction and lemma-law verification
# =========================================================================


def free_planar_corpus(
    n: int,
    pattern: "PatternSpec | Graph | str",
    *,
    connected: bool = True,
    ceiling: int | None = None,
) -> tuple[Graph, ...]:
    """All pattern-free planar graphs of order ``n``, up to isomorphism.

    Args:
        n: Order of the corpus members.
        pattern: The pattern every member must avoid.
        connected: Restrict to connected graphs (the default).  Laws
            quantified over components are unaffected: a triangular
            component, and likewise a theta configuration, lives inside
            one connectivity component, and material nested in another
            component's face can only remove host 3-faces.
        ceiling: Enumeration ceiling override.
    """
    spec = as_pattern(pattern)
    return tuple(
        g
        for g in enumerate_graphs(
            n, connected=connected, planar=True, ceiling=ceiling
        )
        if is_free(g, spec)
    )


def plane_embeddings(
    g: Graph, *, dedupe: bool = False
) -> Iterator[PlaneGraph]:
    """Every sphere embedding of a connected planar graph.

    For 3-connected graphs the embedding is unique up to reflection and
    is produced directly; otherwise there is one per rotation system of
    :func:`_rotation_systems`, built by edge insertion, once each, in
    sorted rotation order.
    The outer face of the yielded graphs is arbitrary -- callers that
    care about the inner/outer distinction should fan out with
    :func:`outer_variants`.

    Args:
        g: Connected planar graph.
        dedupe: Suppress repeated sphere embeddings (costs one canonical
            plane code per face per embedding; harmless to skip when the
            consumer is checking an embedding-invariant law).

    Raises:
        ValueError: If ``g`` is empty or disconnected.
    """
    if _is_triconnected(g):
        yield embed(g)
        return
    embeddings = (
        PlaneGraph.build(g, system) for system in _rotation_systems(g)
    )
    if not dedupe:
        yield from embeddings
        return
    seen: set[bytes] = set()
    for pg in embeddings:
        key = _sphere_key(pg)
        if key not in seen:
            seen.add(key)
            yield pg


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
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, max_n)
        edges: set[tuple[int, int]] = set()
        if n >= 2:
            # Uniform random tree via a random Pruefer sequence.
            if n == 2:
                edges.add((0, 1))
            else:
                seq = [rng.randrange(n) for _ in range(n - 2)]
                degree = [1] * n
                for v in seq:
                    degree[v] += 1
                ptr = 0
                leaf = -1
                for v in seq:
                    if leaf < 0:
                        while degree[ptr] != 1:
                            ptr += 1
                        leaf = ptr
                    edges.add(tuple(sorted((leaf, v))))
                    degree[leaf] -= 1
                    degree[v] -= 1
                    if degree[v] == 1 and v < ptr:
                        leaf = v
                    else:
                        leaf = -1
                last = [v for v in range(n) if degree[v] == 1]
                edges.add(tuple(sorted(last)))
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


def verify_density_equality(
    corpus: Iterable[PlaneGraph],
) -> tuple[str, ...]:
    """Check that density-1 components in H5-free hosts are B5 or B2p.

    Every corpus member must be H5-free.  For each triangular component
    with triangle density exactly 1, the component's abstract graph must
    be isomorphic to the B5 or the B2p block.  An empty result is the
    expected outcome.

    Raises:
        SearchError: If a corpus member contains H5.
    """
    allowed = {
        canonical_form(families.catalog_block(name).graph): name
        for name in ("B5", "B2p")
    }
    spec = as_pattern("H5")
    violations: list[str] = []
    for idx, pg in enumerate(corpus):
        if not is_free(pg.graph, spec):
            raise SearchError(f"corpus member {idx} is not H5-free")
        for comp in decompose(pg).components:
            if comp.density != 1:
                continue
            form = canonical_form(Graph.spanned_by(comp.edges))
            if form not in allowed:
                violations.append(
                    f"member {idx}: density-1 component on vertices "
                    f"{tuple(sorted(comp.vertices))} is neither B5 nor B2p"
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

    Raises:
        SearchError: If a corpus member contains C3|Theta4.
    """
    spec = as_pattern("C3|Theta4")
    violations: list[str] = []
    for idx, pg in enumerate(corpus):
        if not is_free(pg.graph, spec):
            raise SearchError(f"corpus member {idx} is not C3|Theta4-free")
        for rec in theta_pair_survey(pg, include_outer=True):
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


def scan_h4_component_density() -> tuple[DensityViolation, ...]:
    """Exhaustive order-7 scan of the H4 component-density law.

    Builds every connected H4-free planar graph on 7 vertices whose
    vertices all lie on triangles (a component of order >= 7 in a
    7-vertex host spans it, and every component vertex lies on a 3-face),
    fans out all sphere embeddings and outer-face choices, and checks
    every component of order >= 7 outside the two antiprism exceptions
    against the ``(6|D|-12)/(5|D|)`` limit.  Expected empty.
    """
    planes: list[PlaneGraph] = []
    for g in free_planar_corpus(7, "H4"):
        bits = g.adj_bits
        on_triangle = [False] * g.n
        for u, v in g.edges:
            if bits[u] & bits[v]:
                on_triangle[u] = on_triangle[v] = True
        if not all(on_triangle):
            continue
        for pg in plane_embeddings(g):
            planes.extend(outer_variants(pg))
    return verify_component_density(planes, "H4")


def scan_h5_component_density() -> tuple[tuple[str, ...], int]:
    """Exhaustive scan of the H5 component-density law at orders 3-6.

    Fans out all sphere embeddings and outer-face choices of every
    connected H5-free planar graph with 3 to 6 vertices, checking that
    every triangular component has density at most 1 and that density-1
    components are B5 or B2p copies.

    Returns:
        The violations (expected empty) and the number of density-1
        components seen (expected positive -- the law must not hold
        vacuously).
    """
    planes: list[PlaneGraph] = []
    for n in range(3, 7):
        for g in free_planar_corpus(n, "H5"):
            for pg in plane_embeddings(g):
                planes.extend(outer_variants(pg))
    violations = [
        f"{v.note}: member {v.member} vertices {v.vertices} "
        f"density {v.density}"
        for v in verify_component_density(planes, "H5")
    ]
    violations.extend(verify_density_equality(planes))
    hits = sum(
        1
        for pg in planes
        for comp in decompose(pg).components
        if comp.density == 1
    )
    return tuple(violations), hits


def scan_theta_pairs(*, max_n: int = 7) -> tuple[str, ...]:
    """Exhaustive scan of the theta-pair laws on C3|Theta4-free hosts.

    Covers every connected C3|Theta4-free planar graph with 4 to
    ``max_n`` vertices that has at least two edges on two abstract
    triangles (an ``E_I`` edge lies on two 3-faces, so graphs below that
    threshold have no pairs), over every sphere embedding.  The laws are
    outer-face independent, so no outer fanout is needed.  Expected
    empty.
    """
    violations: list[str] = []
    for n in range(4, max_n + 1):
        for g in free_planar_corpus(n, "C3|Theta4"):
            bits = g.adj_bits
            multi = 0
            for u, v in g.edges:
                if bin(bits[u] & bits[v]).count("1") >= 2:
                    multi += 1
                    if multi == 2:
                        break
            if multi < 2:
                continue
            violations.extend(
                verify_theta_pair_laws(plane_embeddings(g))
            )
    return tuple(violations)
