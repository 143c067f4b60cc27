"""Exhaustive small-order search.

Three engines share one canonical-augmentation core:

* :func:`enumerate_graphs` -- isomorph-free generation of all graphs of a
  given order, with optional connectivity / planarity / edge-count filters.
* :func:`exact_planar_turan` -- the exact oracle for the maximum edge count
  of a pattern-free planar graph on ``n`` vertices, with witnesses.
* :func:`enumerate_solid_tbs` -- the census of pattern-free solid
  triangular blocks, grown order by order and diffed against the expected
  catalog; :func:`certify_solid_tbs_direct` is the independent slow census
  used to certify the growth procedure at small orders.

Determinism contract: every report produced here is byte-identical across
runs and across worker counts once timing fields are stripped.  To that
end the oracle prunes against a fixed, constructively verified seed bound
(never a shared mutable incumbent), work is partitioned statically, and
all merges are order-insensitive (sums, maxima, sorted unions).
"""

from __future__ import annotations

import json
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from . import families
from .decomposition import TriComponent, decompose, e_i_analysis, theta_pair_survey
from .embedding import (
    Face,
    Graph,
    PlaneGraph,
    automorphism_generators,
    canonical_form,
    canonical_labeling,
    embed,
    is_planar,
    vertex_orbits,
)
from .io import graph6_decode, graph6_encode
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


def _subset_reps(g: Graph) -> list[tuple[int, ...]]:
    """One representative per Aut(g)-orbit of vertex subsets.

    Subsets are handled as bitmasks; each orbit is closed breadth-first
    under the automorphism generators and represented by its smallest
    mask.  The result is sorted by mask, so iteration order is
    deterministic.
    """
    n = g.n
    total = 1 << n
    gens = automorphism_generators(g)
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


def _is_canonical_child(child: Graph) -> bool:
    """McKay validity test: keep the child iff the vertex just added lies
    in the automorphism orbit of the child's canonical deletion vertex
    (the vertex carrying the last canonical label)."""
    new = child.n - 1
    perm = canonical_labeling(child)
    target = perm.index(child.n - 1)
    if target == new:
        return True
    for orbit in vertex_orbits(child):
        if target in orbit:
            return new in orbit
    raise AssertionError("vertex missing from orbit partition")


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


def _planar_ok(g: Graph) -> bool:
    """Planarity with a cycle-rank shortcut (rank ≤ 3 is always planar:
    a K5 or K3,3 subdivision needs cycle rank ≥ 4)."""
    if g.n >= 3 and g.m > 3 * g.n - 6:
        return False
    components = 0
    seen = [False] * g.n
    for start in range(g.n):
        if seen[start]:
            continue
        components += 1
        stack = [start]
        seen[start] = True
        while stack:
            v = stack.pop()
            for w in g.adjacency[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
    if g.m - g.n + components <= 3:
        return True
    return is_planar(g)


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

    def grow(g: Graph) -> Iterator[Graph]:
        if g.n == n:
            if connected and not g.is_connected():
                return
            if min_edges is not None and g.m < min_edges:
                return
            yield g.relabeled(canonical_labeling(g))
            return
        for nbrs in _subset_reps(g):
            child = g.with_new_vertex(nbrs)
            if max_edges is not None and child.m > max_edges:
                continue
            if min_edges is not None:
                reach = child.m + sum(range(child.n, n))
                if planar:
                    reach = _edge_potential(child.m, child.n, n)
                if reach < min_edges:
                    continue
            if not _is_canonical_child(child):
                continue
            if planar and not _planar_ok(child):
                continue
            yield from grow(child)

    yield from grow(Graph.from_edges(1, []))


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


def _turan_explore(
    start: Graph, n: int, spec: PatternSpec, seed: int
) -> tuple[int, int, int, set[bytes]]:
    """Explore one augmentation subtree for the oracle.

    Returns ``(enumerated, pruned, best, witnesses)`` where ``best`` is
    the highest edge count of a connected pattern-free planar graph of
    order ``n`` found in the subtree (``-1`` if none) and ``witnesses``
    are the canonical forms attaining it.
    """
    enumerated = 0
    pruned = 0
    best = -1
    witnesses: set[bytes] = set()
    stack = [start]
    while stack:
        g = stack.pop()
        enumerated += 1
        if g.n == n:
            if not g.is_connected():
                continue
            if g.m > best:
                best = g.m
                witnesses = {canonical_form(g)}
            elif g.m == best:
                witnesses.add(canonical_form(g))
            continue
        for nbrs in _subset_reps(g):
            child = g.with_new_vertex(nbrs)
            if _edge_potential(child.m, child.n, n) < seed:
                pruned += 1
                continue
            if contains_subgraph_at(child, spec, child.n - 1) is not None:
                pruned += 1
                continue
            if not _is_canonical_child(child):
                continue
            if not _planar_ok(child):
                pruned += 1
                continue
            stack.append(child)
    return enumerated, pruned, best, witnesses


def _turan_roots(
    n: int, spec: PatternSpec, seed: int, root_order: int
) -> tuple[int, int, list[Graph]]:
    """Serial phase: grow the tree up to ``root_order`` under the oracle
    prunes.  Returns counts for the orders below ``root_order`` plus the
    subtree roots (each root is counted by its own subtree later)."""
    enumerated = 0
    pruned = 0
    roots: list[Graph] = []
    stack = [Graph.from_edges(1, [])]
    while stack:
        g = stack.pop()
        if g.n == root_order:
            roots.append(g)
            continue
        enumerated += 1
        for nbrs in _subset_reps(g):
            child = g.with_new_vertex(nbrs)
            if _edge_potential(child.m, child.n, n) < seed:
                pruned += 1
                continue
            if contains_subgraph_at(child, spec, child.n - 1) is not None:
                pruned += 1
                continue
            if not _is_canonical_child(child):
                continue
            if not _planar_ok(child):
                pruned += 1
                continue
            stack.append(child)
    roots.sort(key=canonical_form)
    return enumerated, pruned, roots


def _turan_worker(
    args: tuple[tuple[bytes, ...], int, str, bytes, int],
) -> tuple[int, int, int, list[bytes]]:
    """Process one static share of subtree roots (picklable entry point)."""
    root_codes, n, pattern_name, pattern_g6, seed = args
    spec = PatternSpec(pattern_name, graph6_decode(pattern_g6))
    enumerated = 0
    pruned = 0
    best = -1
    witnesses: set[bytes] = set()
    for code in root_codes:
        e, p, b, wits = _turan_explore(graph6_decode(code), n, spec, seed)
        enumerated += e
        pruned += p
        if b > best:
            best = b
            witnesses = set(wits)
        elif b == best:
            witnesses |= wits
    return enumerated, pruned, best, sorted(witnesses)


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
    pattern_g6 = graph6_encode(spec.graph)
    shares = [
        tuple(graph6_encode(g) for g in roots[i::workers])
        for i in range(workers)
    ]
    args = [(share, n, spec.name, pattern_g6, seed) for share in shares]
    if workers == 1:
        results = [_turan_worker(a) for a in args]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
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
        if g.m < best or not _planar_ok(g) or not is_free(g, spec):
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
    args: tuple[tuple[str, ...], bytes, str],
) -> list[tuple[bytes, str, bytes]]:
    """Expand one share of census parents (picklable entry point).

    Returns ``(sphere key, embedding JSON, abstract canonical form)`` for
    every qualifying child: pattern-free and admitting a solid-TB outer
    face.
    """
    parent_jsons, pattern_g6, pattern_name = args
    from .io import load_plane_graph_json

    spec = PatternSpec(pattern_name, graph6_decode(pattern_g6))
    out: dict[bytes, tuple[str, bytes]] = {}
    for text in parent_jsons:
        parent = load_plane_graph_json(text)
        for child in _grown_children(parent):
            if not is_free(child.graph, spec):
                continue
            key = _sphere_key(child)
            if key in out:
                child_text = child.to_json()
                if child_text < out[key][0]:
                    out[key] = (child_text, out[key][1])
                continue
            if not _solid_outer_faces(child):
                continue
            out[key] = (child.to_json(), canonical_form(child.graph))
    return sorted((k, v[0], v[1]) for k, v in out.items())


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
    pattern_g6 = graph6_encode(spec.graph)

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
    for order in range(4, max_order + 1):
        parents = [frontier[k] for k in sorted(frontier)]
        shares = [
            tuple(p.to_json() for p in parents[i::workers])
            for i in range(workers)
        ]
        args = [(share, pattern_g6, spec.name) for share in shares]
        if workers == 1:
            results = [_tb_worker(a) for a in args]
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_tb_worker, args))
        merged: dict[bytes, str] = {}
        for rows in results:
            for key, text, _form in rows:
                if key not in merged or text < merged[key]:
                    merged[key] = text
        from .io import load_plane_graph_json

        frontier = {
            key: load_plane_graph_json(text)
            for key, text in sorted(merged.items())
        }
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


def _corner_faces(rot: Sequence[Sequence[int]]) -> dict[int, list[int]]:
    """Face id of every corner of a partial rotation system.

    Corner ``i`` of ``v`` sits after ``rot[v][i]``; it lies on the face
    of dart ``(v, rot[v][i + 1])`` (indices cyclic).  Vertices without
    neighbours are left out.
    """
    index = [{u: i for i, u in enumerate(r)} for r in rot]
    face: dict[tuple[int, int], int] = {}
    for v0, r0 in enumerate(rot):
        for w0 in r0:
            if (v0, w0) in face:
                continue
            fid = len(face)
            u, v = v0, w0
            while (u, v) not in face:
                face[(u, v)] = fid
                r = rot[v]
                u, v = v, r[(index[v][u] + 1) % len(r)]
    return {
        v: [face[(v, r[(i + 1) % len(r)])] for i in range(len(r))]
        for v, r in enumerate(rot)
        if r
    }


def _embeddings_by_insertion(g: Graph) -> Iterator[PlaneGraph]:
    """Every sphere embedding of a connected graph, one per rotation system.

    Edges are added in the order of :func:`_insertion_order`.  A tree
    edge goes into any corner of its old endpoint; a closing edge joins
    two corners, one at each endpoint, that lie on one face, and splits
    that face.  Every prefix therefore stays plane, so each planar rotation
    system is reached exactly once and none is rejected (the face and
    corner bookkeeping of Boyer and Myrvold's edge-addition planarity
    test, JGAA 8(3), 2004).  Each rotation is rotated to start at its
    smallest neighbour, and the systems are yielded in sorted order.
    Every one is still validated by :meth:`PlaneGraph.build`.

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
        corners = _corner_faces(rot)
        for i, fu in enumerate(corners[u]):
            for j, fw in enumerate(corners[w]):
                if fu != fw:
                    continue
                rot[u].insert(i + 1, w)
                rot[w].insert(j + 1, u)
                extend(k + 1)
                rot[u].remove(w)
                rot[w].remove(u)

    extend(0)
    for system in sorted(found):
        yield PlaneGraph.build(g, system, outer_walk=None)


def certify_solid_tbs_direct(
    max_order: int,
    pattern: "PatternSpec | Graph | str",
) -> dict[int, tuple[str, ...]]:
    """Independent census of pattern-free solid TBs at orders <= 8.

    For every connected planar graph (by :func:`enumerate_graphs`) that
    is 2-connected, pattern-free, and has every edge on a triangle, the
    embeddings are enumerated -- the unique one for 3-connected graphs,
    every planar rotation system otherwise, built by edge insertion
    without rejection -- and the graph counts iff some
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
    out: dict[int, tuple[str, ...]] = {}
    for order in range(3, max_order + 1):
        forms: set[str] = set()
        for g in enumerate_graphs(order, connected=True, planar=True):
            bits = g.adj_bits
            if g.m == 0 or any(not bits[u] & bits[v] for u, v in g.edges):
                continue
            if not _is_biconnected(g):
                continue
            if not is_free(g, spec):
                continue
            if _is_triconnected(g):
                embeddings: Iterable[PlaneGraph] = [embed(g)]
            else:
                embeddings = _embeddings_by_insertion(g)
            seen: set[bytes] = set()
            hit = False
            for pg in embeddings:
                key = _sphere_key(pg)
                if key in seen:
                    continue
                seen.add(key)
                if _solid_outer_faces(pg):
                    hit = True
                    break
            if hit:
                forms.add(canonical_form(g).decode("ascii"))
        out[order] = tuple(sorted(forms))
    return out


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


def _component_graph(comp: TriComponent) -> Graph:
    """Abstract copy of a component's block-edge union on ``0..k-1``."""
    edges: set[tuple[int, int]] = set()
    for block in comp.blocks:
        edges |= set(block.edges)
    order = sorted(comp.vertices)
    index = {v: i for i, v in enumerate(order)}
    return Graph.from_edges(
        len(order), [(index[u], index[v]) for u, v in edges]
    )


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
                    canonical_form(_component_graph(comp)) in exceptions
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
    is produced directly; otherwise every planar rotation system is built
    by edge insertion, once each, in sorted rotation order.
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
    if not dedupe:
        yield from _embeddings_by_insertion(g)
        return
    seen: set[bytes] = set()
    for pg in _embeddings_by_insertion(g):
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
            form = canonical_form(_component_graph(comp))
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
