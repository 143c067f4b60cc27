"""Triangular-block structure of plane graphs.

Given a plane graph, the bounded triangular faces decompose into
*triangular blocks*: maximal groups of inner 3-faces connected through
shared edges.  Blocks sharing at least one vertex (a *junction* vertex)
group further into *triangular components*.  The module computes this
decomposition together with:

* the partition of edges by how many 3-faces they lie on
  (:func:`e_i_analysis`), with the double-counting identity
  ``3*f3 == |E'| + 2*|E_I|``;
* the theta configuration spanned by an edge lying on two 3-faces
  (:func:`theta_of_edge`) and the classification of how two such
  configurations overlap (:func:`classify_theta_pair`);
* hole detection and the *solid* version of a block, where every hole
  bounded by a 3-cycle is reclassified as a 3-face (:func:`solidify`).
  A block's faces are traced on the host's rotation restricted to the
  block's own vertices and edges; its outer face is the one reached by
  walking host faces outward from the host's outer face, across edges
  outside the block, to the first block edge, and its other faces that
  are not its 3-faces are its holes;
* exact triangle densities ``delta / |vertices|`` as
  :class:`fractions.Fraction` values.

Block and component machinery counts **inner** 3-faces only (the
designated outer face never contributes to ``delta``).  :func:`three_faces`
and :func:`e_i_analysis` count a triangular outer face by default; both
conventions are available there via ``include_outer``.  The theta
functions always count it: the theta laws are intrinsic to the sphere
embedding.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Sequence

from .embedding import (
    Edge,
    Face,
    Graph,
    PlaneGraph,
    _dart_faces,
    _min_rotation,
    _union_roots,
    canonical_form,
    normalize_edge,
)
from .patterns import fixture

__all__ = [
    "Decomposition",
    "EIReport",
    "ThetaEdge",
    "ThetaPairRecord",
    "TriBlock",
    "TriComponent",
    "classify_theta_pair",
    "decompose",
    "e_i_analysis",
    "solidify",
    "theta_of_edge",
    "theta_pair_survey",
    "three_faces",
]


# =========================================================================
# 3-faces and the E_I / E' partition
# =========================================================================


def three_faces(pg: PlaneGraph, include_outer: bool = True) -> tuple[Face, ...]:
    """Triangular faces of ``pg``.

    Args:
        pg: The plane graph.
        include_outer: Whether a triangular outer face is counted.
    """
    faces = pg.faces() if include_outer else pg.inner_faces()
    return tuple(f for f in faces if f.is_triangle())


@dataclass(frozen=True)
class EIReport:
    """Edge partition by number of incident 3-faces.

    Attributes:
        include_outer: Which convention produced the report.
        f3: Number of 3-faces under that convention.
        e_i: Edges lying on two 3-faces.
        e_prime: Edges lying on exactly one 3-face.
    """

    include_outer: bool
    f3: int
    e_i: frozenset[Edge]
    e_prime: frozenset[Edge]

    @property
    def identity_holds(self) -> bool:
        """The double-counting identity ``3*f3 == |E'| + 2*|E_I|``."""
        return 3 * self.f3 == len(self.e_prime) + 2 * len(self.e_i)


def e_i_analysis(pg: PlaneGraph, include_outer: bool = True) -> EIReport:
    """Partition the edges of ``pg`` by incident 3-face count."""
    # per face id: whether it is a counted 3-face
    counted = [
        f.is_triangle() and (include_outer or f != pg.outer) for f in pg.faces()
    ]
    e_i: set[Edge] = set()
    e_prime: set[Edge] = set()
    for e in pg.graph.edges:
        u, v = e
        count = counted[pg._face_id(u, v)] + counted[pg._face_id(v, u)]
        if count == 2:
            e_i.add(e)
        elif count == 1:
            e_prime.add(e)
    return EIReport(
        include_outer=include_outer,
        f3=sum(counted),
        e_i=frozenset(e_i),
        e_prime=frozenset(e_prime),
    )


# =========================================================================
# Theta configurations
# =========================================================================


@dataclass(frozen=True)
class ThetaEdge:
    """The two 3-faces spanned by an edge lying on both of them.

    The union is a 4-cycle plus the chord ``edge``: four vertices, five
    edges.
    """

    edge: Edge
    faces: tuple[Face, Face]

    @property
    def vertices(self) -> frozenset[int]:
        """The four vertices of the configuration."""
        return self.faces[0].vertices | self.faces[1].vertices

    @property
    def edges(self) -> frozenset[Edge]:
        """The five edges of the configuration."""
        return self.faces[0].edge_set | self.faces[1].edge_set


def theta_of_edge(pg: PlaneGraph, e: Edge) -> ThetaEdge | None:
    """The theta configuration of ``e``, or ``None`` if ``e`` is not on
    two 3-faces (a triangular outer face counts)."""
    e = normalize_edge(*e)
    f1, f2 = pg.faces_of_edge(e)
    if not (f1.is_triangle() and f2.is_triangle()) or f1 == f2:
        return None
    return ThetaEdge(edge=e, faces=(f1, f2))


def classify_theta_pair(pg: PlaneGraph, e: Edge, f: Edge) -> str:
    """Classify how the theta configurations of two ``E_I`` edges overlap.

    Returns:
        ``"Overlapping"`` when the two configurations share a number of
        vertices other than two; otherwise ``"D1"``, ``"D2"`` or ``"D3"``
        when the union of the two configurations is isomorphic to the
        corresponding fixture, and ``"Other"`` when it is not (possible
        e.g. when the configurations share edges).

    Raises:
        ValueError: If ``e`` or ``f`` does not lie on two 3-faces.
    """
    te = theta_of_edge(pg, e)
    tf = theta_of_edge(pg, f)
    if te is None or tf is None:
        raise ValueError("both edges must lie on two 3-faces")
    return _classify_thetas(te, tf)


@cache
def _fixture_forms() -> dict[tuple[int, int, tuple[int, ...]], dict[bytes, str]]:
    """The canonical forms of D1, D2 and D3, keyed by order, size and
    degree sequence, computed once."""
    forms: dict[tuple[int, int, tuple[int, ...]], dict[bytes, str]] = {}
    for name in ("D1", "D2", "D3"):
        g = fixture(name)
        key = (g.n, g.m, g.degree_sequence)
        forms.setdefault(key, {})[canonical_form(g)] = name
    return forms


def _classify_thetas(te: ThetaEdge, tf: ThetaEdge) -> str:
    """:func:`classify_theta_pair` on the two theta configurations.  The
    union's canonical form is computed at most once, and only when its
    order, size and degree sequence match a fixture's."""
    if len(te.vertices & tf.vertices) != 2:
        return "Overlapping"
    union = Graph.spanned_by(te.edges | tf.edges)
    candidates = _fixture_forms().get((union.n, union.m, union.degree_sequence))
    if candidates is None:
        return "Other"
    return candidates.get(canonical_form(union), "Other")


@dataclass(frozen=True)
class ThetaPairRecord:
    """Survey entry for one unordered pair of ``E_I`` edges.

    Attributes:
        e: First edge (lexicographically smaller).
        f: Second edge.
        shared: Number of vertices shared by the two theta configurations.
        detached: True when at least one of the edges has no endpoint
            inside the other edge's theta configuration (the hypothesis
            under which a two-vertex overlap is guaranteed to classify as
            a fixture).
        label: Classification when ``shared == 2``, else ``None``.
    """

    e: Edge
    f: Edge
    shared: int
    detached: bool
    label: str | None


def theta_pair_survey(pg: PlaneGraph) -> tuple[ThetaPairRecord, ...]:
    """Classify every unordered pair of distinct ``E_I`` edges.

    ``E_I`` counts a triangular outer face, as :func:`e_i_analysis` does
    by default, so the survey depends only on the sphere embedding.
    """
    edges = sorted(e_i_analysis(pg).e_i)
    thetas = {e: theta_of_edge(pg, e) for e in edges}
    records: list[ThetaPairRecord] = []
    for i, e in enumerate(edges):
        te = thetas[e]
        assert te is not None
        for f in edges[i + 1 :]:
            tf = thetas[f]
            assert tf is not None
            shared = len(te.vertices & tf.vertices)
            detached = (
                not (set(f) & te.vertices) or not (set(e) & tf.vertices)
            )
            label = _classify_thetas(te, tf) if shared == 2 else None
            records.append(
                ThetaPairRecord(
                    e=e, f=f, shared=shared, detached=detached, label=label
                )
            )
    return tuple(records)


# =========================================================================
# Triangular blocks
# =========================================================================


@dataclass(frozen=True)
class TriBlock:
    """A triangular block: inner 3-faces connected through shared edges.

    Attributes:
        faces: The 3-faces counted by the block (sorted by walk).  After
            :func:`solidify` this also contains reclassified 3-cycle
            holes, which are then no longer faces of the host.
        holes: Inner faces of the block's plane subgraph that are not
            3-faces of the block (boundary walks in the host's labels).
        vertices: Vertices covered by the block.
        edges: Edges covered by the block (the union of its faces' edges).
    """

    faces: tuple[Face, ...]
    holes: tuple[Face, ...]
    vertices: frozenset[int]
    edges: frozenset[Edge]

    @property
    def delta(self) -> int:
        """Number of 3-faces of the block."""
        return len(self.faces)

    @property
    def density(self) -> Fraction:
        """Triangle density ``delta / |vertices|`` (exact)."""
        return Fraction(self.delta, len(self.vertices))

    @property
    def is_solid(self) -> bool:
        """Whether no hole is bounded by a 3-cycle."""
        return all(not h.is_triangle() for h in self.holes)


def solidify(block: TriBlock) -> TriBlock:
    """Reclassify every 3-cycle hole as a 3-face.

    The solid version has the same vertices and edges; holes bounded by
    triangles move into ``faces`` (raising ``delta``), all other holes
    remain.
    """
    gained = tuple(h for h in block.holes if h.is_triangle())
    if not gained:
        return block
    return TriBlock(
        faces=tuple(sorted(block.faces + gained, key=lambda f: f.walk)),
        holes=tuple(h for h in block.holes if not h.is_triangle()),
        vertices=block.vertices,
        edges=block.edges,
    )


@dataclass(frozen=True)
class TriComponent:
    """A maximal group of triangular blocks connected by shared vertices."""

    blocks: tuple[TriBlock, ...]

    @property
    def vertices(self) -> frozenset[int]:
        """Vertices covered by the component."""
        out: frozenset[int] = frozenset()
        for b in self.blocks:
            out |= b.vertices
        return out

    @property
    def edges(self) -> frozenset[Edge]:
        """Edges of the member blocks."""
        return frozenset(e for b in self.blocks for e in b.edges)

    @property
    def delta(self) -> int:
        """Total number of 3-faces over the member blocks."""
        return sum(b.delta for b in self.blocks)

    @property
    def density(self) -> Fraction:
        """Triangle density ``delta / |vertices|`` (exact)."""
        return Fraction(self.delta, len(self.vertices))


@dataclass(frozen=True)
class Decomposition:
    """Full triangular decomposition of a plane graph.

    Attributes:
        plane: The analysed plane graph.
        blocks: Triangular blocks (solidified unless ``decompose`` was
            told otherwise), sorted by smallest covered vertex.
        components: Triangular components over those blocks.
        junctions: Vertices lying in at least two blocks.
    """

    plane: PlaneGraph
    blocks: tuple[TriBlock, ...]
    components: tuple[TriComponent, ...]
    junctions: frozenset[int]


def _triangle_classes(edge_sets: Sequence[frozenset[Edge]]) -> list[list[int]]:
    """The indices of 3-faces, given by their edge sets, grouped into
    blocks: two share a block when a chain of 3-faces, consecutive ones
    sharing an edge, links them.  Classes come in order of their first
    member, each in index order."""
    by_edge: dict[Edge, list[int]] = {}
    for i, edges in enumerate(edge_sets):
        for e in edges:
            by_edge.setdefault(e, []).append(i)
    root = _union_roots(
        len(edge_sets), ((m[0], o) for m in by_edge.values() for o in m[1:])
    )
    classes: dict[int, list[int]] = {}
    for i, r in enumerate(root):
        classes.setdefault(r, []).append(i)
    return list(classes.values())


def _outer_dart(pg: PlaneGraph, edges: set[Edge]) -> tuple[int, int]:
    """A dart of one of the block's ``edges`` on the block's outer face:
    the first met walking host faces outward from the host's outer face
    across edges outside the block.  Those host faces all lie in the
    block's outer face."""
    faces = pg.faces()
    walk = pg.outer.walk
    start = pg._face_id(walk[0], walk[1])
    seen = {start}
    queue = [start]
    for fid in queue:
        walk = faces[fid].walk
        u = walk[-1]
        for v in walk:
            if normalize_edge(u, v) in edges:
                return u, v
            across = pg._face_id(v, u)
            if across not in seen:
                seen.add(across)
                queue.append(across)
            u = v
    raise AssertionError("no block edge is reachable from the outer face")


def _block_from_class(pg: PlaneGraph, faces: list[Face]) -> TriBlock:
    """The block of one class of inner 3-faces, its faces traced on the
    host's rotation restricted to the block's own vertices and edges.

    The block face of the dart :func:`_outer_dart` finds is the block's
    outer face; every other block face that is not one of ``faces`` is a
    hole.
    """
    vertices: set[int] = set()
    edges: set[Edge] = set()
    for f in faces:
        vertices.update(f.walk)
        edges |= f.edge_set
    order = sorted(vertices)
    index = {v: i for i, v in enumerate(order)}
    rotation = [
        [index[u] for u in pg.rotation[v] if normalize_edge(v, u) in edges]
        for v in order
    ]
    ids, walks = _dart_faces(rotation)
    a, b = _outer_dart(pg, edges)
    outer = ids[index[a]][rotation[index[a]].index(index[b])]
    face_set = set(faces)
    holes: list[Face] = []
    for fid, walk in enumerate(walks):
        if fid == outer:
            continue
        face = Face(_min_rotation(tuple(order[i] for i in walk)))
        if face not in face_set:
            holes.append(face)
    return TriBlock(
        faces=tuple(sorted(faces, key=lambda f: f.walk)),
        holes=tuple(sorted(holes, key=lambda f: f.walk)),
        vertices=frozenset(vertices),
        edges=frozenset(edges),
    )


def decompose(pg: PlaneGraph, solid: bool = True) -> Decomposition:
    """Decompose a plane graph into triangular blocks and components.

    Blocks are built from the **inner** 3-faces; two 3-faces belong to the
    same block when they are linked by a chain of 3-faces consecutively
    sharing edges.  Blocks sharing a vertex (junction) form components.

    Args:
        pg: The plane graph.
        solid: Reclassify 3-cycle holes as 3-faces in every block
            (the default; pass ``False`` for the raw blocks).
    """
    triangles = three_faces(pg, include_outer=False)
    blocks = [
        _block_from_class(pg, [triangles[i] for i in members])
        for members in _triangle_classes([f.edge_set for f in triangles])
    ]
    if solid:
        blocks = [solidify(b) for b in blocks]
    blocks.sort(key=lambda b: sorted(b.vertices))

    # Components: blocks sharing vertices.
    by_vertex: dict[int, list[int]] = {}
    for i, b in enumerate(blocks):
        for v in b.vertices:
            by_vertex.setdefault(v, []).append(i)
    junctions = frozenset(
        v for v, members in by_vertex.items() if len(members) > 1
    )
    block_root = _union_roots(
        len(blocks), ((m[0], o) for m in by_vertex.values() for o in m[1:])
    )
    comp_members: dict[int, list[TriBlock]] = {}
    for i, b in enumerate(blocks):
        comp_members.setdefault(block_root[i], []).append(b)
    components = tuple(
        sorted(
            (TriComponent(blocks=tuple(bs)) for bs in comp_members.values()),
            key=lambda c: sorted(c.vertices),
        )
    )
    return Decomposition(
        plane=pg,
        blocks=tuple(blocks),
        components=components,
        junctions=junctions,
    )
