"""Catalogued triangular blocks and extremal plane-graph families.

This module provides three related services:

* ``catalog_block`` draws each named triangular block (``B1`` ... ``B15``,
  the primed variants ``B1p``/``B2p``/``B3p``/``B4p``, wheels ``W`` and
  fans ``F``) as a concrete plane graph and certifies, via
  :func:`ptl.decomposition.decompose`, that it really is a single solid
  triangular block with the advertised number of 3-faces.  ``B4p`` is an
  ``H5``-free block found by the census beyond the paper's list.
* The family generators (``k2_plus_matching``, ``k2_vee_matching``,
  ``apex_outerplanar``, ``wheel_ring``, ``b5_ring``,
  ``b5_ring_augmented``) construct the infinite extremal families used as
  lower-bound witnesses.  Every generator re-verifies its own output
  (order, size, planarity, forbidden-pattern freeness) and raises
  :class:`FamilyError` instead of returning an unverified graph.
* ``bound`` exposes the closed-form edge/density bounds together with
  their stated ranges of validity, and ``verify_h5_extremal`` checks the
  structural characterisation of edge-maximal graphs in the ``H5`` setting.

All densities are exact :class:`fractions.Fraction` values; no floats are
used anywhere in the numeric contracts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

from .decomposition import decompose
from .embedding import (
    Face,
    Graph,
    PlaneGraph,
    canonical_form,
    embed,
    is_isomorphic,
    plane_graph_from_positions,
)
from .patterns import is_free

__all__ = [
    "FamilyError",
    "CatalogBlock",
    "catalog_block",
    "DensityRow",
    "density_table_rows",
    "expected_tb_catalog",
    "FamilyInstance",
    "family_instance",
    "FAMILY_BUILDERS",
    "k2_plus_matching",
    "k2_vee_matching",
    "apex_outerplanar",
    "wheel_ring",
    "b5_ring",
    "b5_ring_augmented",
    "first_inner_quad",
    "augment_with_b2prime",
    "ExtremalStructureReport",
    "h5_extremal_block",
    "verify_h5_extremal",
    "BoundValue",
    "bound",
]

Point = tuple[float, float]


class FamilyError(ValueError):
    """A catalogue or family request was invalid, or self-verification failed."""


# ---------------------------------------------------------------------------
# Block catalogue
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CatalogBlock:
    """A certified catalogue entry: one solid triangular block.

    Attributes:
        name: Catalogue key, e.g. ``"B7"`` or ``"B13"``.
        order: Number of vertices.
        plane: The block's reference plane drawing.
        delta: Number of 3-faces other than the outer face.
        density: ``delta / order`` as an exact fraction.
    """

    name: str
    order: int
    plane: PlaneGraph
    delta: int
    density: Fraction

    @property
    def graph(self) -> Graph:
        """The underlying abstract graph."""
        return self.plane.graph

    @property
    def display_name(self) -> str:
        """Name with the order attached for parametric blocks."""
        if self.name in _FIXED:
            return self.name
        return f"{self.name}({self.order})"


def _draw_triangle() -> PlaneGraph:
    pos = {0: (0, 0), 1: (2, 0), 2: (1, 1.7)}
    return plane_graph_from_positions(3, [(0, 1), (1, 2), (0, 2)], pos)


def _draw_k4() -> PlaneGraph:
    pos = {0: (0, 0), 1: (4, 0), 2: (2, 3.4), 3: (2, 1.1)}
    edges = [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (2, 3)]
    return plane_graph_from_positions(4, edges, pos)


def _draw_triple_book() -> PlaneGraph:
    # Three triangles over a common spine edge (3, 4), plus the edge (1, 2)
    # between two of the page tips; drawn with one page on each side of the
    # spine and the third nested, giving four inner 3-faces.
    pos = {3: (0, 1), 4: (0, -1), 0: (-1.4, 0), 1: (0.7, 0), 2: (1.8, 0)}
    edges = [(3, 4), (0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4), (1, 2)]
    return plane_graph_from_positions(5, edges, pos)


def _draw_wheel(order: int) -> PlaneGraph:
    import math

    rim = order - 1
    pos: dict[int, Point] = {0: (0.0, 0.0)}
    for i in range(rim):
        a = 2 * math.pi * i / rim
        pos[1 + i] = (2 * math.cos(a), 2 * math.sin(a))
    edges = [(0, 1 + i) for i in range(rim)]
    edges += [(1 + i, 1 + (i + 1) % rim) for i in range(rim)]
    return plane_graph_from_positions(order, edges, pos)


def _draw_fan(order: int) -> PlaneGraph:
    import math

    path = order - 1
    pos: dict[int, Point] = {0: (0.0, 0.0)}
    for i in range(path):
        a = math.radians(160 - 140 * i / (path - 1))
        pos[1 + i] = (2 * math.cos(a), 2 * math.sin(a))
    edges = [(0, 1 + i) for i in range(path)]
    edges += [(1 + i, 2 + i) for i in range(path - 1)]
    return plane_graph_from_positions(order, edges, pos)


def _draw_k5_minus_edge() -> PlaneGraph:
    # Complete graph on {0,1,2,3} with 3 in the centre, then 4 adjacent to
    # {0, 1, 3} inside the face (0, 1, 3); the missing pair is (2, 4).
    pos = {0: (0, 0), 1: (4, 0), 2: (2, 3.46), 3: (2, 1.15), 4: (2, 0.5)}
    edges = [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (2, 3), (0, 4), (1, 4), (3, 4)]
    return plane_graph_from_positions(5, edges, pos)


def _draw_triforce(extra: Sequence[tuple[int, int]] = ()) -> PlaneGraph:
    # Corner vertices 0, 1, 2; rung vertices 3 (bottom), 4 (right), 5 (left)
    # pulled slightly inward so the corner-corner edges in ``extra`` stay
    # straight.
    pos = {
        0: (0.0, 0.0),
        1: (2.0, 0.0),
        2: (1.0, 1.73),
        3: (1.0, 0.3),
        4: (1.32, 0.82),
        5: (0.68, 0.82),
    }
    edges = [(0, 3), (3, 1), (1, 4), (4, 2), (2, 5), (5, 0), (3, 4), (4, 5), (3, 5)]
    return plane_graph_from_positions(6, edges + list(extra), pos)


def _draw_octahedron() -> PlaneGraph:
    pos = {
        0: (0.0, 0.0),
        1: (4.0, 0.0),
        2: (2.0, 3.46),
        3: (1.55, 0.75),
        4: (2.45, 0.75),
        5: (2.0, 1.5),
    }
    edges = [
        (0, 1), (1, 2), (0, 2),
        (3, 4), (4, 5), (3, 5),
        (0, 3), (1, 3), (1, 4), (2, 4), (2, 5), (0, 5),
    ]
    return plane_graph_from_positions(6, edges, pos)


def _draw_eared_wheel() -> PlaneGraph:
    # Wheel on four rim vertices plus one ear outside each of two opposite
    # rim edges.
    pos = {
        0: (0.0, 0.0),
        1: (-1.0, -1.0),
        2: (1.0, -1.0),
        3: (1.0, 1.0),
        4: (-1.0, 1.0),
        5: (0.0, -1.8),
        6: (0.0, 1.8),
    }
    edges = [
        (0, 1), (0, 2), (0, 3), (0, 4),
        (1, 2), (2, 3), (3, 4), (4, 1),
        (5, 1), (5, 2), (6, 3), (6, 4),
    ]
    return plane_graph_from_positions(7, edges, pos)


def _b1p_positions() -> dict[int, Point]:
    return {
        0: (0.0, 0.0),
        1: (4.0, 0.0),
        2: (2.0, 3.0),
        3: (2.0, 1.0),
        4: (-0.4, 2.0),
        5: (4.4, 2.0),
        6: (2.0, -1.0),
    }


def _b1p_edges() -> list[tuple[int, int]]:
    return [
        (0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (2, 3),
        (0, 4), (2, 4), (1, 5), (2, 5),
    ]


def _draw_b1p() -> PlaneGraph:
    return plane_graph_from_positions(6, _b1p_edges(), _b1p_positions())


def _b2p_positions() -> dict[int, Point]:
    return {
        0: (0, 0), 1: (4, 0), 2: (2, 3.46), 3: (2, 1.15), 4: (2, 0.5),
        5: (2, -1.2), 6: (1.33, 0.55),
    }


def _b2p_edges() -> list[tuple[int, int]]:
    return [
        (0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (2, 3), (0, 4), (1, 4), (3, 4),
        (0, 5), (1, 5),
    ]


def _draw_b2p() -> PlaneGraph:
    # K5 minus one edge with an extra ear below the bottom edge (0, 1); the
    # outer face becomes the quadrilateral (2, 0, 5, 1).
    return plane_graph_from_positions(6, _b2p_edges(), _b2p_positions())


def _draw_b3p() -> PlaneGraph:
    edges = _b1p_edges() + [(0, 6), (1, 6)]
    return plane_graph_from_positions(7, edges, _b1p_positions())


def _draw_b4p() -> PlaneGraph:
    # B2p plus a second ear 6 on the equator edge (0, 3), drawn inside the
    # face (0, 3, 4); the two ears share the equator vertex 0.  The outer
    # face stays (2, 0, 5, 1) and the face (0, 4, 3, 6) becomes a 4-hole.
    #
    # This block goes beyond the paper's list of H5-free solid blocks: the
    # growth census, the direct census, the brute-force matcher and
    # networkx's monomorphism test all find it H5-free.  By hand: the hub
    # of an H5 needs degree >= 4, so it is an equator vertex 0, 1 or 3.
    # Every edge in the hub's neighbourhood meets one of the other two
    # equator vertices, so the theta's chord and the triangle's far edge
    # each take one of them; the chord's ends then have no common
    # neighbour left besides the vertex the triangle already uses.  Its
    # density is 6/7, so no bound changes.  The abstract alone does not
    # say whether the paper's lemma omits it or the list was copied short.
    edges = _b2p_edges() + [(0, 6), (3, 6)]
    return plane_graph_from_positions(7, edges, _b2p_positions())


def _draw_strip(order: int) -> PlaneGraph:
    # Square of a path: zigzag strip of order-2 triangles.
    pos = {i: (float(i), float(i % 2)) for i in range(order)}
    edges = [(i, i + 1) for i in range(order - 1)]
    edges += [(i, i + 2) for i in range(order - 2)]
    return plane_graph_from_positions(order, edges, pos)


def _draw_capped_strip(order: int) -> PlaneGraph:
    # Zigzag strip on order-1 vertices plus an apex below, joined to both
    # end rungs; the two apex edges to the top rail curve around the strip.
    if order == 6:
        # The capped strip degenerates at order six: its long face
        # closes into a triangle and the block coincides with B8.
        return _draw_triforce([(0, 1), (1, 2)])
    n = order
    strip = n - 1
    w = n - 1
    pos: dict[int, Point] = {i: (float(i), float(i % 2)) for i in range(strip)}
    pos[w] = ((n - 2) / 2.0, -2.0)
    edges = [(i, i + 1) for i in range(strip - 1)]
    edges += [(i, i + 2) for i in range(strip - 2)]
    edges += [(w, 0), (w, 1), (w, strip - 2), (w, strip - 1)]
    top_end = strip - 1 if (strip - 1) % 2 == 1 else strip - 2
    bends: dict[tuple[int, int], Point] = {
        (w, 1): (-2.0, -1.0),
        (1, w): (-2.0, -1.0),
        (w, top_end): (float(n), -1.0),
        (top_end, w): (float(n), -1.0),
    }
    outer = (w,) + tuple(range(1, top_end + 1, 2))
    return plane_graph_from_positions(n, edges, pos, bends=bends, outer_walk=outer)


def _draw_antiprism(order: int) -> PlaneGraph:
    import math

    k = order // 2
    pos: dict[int, Point] = {}
    for i in range(k):
        a = 2 * math.pi * i / k
        pos[i] = (2 * math.cos(a), 2 * math.sin(a))
    for i in range(k):
        a = 2 * math.pi * (i + 0.5) / k
        pos[k + i] = (0.8 * math.cos(a), 0.8 * math.sin(a))
    edges = [(i, (i + 1) % k) for i in range(k)]
    edges += [(k + i, k + (i + 1) % k) for i in range(k)]
    edges += [(i, k + i) for i in range(k)]
    edges += [((i + 1) % k, k + i) for i in range(k)]
    return plane_graph_from_positions(order, edges, pos)


#: Blocks that exist at one order only: name -> (pattern avoided, order,
#: counted 3-faces, drawing).
_FIXED: dict[str, tuple[str, int, int, Callable[[], PlaneGraph]]] = {
    "B1": ("H4", 3, 1, _draw_triangle),
    "B2": ("H4", 4, 3, _draw_k4),
    "B3": ("H4", 5, 4, _draw_triple_book),
    "B4": ("H4", 5, 4, lambda: _draw_wheel(5)),
    "B5": ("H4", 5, 5, _draw_k5_minus_edge),
    "B6": ("H4", 6, 4, _draw_triforce),
    "B7": ("H4", 6, 5, lambda: _draw_triforce([(0, 1)])),
    "B8": ("H4", 6, 6, lambda: _draw_triforce([(0, 1), (1, 2)])),
    "B9": ("H4", 6, 7, _draw_octahedron),
    "B10": ("H4", 7, 6, _draw_eared_wheel),
    "B1p": ("H5", 6, 5, _draw_b1p),
    "B2p": ("H5", 6, 6, _draw_b2p),
    "B3p": ("H5", 7, 6, _draw_b3p),
    "B4p": ("H5", 7, 6, _draw_b4p),
}

#: Blocks with one member per admissible order: name -> (pattern avoided,
#: parity "even"/"odd"/"any", minimum order, counted 3-faces at order n,
#: drawing at order n, density formula, density-table order).
_PARAMETRIC: dict[str, tuple[
    str, str, int, Callable[[int], int], Callable[[int], PlaneGraph], str, int
]] = {
    "B11": ("H4", "even", 4, lambda n: n - 2, _draw_strip, "(n-2)/n", 4),
    "B12": ("H4", "odd", 5, lambda n: n - 2, _draw_strip, "(n-2)/n", 5),
    "B13": ("H4", "odd", 7, lambda n: n - 1, _draw_capped_strip, "(n-1)/n", 7),
    "B14": ("H4", "even", 6, lambda n: n if n == 6 else n - 1,
            _draw_capped_strip, "(n-1)/n", 8),
    "B15": ("H4", "even", 6, lambda n: 7 if n == 6 else n, _draw_antiprism,
            "1", 8),
    "F": ("H5", "any", 4, lambda n: n - 2, _draw_fan, "(n-2)/n", 6),
    "W": ("H5", "any", 4, lambda n: n - 1, _draw_wheel, "(n-1)/n", 6),
}


def _normalise_block_name(name: str) -> str:
    cleaned = name.strip().replace("′", "'")
    if cleaned.startswith("B'") and cleaned[2:].isdigit():
        cleaned = "B" + cleaned[2:] + "'"
    cleaned = cleaned.replace("'", "p")
    if cleaned in _FIXED or cleaned in _PARAMETRIC:
        return cleaned
    raise FamilyError(f"unknown block name: {name!r}")


@lru_cache(maxsize=None)
def _catalog_block(name: str, order: int) -> CatalogBlock:
    if name in _FIXED:
        pattern, _, delta, draw = _FIXED[name]
        plane = draw()
    else:
        pattern, _, _, count, draw_at, _, _ = _PARAMETRIC[name]
        plane, delta = draw_at(order), count(order)
    if plane.n != order:
        raise FamilyError(f"{name}: drew {plane.n} vertices, expected {order}")
    dec = decompose(plane)
    if len(dec.blocks) != 1 or len(dec.components) != 1:
        raise FamilyError(
            f"{name}({order}): expected one triangular block, found "
            f"{len(dec.blocks)} blocks / {len(dec.components)} components"
        )
    block = dec.blocks[0]
    if block.vertices != frozenset(range(order)):
        raise FamilyError(f"{name}({order}): block does not span all vertices")
    if not block.is_solid:
        raise FamilyError(f"{name}({order}): block is not solid")
    if block.delta != delta:
        raise FamilyError(
            f"{name}({order}): drawing has {block.delta} counted 3-faces, "
            f"expected {delta}"
        )
    if not is_free(plane.graph, pattern):
        raise FamilyError(f"{name}({order}): drawing is not {pattern}-free")
    return CatalogBlock(
        name=name,
        order=order,
        plane=plane,
        delta=delta,
        density=Fraction(delta, order),
    )


def catalog_block(name: str, order: int | None = None) -> CatalogBlock:
    """Return the certified catalogue entry for a named triangular block.

    Args:
        name: ``"B1"`` ... ``"B15"``, ``"B1p"`` ... ``"B4p"`` (a prime may
            be written as ``'``), ``"W"`` (wheel) or ``"F"`` (fan).
        order: Vertex count; required for the parametric blocks
            (``B11``-``B15``, ``W``, ``F``) and optional, but checked, for
            the fixed ones.

    Raises:
        FamilyError: Unknown name, invalid order parity/range, or a failed
            self-certification of the drawing.
    """
    key = _normalise_block_name(name)
    if key in _FIXED:
        fixed = _FIXED[key][1]
        if order is not None and order != fixed:
            raise FamilyError(f"{key} exists only at order {fixed}, not {order}")
        return _catalog_block(key, fixed)
    _, parity, minimum, *_ = _PARAMETRIC[key]
    if order is None:
        raise FamilyError(f"{key} is parametric: an order is required")
    if order < minimum:
        raise FamilyError(f"{key} requires order >= {minimum}, got {order}")
    if parity not in ("any", ("even", "odd")[order % 2]):
        raise FamilyError(f"{key} requires an {parity} order, got {order}")
    return _catalog_block(key, order)


# ---------------------------------------------------------------------------
# Density table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DensityRow:
    """One row of the block density table.

    Attributes:
        table: ``"H4"`` or ``"H5"`` - which catalogue the row belongs to.
        name: Display name (with representative order for parametric rows).
        order: Order of the representative drawing.
        delta: Counted 3-faces of the representative drawing.
        density: Exact ``delta / order``.
        formula: Closed form of the density in the order (empty for fixed
            blocks).
    """

    table: str
    name: str
    order: int
    delta: int
    density: Fraction
    formula: str


_H4_TABLE = ("B1", "B2", "B3", "B4", "B5", "B6", "B7", "B8", "B9", "B10",
             "B11", "B12", "B13", "B14", "B15")
_H5_TABLE = ("B1p", "B2p", "B3p", "W", "F")


def density_table_rows(which: str = "all") -> tuple[DensityRow, ...]:
    """Rows of the block density table for one or both catalogues.

    Args:
        which: ``"H4"``, ``"H5"`` or ``"all"``.
    """
    key = which.upper()
    tables = {"H4": _H4_TABLE, "H5": _H5_TABLE}
    if key != "ALL" and key not in tables:
        raise FamilyError(f"unknown table selector: {which!r}")
    rows = []
    for table, names in tables.items():
        if key not in ("ALL", table):
            continue
        for name in names:
            formula, order = "", None
            if name in _PARAMETRIC:
                formula, order = _PARAMETRIC[name][5:]
            entry = catalog_block(name, order)
            rows.append(
                DensityRow(
                    table=table,
                    name=entry.display_name,
                    order=entry.order,
                    delta=entry.delta,
                    density=entry.density,
                    formula=formula,
                )
            )
    return tuple(rows)


# ---------------------------------------------------------------------------
# Expected block catalogues by order
# ---------------------------------------------------------------------------

_SHARED_SMALL = {3: ("B1",), 4: ("B2", "B11"), 5: ("B3", "B4", "B5", "B12")}

#: The solid blocks at orders 3-7, where the lists follow no rule.  Above
#: order 7 a pattern's list is its parametric blocks that exist there.
_SMALL_CATALOG: dict[str, dict[int, tuple[str, ...]]] = {
    "H4": {**_SHARED_SMALL, 6: ("B6", "B7", "B8", "B9", "B11"),
           7: ("B10", "B12", "B13")},
    "H5": {**_SHARED_SMALL, 6: ("B1p", "B2p", "B6", "F", "W"),
           7: ("B3p", "B4p", "F", "W")},
}


def expected_tb_catalog(pattern: str, max_order: int) -> dict[int, dict[str, Graph]]:
    """The complete list of solid triangular blocks per order.

    The ``H5`` list at order 7 holds ``B4p`` besides the paper's ``B3p``,
    ``F(7)`` and ``W(7)``; see ``_draw_b4p`` for why it belongs there.
    ``B4p`` is not ``H4``-free, so the ``H4`` list is the paper's.  The
    density tables (:func:`density_table_rows`) keep the paper's rows.

    Args:
        pattern: ``"H4"`` or ``"H5"`` - which freeness constraint the
            blocks satisfy.
        max_order: Largest order to include (at least 3).

    Returns:
        Mapping ``order -> {display name -> abstract graph}``.
    """
    key = pattern.upper()
    if key not in _SMALL_CATALOG:
        raise FamilyError(f"unknown pattern for block catalogue: {pattern!r}")
    if max_order < 3:
        raise FamilyError("max_order must be at least 3")
    out: dict[int, dict[str, Graph]] = {}
    for order in range(3, max_order + 1):
        names = _SMALL_CATALOG[key].get(order) or [
            name
            for name, (pat, parity, minimum, *_) in _PARAMETRIC.items()
            if pat == key and order >= minimum
            and parity in ("any", ("even", "odd")[order % 2])
        ]
        row: dict[str, Graph] = {}
        for name in names:
            entry = catalog_block(name, order)
            row[entry.display_name] = entry.graph
        out[order] = row
    return out


# ---------------------------------------------------------------------------
# Family instances
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FamilyInstance:
    """A constructed member of one of the extremal families.

    Attributes:
        name: Family name, e.g. ``"wheel_ring"``.
        params: The construction parameters, as sorted name/value pairs.
        plane: The constructed plane graph.
        expected_order: Vertex count the construction must produce.
        expected_size: Edge count the construction must produce.
        freeness: Name of the pattern this member must avoid, if any.
    """

    name: str
    params: tuple[tuple[str, int], ...]
    plane: PlaneGraph
    expected_order: int
    expected_size: int
    freeness: str | None

    def failures(self) -> tuple[str, ...]:
        """All self-check failures (empty when the instance is valid)."""
        problems = []
        if self.plane.n != self.expected_order:
            problems.append(
                f"order is {self.plane.n}, expected {self.expected_order}"
            )
        if self.plane.m != self.expected_size:
            problems.append(
                f"size is {self.plane.m}, expected {self.expected_size}"
            )
        if self.freeness is not None and not is_free(self.plane.graph, self.freeness):
            problems.append(f"graph contains a copy of {self.freeness}")
        return tuple(problems)

    def verify(self) -> None:
        """Raise :class:`FamilyError` if any self-check fails."""
        problems = self.failures()
        if problems:
            label = f"{self.name}({dict(self.params)})"
            raise FamilyError(f"{label}: " + "; ".join(problems))


def _finish(instance: FamilyInstance) -> FamilyInstance:
    instance.verify()
    return instance


def _k2_matching(
    name: str,
    n: int,
    spare: Point,
    spare_nbrs: tuple[int, int],
    outer: tuple[int, ...],
) -> FamilyInstance:
    """The H6-free family member ``name`` of order ``n``, drawn as the
    dominating pair 0, 1 over the rungs ``(2i, 2i + 1)`` stacked left to
    right, plus, at odd ``n``, the spare vertex ``n - 1`` at ``spare``
    joined to ``spare_nbrs``."""
    x, y = 0, 1
    pos: dict[int, Point] = {x: (0.0, float(n)), y: (0.0, -float(n))}
    edges: list[tuple[int, int]] = [(x, y)]
    for i in range(1, (n - 2) // 2 + 1):
        a, b = 2 * i, 2 * i + 1
        pos[a] = (2 * i - 0.5, 0.0)
        pos[b] = (2 * i + 0.5, 0.0)
        edges += [(a, b), (x, a), (x, b), (y, a), (y, b)]
    if n % 2 == 1:
        pos[n - 1] = spare
        edges += [(w, n - 1) for w in spare_nbrs]
    bends = {(x, y): (-2.0, 0.0), (y, x): (-2.0, 0.0)}
    plane = plane_graph_from_positions(n, edges, pos, bends=bends, outer_walk=outer)
    return _finish(
        FamilyInstance(
            name=name,
            params=(("n", n),),
            plane=plane,
            expected_order=n,
            expected_size=5 * n // 2 - 4,
            freeness="H6",
        )
    )


def k2_plus_matching(n: int) -> FamilyInstance:
    """Join of an edge with a perfect or near-perfect matching on ``n - 2``.

    Two dominating vertices are joined to each other and to ``n - 2``
    further vertices which induce a maximum matching (plus one extra
    isolated vertex when ``n`` is odd).  The result is planar, avoids
    ``H6`` and has ``floor(5n/2) - 4`` edges.

    Args:
        n: Total order, at least 6.
    """
    if n < 6:
        raise FamilyError("k2_plus_matching requires n >= 6")
    return _k2_matching(
        "k2_plus_matching", n, (n - 1.5, 0.0), (0, 1), (0, n - 1, 1)
    )


def k2_vee_matching(n: int) -> FamilyInstance:
    """Matching join with one extra degree-2 vertex across two rungs.

    As :func:`k2_plus_matching` on ``n - 1`` vertices of even order, but
    the spare vertex is placed between the first two matching edges and
    joined to one endpoint of each, splitting a quadrilateral face into
    two.  Avoids ``H6`` and has ``floor(5n/2) - 4`` edges.

    Args:
        n: Total order, odd and at least 7.
    """
    if n < 7 or n % 2 == 0:
        raise FamilyError("k2_vee_matching requires odd n >= 7")
    return _k2_matching("k2_vee_matching", n, (3.0, 0.0), (3, 4), (0, n - 2, 1))


def apex_outerplanar(n: int) -> FamilyInstance:
    """A dominating vertex over a triangle-free maximal outerplanar graph.

    The outerplanar part is an even cycle quadrangulated by chords from a
    single vertex; adding a vertex adjacent to everything yields a planar
    graph with ``floor(5n/2) - 4`` edges whose faces are triangles and
    quadrilaterals.  Every triangle passes through the dominating vertex,
    so no triangle is disjoint from a theta subgraph and the result is
    ``H6``-free.

    Args:
        n: Total order, odd and at least 7.
    """
    if n < 7 or n % 2 == 0:
        raise FamilyError("apex_outerplanar requires odd n >= 7")
    cycle = list(range(1, n))
    edges = [(cycle[i], cycle[(i + 1) % len(cycle)]) for i in range(len(cycle))]
    edges += [(1, t) for t in range(4, n - 2, 2)]
    ring = Graph.from_edges(n, edges)
    if not is_free(ring.induced(frozenset(cycle)), "C3"):
        raise FamilyError("apex_outerplanar: chorded cycle is not triangle-free")
    edges += [(0, v) for v in cycle]
    plane = embed(Graph.from_edges(n, edges))
    expected_faces = {3: n - 1, 4: (n - 3) // 2}
    if plane.face_vector() != expected_faces:
        raise FamilyError(
            f"apex_outerplanar({n}): face vector {plane.face_vector()}, "
            f"expected {expected_faces}"
        )
    return _finish(
        FamilyInstance(
            name="apex_outerplanar",
            params=(("n", n),),
            plane=plane,
            expected_order=n,
            expected_size=5 * n // 2 - 4,
            freeness="H6",
        )
    )


def wheel_ring(k: int) -> FamilyInstance:
    """A ring of ``k`` eared-wheel blocks sharing their two ear tips.

    Each of ``k`` wheel blocks contributes a quadrilateral rim with a hub;
    consecutive rims are linked by an edge, one common vertex ``P`` is
    joined to every top rim edge and another, ``Q``, to every bottom rim
    edge.  Every block becomes a copy of the eared wheel ``B10`` and the
    whole graph is one triangular component of density ``6k / (5k + 2)``.

    Args:
        k: Number of blocks, at least 3.
    """
    if k < 3:
        raise FamilyError("wheel_ring requires k >= 3")
    n = 5 * k + 2
    p, q = 5 * k, 5 * k + 1
    edges: list[tuple[int, int]] = []
    for i in range(k):
        a, b, bp, ap, hub = 5 * i, 5 * i + 1, 5 * i + 2, 5 * i + 3, 5 * i + 4
        edges += [(a, b), (b, bp), (bp, ap), (ap, a)]
        edges += [(hub, a), (hub, b), (hub, bp), (hub, ap)]
        edges += [(p, ap), (p, bp), (q, a), (q, b)]
        edges.append((bp, 5 * ((i + 1) % k)))
    plane = embed(Graph.from_edges(n, edges))
    expected_faces = {3: 6 * k, 4: 2 * k}
    if plane.face_vector() != expected_faces:
        raise FamilyError(
            f"wheel_ring({k}): face vector {plane.face_vector()}, "
            f"expected {expected_faces}"
        )
    dec = decompose(plane)
    if len(dec.blocks) != k or len(dec.components) != 1:
        raise FamilyError(
            f"wheel_ring({k}): expected {k} blocks in one component, found "
            f"{len(dec.blocks)} blocks / {len(dec.components)} components"
        )
    density = dec.components[0].density
    if density != Fraction(6 * k, 5 * k + 2):
        raise FamilyError(
            f"wheel_ring({k}): component density {density}, "
            f"expected {Fraction(6 * k, 5 * k + 2)}"
        )
    b10 = catalog_block("B10").graph
    for block in dec.blocks:
        sub = Graph.spanned_by(block.edges)
        if not is_isomorphic(sub, b10):
            raise FamilyError(f"wheel_ring({k}): a block is not a copy of B10")
    return _finish(
        FamilyInstance(
            name="wheel_ring",
            params=(("k", k),),
            plane=plane,
            expected_order=n,
            expected_size=13 * k,
            freeness="H4",
        )
    )


def b5_ring(k: int) -> FamilyInstance:
    """A cyclic arrangement of ``k`` near-complete 5-vertex blocks.

    Each block is a copy of ``B5`` (``K5`` minus one edge) meeting its
    neighbours only through connecting edges: the apexes form a cycle, the
    base vertices form a doubled cycle, and both rings are quadrangulated
    by chords.  The result is ``H5``-free with ``25k/2 - 4`` edges, every
    face a triangle or quadrilateral, and every triangular component a
    ``B5`` copy of density 1.

    Args:
        k: Number of blocks, even and at least 4.
    """
    if k < 4 or k % 2 != 0:
        raise FamilyError("b5_ring requires even k >= 4")
    n = 5 * k
    edges: list[tuple[int, int]] = []
    for i in range(k):
        v = i
        u1, u2 = k + 2 * i, k + 2 * i + 1
        ia, ib = 3 * k + 2 * i, 3 * k + 2 * i + 1
        edges += [
            (v, ia), (v, u1), (v, u2),
            (ia, ib), (ia, u1), (ia, u2),
            (ib, u1), (ib, u2), (u1, u2),
        ]
    edges += [(i, (i + 1) % k) for i in range(k)]
    edges += [(k + 2 * i + 1, k + 2 * ((i + 1) % k)) for i in range(k)]
    edges += [(0, j) for j in range(3, k - 2, 2)]
    edges += [(k, k + 2 * j + 1) for j in range(1, k - 1)]
    plane = embed(Graph.from_edges(n, edges))
    expected_faces = {3: 5 * k, 4: (5 * k - 4) // 2}
    if plane.face_vector() != expected_faces:
        raise FamilyError(
            f"b5_ring({k}): face vector {plane.face_vector()}, "
            f"expected {expected_faces}"
        )
    instance = _finish(
        FamilyInstance(
            name="b5_ring",
            params=(("k", k),),
            plane=plane,
            expected_order=n,
            expected_size=25 * k // 2 - 4,
            freeness="H5",
        )
    )
    report = verify_h5_extremal(plane)
    if not report.ok:
        raise FamilyError(f"b5_ring({k}): " + "; ".join(report.failures))
    return instance


def first_inner_quad(pg: PlaneGraph) -> Face:
    """The lexicographically first bounded quadrilateral face of ``pg``.

    Raises:
        FamilyError: The graph has no bounded 4-face.
    """
    quads = [f for f in pg.inner_faces() if f.length == 4]
    if not quads:
        raise FamilyError("plane graph has no bounded quadrilateral face")
    return min(quads, key=lambda f: f.walk)


def augment_with_b2prime(pg: PlaneGraph, face: Face) -> PlaneGraph:
    """Insert a ``B2p`` block into a bounded quadrilateral face.

    A copy of ``B2p`` is drawn inside ``face`` and matched to the face's
    four corners by four new edges, replacing the quadrilateral with four
    quadrilaterals and keeping every other face intact.  The insertion
    adds 6 vertices and 15 edges and preserves ``H5``-freeness of the
    hosts used by the extremal constructions.

    Args:
        pg: Host plane graph.
        face: A bounded 4-face of ``pg`` (as returned by, for example,
            :func:`first_inner_quad`).

    Returns:
        The augmented plane graph; vertices of ``pg`` keep their labels
        and the inserted block uses the next six labels.
    """
    if face not in pg.faces() or face == pg.outer:
        raise FamilyError("augment_with_b2prime requires a bounded face of pg")
    if face.length != 4:
        raise FamilyError(f"augment_with_b2prime requires a 4-face, got {face.length}")
    ins = catalog_block("B2p").plane
    ins_outer = ins.outer.walk
    host_cycle = face.walk
    # The host face is traversed with its interior on one side, the
    # insert's outer walk with its exterior on the same side; pairing the
    # host walk with the reversed insert walk keeps the annulus planar.
    partner = (ins_outer[0], ins_outer[3], ins_outer[2], ins_outer[1])
    shift = pg.n
    rotation = [list(r) for r in pg.rotation]
    rotation += [[v + shift for v in r] for r in ins.rotation]
    for j, w in enumerate(host_cycle):
        prev_host = host_cycle[j - 1]
        rot = rotation[w]
        rot.insert(rot.index(prev_host) + 1, partner[j] + shift)
    for j, w in enumerate(host_cycle):
        o = partner[j]
        t = ins_outer.index(o)
        prev_ins = ins_outer[t - 1] + shift
        rot = rotation[o + shift]
        rot.insert(rot.index(prev_ins) + 1, w)
    edges = [tuple(e) for e in pg.graph.edges]
    edges += [(a + shift, b + shift) for a, b in ins.graph.edges]
    edges += [(w, partner[j] + shift) for j, w in enumerate(host_cycle)]
    graph = Graph.from_edges(pg.n + 6, edges)
    return PlaneGraph.build(graph, rotation, outer_walk=pg.outer.walk)


def b5_ring_augmented(x: int, y: int) -> FamilyInstance:
    """A ``b5_ring`` with ``y`` successive ``B2p`` insertions.

    Starting from :func:`b5_ring` with ``2x`` blocks (order ``10x``), a
    copy of ``B2p`` is inserted into the first bounded quadrilateral face
    ``y`` times, giving order ``10x + 6y`` and ``floor(5n/2) - 4`` edges.

    Args:
        x: Half the number of ring blocks, at least 2.
        y: Number of insertions, at least 0.
    """
    if x < 2:
        raise FamilyError("b5_ring_augmented requires x >= 2")
    if y < 0:
        raise FamilyError("b5_ring_augmented requires y >= 0")
    plane = b5_ring(2 * x).plane
    for _ in range(y):
        plane = augment_with_b2prime(plane, first_inner_quad(plane))
    n = 10 * x + 6 * y
    instance = _finish(
        FamilyInstance(
            name="b5_ring_augmented",
            params=(("x", x), ("y", y)),
            plane=plane,
            expected_order=n,
            expected_size=5 * n // 2 - 4,
            freeness="H5",
        )
    )
    report = verify_h5_extremal(plane)
    if not report.ok:
        raise FamilyError(f"b5_ring_augmented({x},{y}): " + "; ".join(report.failures))
    return instance


#: Family name -> (parameter names, builder).
FAMILY_BUILDERS: dict[str, tuple[tuple[str, ...], Callable[..., FamilyInstance]]] = {
    "k2_plus_matching": (("n",), k2_plus_matching),
    "k2_vee_matching": (("n",), k2_vee_matching),
    "apex_outerplanar": (("n",), apex_outerplanar),
    "wheel_ring": (("k",), wheel_ring),
    "b5_ring": (("k",), b5_ring),
    "b5_ring_augmented": (("x", "y"), b5_ring_augmented),
}


#: Largest family parameter; a larger one would build for hours.
_MAX_PARAM = 1000


def family_instance(name: str, **params: int) -> FamilyInstance:
    """Build a family member by name with keyword parameters.

    Args:
        name: A key of :data:`FAMILY_BUILDERS`.
        **params: The family's parameters, e.g. ``n=10`` or ``x=2, y=1``.
    """
    if name not in FAMILY_BUILDERS:
        raise FamilyError(f"unknown family: {name!r}")
    wanted, builder = FAMILY_BUILDERS[name]
    if set(params) != set(wanted):
        raise FamilyError(
            f"{name} expects parameters {sorted(wanted)}, got {sorted(params)}"
        )
    for key, value in params.items():
        if value > _MAX_PARAM:
            raise FamilyError(f"{name}: {key}={value} exceeds the limit {_MAX_PARAM}")
    return builder(**params)


# ---------------------------------------------------------------------------
# Extremal structure verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtremalStructureReport:
    """Outcome of the structural test for edge-maximal ``H5``-free graphs.

    Attributes:
        component_shapes_ok: Every triangular component is a copy of
            ``B5`` or ``B2p``.
        cover_ok: The triangular components jointly cover every vertex.
        face_lengths_ok: Every face (outer included) has length 3 or 4.
        component_names: The matched block name per component, in
            decomposition order (``"?"`` for an unmatched component).
        failures: Human-readable failure descriptions (empty when all
            three conditions hold).
    """

    component_shapes_ok: bool
    cover_ok: bool
    face_lengths_ok: bool
    component_names: tuple[str, ...]
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        """Whether all three structural conditions hold."""
        return not self.failures


@lru_cache(maxsize=None)
def _h5_extremal_forms() -> dict[bytes, str]:
    return {
        canonical_form(catalog_block(name).graph): name
        for name in ("B5", "B2p")
    }


def h5_extremal_block(graph: Graph) -> str | None:
    """``"B5"`` or ``"B2p"`` when ``graph`` is a copy of that block, the
    two shapes of an ``H5``-extremal graph's triangular components, and
    ``None`` otherwise."""
    return _h5_extremal_forms().get(canonical_form(graph))


def verify_h5_extremal(pg: PlaneGraph) -> ExtremalStructureReport:
    """Check the three structural conditions of ``H5``-extremal graphs.

    The conditions are: every triangular component is a copy of ``B5`` or
    of ``B2p``; the components cover all vertices; and every face of the
    plane graph, the unbounded one included, is a 3-face or a 4-face.

    Args:
        pg: The plane graph to examine.
    """
    dec = decompose(pg)
    failures: list[str] = []
    names = [
        h5_extremal_block(Graph.spanned_by(component.edges)) or "?"
        for component in dec.components
    ]
    shapes_ok = "?" not in names
    if not shapes_ok:
        bad = names.count("?")
        failures.append(
            f"{bad} triangular component(s) are neither B5 nor B2p copies"
        )
    covered: set[int] = set()
    for component in dec.components:
        covered.update(component.vertices)
    cover_ok = covered == set(range(pg.n))
    if not cover_ok:
        missing = sorted(set(range(pg.n)) - covered)
        failures.append(f"vertices not covered by any component: {missing}")
    bad_faces = [f for f in pg.faces() if f.length not in (3, 4)]
    face_lengths_ok = not bad_faces
    if bad_faces:
        failures.append(
            f"{len(bad_faces)} face(s) of length outside {{3, 4}} "
            f"(first: length {bad_faces[0].length})"
        )
    return ExtremalStructureReport(
        component_shapes_ok=shapes_ok,
        cover_ok=cover_ok,
        face_lengths_ok=face_lengths_ok,
        component_names=tuple(names),
        failures=tuple(failures),
    )


# ---------------------------------------------------------------------------
# Numeric bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundValue:
    """A closed-form bound evaluated at one argument.

    Attributes:
        value: Exact value of the bound formula.
        in_range: Whether the argument lies in the stated validity range.
        stated_range: The validity range, as written.
    """

    value: Fraction
    in_range: bool
    stated_range: str


_BOUNDS: dict[str, tuple[Callable[[int], Fraction], Callable[[int], bool], str]] = {
    "thm1": (lambda n: Fraction(13 * n - 26, 5), lambda n: n >= 72, "n >= 72"),
    "thm2": (lambda n: Fraction(5 * n // 2 - 4), lambda n: n >= 6, "n >= 6"),
    "thm3": (lambda n: Fraction(5 * n // 2 - 4), lambda n: n >= 174, "n >= 174"),
    "lemma2": (
        lambda d: Fraction(6 * d - 12, 5 * d),
        lambda d: d >= 7,
        "component order >= 7",
    ),
    "lemma6": (lambda n: Fraction(n + 8, 2), lambda n: n >= 174, "n >= 174"),
}


def bound(n: int, which: str) -> BoundValue:
    """Evaluate a named closed-form bound at ``n``.

    Args:
        n: The argument (graph order, or component order for ``lemma2``).
        which: One of ``thm1``, ``thm2``, ``thm3``, ``lemma2``, ``lemma6``.

    Returns:
        The exact value together with whether ``n`` is inside the bound's
        stated range of validity.
    """
    key = which.strip().lower()
    if key not in _BOUNDS:
        raise FamilyError(f"unknown bound: {which!r}")
    formula, in_range, stated = _BOUNDS[key]
    if n < 1:
        raise FamilyError("bound argument must be a positive integer")
    return BoundValue(value=formula(n), in_range=in_range(n), stated_range=stated)

